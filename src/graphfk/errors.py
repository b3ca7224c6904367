"""Exception hierarchy shared across the package."""


class GraphFKError(Exception):
    """Base class for all package errors."""


class DuplicateLabel(GraphFKError):
    pass


class NonpositiveWeight(GraphFKError):
    pass


class NonpositiveMeasure(GraphFKError):
    pass


class SelfLoop(GraphFKError):
    pass


class AsymmetricInput(GraphFKError):
    pass


class BadParams(GraphFKError):
    pass


class UnknownIndex(GraphFKError):
    pass


class NonHermitian(GraphFKError):
    pass


class RankMismatch(GraphFKError):
    pass


class InvalidConnection(GraphFKError):
    pass


class DimensionCap(GraphFKError):
    pass


class NumericalFailure(GraphFKError):
    pass


class BadCoefficients(BadParams):
    """A time out of range."""


class ConfigError(GraphFKError):
    pass


class IOFailure(GraphFKError):
    pass
