"""Schrodinger operators on finite weighted graphs.

Exact spectral calculus, semiclassical trace sweeps, and jump-process
Feynman-Kac Monte Carlo for scalar, magnetic, and covariant operators.
"""

from .bundles import (
    Connection,
    Potential,
    connection_from_magnetic,
    validate_connection,
)
from .graphs import (
    WeightedGraph,
    build_graph,
    degrees,
    generate,
)
from .operators import (
    OperatorMatrix,
    assemble,
    symmetrize,
)
from .paths import (
    EstimatorReport,
    estimate_partition,
    path_stream,
)
from .semiclassics import (
    SweepConfig,
    SweepResult,
    classical_partition,
    golden_thompson_margin,
    semiclassical_trace,
    sweep,
)
from .spectral import (
    HeatKernel,
    SpectralDecomposition,
    eigendecompose,
    eigenvalues,
    heat_kernel,
    kato_functional,
    partition_function,
)

__version__ = "0.1.0"
