"""Schrodinger operators on finite weighted graphs.

Exact spectral calculus, semiclassical trace sweeps, and jump-process
Feynman-Kac Monte Carlo for scalar, magnetic, and covariant operators.
"""

from .bundles import (
    Connection,
    Potential,
    connection_from_magnetic,
    decompose_potential,
    spectral_floor,
    validate_connection,
)
from .graphs import (
    ExhaustionSequence,
    WeightedGraph,
    build_graph,
    degrees,
    generate,
    is_connected,
    restrict,
)
from .operators import (
    OperatorMatrix,
    apply_formal,
    assemble,
    degree_bound,
    quadratic_form,
    symmetrize,
)
from .paths import (
    EstimatorReport,
    estimate_heat_kernel,
    estimate_partition,
    path_stream,
)
from .semiclassics import (
    SweepConfig,
    SweepResult,
    classical_partition,
    exhaustion_sweep,
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
    relative_form_bound_check,
)

__version__ = "0.1.0"
