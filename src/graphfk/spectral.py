"""Exact spectral calculus: eigendecompositions, heat kernels, traces.

Everything here runs through a dense eigensolve of the symmetrized
operator (desk scale, deterministic), so semigroups and partition
functions are exact up to linear-algebra rounding.  Traces need only
eigenvalues (``eigenvalues``); kernels and propagators take the full
decomposition (``eigendecompose``).  Both solve in real arithmetic
when the assembled operator is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundles import Connection, Potential
from .errors import BadCoefficients, NumericalFailure
from .graphs import WeightedGraph
from .operators import OperatorMatrix, assemble, symmetrize


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of the symmetrized operator plus the weighted metric.

    ``vectors`` is unitary with S = U diag(eigenvalues) U*.  The measure
    and rank are kept so heat kernels can be reconstructed in the
    weighted space.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    measure: np.ndarray
    rank: int

    @property
    def dimension(self):
        return self.eigenvalues.size


@dataclass(frozen=True)
class HeatKernel:
    """Kernel K(t, x, y) of e^{-tH}: (e^{-tH} f)(x) = sum_y K(t,x,y) f(y) m(y)."""

    time: float
    matrix: np.ndarray  # (n*nu, n*nu), block (x, y) is the nu x nu kernel block
    measure: np.ndarray
    rank: int

    def block(self, x, y):
        nu = self.rank
        return self.matrix[x * nu:(x + 1) * nu, y * nu:(y + 1) * nu]


def eigendecompose(op: OperatorMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of the symmetrized operator."""
    S = symmetrize(op)
    try:
        lam, U = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(lam, U, op.measure, op.rank)


def eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized operator, no eigenvectors."""
    try:
        return np.linalg.eigvalsh(symmetrize(op))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue solve failed: {exc}") from exc


def _weights(dec: SpectralDecomposition):
    return np.repeat(dec.measure, dec.rank)


def propagator(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Matrix of e^{-tA} in the original (unsymmetrized) coordinates.

    (e^{-tA})_{xy} = K(t, x, y) m(y), the heat kernel against the measure.
    """
    return heat_kernel(dec, t).matrix * _weights(dec)


def heat_kernel(dec: SpectralDecomposition, t: float) -> HeatKernel:
    """Heat kernel at time t > 0 via functional calculus."""
    if t <= 0:
        raise BadCoefficients("heat kernel needs t > 0")
    w = np.sqrt(_weights(dec))
    core = (dec.vectors * np.exp(-t * dec.eigenvalues)) @ dec.vectors.conj().T
    K = (core / w[:, None]) / w[None, :]
    return HeatKernel(float(t), K, dec.measure, dec.rank)


def partition_function(lam: np.ndarray, t: float) -> float:
    """tr(e^{-tH}) = sum_k e^{-t lambda_k} from the eigenvalues lam."""
    if t <= 0:
        raise BadCoefficients("partition function needs t > 0")
    return math.fsum(np.exp(-t * np.asarray(lam)))


def kernel_trace(dec: SpectralDecomposition, t: float) -> float:
    """Trace recomputed as sum_x tr_x K(t,x,x) m(x) (basis independence check)."""
    K = heat_kernel(dec, t)
    total = 0.0
    for x in range(dec.measure.size):
        total += np.trace(K.block(x, x)).real * dec.measure[x]
    return total


def kato_functional(g: WeightedGraph, w, t: float) -> float:
    """sup_x int_0^t sum_y p(s,x,y) |w(y)| m(y) ds for the free scalar kernel.

    With S = U diag(lambda) U^T the symmetrized free operator,
    p(s, x, y) m(y) = m(x)^{-1/2} (U e^{-s lambda} U^T)_{xy} m(y)^{1/2}, so
    the time integral is exact: int_0^t e^{-s lambda} ds =
    -expm1(-t lambda) / lambda, equal to t where t lambda = 0.
    """
    if t <= 0:
        raise BadCoefficients("kato functional needs t > 0")
    w = np.asarray(w, dtype=float)
    dec = eigendecompose(assemble(g))
    sq = np.sqrt(g.measure)
    x = t * dec.eigenvalues
    ratio = np.ones_like(x)
    np.divide(-np.expm1(-x), x, out=ratio, where=x != 0)
    U = dec.vectors
    values = (U @ (t * ratio * (U.T @ (sq * np.abs(w))))) / sq
    return float(values.max())


def relative_form_bound_check(g: WeightedGraph, c: Connection,
                              V_minus: Potential, C1: float, C2: float):
    """Check Q_{V^-}(f) <= C1 Q_{Phi,0}(f) + C2 ||f||_m^2 for all f.

    Equivalent to C1 H_{Phi,-V^-/C1} + C2 >= 0; returns (holds, margin)
    with margin the smallest eigenvalue of the symmetrized operator.
    """
    if not (0.0 < C1 < 1.0) or C2 < 0.0:
        raise BadCoefficients("need C1 in (0,1) and C2 >= 0")
    # V^- / (-C1) is -V^-/C1
    op = assemble(g, c, V_minus.scaled(-C1))
    shifted = OperatorMatrix(
        g, op.rank, C1 * op.matrix + C2 * np.eye(op.dimension), g.measure)
    lam_min = float(np.linalg.eigvalsh(symmetrize(shifted))[0])
    return lam_min >= -1e-10, lam_min
