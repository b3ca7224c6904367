"""Exact spectral calculus: eigendecompositions, heat kernels, traces
and the Kato functional.

Everything here runs through a dense eigensolve of the symmetrized
operator (desk scale, deterministic), so semigroups and partition
functions are exact up to linear-algebra rounding.  Traces need only
eigenvalues (``eigenvalues``, or ``hermitian_eigenvalues`` on a matrix
already symmetrized); kernels and propagators take the full
decomposition (``eigendecompose``).  Both solve in real arithmetic
when the assembled operator is real.  ``kato_functional`` takes a whole
grid of times on one decomposition of the free operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def hermitian_eigenvalues(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, e.g. a ``symmetrize``
    output; S is left as it was."""
    try:
        return np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue solve failed: {exc}") from exc


def eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized operator, no eigenvectors."""
    return hermitian_eigenvalues(symmetrize(op))


def _weights(dec: SpectralDecomposition):
    return np.repeat(dec.measure, dec.rank)


def propagator(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Matrix of e^{-tA} in the original (unsymmetrized) coordinates.

    (e^{-tA})_{xy} = K(t, x, y) m(y), the heat kernel against the measure.
    """
    return heat_kernel(dec, t).matrix * _weights(dec)


def heat_kernel(dec: SpectralDecomposition, t: float) -> HeatKernel:
    """Heat kernel at time t > 0 via functional calculus."""
    if not t > 0:  # NaN fails it too
        raise BadCoefficients("heat kernel needs t > 0")
    w = np.sqrt(_weights(dec))
    core = (dec.vectors * np.exp(-t * dec.eigenvalues)) @ dec.vectors.conj().T
    K = (core / w[:, None]) / w[None, :]
    return HeatKernel(float(t), K, dec.measure, dec.rank)


def partition_function(lam: np.ndarray, t: float) -> float:
    """tr(e^{-tH}) = sum_k e^{-t lambda_k} from the eigenvalues lam."""
    if not t > 0:  # NaN fails it too
        raise BadCoefficients("partition function needs t > 0")
    return math.fsum(np.exp(-t * np.asarray(lam)))


def kato_functional(g: WeightedGraph, w, t):
    """sup_x int_0^t sum_y p(s,x,y) |w(y)| m(y) ds for the free scalar kernel.

    With S = U diag(lambda) U^T the symmetrized free operator,
    p(s, x, y) m(y) = m(x)^{-1/2} (U e^{-s lambda} U^T)_{xy} m(y)^{1/2}, so
    the time integral is exact: int_0^t e^{-s lambda} ds =
    -expm1(-t lambda) / lambda, equal to t where t lambda = 0.

    ``t`` is a time or an array of times, and the result has its shape,
    as ``np.exp`` gives it: a float for a float.  Every time is checked
    before the solve; S is decomposed, and U^T (m^{1/2} |w|) formed, once
    for all of them.
    """
    times = np.asarray(t, dtype=float)
    if not np.all(times > 0):  # NaN fails it too
        raise BadCoefficients("kato functional needs t > 0")
    w = np.asarray(w, dtype=float)
    dec = eigendecompose(assemble(g))
    sq = np.sqrt(g.measure)
    U = dec.vectors
    proj = U.T @ (sq * np.abs(w))
    out = np.empty(times.shape)
    for i, ti in np.ndenumerate(times):
        x = ti * dec.eigenvalues
        ratio = np.ones_like(x)
        np.divide(-np.expm1(-x), x, out=ratio, where=x != 0)
        out[i] = ((U @ (ti * ratio * proj)) / sq).max()
    return float(out) if out.ndim == 0 else out

