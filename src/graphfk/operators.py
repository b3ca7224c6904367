"""Assembly of covariant Schrodinger operators on finite graphs.

The operator acts on sections f : X -> C^nu by

    A f(x) = (1/m(x)) sum_y b(x,y) (f(x) - Phi_{y,x} f(y)) + V(x) f(x),

self-adjoint with respect to the weighted inner product
<f, g>_m = sum_x (f(x), g(x)) m(x).  ``assemble`` materializes A as a
dense matrix, of dimension at most ``DIMENSION_CAP``, stored as-is
(non-Hermitian for non-constant m); ``symmetrize`` conjugates by
M^{1/2} to obtain a standard-Hermitian representative with the same
spectrum, which is the single bridge to standard eigensolvers.

``resolve`` turns (graph, connection, potential) into one ``Problem``,
the arcs with their weights and transports, the potential and the mode
the data imply, which the operator, the jump table of ``paths`` and
every CLI subcommand read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import Connection, Potential
from .errors import DimensionCap, RankMismatch
from .graphs import WeightedGraph, degrees

# The largest n * nu that ``assemble`` materializes: a dense complex
# matrix of that dimension takes 256 MiB
DIMENSION_CAP = 4096

# Ordered by inclusion: scalar data is magnetic data, magnetic is covariant.
MODES = ("scalar", "magnetic", "covariant")


@dataclass(frozen=True)
class Problem:
    """H_{Phi,V} data on arcs, resolved once.

    ``connection`` None is the trivial bundle; ``potential`` is always a
    Potential (zero when none was given).  Arc e runs src[e] -> dst[e]
    with weight w[e] and transport phi[e] = Phi_{src,dst}.  Arcs 2k and
    2k + 1 are edge k of the graph, (i, j) with i < j, in its two
    directions, i -> j first, so arc e ^ 1 is the reverse of arc e.
    ``phi`` is float64 when no transport has an imaginary part.
    """

    graph: WeightedGraph
    connection: Connection
    potential: Potential
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    phi: np.ndarray

    @property
    def rank(self):
        return self.potential.rank

    @property
    def mode(self):
        """scalar (trivial rank 1), magnetic (rank-1 connection), covariant."""
        if self.rank > 1:
            return "covariant"
        return "scalar" if self.connection is None else "magnetic"


def resolve(g: WeightedGraph, c: Connection = None, V=None) -> Problem:
    """The Problem of (g, c, V).

    ``V`` may be a Potential, a real vector (rank 1) or None (zero, of the
    connection's rank); ``c`` None is the identity connection, and
    InvalidConnection is raised unless c holds one transport per edge.
    """
    if V is None:
        rank = 1 if c is None else c.rank
        V = Potential(rank, np.zeros((g.n, rank, rank)))
    elif not isinstance(V, Potential):
        V = Potential.scalar(V)
    if c is not None and c.rank != V.rank:
        raise RankMismatch(f"potential rank {V.rank} != connection rank {c.rank}")
    if V.n != g.n:
        raise RankMismatch(f"potential defined on {V.n} vertices, graph has {g.n}")
    src, dst = g.edges.ravel(), g.edges[:, ::-1].ravel()
    w = np.repeat(g.weights, 2)
    nu = V.rank
    P = (Connection.identity(g, nu) if c is None else c).aligned(g)
    # each transport, then its reverse, the conjugate transpose
    phi = np.stack([P, P.conj().swapaxes(1, 2)], axis=1).reshape(-1, nu, nu)
    if not phi.imag.any():
        phi = phi.real
    return Problem(g, c, V, src, dst, w, phi)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix representative of H_{Phi,V} on the flat coordinate space.

    Block (x, y) occupies rows x*rank..(x+1)*rank.  ``measure`` records
    the weighted inner product the matrix is self-adjoint under.
    """

    graph: WeightedGraph
    rank: int
    matrix: np.ndarray
    measure: np.ndarray


def _coupling(p: Problem):
    """Phi_{dst,src} per arc: the transport that row src applies to f(dst)."""
    return p.phi[np.arange(p.src.size) ^ 1]


def assemble(g: WeightedGraph, c: Connection = None,
             V=None) -> OperatorMatrix:
    """Materialize H_{Phi,V} as a dense matrix.

    ``c`` and ``V`` are resolved as by ``resolve``.  The matrix is float64
    when no transport and no potential value has an imaginary part, and
    complex otherwise.  DimensionCap is raised, before anything of size
    n^2 is allocated, when n * nu exceeds ``DIMENSION_CAP``.
    """
    p = resolve(g, c, V)
    n, nu = g.n, p.rank
    if n * nu > DIMENSION_CAP:
        raise DimensionCap(f"dimension {n * nu} exceeds cap {DIMENSION_CAP}")
    Vvals = p.potential.values
    A = np.zeros((n, nu, n, nu), dtype=np.result_type(p.phi, Vvals))
    x = np.arange(n)
    A[x, :, x, :] = degrees(g).deg_m[:, None, None] * np.eye(nu) + Vvals
    # g stores each edge once, so each off-diagonal block is one arc
    A[p.src, :, p.dst, :] -= (
        (p.w / g.measure[p.src])[:, None, None] * _coupling(p))
    return OperatorMatrix(g, nu, A.reshape(n * nu, n * nu), g.measure)


def symmetrize(op: OperatorMatrix) -> np.ndarray:
    """S = M^{1/2} A M^{-1/2}, Hermitian, same spectrum as A.

    Real when A is real.  The scale ratio is exactly 1 on the diagonal,
    so S keeps the diagonal of A bit for bit.
    """
    scale = np.sqrt(np.repeat(op.measure, op.rank))
    S = op.matrix * (scale[:, None] / scale[None, :])
    # clean rounding noise; the exact conjugation is Hermitian
    return 0.5 * (S + S.conj().T)
