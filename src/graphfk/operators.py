"""Assembly of covariant Schrodinger operators on finite graphs.

The operator acts on sections f : X -> C^nu by

    A f(x) = (1/m(x)) sum_y b(x,y) (f(x) - Phi_{y,x} f(y)) + V(x) f(x),

self-adjoint with respect to the weighted inner product
<f, g>_m = sum_x (f(x), g(x)) m(x).  The matrix A is stored as-is
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
from .errors import DimensionCap, InvalidConnection, RankMismatch
from .graphs import WeightedGraph, degrees

DEFAULT_DIMENSION_CAP = 4096

# Ordered by inclusion: scalar data is magnetic data, magnetic is covariant.
MODES = ("scalar", "magnetic", "covariant")


@dataclass(frozen=True)
class Problem:
    """H_{Phi,V} data on arcs, resolved once.

    ``connection`` None is the trivial bundle; ``potential`` is always a
    Potential (zero when none was given).  Arc e runs src[e] -> dst[e]
    with weight w[e] and transport phi[e] = Phi_{src,dst}; arcs come in
    ``WeightedGraph.directed_edges`` order, so arc e ^ 1 is the reverse
    of arc e.  ``phi`` is float64 when no transport has an imaginary part.
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
    connection's rank); ``c`` None is the identity connection.
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
    pairs = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    src, dst = pairs.ravel(), pairs[:, ::-1].ravel()
    w = np.repeat(np.fromiter(g.edges.values(), float, len(g.edges)), 2)
    nu = V.rank
    if c is None:
        phi = np.broadcast_to(np.eye(nu), (src.size, nu, nu))
    else:
        for key in g.edges:
            if not c.has_edge(*key):
                raise InvalidConnection(f"connection missing edge {key}")
        phi = np.array([c.matrix(i, j) for i, j in zip(src.tolist(),
                                                       dst.tolist())],
                       dtype=complex).reshape(-1, nu, nu)
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

    @property
    def dimension(self):
        return self.matrix.shape[0]


def _as_section(f, n, rank):
    f = np.asarray(f, dtype=complex)
    if rank == 1 and f.shape == (n,):
        f = f.reshape(n, 1)
    if f.shape != (n, rank):
        raise RankMismatch(f"section must have shape ({n}, {rank}), got {f.shape}")
    return f


def _coupling(p: Problem):
    """Phi_{dst,src} per arc: the transport that row src applies to f(dst)."""
    return p.phi[np.arange(p.src.size) ^ 1]


def assemble(g: WeightedGraph, c: Connection = None, V=None,
             cap: int = DEFAULT_DIMENSION_CAP) -> OperatorMatrix:
    """Materialize H_{Phi,V} as a dense matrix.

    ``c`` and ``V`` are resolved as by ``resolve``.  The matrix is float64
    when no transport and no potential value has an imaginary part, and
    complex otherwise.
    """
    p = resolve(g, c, V)
    n, nu = g.n, p.rank
    if n * nu > cap:
        raise DimensionCap(f"dimension {n * nu} exceeds cap {cap}")
    Vvals = p.potential.values
    A = np.zeros((n, nu, n, nu), dtype=np.result_type(p.phi, Vvals))
    x = np.arange(n)
    A[x, :, x, :] = degrees(g).deg_m[:, None, None] * np.eye(nu) + Vvals
    # g.edges holds no multi-edges, so each off-diagonal block is one arc
    A[p.src, :, p.dst, :] -= (
        (p.w / g.measure[p.src])[:, None, None] * _coupling(p))
    return OperatorMatrix(g, nu, A.reshape(n * nu, n * nu), g.measure)


def apply_formal(g: WeightedGraph, c: Connection, V, f) -> np.ndarray:
    """Matrix-free evaluation of the operator on a section (n, nu)."""
    p = resolve(g, c, V)
    f = _as_section(f, g.n, p.rank)
    out = degrees(g).deg_m[:, None] * f
    hop = (_coupling(p) @ f[p.dst][:, :, None])[:, :, 0]
    np.subtract.at(out, p.src, (p.w / g.measure[p.src])[:, None] * hop)
    return out + (p.potential.values @ f[:, :, None])[:, :, 0]


def quadratic_form(g: WeightedGraph, c: Connection, f1, f2) -> complex:
    """Sesquilinear energy form of the free covariant operator.

    (1/2) sum over ordered neighbor pairs x~y of
    b(x,y) (f1(x) - Phi_{y,x} f1(y), f2(x) - Phi_{y,x} f2(y))_x,
    conjugate-linear in the second argument.
    """
    p = resolve(g, c)
    f1 = _as_section(f1, g.n, p.rank)
    f2 = _as_section(f2, g.n, p.rank)
    P = _coupling(p)
    d1 = f1[p.src] - (P @ f1[p.dst][:, :, None])[:, :, 0]
    d2 = f2[p.src] - (P @ f2[p.dst][:, :, None])[:, :, 0]
    return complex(0.5 * (p.w * np.sum(np.conj(d2) * d1, axis=1)).sum())


def degree_bound(g: WeightedGraph):
    """(C(b,m), 2 C(b,m), observed norm) for the free scalar operator.

    The observed norm is the largest-magnitude eigenvalue of the
    V = 0, identity-connection operator; it must not exceed 2 C(b,m).
    """
    deg = degrees(g)
    c_bm = deg.c_bm
    S = symmetrize(assemble(g))
    lam = np.linalg.eigvalsh(S)
    observed = float(np.abs(lam).max())
    if observed > 2.0 * c_bm + 1e-9:
        raise AssertionError(
            f"operator norm {observed} exceeds bound {2.0 * c_bm}")
    return c_bm, 2.0 * c_bm, observed


def symmetrize(op: OperatorMatrix) -> np.ndarray:
    """S = M^{1/2} A M^{-1/2}, Hermitian, same spectrum as A.

    Real when A is real.  The scale ratio is exactly 1 on the diagonal,
    so S keeps the diagonal of A bit for bit.
    """
    scale = np.sqrt(np.repeat(op.measure, op.rank))
    S = op.matrix * (scale[:, None] / scale[None, :])
    # clean rounding noise; the exact conjugation is Hermitian
    return 0.5 * (S + S.conj().T)
