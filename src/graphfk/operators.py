"""Assembly of covariant Schrodinger operators on finite graphs.

The operator acts on sections f : X -> C^nu by

    A f(x) = (1/m(x)) sum_y b(x,y) (f(x) - Phi_{y,x} f(y)) + V(x) f(x),

self-adjoint with respect to the weighted inner product
<f, g>_m = sum_x (f(x), g(x)) m(x).  The matrix A is stored as-is
(non-Hermitian for non-constant m); ``symmetrize`` conjugates by
M^{1/2} to obtain a standard-Hermitian representative with the same
spectrum, which is the single bridge to standard eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import Connection, Potential
from .errors import DimensionCap, InvalidConnection, RankMismatch
from .graphs import WeightedGraph, degrees

DEFAULT_DIMENSION_CAP = 4096


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

    def symmetrized(self):
        return symmetrize(self)


def _as_section(f, n, rank):
    f = np.asarray(f, dtype=complex)
    if rank == 1 and f.shape == (n,):
        f = f.reshape(n, 1)
    if f.shape != (n, rank):
        raise RankMismatch(f"section must have shape ({n}, {rank}), got {f.shape}")
    return f


def _potential_values(V, g, rank):
    if V is None:
        return np.zeros((g.n, rank, rank), dtype=complex)
    if not isinstance(V, Potential):
        V = Potential.scalar(np.asarray(V, dtype=float))
    if V.rank != rank:
        raise RankMismatch(f"potential rank {V.rank} != connection rank {rank}")
    if V.n != g.n:
        raise RankMismatch(f"potential defined on {V.n} vertices, graph has {g.n}")
    return V.values


def _resolve_connection(g, c, V):
    if c is None:
        rank = V.rank if isinstance(V, Potential) else 1
        c = Connection.identity(g, rank)
    for key in g.edges:
        if not c.has_edge(*key):
            raise InvalidConnection(f"connection missing edge {key}")
    return c


def assemble(g: WeightedGraph, c: Connection = None, V=None,
             cap: int = DEFAULT_DIMENSION_CAP) -> OperatorMatrix:
    """Materialize H_{Phi,V} as a dense matrix.

    ``c`` defaults to the identity connection (scalar Laplacian for
    rank 1); ``V`` may be a Potential, a real vector (scalar), or None.
    The matrix is float64 when no edge matrix and no potential value has
    an imaginary part, and complex otherwise.
    """
    c = _resolve_connection(g, c, V)
    nu = c.rank
    dim = g.n * nu
    if dim > cap:
        raise DimensionCap(f"dimension {dim} exceeds cap {cap}")
    Vvals = _potential_values(V, g, nu)
    edges = list(g.directed_edges())
    # Phi_{j,i} for the coupling block at row x=i, column y=j
    Phi = np.array([c.matrix(j, i) for i, j, _w in edges],
                   dtype=complex).reshape(-1, nu, nu)
    if not (Phi.imag.any() or Vvals.imag.any()):
        Phi, Vvals = Phi.real, Vvals.real
    deg = degrees(g)
    A = np.zeros((dim, dim), dtype=Vvals.dtype)
    for x in range(g.n):
        sl = slice(x * nu, (x + 1) * nu)
        A[sl, sl] = deg.deg_m[x] * np.eye(nu) + Vvals[x]
    for (i, j, w), P in zip(edges, Phi):
        A[i * nu:(i + 1) * nu, j * nu:(j + 1) * nu] -= (
            w / g.measure[i]) * P
    return OperatorMatrix(g, nu, A, g.measure)


def apply_formal(g: WeightedGraph, c: Connection, V, f) -> np.ndarray:
    """Matrix-free evaluation of the operator on a section (n, nu)."""
    c = _resolve_connection(g, c, V)
    nu = c.rank
    f = _as_section(f, g.n, nu)
    Vvals = _potential_values(V, g, nu)
    deg = degrees(g)
    out = deg.deg_m[:, None] * f
    for i, j, w in g.directed_edges():
        out[i] -= (w / g.measure[i]) * (c.matrix(j, i) @ f[j])
    for x in range(g.n):
        out[x] += Vvals[x] @ f[x]
    return out


def quadratic_form(g: WeightedGraph, c: Connection, f1, f2) -> complex:
    """Sesquilinear energy form of the free covariant operator.

    (1/2) sum over ordered neighbor pairs x~y of
    b(x,y) (f1(x) - Phi_{y,x} f1(y), f2(x) - Phi_{y,x} f2(y))_x,
    conjugate-linear in the second argument.
    """
    c = _resolve_connection(g, c, None) if c is None else c
    nu = c.rank
    f1 = _as_section(f1, g.n, nu)
    f2 = _as_section(f2, g.n, nu)
    total = 0.0 + 0.0j
    for x, y, w in g.directed_edges():
        P = c.matrix(y, x)
        d1 = f1[x] - P @ f1[y]
        d2 = f2[x] - P @ f2[y]
        total += 0.5 * w * np.vdot(d2, d1)  # vdot conjugates its first arg
    return complex(total)


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
