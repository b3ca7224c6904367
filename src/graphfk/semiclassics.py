"""Semiclassical trace sweeps, Golden-Thompson margins, sandwich bounds.

The quantum partition function tr(e^{-beta hbar H_{Phi, V/hbar}}) is
squeezed, in the scalar nonmagnetic case, between

    sum_x e^{-deg_m(x) beta hbar} e^{-beta w(x)}   (lower)
    sum_x e^{-beta w(x)}                           (upper),

so it converges to the classical partition sum as hbar -> 0+.  For
magnetic and covariant operators only the upper bound is available; the
lower column is still reported (with the fiberwise classical terms
tr_x e^{-beta V(x)} in place of e^{-beta w(x)}) but never asserted.

The lower bound is the no-jump term Z_0 of the Dyson series of the
trace.  ``two_jump_terms`` gives the next nonzero term, Z_2, in closed
form; in the scalar case every term of the series is nonnegative, so
Z_0 + Z_2 <= trace is a sharper lower bound, and the sweep asserts it.

``three_jump_terms``, ``four_jump_terms`` and ``six_jump_terms`` give
Z_3, Z_4 and Z_6 per vertex, exactly: each closed walk of k jumps
contributes its hops times t^k times a divided difference of exp over
the k + 1 values deg_m + lam it holds at (Hermite-Genocchi), and
``_divided_exp`` takes those, batched, from the exponential of the
bidiagonal Opitz matrix: by its series where the values spread little,
by scaling and squaring where they spread widely.  The closed 4- and
6-walks are joined from pairs of 2- and 3-paths with the same ends, by
one routine.  The Monte Carlo trace estimator adds the strata; the sweep
does not, and its check stays Z_0 + Z_2 <= trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Connection, Potential
from .errors import BadParams
from .graphs import (ExhaustionSequence, WeightedGraph, degrees, edge_mask,
                     restrict, triangles)
from .operators import Problem, _coupling, assemble, resolve, symmetrize
from .spectral import eigenvalues, hermitian_eigenvalues, partition_function
# not called here; kept because perfbench/tracer.py rebinds it
from .spectral import eigendecompose  # noqa: F401


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of a semiclassical sweep over a decreasing hbar schedule.

    The mode is not an input: ``sweep`` derives it from the connection
    and the potential (``operators.Problem.mode``).
    """

    graph: WeightedGraph
    beta: float
    hbar_schedule: tuple
    potential: Potential = None
    connection: Connection = None

    def __post_init__(self):
        if not self.beta > 0:  # NaN fails it too
            raise BadParams("beta must be positive")
        sched = tuple(float(h) for h in self.hbar_schedule)
        if not sched or any(not h > 0 for h in sched):
            raise BadParams("hbar schedule entries must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise BadParams("hbar schedule must be strictly decreasing")
        object.__setattr__(self, "hbar_schedule", sched)


@dataclass
class SweepRow:
    hbar: float
    trace: float
    lower: float
    upper: float
    gap: float


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)
    classical_value: float = 0.0
    converged: bool = False
    gap_ratios: list = field(default_factory=list)

    def to_csv(self):
        lines = ["hbar,trace,lower,upper,gap"]
        for r in self.rows:
            lines.append(
                f"{r.hbar:.17g},{r.trace:.17g},{r.lower:.17g},"
                f"{r.upper:.17g},{r.gap:.17g}"
            )
        lines.append(
            f"# classical_value={self.classical_value:.17g},"
            f"converged={str(self.converged).lower()}"
        )
        return "\n".join(lines) + "\n"


def _classical_terms(V: Potential, beta: float) -> np.ndarray:
    """Per-vertex terms tr_x e^{-beta V(x)} (scalar: e^{-beta w(x)})."""
    return np.exp(-beta * np.linalg.eigvalsh(V.values)).sum(axis=1)


def classical_partition(V, beta: float) -> float:
    """sum_x tr_x e^{-beta V(x)} (scalar: sum_x e^{-beta w(x)})."""
    if not beta > 0:  # NaN fails it too
        raise BadParams("beta must be positive")
    if not isinstance(V, Potential):
        V = Potential.scalar(V)
    return float(_classical_terms(V, beta).sum())


def _traces(problem: Problem, beta: float, schedule):
    """tr(e^{-beta hbar H_{Phi, V/hbar}}) for each hbar of ``schedule``.

    The hops do not depend on hbar, so the free operator is assembled and
    symmetrized once; each hbar then writes the diagonal blocks
    0.5 (B + B^H), B = deg_m + V/hbar, in place, as ``symmetrize`` of the
    assembled H_{Phi, V/hbar} holds them (its scale ratio is exactly 1
    there), and solves for the eigenvalues.  V / hbar is taken in the
    arithmetic of V's values.
    """
    g, nu = problem.graph, problem.rank
    S = symmetrize(assemble(g, problem.connection,
                            Potential(nu, np.zeros((g.n, nu, nu)))))
    # complex as soon as the hops or V are, as the assembled matrix is
    S = S.astype(np.result_type(S, problem.potential.values), copy=False)
    blocks = S.reshape(g.n, nu, g.n, nu)
    deg = degrees(g).deg_m[:, None, None] * np.eye(nu)
    diag = np.arange(g.n)
    for hbar in schedule:
        B = deg + problem.potential.scaled(hbar).values
        blocks[diag, :, diag, :] = 0.5 * (B + B.conj().swapaxes(1, 2))
        yield partition_function(hermitian_eigenvalues(S), beta * hbar)


def semiclassical_trace(g: WeightedGraph, c: Connection, V,
                        beta: float, hbar: float) -> float:
    """tr(e^{-beta hbar H_{Phi, V/hbar}})."""
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    return next(_traces(resolve(g, c, V), beta, (hbar,)))


def sandwich_bounds(g: WeightedGraph, w, beta: float, hbar: float):
    """(lower, upper) bracketing the scalar nonmagnetic quantum trace."""
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    w = resolve(g, None, w).potential.as_scalar()
    deg_m = degrees(g).deg_m
    upper = float(np.exp(-beta * w).sum())
    lower = float((np.exp(-deg_m * beta * hbar) * np.exp(-beta * w)).sum())
    return lower, upper


def golden_thompson_margin(g: WeightedGraph, c: Connection, V,
                           t: float) -> float:
    """Classical minus quantum trace at time t; nonnegative by theory."""
    if not t > 0:  # NaN fails it too
        raise BadParams("t must be positive")
    V = resolve(g, c, V).potential
    lam = eigenvalues(assemble(g, c, V))
    return classical_partition(V, t) - partition_function(lam, t)


def _series(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule (numpy.polynomial would add
    a few milliseconds to the package import)."""
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


# Taylor coefficients of psi(z) = int_0^1 s e^{-sz} ds, (-1)^k / (k! (k + 2)),
# and of chi(z) = int_0^1 (1 - s) e^{-sz} ds, (-1)^k / (k + 2)!; below
# _SERIES_CUT the closed forms cancel, and 20 terms leave under 1e-19 there
_SERIES_CUT = 1.0
_PSI = np.array([(-1) ** k / (math.factorial(k) * (k + 2)) for k in range(20)])
_CHI = np.array([(-1) ** k / math.factorial(k + 2) for k in range(20)])


def _psi_chi(z):
    """(psi(z), chi(z)) for z >= 0, psi(z) = int_0^1 s e^{-sz} ds and
    chi(z) = int_0^1 (1 - s) e^{-sz} ds: the series below the cut, the
    closed forms (-expm1(-z) - z e^{-z}) / z^2 and (z + expm1(-z)) / z^2,
    accurate to a few units in the last place, from it up (McCurdy, Ng &
    Parlett, Math. Comp. 43 (1984) 501)."""
    small = z < _SERIES_CUT
    zs = np.where(small, z, 0.0)
    zc = np.where(small, _SERIES_CUT, z)
    em = np.expm1(-zc)
    return (np.where(small, _series(_PSI, zs),
                     (-em - zc * np.exp(-zc)) / zc ** 2),
            np.where(small, _series(_CHI, zs), (zc + em) / zc ** 2))


def _two_jump_integral(alpha, beta, t):
    """I(alpha, beta) = int_0^t u e^{-u alpha} e^{-(t - u) beta} du,
    elementwise: t^2 e^{-t beta} psi(t (alpha - beta)) for alpha >= beta,
    and t^2 e^{-t alpha} chi(t (beta - alpha)) by the mirror s -> 1 - s
    for alpha < beta, so no exponential grows."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float),
                                      np.asarray(beta, float))
    psi, chi = _psi_chi(t * np.abs(alpha - beta))
    return t * t * np.exp(-t * np.minimum(alpha, beta)) * np.where(
        alpha >= beta, psi, chi)


def _eigenbasis(problem: Problem, hbar: float):
    """(lam, W): the eigenvalues of V(x)/hbar = Q_x diag(lam_x) Q_x^H,
    shape (n, nu), and per arc x -> y the factor W = Q_x^H Phi_{y,x} Q_y,
    shape (2E, nu, nu), that a jump along it puts into a Dyson weight
    taken in the eigenbases.  V / hbar is taken in the arithmetic of V's
    values; at rank 1 lam is that value and W is Phi (``eigh`` would
    round a magnetic rank 1 differently)."""
    nu = problem.rank
    values = problem.potential.scaled(hbar).values
    back = _coupling(problem)  # Phi_{y,x} on the arc x -> y
    if nu == 1:
        return values[:, :, 0].real, back
    lam, Q = np.linalg.eigh(values)
    return lam, Q[problem.src].conj().swapaxes(1, 2) @ back @ Q[problem.dst]


def _arc_factors(problem: Problem, hbar: float):
    """(a, W, hop) of the Dyson strata of e^{-t H_{Phi, V/hbar}}: a =
    deg_m + lam, shape (n, nu), and W as in ``_eigenbasis``; an arc x ->
    y puts hop = b(x,y)/m_x, shape (2E,), and W into the weight of a
    walk along it."""
    g = problem.graph
    lam, W = _eigenbasis(problem, hbar)
    return (degrees(g).deg_m[:, None] + lam, W,
            problem.w / g.measure[problem.src])


def two_jump_terms(problem: Problem, t: float, hbar: float = 1.0):
    """Per vertex x, the two-jump term Z_2(x) of tr e^{-t H_{Phi, V/hbar}}.

    H = D - K splits into its diagonal blocks D_x = deg_m(x) + V(x)/hbar
    and the hops K_xy = b(x,y)/m_x Phi_{y,x}.  Z_k(x) is the trace at x of
    the term of the Dyson series of e^{-tH} with k factors K; in the
    scalar case every term is nonnegative.  With a and W as in
    ``_arc_factors``,

        Z_2(x) = sum_{y~x} b(x,y)^2/(m_x m_y) sum_ab |W_ab|^2 I(a_xa, a_yb),

    I as in ``_two_jump_integral``: by the cyclicity of the trace the two
    holds at x merge into one of total time u, and the splits of u weigh
    it by u.  Z_0(x) = sum_a e^{-t a_xa} and Z_1 = 0 without self-loops;
    ``three_jump_terms``, ``four_jump_terms`` and ``six_jump_terms`` give
    Z_3, Z_4 and Z_6.
    O(E nu^3) on the arcs of ``problem``.
    """
    g, x, y = problem.graph, problem.src, problem.dst
    a, W, _hop = _arc_factors(problem, hbar)
    I = _two_jump_integral(a[x][:, :, None], a[y][:, None, :], t)
    arcs = (problem.w ** 2 / (g.measure[x] * g.measure[y])
            * np.einsum("eab,eab->e", np.abs(W) ** 2, I))
    return np.bincount(x, weights=arcs, minlength=g.n)


# The node spread up to which ``_divided_exp`` sums the series about the
# smallest node, in a number of terms that grows as the spread (72 at
# 16); a wider batch scales and squares, at a cost that grows as its
# logarithm.  At 16 the two cost about the same
_DD_SERIES = 16.0
# The Taylor terms beyond the order k, and the size to which
# ``_dd_squared`` scales the nodes before it sums them: each entry's tail
# is then below (1/4)^12 / 12! = 1.3e-16 of it
_DD_TERMS, _DD_NORM = 11, 0.25
# Divided differences per piece of the strata: pieces bound the memory of
# ``four_jump_terms`` and ``six_jump_terms`` whatever the number of walks
_PIECE = 2048


def _divided_exp(z):
    """e[z_0, ..., z_k], the divided difference of exp, per column of z,
    shape (k + 1, B) -> (B,).

    It is entry (0, k) of the exponential of the Opitz matrix Z = diag(z)
    + N, N the ones above the diagonal (Opitz, ZAMM 44 (1964); McCurdy,
    Ng & Parlett, Math. Comp. 43 (1984) 501).  Entry (i, j) of e^Z is
    e[z_i, ..., z_j] > 0, by Hermite-Genocchi.  A batch whose nodes
    spread over at most ``_DD_SERIES`` shifts each column by its smallest
    node, e^Z = e^bottom e^{Z - bottom}, and sums the series of entry (0,
    k) alone (``_dd_series``), at most e^16.  A wider one shifts each
    column by its largest node top and scales and squares the whole
    triangle (``_dd_squared``): the nodes of Z - top are at most 0, so no
    entry of e^{u (Z - top)}, u >= 0, exceeds 1, and none overflows,
    whatever the spread.
    """
    top, bottom = z.max(axis=0), z.min(axis=0)
    spread = float((top - bottom).max(initial=0.0))
    if spread <= _DD_SERIES:
        return np.exp(bottom) * _dd_series(z - bottom, spread)
    return np.exp(top) * _dd_squared(z, top, bottom, spread)


def _dd_series(b, spread):
    """e[b_0, ..., b_k] per column for nodes b in [0, spread], as the
    series sum_m (e_0^T B^m e_k) / m!, B = diag(b) + N.

    Row 0 of B^m takes row 0 of B^{m-1} times B, 2k + 1 operations per
    column, and its entry k is h_{m-k}(b_0, ..., b_k), the complete
    homogeneous polynomial, at most C(m, k) spread^{m-k}.  Every term is
    nonnegative, so nothing cancels and the rounding stays near m eps;
    term j = m - k is below spread^j / j! of the value, which is at least
    1/k!, and the sum stops once that falls below 2^-56.
    """
    k = b.shape[0] - 1
    last, term = k, 1.0
    while term >= 2.0 ** -56:
        last += 1
        term *= spread / (last - k)
    row = np.zeros_like(b)
    row[0] = 1.0
    tmp = np.empty_like(b)
    out = np.zeros(b.shape[1])
    f = 1.0
    for m in range(1, last):
        f /= m
        np.multiply(b, row, out=tmp)
        tmp[1:] += row[:-1]
        row, tmp = tmp, row
        if m >= k:
            out += f * row[k]
    return out


def _dd_squared(z, top, bottom, spread):
    """e^{-top} e[z_0, ..., z_k] per column, by scaling and squaring the
    Opitz matrix Z.

    With mu the midpoint of the nodes, the Taylor series of e^B, B = 2^-s
    (Z - mu), is summed by Horner's rule, s the least with the nodes of B
    at most ``_DD_NORM`` in size; every entry's terms are bounded by
    those of e^{|b|}, so they cancel at most by a factor e^{2 |b|}.
    Times e^{-2^-s (top - mu)}, e^B becomes e^{2^-s (Z - top)}, and s
    squarings bring that back to e^{Z - top}.  The upper triangle of
    every power is nonnegative, so they add only products of nonnegative
    numbers and nothing cancels there (the last forms entry (0, k)
    alone); each doubles the relative rounding, which ends near 2^s eps,
    below 4 spread eps.  One s serves the whole batch: that of its widest
    column.  The upper triangle is kept entry-major, its diagonals one
    after the other, flat, shape ((k+1)(k+2)/2, B), so every operation
    runs over the batch.
    """
    n = z.shape[0]
    mid = 0.5 * (top + bottom)
    half = 0.5 * spread
    s = math.ceil(math.log2(half / _DD_NORM)) if half > _DD_NORM else 0
    b = (z - mid) * 2.0 ** -s
    # diagonal l of the triangle holds the entries (i, i + l), i < n - l
    off = np.r_[0, np.cumsum(np.arange(n, 0, -1))]
    diag = [slice(off[l], off[l + 1]) for l in range(n)]
    rows = np.concatenate([b[:n - l] for l in range(n)])
    X = np.empty((off[-1], z.shape[1]))
    X[:n], X[n:] = 1.0, 0.0
    tmp = np.empty_like(X)
    # Horner's rule on B1 = diag(b) + N, without divisions: after step m,
    # X holds M!/(m - 1)! times the partial result, M the number of terms
    c = 1.0
    for m in range(_DD_TERMS + n - 1, 0, -1):
        c *= m
        np.multiply(rows, X, out=tmp)
        for l in range(1, n):
            tmp[diag[l]] += X[off[l - 1] + 1:off[l]]
        tmp[:n] += c
        X, tmp = tmp, X
    # e^B = D e^{B1} D^-1, D = diag(2^-s i): diagonal l scales by 2^-s l;
    # the shift from mid to top scales it all
    X *= np.exp((mid - top) * 2.0 ** -s) / c
    for l in range(1, n):
        X[diag[l]] *= 2.0 ** (-s * l)
    for _ in range(s - 1):
        for l in range(n):
            out = tmp[diag[l]]
            np.multiply(X[:n - l], X[diag[l]], out=out)
            for j in range(1, l + 1):
                out += (X[off[j]:off[j] + n - l]
                        * X[off[l - j] + j:off[l - j + 1]])
        X, tmp = tmp, X
    if s:
        # the last squaring needs entry (0, k) only: sum_j (0, j) (j, k)
        corner = X[off[n - 1]] * X[0]
        for j in range(1, n):
            corner += X[off[j]] * X[off[n - 1 - j] + j]
        return corner
    return X[-1]


def _walk_terms(arcs, seq, factors, src, t):
    """The weight of each closed walk along ``arcs``, shape (k, B), in the
    Dyson term of e^{-tH} with k hops, real part.

    The walk x_0 -> x_1 -> ... -> x_0 takes, with (a, W, hop) =
    ``factors``, its hops times the sum over the index sequences i_0 ...
    i_{k-1}, the columns of ``seq``, shape (k, nu^k), of prod_j
    W_j[i_j, i_{j+1}] (i_k = i_0) times the integral over the holds s_0 +
    ... + s_k = t of e^{-sum_j s_j a_j}, the last hold at x_0 again: t^k
    e[-t a_0, ..., -t a_{k-1}, -t a_0] by Hermite-Genocchi.  The index
    sequences run along the batch, B nu^k divided differences in one
    ``_divided_exp`` call.
    """
    a, W, hop = factors
    k, nu = seq.shape[0], a.shape[1]
    # W_j[i_j, i_{j+1}] and a at the start of hop j, as flat indices
    i, j = seq[:, None], np.roll(seq, -1, axis=0)[:, None]
    F = np.take(W, arcs[:, :, None] * nu * nu + i * nu + j).prod(axis=0)
    z = np.empty((k + 1,) + F.shape)
    z[:k] = np.take(a, src[arcs][:, :, None] * nu + i)
    z[:k] *= -t
    z[k] = z[0]
    dd = _divided_exp(z.reshape(k + 1, -1)).reshape(F.shape)
    return t ** k * hop[arcs].prod(axis=0) * np.einsum("bs,bs->b",
                                                         F.real, dd)


def _arc_of(g, i, j):
    """The arc index of i -> j for each pair of edge ends (i, j)."""
    keys = g.edges[:, 0] * g.n + g.edges[:, 1]
    order = np.argsort(keys)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return 2 * order[np.searchsorted(keys[order], lo * g.n + hi)] + (i > j)


def three_jump_terms(problem: Problem, t: float, hbar: float = 1.0,
                     tri=None):
    """Per vertex x, the three-jump term Z_3(x) of tr e^{-t H_{Phi,
    V/hbar}}: the weights (``_walk_terms``) of the closed 3-walks from x,
    which go round the triangles at x, ``graphs.triangles`` or ``tri``.
    Round a triangle one way and the other the weights are complex
    conjugates, so each corner takes one way twice, real part.  0 on a
    graph without triangles."""
    g, nu = problem.graph, problem.rank
    tri = triangles(g) if tri is None else tri
    factors = _arc_factors(problem, hbar)
    # the walks from each corner: (u, v, w), (v, w, u) and (w, u, v)
    corners = np.concatenate([np.roll(tri, -r, axis=1) for r in range(3)]).T
    arcs = _arc_of(g, corners, np.roll(corners, -1, axis=0))
    seq = np.indices((nu,) * 3).reshape(3, -1)
    out = np.zeros(g.n)
    step = max(1, _PIECE // nu ** 3)
    for lo in range(0, arcs.shape[1], step):
        out += np.bincount(corners[0, lo:lo + step], minlength=g.n,
                           weights=2 * _walk_terms(arcs[:, lo:lo + step], seq,
                                                   factors, problem.src, t))
    return out


def _h_paths(problem: Problem, h: int):
    """The h-paths x -> ... -> z (z = x too) as their h arcs, shape (h,
    P), sorted by (x, z), with the first index and the size of each group
    of equal (x, z).  Each path of h - 1 arcs is extended by the arcs out
    of its end, in arc order."""
    src, dst, n = problem.src, problem.dst, problem.graph.n
    order = np.argsort(src, kind="stable")  # the arcs out of y, in a run
    out = np.bincount(src, minlength=n)
    ptr = np.cumsum(out) - out
    arcs = np.arange(src.size)[None]
    for _ in range(h - 1):
        fan = out[dst[arcs[-1]]]
        arcs = np.repeat(arcs, fan, axis=1)
        nxt = order[ptr[dst[arcs[-1]]] + np.arange(arcs.shape[1])
                    - np.repeat(np.cumsum(fan) - fan, fan)]
        arcs = np.concatenate([arcs, nxt[None]])
    key = src[arcs[0]] * n + dst[arcs[-1]]
    by = np.argsort(key, kind="stable")
    arcs, key = arcs[:, by], key[by]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return arcs, first, np.diff(np.r_[first, key.size])


def _joined_walk_terms(problem: Problem, t: float, hbar: float, h: int,
                       budget=None):
    """Per vertex x, the 2h-jump term Z_2h(x) of tr e^{-t H_{Phi,
    V/hbar}}, or None when its closed 2h-walks times nu^2h exceed
    ``budget``.

    A closed 2h-walk from x joins the h-path p from x to z, at its h-th
    jump, to the reverse of an h-path q from x to z, one of the same
    group (x, z) of ``_h_paths``: a group of c h-paths makes c^2 walks,
    so their number is known before any weight is computed.  The walks
    (p, q) and (q, p) are each other's reverse and weigh complex
    conjugates, so the pairs p <= q are weighed (``_walk_terms``), those
    with p < q twice, real part, in pieces of about ``_PIECE`` divided
    differences.
    """
    g, nu = problem.graph, problem.rank
    per_walk = nu ** (2 * h)
    if budget is not None:
        # every h-path makes a walk with itself: refuse before listing
        # them.  Their count is 1^T A^h 1, one pass over the arcs per jump
        paths = np.ones(g.n)
        for _ in range(h):
            paths = np.bincount(problem.src, weights=paths[problem.dst],
                                minlength=g.n)
        if paths.sum() * per_walk > budget:
            return None
    arcs, first, count = _h_paths(problem, h)
    if budget is not None and int(count @ count) * per_walk > budget:
        return None
    factors = _arc_factors(problem, hbar)
    seq = np.indices((nu,) * (2 * h)).reshape(2 * h, -1)
    # the pairs p <= q of one group, in order of p, then q: p pairs with
    # q = p ... last - 1, last the end of its group
    last = np.repeat(first + count, count)
    after = last - np.arange(last.size)
    end = np.cumsum(after)
    total = int(end[-1]) if end.size else 0
    out = np.zeros(g.n)
    step = max(1, _PIECE // per_walk)
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total))
        p = np.searchsorted(end, idx, side="right")
        q = p + idx - (end[p] - after[p])
        # p's arcs, then q's reversed, last first
        walk = np.concatenate([arcs[:, p], arcs[::-1, q] ^ 1])
        weight = np.where(p < q, 2.0, 1.0) * _walk_terms(
            walk, seq, factors, problem.src, t)
        out += np.bincount(problem.src[arcs[0, p]], weights=weight,
                           minlength=g.n)
    return out


def four_jump_terms(problem: Problem, t: float, hbar: float = 1.0,
                    budget=None):
    """Per vertex x, the four-jump term Z_4(x) of tr e^{-t H_{Phi,
    V/hbar}}, or None when its closed 4-walks times nu^4 exceed
    ``budget``: the closed 4-walks x -> y -> z -> w -> x joined from the
    2-paths x -> y -> z and x -> w -> z (``_joined_walk_terms``)."""
    return _joined_walk_terms(problem, t, hbar, 2, budget)


def six_jump_terms(problem: Problem, t: float, hbar: float = 1.0,
                   budget=None):
    """Per vertex x, the six-jump term Z_6(x) of tr e^{-t H_{Phi,
    V/hbar}}, or None when its closed 6-walks times nu^6 exceed
    ``budget``: the closed 6-walks joined from pairs of 3-paths x -> y ->
    w -> z with the same ends (``_joined_walk_terms``)."""
    return _joined_walk_terms(problem, t, hbar, 3, budget)


def sweep(config: SweepConfig) -> SweepResult:
    """Semiclassical sweep over the hbar schedule.

    Each row carries (hbar, trace, lower, upper, gap = upper - trace).
    The scalar sandwich lower <= trace <= upper is asserted when the
    problem is scalar, sharpened below to lower + Z_2 <= trace with the
    two-jump term of ``two_jump_terms``; only the upper bound is asserted
    otherwise.  The problem is resolved, and the free operator assembled
    and symmetrized, once for the whole schedule (``_traces``).
    """
    g = config.graph
    beta = config.beta
    problem = resolve(g, config.connection, config.potential)
    deg_m = degrees(g).deg_m
    terms = _classical_terms(problem.potential, beta)
    classical = float(terms.sum())
    result = SweepResult(classical_value=classical)
    schedule = config.hbar_schedule
    for hbar, trace in zip(schedule, _traces(problem, beta, schedule)):
        lower = float((np.exp(-deg_m * beta * hbar) * terms).sum())
        gap = classical - trace
        if trace > classical + 1e-9:
            raise AssertionError(
                f"upper bound violated at hbar={hbar}: {trace} > {classical}")
        if problem.mode == "scalar":
            two_jump = float(two_jump_terms(problem, beta * hbar, hbar).sum())
            if lower + two_jump > trace + 1e-9:
                raise AssertionError(
                    f"sandwich lower bound violated at hbar={hbar}: "
                    f"{lower} + {two_jump} > {trace}")
        result.rows.append(SweepRow(hbar, trace, lower, classical, gap))
    result.gap_ratios = [
        b.gap / a.gap if a.gap > 0 else float("nan")
        for a, b in zip(result.rows, result.rows[1:])
    ]
    final_gap = result.rows[-1].gap
    result.converged = final_gap < max(1e-6, 1e-3 * classical)
    return result


def exhaustion_sweep(host: WeightedGraph, exhaustion: ExhaustionSequence,
                     config: SweepConfig):
    """Sweep summaries along a nested truncation sequence.

    Returns a list of dicts (size, classical_value, final_trace,
    converged) plus a coarse divergence flag on the classical values:
    the trend is flagged divergent when the marginal per-vertex
    contribution of the last truncation step does not vanish faster
    than 1/size.
    """
    summaries = []
    V = resolve(host, config.connection, config.potential).potential
    for keep in exhaustion.subsets:
        keep = sorted(keep)
        sub = restrict(host, keep)
        subV = Potential(V.rank, V.values[keep])
        subc = None
        if config.connection is not None:
            subc = Connection(config.connection.rank, config.connection
                              .aligned(host)[edge_mask(host, keep)])
        subconf = SweepConfig(sub, config.beta, config.hbar_schedule,
                              subV, subc)
        res = sweep(subconf)
        summaries.append({
            "size": sub.n,
            "classical_value": res.classical_value,
            "final_trace": res.rows[-1].trace,
            "converged": res.converged,
        })
    divergent = False
    if len(summaries) >= 3:
        s0, s1, s2 = summaries[-3], summaries[-2], summaries[-1]
        d1 = s1["size"] - s0["size"]
        d2 = s2["size"] - s1["size"]
        if d1 > 0 and d2 > 0:
            # size-weighted marginal per-vertex contributions; a convergent
            # tail must decay faster than 1/size
            prod_prev = (s1["classical_value"] - s0["classical_value"]) \
                / d1 * s1["size"]
            prod_last = (s2["classical_value"] - s1["classical_value"]) \
                / d2 * s2["size"]
            divergent = prod_last > 1e-12 and prod_last >= 0.9 * prod_prev
    elif len(summaries) == 2:
        a, b = summaries
        dn = b["size"] - a["size"]
        if dn > 0:
            marginal = (b["classical_value"] - a["classical_value"]) / dn
            divergent = marginal * b["size"] > 0.1
    return summaries, divergent
