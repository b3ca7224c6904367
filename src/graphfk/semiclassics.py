"""Semiclassical trace sweeps, Golden-Thompson margins, Dyson strata.

The quantum partition function tr(e^{-beta hbar H_{Phi, V/hbar}}) is
squeezed, in the scalar nonmagnetic case, between

    sum_x e^{-deg_m(x) beta hbar} e^{-beta w(x)}   (lower)
    sum_x e^{-beta w(x)}                           (upper),

so it converges to the classical partition sum as hbar -> 0+.  For
magnetic and covariant operators only the upper bound is available; the
lower column is still reported (with the fiberwise classical terms
tr_x e^{-beta V(x)} in place of e^{-beta w(x)}) but never asserted.

The lower bound is the no-jump term Z_0 of the Dyson series of the
trace.  ``jump_terms`` gives the strata Z_k, k >= 2, per vertex,
exactly: each closed walk of k jumps contributes its hops times t^k
times a divided difference of exp over the k + 1 values deg_m + lam it
holds at (Hermite-Genocchi), and ``_divided_exp`` takes those, batched,
from the exponential of the bidiagonal Opitz matrix: by its series where
the values spread little, by scaling and squaring where they spread
widely.  Every closed k-walk is joined from a pair of paths of ceil(k/2)
and floor(k/2) jumps with the same ends.  In the scalar case every term
of the series is nonnegative, so Z_0 + Z_2 <= trace is a sharper lower
bound, and the sweep asserts it.  The Monte Carlo trace estimator adds
the higher strata; the sweep does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Connection, Potential
from .errors import BadParams
from .graphs import WeightedGraph, degrees
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


def golden_thompson_margin(g: WeightedGraph, c: Connection, V,
                           t: float) -> float:
    """Classical minus quantum trace at time t; nonnegative by theory."""
    if not t > 0:  # NaN fails it too
        raise BadParams("t must be positive")
    V = resolve(g, c, V).potential
    lam = eigenvalues(assemble(g, c, V))
    return classical_partition(V, t) - partition_function(lam, t)


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


# The node spread up to which ``_divided_exp`` sums the series about the
# smallest node, in a number of terms that grows as the spread (72 at
# 16); a wider batch scales and squares, at a cost that grows as its
# logarithm.  At 16 the two cost about the same
_DD_SERIES = 16.0
# The Taylor terms beyond the order k, and the size to which
# ``_dd_squared`` scales the nodes before it sums them: each entry's tail
# is then below (1/4)^12 / 12! = 1.3e-16 of it
_DD_TERMS, _DD_NORM = 11, 0.25
# Divided differences per piece of ``jump_terms``: pieces bound its memory
# whatever the number of walks
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


def _walk_terms(arcs, seq, factors, t):
    """The weight of each closed walk along ``arcs``, shape (k, B), in the
    Dyson term of e^{-tH} with k hops, real part.

    The walk x_0 -> x_1 -> ... -> x_0 takes, with (a, W, hop) =
    ``factors`` (``jump_terms``), its hops times the sum over the index
    sequences i_0 ... i_{k-1}, the columns of ``seq``, shape (k, nu^k), of
    prod_j W_j[i_j, i_{j+1}] (i_k = i_0) times the integral over the
    holds s_0 + ... + s_k = t of e^{-sum_j s_j a_j}, the last hold at x_0
    again: t^k e[-t a_0, ..., -t a_{k-1}, -t a_0] by Hermite-Genocchi.
    The index sequences run along the batch, B nu^k divided differences
    in one ``_divided_exp`` call.
    """
    a, W, hop = factors
    k, nu = seq.shape[0], a.shape[1]
    # W_j[i_j, i_{j+1}] and a at the start of hop j, as flat indices
    i, j = seq[:, None], np.roll(seq, -1, axis=0)[:, None]
    F = np.take(W, arcs[:, :, None] * nu * nu + i * nu + j).prod(axis=0)
    z = np.empty((k + 1,) + F.shape)
    z[:k] = np.take(a, arcs[:, :, None] * nu + i)
    z[:k] *= -t
    z[k] = z[0]
    dd = _divided_exp(z.reshape(k + 1, -1)).reshape(F.shape)
    return t ** k * hop[arcs].prod(axis=0) * np.einsum("bs,bs->b",
                                                         F.real, dd)


def _h_paths(problem: Problem, h: int):
    """The h-paths x -> ... -> z (z = x too) as their h arcs, shape (h,
    P), and their keys x n + z, both sorted by key.  Each path of h - 1
    arcs is extended by the arcs out of its end, in arc order."""
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
    return arcs[:, by], key[by]


def jump_terms(problem: Problem, t: float, hbar: float, k: int,
               budget=None):
    """Per vertex x, the k-jump term Z_k(x) of tr e^{-t H_{Phi, V/hbar}},
    k >= 2, or None when its closed k-walks times nu^k exceed ``budget``.

    H = D - K splits into its diagonal blocks D_x = deg_m(x) + V(x)/hbar
    and the hops K_xy = b(x,y)/m_x Phi_{y,x}.  Z_k(x) is the trace at x of
    the term of the Dyson series of e^{-tH} with k factors K: the sum of
    the weights (``_walk_terms``) of the closed k-walks from x.  A jump
    along the arc x -> y puts hop = b(x,y)/m_x and W (``_eigenbasis``)
    into the weight of a walk, and a hold at x the values a = deg_m(x) +
    lam_x, gathered per arc at its source.  Z_0(x) = sum_a e^{-t a_xa},
    Z_1 = 0 without self-loops, and in the scalar case every term is
    nonnegative.

    A closed k-walk from x is an h-path p from x to z, h = ceil(k/2),
    followed by the reverse of a j-path q from x to z, j = floor(k/2): one
    with the same key in ``_h_paths``.  For even k, (p, q) and (q, p) are
    each other's reverse and weigh complex conjugates, so the pairs p <= q
    are weighed, those with p < q twice, real part; for odd k every pair
    is.  The closed walks are counted before any is weighed, which is done
    in pieces of about ``_PIECE`` divided differences.  For even k every
    h-path makes a walk with itself, so their count 1^T A^h 1 is checked
    against the budget before they are listed, one pass over the arcs per
    jump.
    """
    g, nu, src = problem.graph, problem.rank, problem.src
    h, j = (k + 1) // 2, k // 2
    per_walk = nu ** k
    if budget is not None and h == j:
        paths = np.ones(g.n)
        for _ in range(h):
            paths = np.bincount(src, weights=paths[problem.dst],
                                minlength=g.n)
        if paths.sum() * per_walk > budget:
            return None
    arcs, key = _h_paths(problem, h)
    back, back_key = (arcs, key) if h == j else _h_paths(problem, j)
    # the partners of p: the j-paths lo[p] ... hi[p] - 1, with its key
    lo = np.searchsorted(back_key, key)
    hi = np.searchsorted(back_key, key, side="right")
    if budget is not None and int((hi - lo).sum()) * per_walk > budget:
        return None
    if h == j:
        lo = np.arange(key.size)  # the pairs p <= q
    lam, W = _eigenbasis(problem, hbar)
    factors = ((degrees(g).deg_m[:, None] + lam)[src], W,
               problem.w / g.measure[src])
    seq = np.indices((nu,) * k).reshape(k, -1)
    # the pairs in order of p, then q
    after = hi - lo
    end = np.cumsum(after)
    total = int(end[-1]) if end.size else 0
    out = np.zeros(g.n)
    step = max(1, _PIECE // per_walk)
    for first in range(0, total, step):
        idx = np.arange(first, min(first + step, total))
        p = np.searchsorted(end, idx, side="right")
        q = lo[p] + idx - (end[p] - after[p])
        # p's arcs, then q's reversed, last first
        weight = _walk_terms(np.concatenate([arcs[:, p], back[::-1, q] ^ 1]),
                             seq, factors, t)
        if h == j:
            weight *= np.where(p < q, 2.0, 1.0)
        out += np.bincount(src[arcs[0, p]], weights=weight, minlength=g.n)
    return out


def sweep(config: SweepConfig) -> SweepResult:
    """Semiclassical sweep over the hbar schedule.

    Each row carries (hbar, trace, lower, upper, gap = upper - trace).
    The scalar sandwich lower <= trace <= upper is asserted when the
    problem is scalar, sharpened below to lower + Z_2 <= trace with the
    two-jump term of ``jump_terms``; only the upper bound is asserted
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
            two_jump = float(jump_terms(problem, beta * hbar, hbar, 2).sum())
            if lower + two_jump > trace + 1e-9:
                raise AssertionError(
                    f"sandwich lower bound violated at hbar={hbar}: "
                    f"{lower} + {two_jump} > {trace}")
        result.rows.append(SweepRow(hbar, trace, lower, classical, gap))
    final_gap = result.rows[-1].gap
    result.converged = final_gap < max(1e-6, 1e-3 * classical)
    return result

