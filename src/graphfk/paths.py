"""Jump-process sampling and Feynman-Kac Monte Carlo estimators.

The process jumps from y to a neighbor x' with probability
b(x', y) / deg_1(y) after an exponential holding time with rate
deg_m(y).  A path with holding times s_0..s_N on the chain Y_0..Y_N
carries the Dyson weight

    F = tr(E_0 Phi_{Y_1,Y_0} E_1 ... Phi_{Y_N,Y_{N-1}} E_N),
    E_k = exp(-s_k V(Y_k)),

earliest factor leftmost, the order of the Dyson series of e^{-tH};
for rank 1 with the identity connection it is e^{-int_0^t v(X_s) ds}.

One chunk kernel runs every estimator: the scalar case is rank 1 of the
covariant one, with the identity connection.  It reads a per-vertex jump
table sorted from the arcs of one ``operators.Problem``: the rate
deg_m(y), the neighbors of y in ascending index order, their cumulative
probabilities cumsum(b(y, .) / deg_1(y)) with the last entry exactly 1,
the eigenbasis V(y)/hbar = Q_y diag(lam_y) Q_y^H, diagonalized once per
problem, and the jump factors W = Q_y^H Phi_{x',y} Q_{x'} between
eigenbases.  A jump from y with a uniform u in [0, 1) takes slot
count(cum[y] < u), so it always lands on a neighbor, and costs O(largest
degree), not O(n).  Paths are weighed in the eigenbases as they walk, at
every rank by the same code: a holding interval scales by diag(e^{-s
lam_y}) and a jump multiplies by one W, so no LAPACK call runs in the
path loop, and at rank 1 each factor is one elementwise product.

Partition traces are estimated per start vertex x from the Dyson
strata Z_k(x), the weight of the paths from x that end at x with exactly
k jumps, as

    Z_x = Z_0 + Z_2 + Z_3 + Z_4 (+ Z_6) + E^x[S],
    E^x[S] = sum_{k >= K} Z_k(x).

Z_0 = p_0 tr e^{-t V(x)/hbar}, with p_0 = e^{-deg_m(x) t} the
probability of no jump, is the paper's semiclassical leading term; Z_2,
Z_3, Z_4 and Z_6 are ``semiclassics.jump_terms``, one routine that sums
divided differences of exp over the closed 2-, 3-, 4- and 6-walks; all
are exact.  Z_1 = 0, the graph having no self-loops, Z_3 = 0 when it
has no triangle, and every odd stratum is 0 on a bipartite graph.  So
the paths are drawn with their first K jumps forced, K = 6 on a
bipartite graph and 5 on any other: each of the first K holding times is
drawn given that it ends before the horizon, and the path carries the
probability g of those events (the forced transitions of Lewis & Boehm,
Nucl. Eng. Des. 77 (1984) 49).  On a bipartite graph
with s = t max deg_m >= ``SIX_JUMPS_FROM`` (1), Z_6 is exact as well
and K = 8; at smaller s the tail beyond six jumps is too small a share
of the trace to be worth it.  Where the closed 4-walks, times nu^4,
exceed ``WALK_BUDGET``, Z_3 and Z_4 are left to the paths, and K is 4 on
a graph without triangles and 3 otherwise; where the closed 6-walks,
times nu^6, exceed it, Z_6 is left to them and K stays 6.
``_exact_strata`` picks K and says why.  A path is not scored by
whether it happens to end at x.  Each of its jumps k >= K from a
neighbor y of x scores, in S, the weight of the return it could have
made: the probability p(y -> x) of jumping to x times the probability
e^{-deg_m(x) r} of then staying there for the time r left, times the
Dyson weight of that return.  This is the expected-value (next-event)
estimator of Spanier & Gelbard, Monte Carlo Principles and Neutron
Transport Problems (1969), ch. 3: each term is the conditional
expectation, given the path up to the time of its k-th jump, of the
weight of the paths that end at x with exactly k jumps, so its mean is
Z_k, and the Bernoulli noise of the indicator is gone.

The process law runs at rank 1, unconditioned: ``simulate_scalar_paths``
returns each path's terminal vertex, Feynman-Kac weight and jump count.

Random streams are counter-based (Philox).  ``estimate_partition`` lays
its paths out vertex-major and cuts them into pieces of a fixed chunk
size; each piece runs in one kernel call over all its start vertices,
on the stream keyed (seed, piece index), and per-vertex moments merge
in piece order.  ``simulate_scalar_paths`` keys its streams per (seed,
start vertex, chunk index).  Results are reproducible
independent of scheduling and worker count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bundles import Connection
from .errors import BadParams, UnknownIndex
from .graphs import WeightedGraph, degrees, has_triangle, two_colouring
from .operators import Problem, resolve
from .semiclassics import _eigenbasis, jump_terms

CHUNK_SIZE = 8192
# Upper bound on ``workers``: each worker is an OS thread, and past a few
# per core they only contend for the cores.  A larger value is refused
# before any job or thread exists.
MAX_WORKERS = 64
# Closed 4-walks, times nu^4 index sequences, above which
# ``estimate_partition`` does not compute Z_3 and Z_4 and forces the
# jumps it forced without them: at 0.5-0.8 us each on a 2-core machine,
# 2^21 of them take about a second.  The closed 6-walks, times nu^6, meet
# the same budget before Z_6 is computed; at n = 1024 a weighed pair of
# 6-walks takes about 0.5 us, so 2^21 walks, about a million pairs, take
# about half a second
WALK_BUDGET = 2**21
# s = t max deg_m from which a bipartite graph takes Z_6 exactly and
# forces 8 jumps.  Below it, the tail beyond six jumps is a vanishing
# share of the trace (2.6e-16 of about 77 at s = 0.04): its stderr
# would fall below the rounding of an exact trace, and an eight-jump
# estimate would be checked against that rounding
SIX_JUMPS_FROM = 1.0

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# estimate_partition's pieces span start vertices: their streams take this
# lane in place of a start vertex
_ALL_STARTS = _MASK32


def path_stream(seed: int, vertex: int, index: int) -> np.random.Generator:
    """Counter-based stream for one (seed, start vertex, path/chunk index)."""
    key = ((seed & _MASK64) << 64) | ((vertex & _MASK32) << 32) | (index & _MASK32)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EstimatorReport:
    """Monte Carlo point estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    imag_estimate: float = None
    imag_stderr: float = None
    per_vertex: tuple = None
    forced: int = None  # the jumps every path was forced to make
    strata: tuple = None  # the orders k of the strata Z_k added exactly
    forced_reason: str = None  # why ``forced`` is what it is


class _JumpTable:
    """Per-vertex jump data, one row per vertex y padded to the largest degree.

    ``rates[y]`` is deg_m(y).  Row y of ``nbrs`` holds the neighbors of y
    in ascending index order, and ``cum`` their cumulative probabilities
    cumsum(b(y, .) / deg_1(y)) with the last entry and the padding exactly
    1.  A jump from y with uniform u in [0, 1) takes slot count(cum[y] < u).
    ``lam`` and the unitaries Q diagonalize V(y) / hbar = Q_y diag(lam_y)
    Q_y^H, and ``W[:, :, y, k] = Q_y^H Phi_{x',y} Q_{x'}`` is the factor a
    jump y -> x' = nbrs[y, k] puts into the Dyson weight, with the back
    transport Phi_{x',y} (the reverse arc's) taken between the two
    eigenbases (``semiclassics._eigenbasis``, the identity on the
    padding); W is stored entry-major, as ``_path_chunk`` keeps its Dyson
    products.

    ``PW`` is W times the jump probability b(x', y) / deg_1(y), the factor
    of a return y -> x that is scored, not taken.  Its slots are flat,
    y * width + k, 0 on the padding, and one 0 follows the last, which a
    return from a non-neighbor of x reads.  ``ncols`` holds the columns of
    ``nbrs`` with the padding set to n, so that the slot of x in row y is
    count(nbrs[y] < x).  ``stay`` is lam + deg_m: held at x for a time r
    without a jump, a path gains e^{-r stay[x]} in the eigenbasis.

    ``forced`` is the number of jumps the trace estimator forces, and the
    first it scores: K of ``_exact_strata``.  ``simulate_scalar_paths``
    walks unforced and passes 0.
    """

    def __init__(self, problem: Problem, hbar: float = 1.0, *, forced: int):
        g, nu = problem.graph, problem.rank
        self.rank = nu
        deg = degrees(g)
        self.rates = deg.deg_m
        order = np.lexsort((problem.dst, problem.src))
        src, dst = problem.src[order], problem.dst[order]
        count = np.bincount(src, minlength=g.n)
        slot = np.arange(src.size) - (np.cumsum(count) - count)[src]
        width = max(int(count.max(initial=0)), 1)
        self.nbrs = np.repeat(np.arange(g.n), width).reshape(g.n, width)
        self.nbrs[src, slot] = dst
        P = np.zeros((g.n, width))
        P[src, slot] = problem.w[order] / deg.deg_1[src]
        self.cum = np.cumsum(P, axis=1)
        # rounding can leave the row total below 1; every draw must land
        self.cum[np.arange(width) >= count[:, None] - 1] = 1.0
        # its columns but the last, which is 1 and never below a draw
        self.cols = np.ascontiguousarray(self.cum[:, :-1].T)
        pad = np.arange(width) >= count[:, None]
        self.ncols = np.ascontiguousarray(np.where(pad, g.n, self.nbrs).T)
        self.lam, arcW = _eigenbasis(problem, hbar)
        W = np.broadcast_to(np.eye(nu, dtype=arcW.dtype),
                            (g.n, width, nu, nu)).copy()
        W[src, slot] = arcW[order]
        self.W = np.ascontiguousarray(np.moveaxis(W, (2, 3), (0, 1)))
        PW = (self.W * P).reshape(nu, nu, -1)
        self.PW = np.concatenate([PW, np.zeros((nu, nu, 1), PW.dtype)], axis=2)
        self.stay = self.lam + self.rates[:, None]
        self.dtype = self.W.dtype
        self.forced = forced


# ---------------------------------------------------------------------------
# Vectorized chunk simulation
# ---------------------------------------------------------------------------

def _matmul(A, B, fresh=False):
    """Stacked A @ B for matrices stored entry-major, shape (nu, nu, k):
    nu broadcast products over the long last axis, several times faster
    than matmul's per-matrix calls for the small nu of a fibre.

    The first product is taken in place unless ``fresh``.  For k = 1
    numpy takes an in-place complex product as a reduction, without the
    fused multiply-add of its vector loop, so the two can differ in the
    last bit.  ``_path_chunk`` passes ``fresh`` in a round that dropped
    paths, so that each product rounds as it would if taken right after
    its jump, over every path that made one."""
    if fresh:
        out = A[:, 0, None] * B[None, 0]
    else:
        out = np.repeat(A[:, :1], A.shape[1], axis=1)
        out *= B[:1]
    for j in range(1, A.shape[1]):
        out += A[:, j, None] * B[None, j]
    return out


def _exp_take(values, ys, scale):
    """exp(-scale_k values[ys_k]) per path, shape (paths, nu)."""
    return np.exp(-scale[:, None] * np.take(values, ys, axis=0))


def _hold(tbl, ys, dwell):
    """e^{-dwell lam_y} per path, shape (paths, nu): the holding factor
    exp(-dwell V(y)) in the eigenbasis of V(y), a diagonal."""
    return _exp_take(tbl.lam, ys, dwell)


def _path_chunk(tbl, start, horizon, rng, loops=False):
    """Run one path from each entry of ``start``; returns (terminal, F, N).

    F is the path's Dyson weight (module docstring), with the identity
    connection the Feynman-Kac weight prod_k e^{-v(Y_k) s_k}; it is kept
    at rank 1 only, which is all ``simulate_scalar_paths`` runs.

    With ``loops`` the chunk serves the trace estimator and returns the
    next-event score S of each path in place of F.  The first K =
    ``tbl.forced`` jumps are forced: each of the first K holding times is
    drawn given that it ends within the time left, r = horizon - (time so
    far), which happens with probability g_k = 1 - e^{-deg_m r}, and the
    path carries the product g = g_1 ... g_K.  So every path jumps at
    least K times (every start needs a positive rate).  Each jump k >= K,
    at tau_k from a neighbor y of the start x, scores the return it could
    have made:

        g p(y -> x) e^{-deg_m(x) r} tr(M_k Phi_{x,y} e^{-r V(x)}),

    with r = horizon - tau_k, p(y -> x) = b(x, y) / deg_1(y) and M_k the
    Dyson product up to tau_k.  Given the path up to tau_k, that is the
    expected weight of the paths whose k-th jump lands on x and that stay
    there: so E[S] is the weight of the paths from x with K jumps or more
    that end at x, with no Bernoulli noise from the indicator.  The path
    itself walks on as drawn.

    The jump chain is walked for all paths at once, round by round, and
    each path carries its Dyson product M in the eigenbases of the
    potential, stored entry-major, shape (nu, nu, paths), so that every
    operation runs over the long path axis.  M starts at the identity.  A
    round multiplies in the jump the path made in the round before, M W
    with W = Q_y^H Phi_{x',y} Q_{x'} (one nu x nu product, in which the
    inner Q_{x'} Q_{x'}^H cancel; the first is W with its rows scaled, M
    being diagonal until then), then g_k in a forced round, then the hold,
    which scales the columns of M by e^{-s lam_y}.  The score of a return
    takes nu^2 products (``_return_score``); the path it closes ends at x,
    so the outer Q_x ... Q_x^H leave its trace unchanged.  With ``loops``
    a path leaves the walk in the round it stops jumping, before that
    round's products: its last jump and last hold are never multiplied
    out.  Without, a path's F is M[0, 0] after its last hold, which is
    its weight at rank 1 only: above it, BadParams is raised.
    """
    if not loops and tbl.rank > 1:
        raise BadParams("the unforced walk weighs paths at rank 1 only")
    nu, width = tbl.rank, tbl.nbrs.shape[1]
    states = start.copy()
    N = np.zeros(start.size, dtype=np.int64)
    F = np.ones(start.size, dtype=tbl.dtype)
    S = np.zeros(start.size, dtype=tbl.dtype)
    # a path from a vertex of rate 0 holds there up to the horizon
    idle = np.flatnonzero((horizon > 0) & (tbl.rates[start] == 0.0))
    F[idle] *= _hold(tbl, start[idle], np.full(idle.size, horizon))[:, 0]
    act = np.flatnonzero((horizon > 0) & (tbl.rates[start] > 0.0))
    ys, t = start[act], np.zeros(act.size)
    M = np.zeros((nu, nu, act.size), dtype=tbl.dtype)
    M[range(nu), range(nu)] = 1.0
    W = tbl.W.reshape(nu, nu, -1)
    forced = tbl.forced if loops else 0
    i = 0  # the round, and the jump it makes is jump i + 1
    while act.size:
        rates = tbl.rates[ys]
        rem = horizon - t
        if i < forced:
            # P(tau <= s | tau < r) = expm1(-rate s) / expm1(-rate r); the
            # clamp keeps a draw that rounds up to r inside it
            g = -np.expm1(-rates * rem)
            u = rng.random(act.size)
            dt = np.minimum(-np.log1p(-u * g) / rates, np.nextafter(rem, 0.0))
        else:
            dt = rng.standard_exponential(act.size) / rates
        t += dt
        jumped = dt < rem
        dwell = np.minimum(dt, rem)
        dropped = loops and not jumped.all()  # never in a forced round
        if dropped:
            act, ys, t, dwell, arc, M = (
                a[..., jumped] for a in (act, ys, t, dwell, arc, M))
        if i == 1:  # M is diagonal: M W is W with its rows scaled
            M = np.repeat(M[range(nu), range(nu)][:, None], nu, axis=1)
            M *= np.take(W, arc, axis=2)
        elif i:
            M = _matmul(M, np.take(W, arc, axis=2), fresh=dropped)
        if i < forced:
            M *= g
        M *= _hold(tbl, ys, dwell).T[None]
        if not loops:
            F[act[~jumped]] = M[0, 0, ~jumped]
            act, ys, t, M = (a[..., jumped] for a in (act, ys, t, M))
        if loops and i >= forced - 1:
            # jump K or later: score the return to the start
            S[act] += _return_score(tbl, M, ys, start[act], horizon - t)
        u = rng.random(act.size)
        # count(cum[y] < u), column by column: a row-wise sum over the
        # short rows costs several times more
        slot = np.zeros(act.size, dtype=np.int64)
        for col in tbl.cols:
            slot += col[ys] < u
        arc = ys * width + slot  # the flat index of (y, slot)
        ys = np.take(tbl.nbrs, arc)
        states[act] = ys
        N[act] += 1
        i += 1
    return states, S if loops else F, N


def _return_score(tbl, M, ys, x, r):
    """sum_ab M_ab (P W)_ba e^{-r (lam_{x,a} + deg_m(x))} per path, for M
    stored entry-major: tr M times the return ys -> x and a hold at x for
    the time r left without a jump, 0 where ys is not a neighbor of x."""
    n, width = tbl.nbrs.shape
    # the slot of x in row ys is count(nbrs[ys] < x), column by column; a
    # full row of neighbors below x counts to width, and x is not among them
    slot = np.zeros(ys.size, dtype=np.int64)
    for col in tbl.ncols:
        slot += col[ys] < x
    slot = np.minimum(slot, width - 1)
    near = np.take(tbl.ncols, slot * n + ys) == x
    # a non-neighbor of x reads the 0 after the last slot
    PW = np.take(tbl.PW, np.where(near, ys * width + slot, n * width), axis=2)
    PW *= _exp_take(tbl.stay, x, r).T
    return np.einsum("abk,bak->k", M, PW)


def simulate_scalar_paths(g: WeightedGraph, start: int, t: float,
                          samples: int, seed: int, v=None,
                          chunk: int = CHUNK_SIZE, workers: int = 1):
    """Chunked scalar simulation; returns (terminal, F, N) arrays.

    With v = None the weights F are identically 1 and the output carries
    the pure process law (terminal states and jump counts).
    """
    if not t >= 0:  # NaN fails it too
        raise BadParams("horizon must be nonnegative")
    if not 0 <= start < g.n:
        raise UnknownIndex(f"start vertex {start} not in graph")
    if samples < 1:
        raise BadParams("need at least 1 sample")
    _check_workers(workers)
    tbl = _JumpTable(resolve(g, None, v), forced=0)
    jobs = _chunk_sizes(samples, chunk)

    def run(job):
        ci, size = job
        rng = path_stream(seed, start, ci)
        starts = np.full(size, start, dtype=np.int64)
        terminal, F, N = _path_chunk(tbl, starts, t, rng)
        return terminal, F.real, N

    parts = _run_jobs(run, jobs, workers)
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _chunk_sizes(samples, chunk):
    """(chunk index, size) of each piece of ``samples`` paths, lazily, so
    that a run of any size holds no list of its jobs."""
    if chunk < 1:
        raise BadParams("chunk size must be at least 1")
    return ((ci, min(chunk, samples - ci * chunk))
            for ci in range(-(-samples // chunk)))


def _check_workers(workers):
    if not 1 <= workers <= MAX_WORKERS:
        raise BadParams(f"workers must be between 1 and {MAX_WORKERS}, "
                        f"not {workers}")


def _run_jobs(run, jobs, workers):
    """The results of ``run`` over ``jobs``, yielded in job order, with at
    most 2 * workers jobs submitted and not yet taken."""
    if workers <= 1:
        yield from map(run, jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(ex.submit(run, job))
        while pending:
            yield pending.popleft().result()


def _chunk_moments(keys, vals):
    """(key, count, mean, M2) for each run of equal keys in a sorted chunk.

    ``vals`` holds one column per statistic.  Each run's mean and sum of
    squared deviations M2 are taken about its first value, so a constant
    run gives M2 = 0 exactly.
    """
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    count = np.diff(np.r_[first, keys.size])
    d = vals - np.repeat(vals[first], count, axis=0)
    shift = np.add.reduceat(d, first) / count[:, None]
    m2 = np.add.reduceat((d - np.repeat(shift, count, axis=0)) ** 2, first)
    return keys[first], count, vals[first] + shift, m2


def _merge_moments(size, width, chunks):
    """(count, mean, M2) per key in range(size), merged over the chunks.

    Chunks combine in their fixed order, as they come, by the pairwise
    update of Chan, Golub & LeVeque (1983), which avoids the cancellation
    of the one-pass s2 - n * mean^2.
    """
    n = np.zeros(size, dtype=np.int64)
    mean, m2 = np.zeros((size, width)), np.zeros((size, width))
    for keys, nb, mb, m2b in chunks:
        na, nb = n[keys, None], nb[:, None]
        total = na + nb
        delta = mb - mean[keys]
        fresh = na == 0
        mean[keys] = np.where(fresh, mb, mean[keys] + delta * nb / total)
        m2[keys] = np.where(fresh, m2b, m2[keys]
                            + (m2b + delta * delta * na * nb / total))
        n[keys] = total[:, 0]
    return n[:, None], mean, m2


def _mean_se(n, mean, m2):
    return mean, np.sqrt(m2 / np.maximum(n - 1, 1) / np.maximum(n, 1))


def _exact_strata(problem: Problem, t: float, hbar: float):
    """(Z_3 + Z_4 + Z_6 per vertex, K, the orders of the exact strata,
    the reason for K).

    Z_3 and Z_4 are exact unless the closed 4-walks, times nu^4, exceed
    ``WALK_BUDGET``; then the strata are Z_0 and Z_2, and K is 3 on a
    graph with triangles and 4 without.  Otherwise K is the first order
    above 4 whose stratum the graph does not make 0: 5 on a graph that is
    not bipartite, and 6 on a bipartite one, which has no closed walk of
    odd length.  On a bipartite graph with s = t max deg_m at least
    ``SIX_JUMPS_FROM``, Z_6 is exact too and K is 8, unless the closed
    6-walks, times nu^6, exceed the budget.
    """
    g = problem.graph
    z4 = jump_terms(problem, t, hbar, 4, budget=WALK_BUDGET)
    if z4 is None:
        over = "Z3 and Z4 not computed: the closed 4-walks exceed " \
               "paths.WALK_BUDGET"
        if has_triangle(g):
            return 0.0, 3, (0, 2), over
        return 0.0, 4, (0, 2), over + "; no triangle, so Z3 = 0"
    # within the budget, tr A^3 <= sqrt(2E tr A^4) is too
    odd_walks = "not bipartite, so Z5 is not 0"
    if has_triangle(g):
        return (z4 + jump_terms(problem, t, hbar, 3), 5, (0, 2, 3, 4),
                odd_walks)
    if two_colouring(g) is None:
        return z4, 5, (0, 2, 4), odd_walks
    s = t * float(degrees(g).deg_m.max())
    if s < SIX_JUMPS_FROM:
        return z4, 6, (0, 2, 4), (f"bipartite, so Z5 = 0; Z6 not computed: "
                                  f"t max deg_m = {s:.6g} < "
                                  f"{SIX_JUMPS_FROM:g}")
    z6 = jump_terms(problem, t, hbar, 6, budget=WALK_BUDGET)
    if z6 is None:
        return z4, 6, (0, 2, 4), ("bipartite, so Z5 = 0; Z6 not computed: "
                                  "the closed 6-walks exceed "
                                  "paths.WALK_BUDGET")
    return z4 + z6, 8, (0, 2, 4, 6), (f"bipartite, so Z5 = Z7 = 0; Z6 "
                                      f"computed: t max deg_m = {s:.6g} "
                                      f">= {SIX_JUMPS_FROM:g}")


def estimate_partition(g: WeightedGraph, c: Connection, V, beta: float,
                       hbar: float, samples: int, seed: int,
                       chunk: int = CHUNK_SIZE,
                       workers: int = 1) -> EstimatorReport:
    """Monte Carlo estimate of tr(e^{-beta hbar H_{Phi, V/hbar}}).

    ``c`` and ``V`` are resolved as by ``operators.resolve``, and V / hbar
    is taken in the arithmetic of V's values, as the exact side takes it.
    With t = beta hbar, each vertex x contributes

        Z_x = p_0 tr e^{-t V(x)/hbar} + Z_2(x) + Z_3(x) + Z_4(x)
              (+ Z_6(x)) + E^x[S],

    p_0 = e^{-deg_m(x) t}.  The no-jump term and the strata Z_2, Z_3 and
    Z_4 (``semiclassics.jump_terms``) are exact, and so is Z_6 on a
    bipartite graph with t max deg_m >= ``SIX_JUMPS_FROM``.  A path
    that jumps once cannot return, the graph having no self-loops, nor
    one that jumps five or seven times if the graph is bipartite.  So the
    paths are drawn with their first K jumps forced (``_exact_strata``):
    K = 8 where Z_6 is computed, 6 on any other bipartite graph and 5 on
    the rest; where the closed 4-walks exceed ``WALK_BUDGET``, Z_3 and
    Z_4 are not computed and K is 4 without triangles and 3 with them,
    and where the closed 6-walks exceed it, K is 6.  The walk runs as by
    ``_path_chunk`` with ``loops``: g is the probability of a first jump
    inside the horizon and, given each, of the next, up to the K-th.
    Each path is scored by S, the sum over its jumps k >= K from a
    neighbor of x of the weight of the return to x it could have made
    there and then, in place of the indicator 1_{X_t = x}: by the tower
    property E^x[S] is the weight of the paths with K jumps or more that
    end at x, and ``samples`` such paths estimate it.  A vertex of rate 0
    runs no path and reports its exact terms with stderr 0.  The paths of
    all vertices run vertex-major in pieces of ``chunk`` paths, one kernel
    call per piece on the stream keyed (seed, piece index); per-vertex
    moments merge in piece order, so results do not depend on
    ``workers``.  The Z_x are summed in vertex order, and the imaginary
    part is reported alongside the real one; the report also gives K
    (``forced``), the reason for it (``forced_reason``) and the orders of
    the exact strata (``strata``).
    """
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    if samples < 2:
        raise BadParams("need at least 2 samples per vertex for a "
                        "standard error")
    _check_workers(workers)
    problem = resolve(g, c, V)
    t = beta * hbar
    higher, forced, strata, reason = _exact_strata(problem, t, hbar)
    tbl = _JumpTable(problem, hbar, forced=forced)
    exact = (np.exp(-tbl.rates * t) * np.exp(-t * tbl.lam).sum(axis=1)
             + jump_terms(problem, t, hbar, 2) + higher)
    live = np.flatnonzero(tbl.rates * t > 0.0)  # p_0 < 1

    def run(job):
        ci, size = job
        start = live[(ci * chunk + np.arange(size)) // samples]
        rng = path_stream(seed, _ALL_STARTS, ci)
        _terminal, F, _N = _path_chunk(tbl, start, t, rng, loops=True)
        return _chunk_moments(start, np.stack([F.real, F.imag], axis=1))

    jobs = _chunk_sizes(live.size * samples, chunk)
    mean, se = _mean_se(*_merge_moments(g.n, 2, _run_jobs(run, jobs, workers)))
    # columns: real and imaginary part
    est = np.stack([exact, np.zeros(g.n)], axis=1) + mean
    # correctly rounded, as spectral.partition_function sums its terms, so
    # a zero-variance estimate of a trace meets the exact value bit for bit
    return EstimatorReport(
        math.fsum(est[:, 0].tolist()), float(np.sqrt(np.sum(se[:, 0] ** 2))),
        samples * g.n, imag_estimate=math.fsum(est[:, 1].tolist()),
        imag_stderr=float(np.sqrt(np.sum(se[:, 1] ** 2))),
        per_vertex=tuple(zip(range(g.n), est[:, 0].tolist(),
                             se[:, 0].tolist())),
        forced=forced, strata=strata, forced_reason=reason,
    )
