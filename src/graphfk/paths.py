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
table sorted from the arcs of one ``operators.Problem``: the hold rate
of y, the neighbors of y in ascending index order, their cumulative
probabilities cumsum(b(y, .) / deg_1(y)) with the last entry exactly 1,
the eigenbasis V(y)/hbar = Q_y diag(lam_y) Q_y^H, diagonalized once per
problem, and the jump factors W = Q_y^H Phi_{x',y} Q_{x'} between
eigenbases (with the trace estimator's weight deg_m(y) / a_y, below).
A jump from y with a uniform u in [0, 1) takes slot count(cum[y] < u),
so it always lands on a neighbor, and costs O(largest degree), not
O(n).  Paths are weighed in the eigenbases as they walk, at every rank
by the same code: a holding interval scales by a diagonal e^{-s lam_y},
shifted in the trace estimator (below), and a jump multiplies by one W,
so no LAPACK call runs in the path loop, and at rank 1 each factor is
one elementwise product.

Partition traces are estimated per start vertex x from the Dyson
strata Z_k(x), the weight of the paths from x that end at x with exactly
k jumps, as

    Z_x = Z_0 + Z_2 + Z_3 + Z_4 (+ Z_6) + E^x[S],
    E^x[S] = sum_{k >= K} Z_k(x).

Z_0 = p_0 tr e^{-t V(x)/hbar}, with p_0 = e^{-deg_m(x) t} the
probability of no jump, is the paper's semiclassical leading term; Z_2,
Z_3, Z_4 and Z_6 are ``semiclassics.jump_terms``, one routine that sums
divided differences of exp over the closed 2-, 3-, 4- and 6-walks; all
are exact.  Z_1 = 0, the graph having no self-loops, and every odd
stratum is 0 on a bipartite graph; on any other, Z_3 is taken (exactly
0 where there is no triangle).  So the paths are drawn with their first
K jumps forced, K = 6 on a bipartite graph and 5 on any other: each of
the first K holding times is drawn given that it ends before the
horizon, and the path carries the probability g of those events (the
forced transitions of Lewis & Boehm, Nucl. Eng. Des. 77 (1984) 49).  On
a bipartite graph with s = t max deg_m >= ``SIX_JUMPS_FROM`` (1), Z_6 is
exact as well and K = 8; at smaller s the tail beyond six jumps is too
small a share of the trace to be worth it.  Where the closed 4-walks,
times nu^4, exceed ``WALK_BUDGET``, Z_3 and Z_4 are left to the paths,
and K is 4 on a bipartite graph and 3 otherwise; where the closed
6-walks, times nu^6, exceed it, Z_6 is left to them and K stays 6.
``_exact_strata`` picks K from ``graphs.two_colouring`` and says why.
A path is not scored by whether it happens to end at x.  Each of its
jumps k >= K from a neighbor y of x scores, in S, the weight of the
return it could have made: the probability p(y -> x) of jumping to x
times the probability e^{-deg_m(x) r} of then staying there for the
time r left, times the Dyson weight of that return.  This is the
expected-value (next-event) estimator of Spanier & Gelbard, Monte Carlo
Principles and Neutron Transport Problems (1969), ch. 3: each term is
the conditional expectation, given the path up to the time of its k-th
jump, of the weight of the paths that end at x with exactly k jumps, so
its mean is Z_k, and the Bernoulli noise of the indicator is gone.

The trace estimator's holds are survival-biased (implicit capture:
Spanier & Gelbard, ch. 3; Lux & Koblinger, Monte Carlo Particle
Transport Methods, 1991), since the weight e^{-s V/hbar} lives in holds
far shorter than Exp(deg_m) where the potential steps up.  A path holds
at y at rate a_y = deg_m(y) + c_y, with

    c_y = lam_min(y) - min over z in {y} and the neighbors of y of lam_min(z),

lam_min(y) the smallest eigenvalue of V(y)/hbar; it carries the hold
factor e^{-s (lam_y - c_y)}, and every jump out of y, taken or scored,
carries deg_m(y) / a_y.  Both laws give a path the same expected weight:
a hold of length s that ends in a jump has density a e^{-a s} and weighs
(deg_m / a) e^{-s (lam - c)}, together deg_m e^{-s (deg_m + lam)}, and a
hold that reaches the horizon, with probability e^{-a r}, weighs e^{-r
(lam - c)}, together e^{-r (deg_m + lam)}.  The exact Z_0, the stay at x
of a scored return and the test for a vertex that runs paths keep deg_m
and the unshifted lam.  The shift is taken against the lowest neighbor,
not against 0: c is 0 wherever V is flat on a neighborhood and at an
isolated vertex, and V -> V + kappa leaves every c alone, so it draws
the same paths and multiplies every weight by e^{-beta kappa}.  A shift
against 0 would raise every hold rate by about 100 under V = 100 + U[0,
1] and hbar = 1, and put the weight on rare paths with few jumps.

The process law is the same kernel at K = 0: no jump forced and no
survival bias (c = 0).  ``simulate_scalar_paths`` runs it with V = 0
and returns each path's terminal vertex, next-event score and jump
count.

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
from .errors import GraphFKError
from .graphs import WeightedGraph, degrees, two_colouring
from .operators import Problem, resolve
from .semiclassics import _eigenbasis, jump_terms
from .spectral import finite

CHUNK_SIZE = 8192
# Upper bound on ``workers``: each worker is an OS thread, and past a few
# per core they only contend for the cores.  A larger value is refused
# before any job or thread exists.
MAX_WORKERS = 64
# Closed 4-walks, times nu^4 index sequences, above which
# ``estimate_partition`` does not compute Z_3 and Z_4 and forces the
# jumps it forced without them.  The closed 6-walks, times nu^6, meet
# the same budget before Z_6 is computed.  At 2^21 walks on the lattice
# box (rank 1, 2-core machine), Z_4 took 0.25 s (0.12 us per walk) and
# Z_6 0.05 s (0.03 us) where every start's walks spread little
# (``semiclassics._DD_SERIES``), and 1.6 s and 1.8 s (0.75 and 0.85 us)
# where every start's spread widely
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
    imag_estimate: float
    imag_stderr: float
    per_vertex: tuple  # (x, estimate, stderr) per vertex
    forced: int  # the jumps every path was forced to make
    strata: tuple  # the orders k of the strata Z_k added exactly
    forced_reason: str  # why ``forced`` is what it is


class _JumpTable:
    """Per-vertex jump data, one row per vertex y padded to the largest degree.

    ``deg_m[y]`` is deg_m(y), and ``rates[y]`` the rate a_y at which a
    path holds at y: deg_m(y) + c_y, with the survival-biasing shift c_y
    of the module docstring, where ``forced`` > 0, and deg_m(y) where it
    is 0.  Row y of ``nbrs`` holds the neighbors of y in ascending index
    order, and ``cum`` their cumulative probabilities cumsum(b(y, .) /
    deg_1(y)) with the last entry and the padding exactly 1.  A jump from
    y with uniform u in [0, 1) takes slot count(cum[y] < u).  ``lam`` and
    the unitaries Q diagonalize V(y) / hbar = Q_y diag(lam_y) Q_y^H, and a
    hold for a time s at y scales by e^{-s hold_y}, ``hold`` = lam - c.
    ``W[:, :, y, k] = (deg_m(y) / a_y) Q_y^H Phi_{x',y} Q_{x'}`` is the
    factor a jump y -> x' = nbrs[y, k] puts into the Dyson weight, with
    the back transport Phi_{x',y} (the reverse arc's) taken between the
    two eigenbases (``semiclassics._eigenbasis``, the identity on the
    padding); W is stored entry-major, as ``_path_chunk`` keeps its Dyson
    products.

    ``PW`` is W times the jump probability b(x', y) / deg_1(y), the factor
    of a return y -> x that is scored, not taken.  Its slots are flat,
    y * width + k, 0 on the padding, and one 0 follows the last, which a
    return from a non-neighbor of x reads.  ``ncols`` holds the columns of
    ``nbrs`` with the padding set to n, so that the slot of x in row y is
    count(nbrs[y] < x).  ``stay`` is lam + deg_m: held at x for a time r
    without a jump under the process law, a path gains e^{-r stay[x]} in
    the eigenbasis.

    ``forced`` is the number of jumps the trace estimator forces, and the
    first it scores: K of ``_exact_strata``.  ``simulate_scalar_paths``
    walks unforced and passes 0.
    """

    def __init__(self, problem: Problem, hbar: float = 1.0, *, forced: int):
        g, nu = problem.graph, problem.rank
        self.rank = nu
        deg = degrees(g)
        self.deg_m = deg.deg_m
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
        # survival biasing: c_y = lam_min(y) - the lowest lam_min on y and
        # its neighbors, 0 where V is flat about y and at an isolated y
        c = np.zeros(g.n)
        if forced:
            low = self.lam[:, 0]
            floor = low.copy()
            np.minimum.at(floor, src, low[dst])
            c = low - floor
        self.rates = self.deg_m + c
        self.hold = self.lam - c[:, None]
        W = np.broadcast_to(np.eye(nu, dtype=arcW.dtype),
                            (g.n, width, nu, nu)).copy()
        keep = self.deg_m[src] / self.rates[src]  # deg_m / a_y per arc
        W[src, slot] = arcW[order] * keep[:, None, None]
        self.W = np.ascontiguousarray(np.moveaxis(W, (2, 3), (0, 1)))
        PW = (self.W * P).reshape(nu, nu, -1)
        self.PW = np.concatenate([PW, np.zeros((nu, nu, 1), PW.dtype)], axis=2)
        self.stay = self.lam + self.deg_m[:, None]
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


def _path_chunk(tbl, start, horizon, rng):
    """Run one path from each entry of ``start``; returns (terminal, S, N).

    S is the next-event score of each path for the trace estimator.  The
    first K = ``tbl.forced`` jumps are forced: each of the first K holding
    times is drawn given that it ends within the time left, r = horizon -
    (time so far), which happens with probability g_k = 1 - e^{-a_y r} at
    the hold rate a_y of ``tbl.rates``, and the path carries the product g
    = g_1 ... g_K.  So every path jumps at least K times (every start
    needs a positive rate).  Each jump k >= K, at tau_k from a neighbor y
    of the start x, scores the return it could have made:

        g p(y -> x) (deg_m(y) / a_y) e^{-deg_m(x) r}
            tr(M_k Phi_{x,y} e^{-r V(x)}),

    with r = horizon - tau_k, p(y -> x) = b(x, y) / deg_1(y) and M_k the
    Dyson product up to tau_k, its holds and jumps weighed as the table
    says; the stay at x is not drawn, and keeps the process law.  Given
    the path up to tau_k, that is the expected weight of the paths whose
    k-th jump lands on x and that stay there: so E[S] is the weight of
    the paths from x with K jumps or more that end at x, with no
    Bernoulli noise from the indicator.  The path itself walks on as
    drawn.  At K = 0 the table has no survival bias (c = 0), the walk is
    the process law itself, and E[S] + e^{-deg_m(x) t} tr e^{-t V(x)} is
    the diagonal (e^{-tH})_xx; a path from a start of rate 0 holds there,
    with S = 0 and N = 0.

    The jump chain is walked for all paths at once, round by round, and
    each path carries its Dyson product M in the eigenbases of the
    potential, stored entry-major, shape (nu, nu, paths), so that every
    operation runs over the long path axis.  M starts at the identity.  A
    round multiplies in the jump the path made in the round before, M W
    with W = (deg_m(y) / a_y) Q_y^H Phi_{x',y} Q_{x'} (one nu x nu
    product, in which the inner Q_{x'} Q_{x'}^H cancel; the first is W
    with its rows scaled, M being diagonal until then), then g_k in a
    forced round, then the hold, which scales the columns of M by e^{-s
    (lam_y - c_y)}.  The score of a return takes nu^2 products
    (``_return_score``); the path it closes ends at x, so the outer Q_x
    ... Q_x^H leave its trace unchanged.  A path leaves the walk in the
    round it stops jumping, before that round's products: its last jump
    and last hold are never multiplied out.
    """
    nu, width = tbl.rank, tbl.nbrs.shape[1]
    states = start.copy()
    N = np.zeros(start.size, dtype=np.int64)
    S = np.zeros(start.size, dtype=tbl.dtype)
    act = np.flatnonzero((horizon > 0) & (tbl.rates[start] > 0.0))
    ys, t = start[act], np.zeros(act.size)
    M = np.zeros((nu, nu, act.size), dtype=tbl.dtype)
    M[range(nu), range(nu)] = 1.0
    W = tbl.W.reshape(nu, nu, -1)
    # the arc of each path's last jump, read from round 1 on; set before
    # round 0 because at K = 0 a path can stop in it, and arc is filtered
    arc = ys
    i = 0  # the round, and the jump it makes is jump i + 1
    while act.size:
        rates = tbl.rates[ys]
        rem = horizon - t
        if i < tbl.forced:
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
        dropped = not jumped.all()  # never in a forced round
        if dropped:
            # a path that leaves the walk ends where it is, after i jumps
            left = np.flatnonzero(~jumped)
            states[act[left]] = ys[left]
            N[act[left]] = i
            act, ys, t, dwell, arc, M = (
                a[..., jumped] for a in (act, ys, t, dwell, arc, M))
        if i == 1:  # M is diagonal: M W is W with its rows scaled
            M = np.repeat(M[range(nu), range(nu)][:, None], nu, axis=1)
            M *= np.take(W, arc, axis=2)
        elif i:
            M = _matmul(M, np.take(W, arc, axis=2), fresh=dropped)
        if i < tbl.forced:
            M *= g
        # the holding factor exp(-dwell V(y)) in the eigenbasis of V(y), a
        # diagonal, times e^{dwell c_y} for a hold at the biased rate
        M *= _exp_take(tbl.hold, ys, dwell).T[None]
        if i >= tbl.forced - 1:
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
        i += 1
    return states, S, N


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
                          samples: int, seed: int):
    """The process law from ``start`` with V = 0, in chunks of
    ``CHUNK_SIZE`` paths on the streams keyed (seed, start, chunk index);
    returns (terminal, S, N) arrays.

    It is the K = 0 run of ``_path_chunk``: no forced jump and no
    survival bias, so the terminal vertices and jump counts follow the
    jump process, and S is the next-event score of the returns to
    ``start``, of mean (e^{-tH})_xx - e^{-deg_m(x) t}.
    """
    if not t >= 0:  # NaN fails it too
        raise GraphFKError("horizon must be nonnegative")
    if not 0 <= start < g.n:
        raise GraphFKError(f"start vertex {start} not in graph")
    if samples < 1:
        raise GraphFKError("need at least 1 sample")
    tbl = _JumpTable(resolve(g), forced=0)
    parts = (_path_chunk(tbl, np.full(size, start, dtype=np.int64), t,
                         path_stream(seed, start, ci))
             for ci, size in _chunk_sizes(samples))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _chunk_sizes(samples):
    """(chunk index, size) of each piece of ``samples`` paths, in pieces
    of ``CHUNK_SIZE``, lazily, so that a run of any size holds no list of
    its jobs."""
    chunk = CHUNK_SIZE
    return ((ci, min(chunk, samples - ci * chunk))
            for ci in range(-(-samples // chunk)))


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
    ``WALK_BUDGET``; then the strata are Z_0 and Z_2, and K is 4 on a
    bipartite graph and 3 on any other.  Otherwise K is the first order
    above 4 whose stratum the graph does not make 0: 5 on a graph that is
    not bipartite, which takes Z_3 (0 where no 2-path closes with an arc,
    so where there is no triangle), and 6 on a bipartite one, which has
    no closed walk of odd length.  On a bipartite graph with s = t max
    deg_m at least ``SIX_JUMPS_FROM``, Z_6 is exact too and K is 8,
    unless the closed 6-walks, times nu^6, exceed the budget.
    """
    g = problem.graph
    bipartite = two_colouring(g) is not None
    z4 = jump_terms(problem, t, hbar, 4, budget=WALK_BUDGET)
    if z4 is None:
        over = "Z3 and Z4 not computed: the closed 4-walks exceed " \
               "paths.WALK_BUDGET"
        if bipartite:
            return 0.0, 4, (0, 2), over + "; bipartite, so Z3 = 0"
        return 0.0, 3, (0, 2), over
    if not bipartite:
        # within the budget, tr A^3 <= sqrt(2E tr A^4) is too
        return (z4 + jump_terms(problem, t, hbar, 3), 5, (0, 2, 3, 4),
                "not bipartite, so Z5 is not 0")
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
    one that jumps three, five or seven times if the graph is bipartite.
    So the paths are drawn with their first K jumps forced
    (``_exact_strata``): K = 8 where Z_6 is computed, 6 on any other
    bipartite graph and 5 on the rest; where the closed 4-walks exceed
    ``WALK_BUDGET``, Z_3 and Z_4 are not computed and K is 4 on a
    bipartite graph and 3 on any other, and where the closed 6-walks
    exceed it, K is 6.  The walk runs as by ``_path_chunk``: g is the
    probability of a first jump inside the horizon and, given each, of
    the next, up to the K-th.  The holds are survival-biased (module
    docstring): a path holds at y at rate a_y = deg_m(y) + c_y, c_y =
    lam_min(y) less the lowest lam_min on y and its neighbors, with the
    hold factor e^{-s (lam_y - c_y)} and deg_m(y) / a_y on every jump out
    of y; the exact terms and the stay of a scored return keep deg_m.  c = 0 where V is flat on a neighborhood, so such
    a vertex draws as the process does, and V + kappa draws as V does,
    with every weight times e^{-beta kappa}.
    Each path is scored by S, the sum over its jumps k >= K from a
    neighbor of x of the weight of the return to x it could have made
    there and then, in place of the indicator 1_{X_t = x}: by the tower
    property E^x[S] is the weight of the paths with K jumps or more that
    end at x, and ``samples`` such paths estimate it.  A vertex of rate 0
    runs no path and reports its exact terms with stderr 0.  Exact terms
    that overflow a float raise NumericalFailure before a path runs.  The
    paths of all vertices run vertex-major in pieces of ``CHUNK_SIZE``
    paths, one kernel call per piece on the stream keyed (seed, piece
    index); per-vertex moments merge in piece order, so results do not
    depend on ``workers``.  The Z_x are summed in vertex order, and the imaginary
    part is reported alongside the real one; the report also gives K
    (``forced``), the reason for it (``forced_reason``) and the orders of
    the exact strata (``strata``).
    """
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise GraphFKError("beta and hbar must be positive")
    if samples < 2:
        raise GraphFKError("need at least 2 samples per vertex for a "
                           "standard error")
    if not 1 <= workers <= MAX_WORKERS:
        raise GraphFKError(f"workers must be between 1 and {MAX_WORKERS}, "
                           f"not {workers}")
    problem = resolve(g, c, V)
    t = beta * hbar
    with np.errstate(over="ignore"):  # refused by ``finite``
        higher, forced, strata, reason = _exact_strata(problem, t, hbar)
        tbl = _JumpTable(problem, hbar, forced=forced)
        exact = (np.exp(-tbl.deg_m * t) * np.exp(-t * tbl.lam).sum(axis=1)
                 + jump_terms(problem, t, hbar, 2) + higher)
    finite(exact, f"the exact part of the estimate at t = {t:.6g}")
    live = np.flatnonzero(tbl.deg_m * t > 0.0)  # p_0 < 1

    def run(job):
        ci, size = job
        start = live[(ci * CHUNK_SIZE + np.arange(size)) // samples]
        rng = path_stream(seed, _ALL_STARTS, ci)
        _terminal, S, _N = _path_chunk(tbl, start, t, rng)
        return _chunk_moments(start, np.stack([S.real, S.imag], axis=1))

    jobs = _chunk_sizes(live.size * samples)
    mean, se = _mean_se(*_merge_moments(g.n, 2, _run_jobs(run, jobs, workers)))
    # columns: real and imaginary part
    est = np.stack([exact, np.zeros(g.n)], axis=1) + mean
    # correctly rounded, as spectral.partition_function sums its terms, so
    # a zero-variance estimate of a trace meets the exact value bit for bit
    return EstimatorReport(
        math.fsum(est[:, 0].tolist()), float(np.sqrt(np.sum(se[:, 0] ** 2))),
        imag_estimate=math.fsum(est[:, 1].tolist()),
        imag_stderr=float(np.sqrt(np.sum(se[:, 1] ** 2))),
        per_vertex=tuple(zip(range(g.n), est[:, 0].tolist(),
                             se[:, 0].tolist())),
        forced=forced, strata=strata, forced_reason=reason,
    )
