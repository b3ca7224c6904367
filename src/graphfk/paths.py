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
degree), not O(n).  Paths are weighed in the eigenbases: a holding
interval scales by diag(e^{-s lam_y}) and a jump multiplies by one W, so
no LAPACK call runs in the path loop, and a holding factor at rank 1 is
an elementwise exp.

Partition traces are estimated per start vertex x as

    Z_x = p_0 tr e^{-t V(x)/hbar} + E^x[S],   E^x[S] = E^x[g 1_{X_t = x} F]

with p_0 = e^{-deg_m(x) t} the probability of no jump.  The first term,
the paper's semiclassical leading term, is exact.  A path with one jump
ends where it cannot start, the graph having no self-loops, so that
stratum is 0 and the paths skip it: each of the first two holding times
is drawn given that it ends before the horizon, and the path carries the
probability g of that pair of events (the forced transitions of Lewis &
Boehm, Nucl. Eng. Des. 77 (1984) 49).  A path is not scored by whether
it happens to end at x.  Each of its jumps k >= 2 from a neighbor y of x
scores, in S, the weight of the return it could have made: the
probability p(y -> x) of jumping to x times the probability
e^{-deg_m(x) r} of then staying there for the time r left, times the
Dyson weight of that return.  This is the expected-value (next-event)
estimator of Spanier & Gelbard, Monte Carlo Principles and Neutron
Transport Problems (1969), ch. 3: each term is the conditional
expectation, given the path up to the time of its k-th jump, of the
weight of the paths that end at x with exactly k jumps, so E[S] is
unchanged, and the Bernoulli noise of the indicator is gone.

The process-law estimators run at rank 1, unconditioned:
``simulate_scalar_paths`` returns each path's terminal vertex,
Feynman-Kac weight and jump count, and ``estimate_heat_kernel`` counts
the terminal vertices of that walk.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bundles import Connection
from .errors import BadParams, UnknownIndex
from .graphs import WeightedGraph, degrees
from .operators import Problem, resolve

CHUNK_SIZE = 8192

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
    seed_descriptor: str
    imag_estimate: float = None
    imag_stderr: float = None
    per_vertex: tuple = None


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
    eigenbases; W is stored entry-major, as ``_weigh`` keeps its matrices.
    At rank 1 ``lam`` is the value itself and ``W`` is Phi.

    ``PW`` is W times the jump probability b(x', y) / deg_1(y), the factor
    of a return y -> x that is scored, not taken.  Its slots are flat,
    y * width + k, 0 on the padding, and one 0 follows the last, which a
    return from a non-neighbor of x reads.  ``ncols`` holds the columns of
    ``nbrs`` with the padding set to n, so that the slot of x in row y is
    count(nbrs[y] < x).  ``stay`` is lam + deg_m: held at x for a time r
    without a jump, a path gains e^{-r stay[x]} in the eigenbasis.
    """

    def __init__(self, problem: Problem, hbar: float = 1.0):
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
        eye = np.eye(nu, dtype=problem.phi.dtype)
        phi = np.broadcast_to(eye, (g.n, width, nu, nu)).copy()
        phi[src, slot] = problem.phi[order ^ 1]
        values = problem.potential.scaled(hbar).values
        if nu == 1:
            self.lam, W = values[:, 0].real, phi
        else:
            self.lam, Q = np.linalg.eigh(values)
            W = Q.conj().swapaxes(1, 2)[:, None] @ phi @ Q[self.nbrs]
        self.W = np.ascontiguousarray(np.moveaxis(W, (2, 3), (0, 1)))
        PW = (self.W * P).reshape(nu, nu, -1)
        self.PW = np.concatenate([PW, np.zeros((nu, nu, 1), PW.dtype)], axis=2)
        self.stay = self.lam + self.rates[:, None]
        self.dtype = self.W.dtype


# ---------------------------------------------------------------------------
# Vectorized chunk simulation
# ---------------------------------------------------------------------------

def _matmul(A, B):
    """Stacked A @ B for matrices stored entry-major, shape (nu, nu, k):
    nu broadcast products over the long last axis, several times faster
    than matmul's per-matrix calls for the small nu of a fibre."""
    out = A[:, 0, None] * B[None, 0]
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

    At rank 1, F is the path's Dyson weight (module docstring), with the
    identity connection the Feynman-Kac weight prod_k e^{-v(Y_k) s_k}.
    Above rank 1 the kernel serves the trace estimator alone, called with
    ``loops``.

    With ``loops`` the chunk serves the trace estimator and returns the
    next-event score S of each path in place of F.  The first two jumps
    are forced: each of the first two holding times is drawn given that it
    ends within the time left, r = horizon - (time so far), which happens
    with probability g_k = 1 - e^{-deg_m r}, and the path carries the
    product g = g_1 g_2.  So every path jumps at least twice (every start
    needs a positive rate).  Each jump k >= 2, at tau_k from a neighbor y
    of the start x, scores the return it could have made:

        g p(y -> x) e^{-deg_m(x) r} tr(M_k Phi_{x,y} e^{-r V(x)}),

    with r = horizon - tau_k, p(y -> x) = b(x, y) / deg_1(y) and M_k the
    Dyson product up to tau_k.  Given the path up to tau_k, that is the
    expected weight of the paths whose k-th jump lands on x and that stay
    there: so E[S] = E[g 1_{X_t = x} F], the contribution of the paths with
    two jumps or more, with no Bernoulli noise from the indicator.  The
    path itself walks on as drawn.

    The jump chain is walked for all paths at once, round by round.  At
    rank 1 the weights, and the scores, are multiplied in as the paths go;
    above rank 1 the walk carries g alone, each round's holding times and
    jumps are recorded, and the matrix products are replayed afterwards
    (``_weigh``).
    """
    nu, width = tbl.rank, tbl.nbrs.shape[1]
    states = start.copy()
    t = np.zeros(start.size)
    N = np.zeros(start.size, dtype=np.int64)
    # the weights at rank 1; above rank 1 the real factor g alone
    F = np.ones(start.size, dtype=tbl.dtype if nu == 1 else float)
    S = np.zeros(start.size, dtype=tbl.dtype)
    if nu == 1:
        # a path from a vertex of rate 0 holds there up to the horizon
        idle = np.flatnonzero((horizon > 0) & (tbl.rates[start] == 0.0))
        F[idle] *= _hold(tbl, start[idle], np.full(idle.size, horizon))[:, 0]
    moving = np.flatnonzero((horizon > 0) & (tbl.rates[start] > 0.0))
    act = moving
    rounds = []
    forced = 2 if loops else 0
    i = 0  # the round, and the jump it makes is jump i + 1
    while act.size:
        ys = states[act]
        rates = tbl.rates[ys]
        rem = horizon - t[act]
        if i < forced:
            # P(tau <= s | tau < r) = expm1(-rate s) / expm1(-rate r); the
            # clamp keeps a draw that rounds up to r inside it
            g = -np.expm1(-rates * rem)
            u = rng.random(act.size)
            dt = np.minimum(-np.log1p(-u * g) / rates, np.nextafter(rem, 0.0))
            F[act] *= g
        else:
            dt = rng.standard_exponential(act.size) / rates
        t[act] += dt
        jumped = dt < rem
        dwell = np.minimum(dt, rem)
        if nu == 1:
            F[act] *= _hold(tbl, ys, dwell)[:, 0]
        else:
            held = np.empty(start.size)
            held[act] = dwell
        act = act[jumped]
        took = None
        if act.size:
            ys = states[act]
            if loops and nu == 1 and i:
                # jump 2 or later: score the return to the start
                S[act] += _return_score(tbl, F[act][None, None], ys,
                                        start[act], horizon - t[act])
            u = rng.random(act.size)
            # count(cum[y] < u), column by column: a row-wise sum over the
            # short rows costs several times more
            slot = np.zeros(act.size, dtype=np.int64)
            for col in tbl.cols:
                slot += col[ys] < u
            arc = ys * width + slot  # the flat index of (y, slot)
            if nu == 1:
                F[act] *= np.take(tbl.W, arc)
            else:
                took = np.empty(start.size, dtype=np.int64)
                took[act] = slot
            states[act] = np.take(tbl.nbrs, arc)
            N[act] += 1
        if nu > 1:
            rounds.append((held, took))
        i += 1
    if nu == 1:
        return states, S if loops else F, N
    paths, score = _weigh(tbl, start, horizon, N, rounds, moving)
    S[paths] = F[paths] * score
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


def _weigh(tbl, start, horizon, N, rounds, paths):
    """Next-event scores (rank > 1) of ``paths``, without g; returns
    (paths, scores) in the order replayed.  ``rounds`` holds, per round of
    the walk, the holding times and the slots taken, indexed by path.

    The replay runs in the eigenbases of the potential.  M starts at the
    identity; a hold at y scales its columns by e^{-s lam_y}, and a jump
    y -> x' multiplies it by W = Q_y^H Phi_{x',y} Q_{x'}, one nu x nu
    product, in which the inner Q_{x'} Q_{x'}^H cancel.  A jump k >= 2
    from a neighbor y of the start x, with M held at y up to tau_k and
    r = horizon - tau_k left, adds

        sum_ab M_ab (P W)_ba e^{-r (lam_{x,a} + deg_m(x))},

    the trace of M times the return y -> x and a hold at x up to the
    horizon without a jump, nu^2 products; the path it closes ends at x,
    so the outer Q_x ... Q_x^H leave the trace unchanged.  A path's replay
    ends at its last jump, and the nu x nu product of a jump runs only for
    the paths that jump again.

    The paths are taken most jumps first, so that those that jump in a
    round, and those that jump again, are prefixes.
    """
    nu, width = tbl.rank, tbl.nbrs.shape[1]
    paths = paths[np.argsort(-N[paths], kind="stable")]
    neg = -N[paths]  # ascending

    def count(i):  # of the paths with N >= i, a prefix
        return int(np.searchsorted(neg, -i, side="right"))

    x = start[paths]
    cur = x.copy()  # the vertex each path is at
    # M is stored entry-major, (nu, nu, paths), so that every operation
    # runs over the long path axis
    M = np.zeros((nu, nu, paths.size), dtype=tbl.dtype)
    M[range(nu), range(nu)] = 1.0
    tau = np.zeros(paths.size)
    total = np.zeros(paths.size, dtype=tbl.dtype)
    for i, (held, took) in enumerate(rounds):
        # a path is done at its last jump
        jumping = count(i + 1)
        if not jumping:
            break
        s = held[paths[:jumping]]
        e = _hold(tbl, cur[:jumping], s).T
        M[:, :, :jumping] *= e[None]
        tau[:jumping] += s
        if i:
            total[:jumping] += _return_score(
                tbl, M[:, :, :jumping], cur[:jumping], x[:jumping],
                horizon - tau[:jumping])
        again = count(i + 2)
        arc = cur[:again] * width + took[paths[:again]]
        if i:
            W = np.take(tbl.W.reshape(nu, nu, -1), arc, axis=2)
            M[:, :, :again] = _matmul(M[:, :, :again], W)
        else:  # M is the diagonal diag(e): M W is W with rows scaled by e
            np.take(tbl.W.reshape(nu, nu, -1), arc, axis=2, mode="clip",
                    out=M[:, :, :again])
            M[:, :, :again] *= e[:, None, :again]
        cur[:again] = np.take(tbl.nbrs, arc)
    return paths, total


def simulate_scalar_paths(g: WeightedGraph, start: int, t: float,
                          samples: int, seed: int, v=None,
                          chunk: int = CHUNK_SIZE, workers: int = 1):
    """Chunked scalar simulation; returns (terminal, F, N) arrays.

    With v = None the weights F are identically 1 and the output carries
    the pure process law (terminal states and jump counts).
    """
    if t < 0:
        raise BadParams("horizon must be nonnegative")
    if not 0 <= start < g.n:
        raise UnknownIndex(f"start vertex {start} not in graph")
    if samples < 1:
        raise BadParams("need at least 1 sample")
    if workers < 1:
        raise BadParams("need at least 1 worker")
    tbl = _JumpTable(resolve(g, None, v))
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
    if chunk < 1:
        raise BadParams("chunk size must be at least 1")
    jobs = []
    done = 0
    ci = 0
    while done < samples:
        size = min(chunk, samples - done)
        jobs.append((ci, size))
        done += size
        ci += 1
    return jobs


def _run_jobs(run, jobs, workers):
    """The results of ``run`` over ``jobs``, yielded in job order."""
    if workers <= 1:
        yield from map(run, jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(run, jobs)


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


def _moments(values_by_chunk):
    """(count, mean, M2) of one sample given in chunks, merged in order."""
    n, mean, m2 = _merge_moments(1, 1, (
        _chunk_moments(np.zeros(v.size, dtype=np.int64), v[:, None])
        for v in values_by_chunk))
    return int(n[0, 0]), float(mean[0, 0]), float(m2[0, 0])


def _mean_se(n, mean, m2):
    return mean, np.sqrt(m2 / np.maximum(n - 1, 1) / np.maximum(n, 1))


def estimate_heat_kernel(g: WeightedGraph, x: int, y: int, t: float,
                         samples: int, seed: int, chunk: int = CHUNK_SIZE,
                         workers: int = 1) -> EstimatorReport:
    """Empirical frequency of X_t = y started at x; targets p(t,x,y) m(y).

    The walk is that of ``simulate_scalar_paths``; its hits merge chunk by
    chunk.
    """
    if samples < 100:
        raise BadParams("need at least 100 samples")
    if not 0 <= y < g.n:
        raise UnknownIndex(f"vertex {y} not in graph")
    terminal, _F, _N = simulate_scalar_paths(g, x, t, samples, seed,
                                             chunk=chunk, workers=workers)
    hits = (terminal == y).astype(float)
    mean, se = _mean_se(*_moments(np.split(hits, range(chunk, samples,
                                                        chunk))))
    return EstimatorReport(mean, float(se), samples, f"philox(seed={seed})")


def estimate_partition(g: WeightedGraph, c: Connection, V, beta: float,
                       hbar: float, samples: int, seed: int,
                       chunk: int = CHUNK_SIZE,
                       workers: int = 1) -> EstimatorReport:
    """Monte Carlo estimate of tr(e^{-beta hbar H_{Phi, V/hbar}}).

    ``c`` and ``V`` are resolved as by ``operators.resolve``, and V / hbar
    is taken in the arithmetic of V's values, as the exact side takes it.
    With t = beta hbar, each vertex x contributes

        Z_x = p_0 tr e^{-t V(x)/hbar} + E^x[S],

    p_0 = e^{-deg_m(x) t}.  The no-jump term is exact.  A path that jumps
    once cannot return, the graph having no self-loops, so the paths are
    drawn with their first two jumps forced, as by ``_path_chunk`` with
    ``loops``: g = (1 - e^{-deg_m(x) t})(1 - e^{-deg_m(y) (t - tau_1)}) is
    the probability of a first jump and, given it at tau_1 to y, of a
    second.  Each path is scored by S, the sum over its jumps k >= 2 from
    a neighbor of x of the weight of the return to x it could have made
    there and then, in place of the indicator 1_{X_t = x}: by the tower
    property E^x[S] = E^x[g 1_{X_t = x} F], the weight of the paths with
    two jumps or more that end at x, and ``samples`` such paths estimate
    it.  A vertex of rate 0 runs no path and reports its exact term with
    stderr 0.  The paths of all vertices run vertex-major in pieces of
    ``chunk`` paths, one kernel call per piece on the stream keyed (seed,
    piece index); per-vertex moments merge in piece order, so results do
    not depend on ``workers``.  The Z_x are summed in vertex order, and
    the imaginary part is reported alongside the real one.
    """
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    if samples < 2:
        raise BadParams("need at least 2 samples per vertex for a "
                        "standard error")
    if workers < 1:
        raise BadParams("need at least 1 worker")
    problem = resolve(g, c, V)
    t = beta * hbar
    tbl = _JumpTable(problem, hbar)
    no_jump = np.exp(-tbl.rates * t) * np.exp(-t * tbl.lam).sum(axis=1)
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
    est = np.stack([no_jump, np.zeros(g.n)], axis=1) + mean
    # correctly rounded, as spectral.partition_function sums its terms, so
    # a zero-variance estimate of a trace meets the exact value bit for bit
    return EstimatorReport(
        math.fsum(est[:, 0].tolist()), float(np.sqrt(np.sum(se[:, 0] ** 2))),
        samples * g.n, f"philox(seed={seed})",
        imag_estimate=math.fsum(est[:, 1].tolist()),
        imag_stderr=float(np.sqrt(np.sum(se[:, 1] ** 2))),
        per_vertex=tuple(zip(range(g.n), est[:, 0].tolist(),
                             se[:, 0].tolist())),
    )
