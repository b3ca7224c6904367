"""Jump-process sampling and Feynman-Kac Monte Carlo estimators.

The process jumps from y to a neighbor x' with probability
b(x', y) / deg_1(y) after an exponential holding time with rate
deg_m(y).  Along each path we carry the connection parallel transport
(ordered product of edge unitaries) and the time-ordered exponential of
the transported potential, which for rank 1 collapses to
e^{-int_0^t v(X_s) ds}.

One chunk kernel runs every estimator: the scalar case is rank 1 of the
covariant one, with the identity connection.  It reads a per-vertex jump
table sorted from the arcs of one ``operators.Problem``: the rate
deg_m(y), the neighbors of y in ascending index order, their cumulative
probabilities cumsum(b(y, .) / deg_1(y)) with the last entry exactly 1,
and the arc transports Phi_{y,x'}.  A jump from y with a uniform u in
[0, 1) takes slot count(cum[y] < u), so it always lands on a neighbor,
and costs O(largest degree), not O(n).

Partition traces are estimated through the unconditioned identity
sum_x E^x[1_{X_t = x} F] without ever sampling bridge measures.

Random streams are counter-based (Philox) and keyed per
(seed, start vertex, chunk index) with a fixed chunk size, so results
are reproducible independent of scheduling and worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bundles import Connection, Potential
from .errors import BadParams, MissingEdgeMatrix, RankMismatch
from .graphs import WeightedGraph, degrees
from .operators import Problem, resolve

CHUNK_SIZE = 8192

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def path_stream(seed: int, vertex: int, index: int) -> np.random.Generator:
    """Counter-based stream for one (seed, start vertex, path/chunk index)."""
    key = ((seed & _MASK64) << 64) | ((vertex & _MASK32) << 32) | (index & _MASK32)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PathSample:
    """One realization of the jump process up to the horizon.

    ``vertices`` is the jump chain Y_0..Y_N and ``times`` the jump times
    starting at 0; the terminal vertex X_t is the last chain state.
    """

    start: int
    horizon: float
    vertices: tuple
    times: tuple

    @property
    def jumps(self):
        return len(self.vertices) - 1

    @property
    def terminal(self):
        return self.vertices[-1]


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
    in ascending index order, ``cum`` their cumulative probabilities
    cumsum(b(y, .) / deg_1(y)) with the last entry and the padding exactly
    1, and ``phi`` the transports Phi_{y,x'} of the problem's arcs.
    A jump from y with uniform u in [0, 1) takes slot count(cum[y] < u).
    """

    def __init__(self, problem: Problem):
        g, nu = problem.graph, problem.rank
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
        eye = np.eye(nu, dtype=complex)
        self.phi = np.broadcast_to(eye, (g.n, width, nu, nu)).copy()
        self.phi[src, slot] = problem.phi[order]


def sample_path(g: WeightedGraph, x: int, t: float,
                stream: np.random.Generator) -> PathSample:
    """Sample one path started at x over horizon t."""
    if t < 0:
        raise BadParams("horizon must be nonnegative")
    tbl = _JumpTable(resolve(g))
    rates, nbrs, cum = tbl.rates.tolist(), tbl.nbrs.tolist(), tbl.cum.tolist()
    cur = x
    tau = 0.0
    verts = [x]
    times = [0.0]
    while t > 0:
        rate = rates[cur]
        if rate == 0.0:
            break
        s = stream.standard_exponential() / rate
        if tau + s >= t:
            break
        tau += s
        # bisect_left on the ascending row counts its entries < u: the slot
        cur = nbrs[cur][bisect_left(cum[cur], stream.random())]
        verts.append(cur)
        times.append(tau)
    return PathSample(x, float(t), tuple(verts), tuple(times))


def parallel_transport(path: PathSample, c: Connection) -> np.ndarray:
    """Ordered product of edge unitaries along the jumps (identity if none)."""
    U = np.eye(c.rank, dtype=complex)
    for k in range(path.jumps):
        y, ynext = path.vertices[k], path.vertices[k + 1]
        if not c.has_edge(y, ynext):
            raise MissingEdgeMatrix(f"no connection matrix for edge ({y},{ynext})")
        U = c.matrix(y, ynext) @ U
    return U


def ordered_exponential(path: PathSample, c: Connection, V: Potential,
                        t: float) -> np.ndarray:
    """Time-ordered exponential of the transported potential up to t.

    Product of interval factors exp(-dt_k B_k) with
    B_k = transport_k^{-1} V(Y_k) transport_k, applied in time order
    (earliest factor rightmost); exact for the piecewise-constant
    integrand of a jump path.
    """
    if path.horizon < t:
        raise BadParams("path horizon shorter than requested time")
    nu = V.rank
    if c is not None and c.rank != nu:
        raise RankMismatch("connection and potential ranks differ")
    U = np.eye(nu, dtype=complex)
    A = np.eye(nu, dtype=complex)
    n_states = len(path.vertices)
    for k in range(n_states):
        t0 = path.times[k]
        t1 = path.times[k + 1] if k + 1 < n_states else t
        t1 = min(t1, t)
        if t0 >= t:
            break
        dt = t1 - t0
        if dt > 0:
            B = U.conj().T @ V.values[path.vertices[k]] @ U
            A = _expm_neg_batch(np.array([dt]), B[None], nu)[0] @ A
        if k + 1 < n_states:
            U = c.matrix(path.vertices[k], path.vertices[k + 1]) @ U
    return A


def occupation_integral(path: PathSample, v, t: float) -> float:
    """int_0^t v(X_s) ds for a scalar potential, exact interval sum."""
    v = v.as_scalar() if isinstance(v, Potential) else np.asarray(v, dtype=float)
    total = 0.0
    n_states = len(path.vertices)
    for k in range(n_states):
        t0 = path.times[k]
        t1 = path.times[k + 1] if k + 1 < n_states else t
        t1 = min(t1, t)
        if t0 >= t:
            break
        total += v[path.vertices[k]] * (t1 - t0)
    return total


# ---------------------------------------------------------------------------
# Vectorized chunk simulation
# ---------------------------------------------------------------------------

def _expm_neg_batch(dt, B, nu):
    """exp(-dt_k B_k) for stacked Hermitian matrices (k, nu, nu)."""
    if nu == 1:
        return np.exp(-dt * B[:, 0, 0].real).astype(complex)[:, None, None]
    lam, Q = np.linalg.eigh(B)
    E = np.exp(-dt[:, None] * lam)
    return (Q * E[:, None, :]) @ Q.conj().swapaxes(1, 2)


def _path_chunk(tbl, start, horizon, Vvals, n_paths, rng):
    """Simulate a chunk of paths; returns (terminal, tr-values, N).

    Per path the value is tr(A_t transport_t^{-1}) with A_t the ordered
    exponential of the transported potential Vvals (n, nu, nu).  For
    rank 1 with the identity connection it is the Feynman-Kac weight
    prod_k e^{-v(Y_k) dt_k}.
    """
    nu = Vvals.shape[1]
    states = np.full(n_paths, start, dtype=np.int64)
    t = np.zeros(n_paths)
    A = np.broadcast_to(np.eye(nu, dtype=complex), (n_paths, nu, nu)).copy()
    U = np.broadcast_to(np.eye(nu, dtype=complex), (n_paths, nu, nu)).copy()
    N = np.zeros(n_paths, dtype=np.int64)
    alive = np.full(n_paths, tbl.rates[start] > 0.0)
    if horizon <= 0:
        vals = np.einsum("kij,kji->k", A, np.conj(U).swapaxes(1, 2))
        return states, vals, N
    idle = ~alive
    if np.any(idle):
        dt0 = np.full(int(idle.sum()), horizon)
        B = np.broadcast_to(Vvals[start], (dt0.size, nu, nu))
        A[idle] = _expm_neg_batch(dt0, B, nu) @ A[idle]
    while np.any(alive):
        act = np.nonzero(alive)[0]
        rates = tbl.rates[states[act]]
        dt = rng.standard_exponential(act.size) / rates
        rem = horizon - t[act]
        dwell = np.minimum(dt, rem)
        Ua = U[act]
        B = np.conj(Ua).swapaxes(1, 2) @ Vvals[states[act]] @ Ua
        A[act] = _expm_neg_batch(dwell, B, nu) @ A[act]
        t[act] += dt
        crossed = dt >= rem
        alive[act[crossed]] = False
        jumpers = act[~crossed]
        if jumpers.size:
            ys = states[jumpers]
            u = rng.random(jumpers.size)
            slot = (tbl.cum[ys] < u[:, None]).sum(axis=1)
            U[jumpers] = tbl.phi[ys, slot] @ U[jumpers]
            states[jumpers] = tbl.nbrs[ys, slot]
            N[jumpers] += 1
    # tr(A U^{-1}) = tr(A U^H) for unitary transport
    vals = np.einsum("kij,kji->k", A, np.conj(U).swapaxes(1, 2))
    return states, vals, N


def simulate_scalar_paths(g: WeightedGraph, start: int, t: float,
                          samples: int, seed: int, v=None,
                          chunk: int = CHUNK_SIZE, workers: int = 1):
    """Chunked scalar simulation; returns (terminal, F, N) arrays.

    With v = None the weights F are identically 1 and the output carries
    the pure process law (terminal states and jump counts).
    """
    problem = resolve(g, None, v)
    tbl = _JumpTable(problem)
    V = problem.potential.values
    jobs = _chunk_sizes(samples, chunk)

    def run(job):
        ci, size = job
        rng = path_stream(seed, start, ci)
        terminal, F, N = _path_chunk(tbl, start, t, V, size, rng)
        return terminal, F.real, N

    parts = _run_jobs(run, jobs, workers)
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _chunk_sizes(samples, chunk):
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
    if workers <= 1:
        return [run(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, jobs))


def _moments(values_by_chunk):
    """(count, mean, M2) merged over the chunks in their fixed order.

    Each chunk's mean and sum of squared deviations M2 are taken about
    its first value, so a constant chunk gives M2 = 0 exactly.  Chunks
    combine by the pairwise update of Chan, Golub & LeVeque (1983), which
    avoids the cancellation of the one-pass s2 - n * mean^2.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for vals in values_by_chunk:
        d = vals - vals[0]
        shift = d.mean()
        nb = vals.size
        mb = float(vals[0] + shift)
        m2b = float(((d - shift) ** 2).sum())
        if n == 0:
            n, mean, m2 = nb, mb, m2b
            continue
        delta = mb - mean
        total = n + nb
        mean += delta * nb / total
        m2 += m2b + delta * delta * n * nb / total
        n = total
    return n, mean, m2


def _mean_se(n, mean, m2):
    return mean, np.sqrt(m2 / max(n - 1, 1) / n)


def estimate_heat_kernel(g: WeightedGraph, x: int, y: int, t: float,
                         samples: int, seed: int, chunk: int = CHUNK_SIZE,
                         workers: int = 1) -> EstimatorReport:
    """Empirical frequency of X_t = y started at x; targets p(t,x,y) m(y)."""
    if samples < 100:
        raise BadParams("need at least 100 samples")
    tbl = _JumpTable(resolve(g))
    zeros = np.zeros((g.n, 1, 1))
    jobs = _chunk_sizes(samples, chunk)

    def run(job):
        ci, size = job
        rng = path_stream(seed, x, ci)
        terminal, _F, _N = _path_chunk(tbl, x, t, zeros, size, rng)
        return (terminal == y).astype(float)

    parts = _run_jobs(run, jobs, workers)
    mean, se = _mean_se(*_moments(parts))
    return EstimatorReport(mean, float(se), samples, f"philox(seed={seed})")


def estimate_partition(g: WeightedGraph, c: Connection, V, beta: float,
                       hbar: float, samples: int, seed: int,
                       chunk: int = CHUNK_SIZE,
                       workers: int = 1) -> EstimatorReport:
    """Monte Carlo estimate of tr(e^{-beta hbar H_{Phi, V/hbar}}).

    ``c`` and ``V`` are resolved as by ``operators.resolve``, and V / hbar
    is taken in the arithmetic of V's values, as the exact side takes it.
    ``samples`` paths are run per start vertex; per-vertex contributions
    E^x[1_{X_t = x} F] with F = tr_x(A_t transport_t^{-1}) are summed in
    vertex order, and the imaginary part is reported alongside the real
    one.
    """
    if beta <= 0 or hbar <= 0:
        raise BadParams("beta and hbar must be positive")
    problem = resolve(g, c, V)
    t = beta * hbar
    tbl = _JumpTable(problem)
    Vs = problem.potential.scaled(hbar).values
    jobs = _chunk_sizes(samples, chunk)

    def run(job):
        x, ci, size = job
        rng = path_stream(seed, x, ci)
        terminal, vals, _N = _path_chunk(tbl, x, t, Vs, size, rng)
        return vals * (terminal == x)

    per_vertex = []
    means_re, means_im = [], []
    var_re = var_im = 0.0
    for x in range(g.n):
        parts = _run_jobs(run, [(x, ci, size) for ci, size in jobs], workers)
        m_re, se_re = _mean_se(*_moments([p.real for p in parts]))
        m_im, se_im = _mean_se(*_moments([p.imag for p in parts]))
        per_vertex.append((x, m_re, float(se_re)))
        means_re.append(m_re)
        means_im.append(m_im)
        var_re += se_re ** 2
        var_im += se_im ** 2
    # correctly rounded, as spectral.partition_function sums its terms, so
    # a zero-variance estimate of a trace meets the exact value bit for bit
    tot_re, tot_im = math.fsum(means_re), math.fsum(means_im)
    return EstimatorReport(
        tot_re, float(np.sqrt(var_re)), samples * g.n,
        f"philox(seed={seed})",
        imag_estimate=tot_im, imag_stderr=float(np.sqrt(var_im)),
        per_vertex=tuple(per_vertex),
    )
