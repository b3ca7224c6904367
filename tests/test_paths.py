import itertools
import math
from collections.abc import Iterator

import numpy as np
import pytest

from graphfk.bundles import Connection, Potential, connection_from_magnetic
from graphfk.errors import GraphFKError
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import assemble, resolve
from scipy.linalg import expm

from graphfk import paths
from graphfk.paths import (
    CHUNK_SIZE,
    MAX_WORKERS,
    _chunk_moments,
    _chunk_sizes,
    _exp_take,
    _JumpTable,
    _mean_se,
    _merge_moments,
    _path_chunk,
    _run_jobs,
    estimate_partition,
    path_stream,
    simulate_scalar_paths,
)
from graphfk.semiclassics import jump_terms
from graphfk.spectral import (
    eigendecompose,
    eigenvalues,
    heat_kernel,
    partition_function,
)

from conftest import (
    _moments,
    dense_weights,
    exact_trace,
    random_connection,
    random_graph,
    random_potential,
    spectral_floor,
    transports,
)
from graphfk.presets import two_vertex


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


class TestSamplePath:
    """Laws of the jump process, checked on the paths that
    ``simulate_scalar_paths`` walks in one batch."""

    def test_zero_horizon(self, edge_graph):
        terminal, _S, N = simulate_scalar_paths(edge_graph, 0, 0.0, 100,
                                                seed=1)
        assert N.tolist() == [0] * 100
        assert terminal.tolist() == [0] * 100

    def test_two_vertex_alternates(self, edge_graph):
        # single neighbor: every jump flips the vertex
        terminal, _S, N = simulate_scalar_paths(edge_graph, 0, 5.0, 2000,
                                                seed=2)
        assert N.max() > 5
        assert np.array_equal(terminal, N % 2)

    def test_one_jump_lands_on_a_neighbor(self, rng):
        for i in range(20):
            g = random_graph(rng, max_n=8)
            x = int(rng.integers(0, g.n))
            terminal, _S, N = simulate_scalar_paths(g, x, 0.5, 500, seed=i)
            assert np.all(terminal[N == 0] == x)
            one = terminal[N == 1]
            assert one.size
            assert all(dense_weights(g)[x, one] > 0)

    def test_isolated_vertex_never_jumps(self):
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "c"],
                        measure=[("c", 1.0)])
        terminal, _S, N = simulate_scalar_paths(g, 2, 10.0, 100, seed=4)
        assert N.tolist() == [0] * 100 and terminal.tolist() == [2] * 100

    def test_negative_horizon(self, edge_graph):
        with pytest.raises(GraphFKError, match="horizon must be nonnegative"):
            simulate_scalar_paths(edge_graph, 0, -1.0, 3, seed=5)

    def test_no_jump_probability(self, edge_graph):
        # P(N(t)=0) = e^{-deg_m(x) t}: deg_m = 1 on the edge, and 2 at the
        # centre of a 3-path with unit weights
        n = 100_000
        center = generate("path", n=3)
        for g, x, rate, t, seed in ((edge_graph, 0, 1.0, 1.0, 11),
                                    (center, 1, 2.0, 0.1, 12),
                                    (center, 1, 2.0, 0.5, 13),
                                    (center, 1, 2.0, 1.0, 14)):
            _term, _S, N = simulate_scalar_paths(g, x, t, n, seed=seed)
            p_hat = float((N == 0).mean())
            p = math.exp(-rate * t)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 3 * se

    def test_transition_frequencies(self):
        # the star centre jumps to leaf j with probability b_j / sum b; with
        # m(l2) = 3 both leaves leave at rate 1, so stopping after one jump
        # does not bias the leaf it took
        g = build_graph([("c", "l1", 1.0), ("c", "l2", 3.0)],
                        measure=[("l2", 3.0)])
        terminal, _S, N = simulate_scalar_paths(g, 0, 1.0, 100_000, seed=15)
        first = terminal[N == 1]
        p_hat = float((first == 2).mean())
        p = 0.75
        se = math.sqrt(p * (1 - p) / first.size)
        assert abs(p_hat - p) <= 3 * se

    @pytest.mark.parametrize("which, x, t", [("edge", 0, 1.0),
                                             ("path centre", 1, 0.7),
                                             ("random", 0, 0.9)])
    def test_score_and_stay_give_the_heat_kernel_diagonal(self, rng, which,
                                                          x, t):
        # at K = 0 the walk is the process law, with no survival bias, and
        # S scores the returns to x after one jump or more: mean(S) plus the
        # probability e^{-t deg_m(x)} of never jumping is (e^{-tH})_xx
        g = {"edge": build_graph([("a", "b", 1.0)]),
             "path centre": generate("path", n=3),
             "random": random_graph(rng, max_n=8)}[which]
        _term, S, _N = simulate_scalar_paths(g, x, t, 20_000, seed=17)
        estimate = S.mean() + math.exp(-t * degrees(g).deg_m[x])
        want = heat_kernel(eigendecompose(assemble(g)), t)[x, x] * g.measure[x]
        se = S.std(ddof=1) / math.sqrt(S.size)
        assert se > 0
        assert abs(estimate - want) <= 5 * se

    def test_draws_are_pinned(self):
        # the terminal vertices and jump counts on the stream keyed (seed,
        # start, chunk): a change in the order of the draws shows here
        g = generate("path", n=4)
        terminal, _S, N = simulate_scalar_paths(g, 1, 1.5, 12, seed=23)
        assert terminal.tolist() == [2, 2, 1, 0, 0, 1, 2, 0, 0, 1, 1, 0]
        assert N.tolist() == [1, 3, 2, 3, 3, 2, 7, 3, 5, 2, 2, 1]

    @pytest.mark.parametrize("forced, terminal, jumps", [
        (8, [4, 4, 3, 8, 6, 8, 7, 1, 0, 4, 1, 5, 8, 6, 3, 3, 2, 7],
         [8, 8, 8, 9, 8, 8, 8, 10, 10, 8, 8, 8, 8, 8, 8, 8, 8, 9]),
        (0, [4, 5, 8, 3, 0, 2, 0, 3, 7, 1, 7, 0, 1, 7, 1, 2, 2, 8],
         [6, 3, 5, 6, 6, 2, 1, 0, 1, 3, 4, 3, 5, 3, 6, 5, 2, 2])])
    def test_forced_draws_are_pinned(self, forced, terminal, jumps):
        # the terminal vertices and jump counts of the trace kernel with
        # K forced jumps and survival-biased holds, two paths from each
        # vertex of the side-3 box under a sloped potential
        g = generate("lattice_box", l=2, side=3)
        tbl = _JumpTable(resolve(g, None, np.linspace(0.0, 2.0, g.n)), 0.5,
                         forced=forced)
        got, _S, N = _path_chunk(tbl, np.repeat(np.arange(g.n), 2), 1.5,
                                 path_stream(5, 0, 0))
        assert got.tolist() == terminal and N.tolist() == jumps


class _StubStream:
    """A generator stand-in: the standard exponentials ``holds`` in turn,
    then 1e9 (no further jump), and the uniforms ``u`` in turn, cycled.
    By default one jump at time 1e-9 with uniform u, then none."""

    def __init__(self, u, holds=(1e-9,)):
        self.u = np.atleast_1d(u)
        self.holds = list(holds)
        self.uniforms = 0

    def standard_exponential(self, size):
        return np.full(size, self.holds.pop(0) if self.holds else 1e9)

    def random(self, size):
        value = self.u[self.uniforms % self.u.size]
        self.uniforms += 1
        return np.full(size, value)


class TestJumpTable:
    @pytest.fixture
    def star(self):
        return build_graph([("c", "l0", 0.1), ("c", "l1", 0.7),
                            ("c", "l2", 0.7), ("c", "l3", 0.7)])

    def test_raw_row_sum_falls_short_of_one(self, star):
        # the rounding the table corrects: the centre's raw row ends below 1
        w = np.array([0.1, 0.7, 0.7, 0.7])
        assert np.cumsum(w / degrees(star).deg_1[0])[-1] < 1.0
        tbl = _JumpTable(resolve(star), forced=0)
        assert tbl.cum[0, -1] == 1.0
        assert tbl.nbrs[0].tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("u, leaf", [(1.0 - 2.0**-53, "l3"),
                                         (0.0, "l0")])
    def test_every_draw_lands_on_a_neighbor(self, star, u, leaf):
        terminal, _S, N = _path_chunk(_JumpTable(resolve(star), forced=0),
                                      np.zeros(1, dtype=np.int64), 1.0,
                                      _StubStream(u))
        assert N.tolist() == [1]
        assert star.labels[terminal[0]] == leaf


def _triangle(rng, nu):
    """The 3-cycle, rate deg_m = 2 at every vertex, with a random
    connection and potential of rank ``nu``.  The uniforms 0.25, 0.75,
    0.25 walk it 0 -> 1 -> 2 -> 0: 0 -> 1 is the first slot of {1, 2},
    1 -> 2 the second of {0, 2} and 2 -> 0 the first of {0, 1}."""
    g = generate("cycle", n=3)
    return g, random_connection(g, nu, rng), random_potential(g, nu, rng)


def _dyson_product(phi, V, holds, walk):
    """tr(E_0 Phi_{Y_1,Y_0} E_1 ... E_N), multiplied out directly, with
    the transports ``phi`` of ``conftest.transports``."""
    A = expm(-holds[0] * V.values[walk[0]])
    for dt, y, ynext in zip(holds[1:], walk, walk[1:]):
        A = A @ phi[ynext, y] @ expm(-dt * V.values[ynext])
    return np.trace(A)


def _survival_bias(g, V):
    """(deg_m, a, c) of the trace estimator's biased holds at hbar = 1,
    from the dense weights: c_y = lam_min(y) - the lowest lam_min(z) over
    z = y and its neighbors, lam_min(y) the smallest eigenvalue of V(y),
    and the hold rate a_y = deg_m(y) + c_y."""
    low = np.linalg.eigvalsh(V.values)[:, 0]
    B = dense_weights(g)
    c = np.array([low[y] - min(low[y], low[B[y] > 0].min(initial=np.inf))
                  for y in range(g.n)])
    deg_m = degrees(g).deg_m
    return deg_m, deg_m + c, c


def _bias_factor(deg_m, a, c, holds, walk):
    """What survival biasing multiplies into the score of the return along
    ``walk`` with its ``holds``, the last the stay at the start: deg_m(y) /
    a_y per jump out of y, and e^{s c_y} per hold s before one."""
    factor = 1.0
    for s, y in zip(holds[:-1], walk[:-1]):
        factor *= deg_m[y] / a[y] * math.exp(s * c[y])
    return factor


def _cycle_walk(n, t, forced, a):
    """The stub draws that walk the n-cycle 0 -> 1 -> ... -> n-1 -> 0 with
    the forced holding times ``forced``, then 0 -> 1 -> 0 unforced, and
    the probability g that the forced holding times all end inside the
    horizon t.  Vertex y is left at rate a[y]; a forced holding time s
    with the time r left is drawn with P(tau <= s) = expm1(-a s) /
    expm1(-a r).  Going round takes the first slot of {1, n-1} at 0, the
    second of {i-1, i+1} at 0 < i < n-1, and the first of {0, n-2} at
    n-1; the steps after it take the first slot."""
    slots = [0.25] + [0.75] * (n - 2) + [0.25]
    uniforms, g, r = [], 1.0, t
    for y, (s, slot) in enumerate(zip(forced, slots)):
        uniforms += [math.expm1(-a[y] * s) / math.expm1(-a[y] * r), slot]
        g *= -math.expm1(-a[y] * r)
        r -= s
    return uniforms + [0.25, 0.25], g


class TestKernel:
    def test_single_path_weight_on_a_triangle(self, rng):
        # the loop 0 -> 1 -> 2 -> 0 with its three jumps forced, at 0.2, 0.5
        # and 0.9, scores at jump 3 the Dyson weight tr(E_0 Phi_10 E_1
        # Phi_21 E_2 Phi_02 E_3), earliest factor leftmost; with
        # non-commuting V the reverse order differs.  The holds are drawn
        # at the biased rates a_y, so each jump out of y carries deg_m / a_y
        # and each hold before it e^{s c_y}
        g, c, V = _triangle(rng, 2)
        tbl = _JumpTable(resolve(g, c, V), forced=3)
        deg_m, a, shift = _survival_bias(g, V)
        assert (shift > 0).sum() == 2
        t = 1.2
        uniforms, weight = _cycle_walk(3, t, (0.2, 0.3, 0.4), a)
        score = _path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                            _StubStream(uniforms))[1][0]
        holds, walk = (0.2, 0.3, 0.4, 0.3), (0, 1, 2, 0)
        factor = (weight * 0.5 * math.exp(-2 * 0.3)
                  * _bias_factor(deg_m, a, shift, holds, walk))
        phi = transports(g, c)
        want = factor * _dyson_product(phi, V, holds, walk)
        reverse = expm(-holds[-1] * V.values[walk[-1]])
        for dt, y, ynext in zip(holds[-2::-1], walk[-2::-1], walk[:0:-1]):
            reverse = reverse @ phi[ynext, y] @ expm(-dt * V.values[y])
        reverse = factor * np.trace(reverse)
        assert abs(score - want) <= 1e-12 * abs(want)
        assert abs(score - reverse) > 1e-6 * abs(want)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("n", [3, 4])
    def test_forced_jumps_weight(self, rng, nu, n):
        # the first K jumps are forced, K = 3 on the triangle and
        # K = 4 on the square, which has none, and the path carries g, the
        # probability that they all fall inside the horizon.  The walk round
        # the n-cycle, its holds adding up to 0.9, scores only at jump K,
        # from n-1 (on the triangle jump 2, from the neighbor 1 of 0, does
        # not score): the return to 0 with probability 1/2, staying there up
        # to t = 1.5 with probability e^{-2 r}.  Two unforced holds of 0.1
        # then walk 0 -> 1 -> 0: jump K + 1 leaves the start and adds 0,
        # and jump K + 2 leaves 1 and scores its return.  Every hold is
        # drawn at the biased rate a_y (_survival_bias)
        g = generate("cycle", n=n)
        c, V = random_connection(g, nu, rng), random_potential(g, nu, rng)
        tbl = _JumpTable(resolve(g, c, V), forced=n)
        deg_m, a, shift = _survival_bias(g, V)
        assert shift.max() > 0
        t = 1.5
        forced = (0.2, 0.3, 0.4) if n == 3 else (0.2, 0.3, 0.2, 0.2)
        uniforms, weight = _cycle_walk(n, t, forced, a)
        walk = tuple(range(n)) + (0,)
        phi = transports(g, c)
        returns = [(forced + (0.6,), walk, 0.6),
                   (forced + (0.1, 0.1, 0.4), walk + (1, 0), 0.4)]
        first, second = (
            weight * 0.5 * math.exp(-2 * r) * _dyson_product(phi, V, h, w)
            * _bias_factor(deg_m, a, shift, h, w) for h, w, r in returns)
        # the stub's exponentials are scaled by 1 / a_y: 0.1 a_y holds for 0.1
        for holds, want in (((), first),
                            ((0.1 * a[0], 0.1 * a[1]), first + second)):
            stream = _StubStream(uniforms, holds)
            terminal, S, N = _path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                                         stream)
            assert N.tolist() == [n + len(holds)]
            assert terminal.tolist() == [0]
            assert abs(S[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("x, away", [(0, 1.0 - 2.0**-53), (4, 0.0)])
    def test_jumps_away_from_the_start_score_zero(self, rng, nu, x, away):
        # the path 0 - 1 - 2 - 3 - 4 has no triangle: four forced jumps go
        # from an end to its neighbor, back, to the neighbor again and one
        # step further, so jump 4 leaves a neighbor of the start and scores;
        # two more jumps away from the start, from non-neighbors of it, add
        # exactly 0
        g = generate("path", n=5)
        tbl = _JumpTable(resolve(g, random_connection(g, nu, rng),
                                 random_potential(g, nu, rng)), forced=4)
        back = 1.0 - 2.0**-53 - away  # the other end of a row
        scores = []
        for holds in ((), (0.1, 0.1)):
            # the forced holding times take 0.5, and a jump away from the
            # start the highest slot of a row from 0, the lowest from 4
            stream = _StubStream([0.5, away, 0.5, back, 0.5, away, 0.5, away,
                                  away, away], holds)
            terminal, S, N = _path_chunk(tbl, np.array([x]), 3.0, stream)
            assert N.tolist() == [4 + len(holds)]
            assert terminal.tolist() == [abs(x - 2 - len(holds))]
            scores.append(S[0])
        assert scores[0] != 0 and scores[1] == scores[0]

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_eigenbasis_factor_matches_expm(self, rng, nu):
        # W[:, :, y, k] = Q_y^H Phi_{x',y} Q_{x'}, and a hold is the diagonal
        # e^{-dt lam_y}: Q_y diag(e^{-dt lam_y}) Q_y^H is exp(-dt V(y) / hbar)
        g = generate("path", n=3)
        V = random_potential(g, nu, rng)
        c = random_connection(g, nu, rng)
        hbar = 0.3
        tbl = _JumpTable(resolve(g, c, V), hbar, forced=0)
        lam, Q = np.linalg.eigh(V.values / hbar)
        assert np.array_equal(tbl.lam, lam)
        B, phi = dense_weights(g), transports(g, c)
        for y in range(g.n):
            nbrs = [x for x in range(g.n) if B[y, x] > 0]
            for k, x in enumerate(nbrs):
                assert tbl.nbrs[y, k] == x
                want = Q[y].conj().T @ phi[x, y] @ Q[x]
                assert np.abs(tbl.W[:, :, y, k] - want).max() <= 1e-13
            dt = float(rng.uniform(0.01, 1.0))
            e = _exp_take(tbl.hold, np.array([y]), np.array([dt]))[0]
            got = (Q[y] * e) @ Q[y].conj().T
            want = expm(-dt * V.values[y] / hbar)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("graph", [("cycle", dict(n=5)),
                                       ("complete", dict(n=4)),
                                       ("lattice_box", dict(l=2, side=4))])
    @pytest.mark.parametrize("phased", [False, True])
    def test_scalar_is_rank_one_of_covariant(self, rng, graph, phased):
        # V = diag(v_1, v_2) with a diagonal connection diag(e^{i theta_1},
        # e^{i theta_2}) splits into two rank-1 problems: on the same draws
        # the rank-2 walk is theirs, and its scores are their sum.  With
        # v_2 = v_1 + kappa, kappa >= 0, the three share lam_min = v_1 up to
        # a constant, so the same shifts c and hold rates, and draw alike.
        # At t = 1.5 the paths make 4 to 16 jumps, so the rounds shrink
        g = generate(graph[0], **graph[1])
        v = rng.uniform(-1.0, 1.0, size=g.n)
        v = np.stack([v, v + rng.uniform(0.0, 1.0)])
        theta = rng.uniform(-np.pi, np.pi, size=(2, len(g.edges))) * phased
        phase = np.exp(1j * theta)
        both = Connection.identity(g, 2)
        if phased:
            both = Connection(2, [np.diag(phase[:, k])
                                  for k in range(len(g.edges))])
        V = Potential(2, np.stack([np.diag(v[:, x]) for x in range(g.n)])
                      .astype(complex))
        start = np.repeat(np.arange(g.n), 400)
        tbl = _JumpTable(resolve(g, both, V), 0.5, forced=4)
        assert (tbl.rates > degrees(g).deg_m).any()
        runs = [_path_chunk(tbl, start, 1.5, path_stream(81, 0, 0))]
        for a in range(2):
            c = Connection(1, phase[a].reshape(-1, 1, 1))
            runs.append(_path_chunk(
                _JumpTable(resolve(g, c, Potential.scalar(v[a])), 0.5,
                           forced=4),
                start, 1.5, path_stream(81, 0, 0)))
        (term, S, N), (term_1, S_1, N_1), (term_2, S_2, N_2) = runs
        assert np.array_equal(term, term_1) and np.array_equal(term, term_2)
        assert np.array_equal(N, N_1) and np.array_equal(N, N_2)
        assert N.min() >= 4 and N.max() >= 10
        scale = np.abs(S).max()
        assert scale > 0
        assert np.abs(S - (S_1 + S_2)).max() <= 1e-12 * scale

    def test_unforced_walk_weighs_every_rank(self, rng):
        # at K = 0, V = diag(v_1, v_2) with the identity connection splits
        # into two rank-1 problems: on the same draws it scores their sum
        g = generate("cycle", n=5)
        v = rng.uniform(-1.0, 1.0, size=(2, g.n))
        V = Potential(2, np.stack([np.diag(v[:, x]) for x in range(g.n)]))
        start = np.repeat(np.arange(g.n), 200)
        (term, S, N), *parts = (
            _path_chunk(_JumpTable(resolve(g, None, P), forced=0), start,
                        1.5, path_stream(5, 0, 0))
            for P in (V, v[0], v[1]))
        for term_a, _S_a, N_a in parts:
            assert np.array_equal(term, term_a) and np.array_equal(N, N_a)
        assert np.abs(S).max() > 0
        assert (np.abs(S - parts[0][1] - parts[1][1]).max()
                <= 1e-12 * np.abs(S).max())

    def test_conditioned_draw_stays_inside_the_horizon(self):
        # at rate 1.5 and t = 0.01 the unclamped draw -log1p(u expm1(-rt))/r
        # rounds up to t for u = 1 - 2^-53, and the path would not jump;
        # clamped, the second forced draw also lands inside the time left
        g = build_graph([("a", "b", 1.5)])
        terminal, _S, N = _path_chunk(_JumpTable(resolve(g), forced=4),
                                      np.zeros(1, dtype=np.int64), 0.01,
                                      _StubStream(1.0 - 2.0**-53))
        assert N.tolist() == [2] and terminal.tolist() == [0]


def _series_product(phi, V, holds, walk, order=4):
    """tr(T_0 Phi_{Y_1,Y_0} T_1 ... T_N), T_k the Taylor series of
    exp(-dt_k V(Y_k)) with the powers of all factors summing to at most
    ``order``: the time-ordered series of the path truncated at ``order``,
    exact termwise for a piecewise-constant integrand."""
    nu = V.rank
    total = 0.0
    for powers in itertools.product(range(order + 1), repeat=len(holds)):
        if sum(powers) > order:
            continue
        term = np.eye(nu, dtype=complex)
        for k, (dt, y, p) in enumerate(zip(holds, walk, powers)):
            if k:
                term = term @ phi[y, walk[k - 1]]
            term = term @ (np.linalg.matrix_power(-dt * V.values[y], p)
                           / math.factorial(p))
        total += np.trace(term)
    return total


class TestOrderedExponential:
    def test_dyson_series_oracle(self, rng):
        # small-time truncated ordered series within 5 (|V| t)^5 per entry,
        # so 10 (|V| t)^5 on the rank-2 trace: the loop of
        # test_single_path_weight_on_a_triangle, its times scaled to t
        for _ in range(10):
            g, c, V = _triangle(rng, 2)
            norm = max(np.linalg.norm(V.values[i], 2) for i in range(g.n))
            t = 0.1 / norm
            tbl = _JumpTable(resolve(g, c, V), forced=3)
            deg_m, a, shift = _survival_bias(g, V)
            holds, walk = (0.2 * t, 0.3 * t, 0.4 * t, 0.1 * t), (0, 1, 2, 0)
            uniforms, weight = _cycle_walk(3, t, holds[:3], a)
            score = _path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                                _StubStream(uniforms))[1][0]
            loop = score / (weight * 0.5 * math.exp(-2 * 0.1 * t)
                            * _bias_factor(deg_m, a, shift, holds, walk))
            oracle = _series_product(transports(g, c), V, holds, walk)
            assert abs(loop - oracle) <= 10 * (norm * t) ** 5

    def test_trivial_bundle(self):
        # c = None is the trivial bundle, as in operators.resolve: the same
        # scores, in real arithmetic
        g = generate("path", n=2)
        V = Potential.scalar([0.1, 0.2])
        start = np.zeros(200, dtype=np.int64)
        _t, none, N = _path_chunk(_JumpTable(resolve(g, None, V), forced=0),
                                  start, 5.0, path_stream(1, 0, 0))
        _t, ident, _N = _path_chunk(
            _JumpTable(resolve(g, Connection.identity(g, 1), V), forced=0),
            start, 5.0, path_stream(1, 0, 0))
        assert N.max() > 5 and none.max() > 0
        assert np.array_equal(none, ident)
        assert not np.iscomplexobj(none)

    def test_rank_mismatch(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        V = random_potential(edge_graph, 2, rng)
        with pytest.raises(GraphFKError,
                           match="potential rank 2 != connection rank 3"):
            _JumpTable(resolve(edge_graph, c, V), forced=0)

    def test_gronwall_norm_bound(self, rng):
        # ||A_t|| <= e^{-int w}, w the spectral floor of V, bounds each
        # path's rank-2 score by 2 times its score under w, on the same walk
        g = random_graph(rng, max_n=6)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        w = spectral_floor(V)
        start = np.zeros(2000, dtype=np.int64)
        term, S, N = _path_chunk(_JumpTable(resolve(g, c, V), forced=3),
                                 start, 1.0, path_stream(37, 0, 0))
        term_w, S_w, N_w = _path_chunk(
            _JumpTable(resolve(g, None, w), forced=3), start, 1.0,
            path_stream(37, 0, 0))
        assert np.array_equal(term, term_w) and np.array_equal(N, N_w)
        assert np.any(S != 0)
        assert np.all(np.abs(S) <= 2 * S_w.real * (1 + 1e-12))


class TestOccupationIntegral:
    """At K = 0 a scored return weighs e^{-int_0^t v(X_s) ds} along the
    path that returns, its stay at the start included, times the
    probability e^{-deg_m r} of that stay: the occupation integral of v."""

    def test_constant_one(self, edge_graph):
        # v = 1 integrates to t along every path: each score is e^{-t} times
        # the score of the same draws under v = 0
        start = np.zeros(100, dtype=np.int64)
        (_t0, S0, N0), (_t1, S1, N1) = (
            _path_chunk(_JumpTable(resolve(edge_graph, None, np.full(2, v)),
                                   forced=0),
                        start, 1.7, path_stream(41, 0, 0))
            for v in (0.0, 1.0))
        assert np.array_equal(N0, N1) and N0.max() > 1 and S0.max() > 0
        assert np.abs(S1 - math.exp(-1.7) * S0).max() <= 1e-12 * S0.max()

    def test_no_jump_value(self, edge_graph):
        # a path that holds past the horizon leaves the walk in its first
        # round, before any jump, and scores nothing: Z_0 holds its weight
        terminal, S, N = _path_chunk(
            _JumpTable(resolve(edge_graph, None, np.array([0.3, 9.0])),
                       forced=0),
            np.zeros(1, dtype=np.int64), 2.0, _StubStream(0.5, (1e9,)))
        assert N.tolist() == [0] and terminal.tolist() == [0]
        assert S.tolist() == [0.0]

    def test_two_interval_path(self, edge_graph):
        # the jump 0 -> 1 at 0.4 and back at 0.7: 0.3 spent at vertex 1,
        # where v = 1, and the stay at 0 for the r = 0.3 left, of
        # probability e^{-deg_m r} = e^{-0.3}
        terminal, S, N = _path_chunk(
            _JumpTable(resolve(edge_graph, None, np.array([0.0, 1.0])),
                       forced=0),
            np.zeros(1, dtype=np.int64), 1.0, _StubStream(0.5, (0.4, 0.3)))
        assert N.tolist() == [2] and terminal.tolist() == [0]
        assert -math.log(S[0]) == pytest.approx(0.6, abs=1e-12)


class TestHeatKernelEstimate:
    """The frequency of X_t = y over the terminal vertices of
    ``simulate_scalar_paths`` estimates p(t, x, y) m(y)."""

    def test_two_vertex_on_diagonal(self, edge_graph):
        terminal, _S, _N = simulate_scalar_paths(edge_graph, 0, 1.0, 100_000,
                                                 seed=51)
        hits = (terminal == 0).astype(float)
        estimate, stderr = hits.mean(), hits.std(ddof=1) / math.sqrt(hits.size)
        target = (1 + math.exp(-2)) / 2
        assert abs(estimate - target) <= 3 * stderr

    def test_other_component_exact_zero(self):
        g = build_graph([("a", "b", 1.0), ("c", "d", 1.0)])
        terminal, _S, _N = simulate_scalar_paths(g, 0, 0.8, 1000, seed=52)
        assert np.all(terminal < 2)

    def test_frequencies_partition_unity(self, rng):
        # every path ends on a vertex of g
        g = random_graph(rng, max_n=5)
        terminal, _S, _N = simulate_scalar_paths(g, 0, 0.7, 2000, seed=53)
        freq = np.bincount(terminal, minlength=g.n) / terminal.size
        assert freq.size == g.n
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)


class TestPartitionEstimate:
    def test_free_two_vertex(self, edge_graph):
        report = estimate_partition(edge_graph, None, np.zeros(2), 1.0, 1.0,
                                    50_000, seed=61)
        target = 1 + math.exp(-2)
        assert abs(report.estimate - target) <= 3 * report.stderr

    def test_scalar_matches_spectral(self):
        g, pot = two_vertex()
        beta, hbar = 1.0, 0.05
        exact = exact_trace(g, None, pot, beta, hbar)
        report = estimate_partition(g, None, pot, beta, hbar, 50_000, seed=62)
        assert abs(report.estimate - exact) <= 3 * report.stderr

    def test_covariant_three_cycle(self, rng):
        g = generate("cycle", n=3)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        beta, hbar = 1.0, 0.5
        exact = exact_trace(g, c, V, beta, hbar)
        report = estimate_partition(g, c, V, beta, hbar, 40_000, seed=63)
        assert abs(report.estimate - exact) <= 3 * report.stderr
        assert abs(report.imag_estimate) <= 3 * report.imag_stderr

    def test_scalar_covariant_bit_identity(self):
        # a real vector is rank 1; rank 1 with the identity connection is
        # the scalar case
        g, pot = two_vertex()
        args = (1.0, 0.3, 5000)
        vector = estimate_partition(g, None, pot.as_scalar(), *args, seed=64)
        rank1 = estimate_partition(g, None, pot, *args, seed=64)
        identity = estimate_partition(g, Connection.identity(g, 1), pot,
                                      *args, seed=64)
        assert vector == rank1 == identity

    @pytest.mark.parametrize("n", [4, 6])
    def test_triangles_keep_three_forced_jumps(self, rng, monkeypatch, n):
        # the complete graph has triangles: Z_3 > 0, so without the exact
        # Z_3 (over the walk budget) the estimator may force only three
        # jumps, scoring from jump 3; forcing four would drop Z_3, which
        # here is hundreds of standard errors
        monkeypatch.setattr(paths, "WALK_BUDGET", 0)
        g = generate("complete", n=n)
        w = rng.uniform(-1, 1, size=n)
        exact = exact_trace(g, None, w, 1.0, 0.3)
        rep = estimate_partition(g, None, w, 1.0, 0.3, 4000, seed=80 + n)
        assert (rep.forced, rep.strata) == (3, (0, 2))
        assert abs(rep.estimate - exact) <= 4 * rep.stderr

    def test_worker_count_invariance(self, monkeypatch):
        g, pot = two_vertex()
        assert _biased_somewhere(g, None, pot, 0.2)
        monkeypatch.setattr(paths, "CHUNK_SIZE", 1024)
        kw = dict(beta=1.0, hbar=0.2, samples=20_000, seed=65)
        one = estimate_partition(g, None, pot, workers=1, **kw)
        four = estimate_partition(g, None, pot, workers=4, **kw)
        assert one.estimate == four.estimate
        assert one.stderr == four.stderr
        assert one.per_vertex == four.per_vertex

    def test_straddling_chunks_worker_invariance(self, rng, monkeypatch):
        # 1000 paths per vertex in pieces of 384: pieces straddle vertices
        g = generate("cycle", n=3)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        assert _biased_somewhere(g, c, V, 0.5)
        monkeypatch.setattr(paths, "CHUNK_SIZE", 384)
        reports = [estimate_partition(g, c, V, 1.0, 0.5, 1000, seed=68,
                                      workers=w)
                   for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert all(se > 0 for _x, _est, se in reports[0].per_vertex)

    def test_isolated_vertex_is_exact(self, rng):
        # p_0 = 1 at a vertex of rate 0: its term tr e^{-beta V(x)} is exact
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "c"],
                        measure=[("c", 1.0)])
        V = random_potential(g, 2, rng)
        rep = estimate_partition(g, None, V, 1.0, 0.5, 1000, seed=70)
        _x, est, se = rep.per_vertex[2]
        assert se == 0.0
        assert est == pytest.approx(
            np.exp(-np.linalg.eigvalsh(V.values[2])).sum(), rel=1e-14)

    def test_no_paths_without_edges(self, monkeypatch):
        # every vertex has rate 0: the estimate is the exact trace and no
        # path is run
        g = build_graph([], vertices=["a", "b"])
        w = np.array([0.3, -0.4])

        def no_paths(*args, **kwargs):
            raise AssertionError("a path was run")

        monkeypatch.setattr(paths, "_path_chunk", no_paths)
        rep = estimate_partition(g, None, w, 1.0, 0.25, 1000, seed=72)
        exact = exact_trace(g, None, w, 1.0, 0.25)
        assert rep.estimate == exact
        assert rep.stderr == 0.0

    def test_repeat_run_identical(self):
        g, pot = two_vertex()
        a = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        b = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        assert a == b

    def test_bad_params(self, edge_graph):
        with pytest.raises(GraphFKError, match="beta and hbar must be"):
            estimate_partition(edge_graph, None, np.zeros(2), -1.0, 1.0,
                               1000, seed=67)
        with pytest.raises(GraphFKError, match="beta and hbar must be"):
            estimate_partition(edge_graph, None, np.zeros(2), math.nan, 1.0,
                               1000, seed=67)
        with pytest.raises(GraphFKError,
                           match="potential rank 1 != connection rank 2"):
            estimate_partition(edge_graph, Connection.identity(edge_graph, 2),
                               np.zeros(2), 1.0, 1.0, 1000, seed=69)

    @pytest.mark.parametrize("kw", [dict(samples=1), dict(samples=0),
                                    dict(samples=-5), dict(workers=0),
                                    dict(workers=-2)])
    def test_ignored_inputs_rejected(self, edge_graph, kw):
        # one sample has no standard error
        args = dict(samples=1000, workers=1) | kw
        message = "workers must be" if "workers" in kw else "2 samples"
        with pytest.raises(GraphFKError, match=message):
            estimate_partition(edge_graph, None, np.zeros(2), 1.0, 1.0,
                               seed=73, **args)

    def test_workers_above_the_bound_rejected_before_any_thread(
            self, edge_graph, monkeypatch):
        # each worker is an OS thread: a huge count must be refused up
        # front, never handed to a pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(paths, "ThreadPoolExecutor", no_pool)
        for workers in (MAX_WORKERS + 1, 10**12):
            with pytest.raises(GraphFKError, match="workers"):
                estimate_partition(edge_graph, None, np.zeros(2), 1.0, 1.0,
                                   1000, seed=78, workers=workers)

    def test_chunk_sizes_are_lazy(self, monkeypatch):
        # a list of every job used to be built first: 10^12 paths died
        # with a MemoryError before one ran
        assert next(_chunk_sizes(10**12)) == (0, CHUNK_SIZE)
        monkeypatch.setattr(paths, "CHUNK_SIZE", 3)
        jobs = _chunk_sizes(10)
        assert isinstance(jobs, Iterator)
        assert list(jobs) == [(0, 3), (1, 3), (2, 3), (3, 1)]

    def test_jobs_in_flight_are_bounded(self, monkeypatch):
        # the pool holds at most 2 * workers jobs not yet taken, and the
        # results come in job order whatever the order they finish in
        pools = []

        class LazyPool:
            def __init__(self, max_workers):
                self.in_flight, self.most = 0, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.in_flight += 1
                self.most = max(self.most, self.in_flight)
                pool = self

                class Job:
                    def result(self):
                        pool.in_flight -= 1
                        return fn(*args)

                return Job()

        monkeypatch.setattr(paths, "ThreadPoolExecutor", LazyPool)
        assert list(_run_jobs(lambda job: -job, range(50), 3)) == [
            -job for job in range(50)]
        assert pools[-1].most == 6

    def test_estimate_submits_few_jobs_before_the_first_result(
            self, edge_graph, monkeypatch):
        # 10^6 paths per vertex are 245 jobs; ThreadPoolExecutor.map would
        # submit all of them before a result is taken
        submitted = []

        class Stop(Exception):
            pass

        class FirstResultStops:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args)

                class Job:
                    def result(self):
                        raise Stop(len(submitted))

                return Job()

        monkeypatch.setattr(paths, "ThreadPoolExecutor", FirstResultStops)
        g, pot = two_vertex()
        with pytest.raises(Stop) as stop:
            estimate_partition(g, None, pot, 1.0, 0.1, 10**6, seed=82,
                               workers=2)
        assert stop.value.args == (4,)

    def test_simulate_scalar_paths_rejects_negative_horizon(self,
                                                            edge_graph):
        # it used to return the t = 0 law: N = 0
        with pytest.raises(GraphFKError, match="horizon must be nonnegative"):
            simulate_scalar_paths(edge_graph, 0, -1.0, 3, seed=1)

    def test_process_law_estimators_reject_nan_horizon(self, edge_graph):
        # NaN passed the old t < 0 check, and no path moved
        with pytest.raises(GraphFKError, match="horizon must be nonnegative"):
            simulate_scalar_paths(edge_graph, 0, math.nan, 3, seed=1)

    @pytest.mark.parametrize("x", [2, -1])
    def test_simulate_scalar_paths_rejects_unknown_start(self, edge_graph,
                                                         x):
        # 2 raised an IndexError in the kernel, and -1 walked from vertex 1
        # but reported -1 as the end of a path that did not jump
        with pytest.raises(GraphFKError,
                           match=f"start vertex {x} not in graph"):
            simulate_scalar_paths(edge_graph, x, 1.0, 3, seed=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_simulate_scalar_paths_rejects_no_samples(self, edge_graph,
                                                      samples):
        # it used to return (), which no caller can unpack into three arrays
        with pytest.raises(GraphFKError, match="need at least 1 sample"):
            simulate_scalar_paths(edge_graph, 0, 1.0, samples, seed=1)


def _biased_somewhere(g, c, V, hbar):
    """Whether survival biasing raises a hold rate of the trace estimator
    above deg_m on this problem, so that c_y > 0 somewhere."""
    tbl = _JumpTable(resolve(g, c, V), hbar, forced=5)
    return bool((tbl.rates > tbl.deg_m).any())


def _box_but_vertex_0(high):
    g = generate("lattice_box", l=2, side=3)
    return g, np.r_[0.0, np.full(g.n - 1, high)]


def _complete_but_vertex_0(high):
    g = generate("complete", n=4)
    return g, np.r_[0.0, np.full(g.n - 1, high)]


class TestSurvivalBias:
    """The trace estimator holds at y at rate a_y = deg_m(y) + c_y, with
    c_y = lam_min(y) - the lowest lam_min on y and its neighbors, and
    weighs each jump out of y by deg_m(y) / a_y."""

    @pytest.mark.parametrize("make, samples, seed", [
        (lambda: (two_vertex()[0], np.array([0.0, 1500.0])), 2000, 7),
        (lambda: _box_but_vertex_0(1600.0), 200, 7),
        (lambda: _complete_but_vertex_0(1600.0), 200, 7)],
        ids=["two-vertex", "box", "complete"])
    def test_wide_spread_within_five_sigma(self, make, samples, seed):
        # with holds drawn at deg_m alone, the paths missed the brief holds
        # at the high vertices that carry the tail, and stated a stderr
        # that missed it too: z = -2.3e5 on the edge, -1.8e14 on the box
        g, w = make()
        exact = exact_trace(g, None, w, 1.0, 1.0)
        rep = estimate_partition(g, None, w, 1.0, 1.0, samples, seed=seed)
        assert rep.stderr > 0
        assert abs(rep.estimate - exact) <= 5 * rep.stderr

    def test_flat_offset_within_five_sigma(self):
        # V = 100 + U[0, 1]: a shift against zero, c = max(lam_min, 0),
        # would hold every path some 100 times faster and put the weight on
        # rare paths with few jumps (z = -4.1e4); against the lowest
        # neighbor c stays below 1
        g = generate("lattice_box", l=2, side=8)
        w = 100.0 + np.random.default_rng(8).uniform(0.0, 1.0, g.n)
        exact = exact_trace(g, None, w, 1.0, 1.0)
        rep = estimate_partition(g, None, w, 1.0, 1.0, 256, seed=11)
        assert abs(rep.estimate - exact) <= 5 * rep.stderr

    @pytest.mark.parametrize("mode", ["scalar", "covariant"])
    def test_shift_invariance(self, rng, mode):
        # V + kappa leaves every c and so every draw alone, and multiplies
        # every weight by e^{-beta kappa}
        g = generate("lattice_box", l=2, side=3)
        c, V = _mode_inputs(g, mode, rng)
        kappa, beta, hbar = 2.5, 1.3, 0.6
        shifted = (Potential(2, V.values + kappa * np.eye(2))
                   if mode == "covariant" else V + kappa)
        assert _biased_somewhere(g, c, V, hbar)
        args = (beta, hbar, 500)
        base = estimate_partition(g, c, V, *args, seed=33)
        moved = estimate_partition(g, c, shifted, *args, seed=33)
        scale = math.exp(-beta * kappa)
        for (_x, est, se), (_y, est2, se2) in zip(base.per_vertex,
                                                  moved.per_vertex):
            assert se > 0
            assert abs(est2 - scale * est) <= 1e-12 * scale * abs(est)
            assert abs(se2 - scale * se) <= 1e-12 * scale * se

    @pytest.mark.parametrize("mode, estimate, stderr", [
        ("scalar", 1.1571463610249106, 0.00014309967263787971),
        ("covariant", 4.305598492750565, 0.00038675227848421266)],
        ids=["scalar", "covariant"])
    def test_constant_potential_keeps_its_bits(self, mode, estimate, stderr):
        # c = 0 where the potential is flat: the estimate and stderr of
        # the unbiased holds, pinned as they were before the bias
        rng = np.random.default_rng(5)
        g = generate("cycle", n=5)
        if mode == "covariant":
            c = random_connection(g, 2, rng)
            H = 0.5 * np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])
            V = Potential(2, np.broadcast_to(H, (g.n, 2, 2)).copy())
        else:
            c, V = None, np.full(g.n, 0.7)
        assert not _biased_somewhere(g, c, V, 0.5)
        rep = estimate_partition(g, c, V, 1.0, 0.5, 300, seed=44)
        assert (rep.estimate, rep.stderr) == (estimate, stderr)


class TestMoments:
    def _se(self, values):
        chunks = [values[i:i + CHUNK_SIZE]
                  for i in range(0, values.size, CHUNK_SIZE)]
        return _mean_se(*_moments(chunks))

    def test_tiny_spread_about_large_mean(self):
        values = 1.0 + 1e-9 * np.random.default_rng(71).normal(size=100_000)
        mean, se = self._se(values)
        assert mean == pytest.approx(values.mean(), rel=1e-15)
        want = values.std(ddof=1) / math.sqrt(values.size)
        assert se == pytest.approx(want, rel=0.01)

    def test_constant_weights_zero_stderr(self):
        mean, se = self._se(np.full(100_000, 0.7))
        assert mean == 0.7
        assert se == 0.0

    def test_per_key_merge_matches_two_pass(self, rng):
        # vertex-major keys cut into chunks that straddle key runs
        keys = np.repeat(np.arange(5), [700, 1, 0, 1300, 999])
        values = rng.exponential(size=keys.size) * (rng.random(keys.size) < 0.3)
        chunks = [(keys[i:i + 384], values[i:i + 384, None])
                  for i in range(0, keys.size, 384)]
        n, mean, m2 = _merge_moments(
            6, 1, (_chunk_moments(k, v) for k, v in chunks))
        n, mean, m2 = n[:, 0], mean[:, 0], m2[:, 0]
        assert n.tolist() == [700, 1, 0, 1300, 999, 0]
        for key in (0, 3, 4):
            sample = values[keys == key]
            assert mean[key] == pytest.approx(sample.mean(), rel=1e-13)
            assert m2[key] == pytest.approx(
                ((sample - sample.mean()) ** 2).sum(), rel=1e-12)
        assert mean[1] == values[700] and m2[1] == 0.0
        assert mean[2] == mean[5] == 0.0

    def test_chunk_merge_matches_two_pass(self, rng):
        values = rng.exponential(size=30_000) * (rng.random(30_000) < 0.3)
        mean, se = self._se(values)
        assert mean == pytest.approx(values.mean(), rel=1e-13)
        assert se == pytest.approx(
            values.std(ddof=1) / math.sqrt(values.size), rel=1e-12)


class TestStreams:
    def test_distinct_keys_distinct_draws(self):
        a = path_stream(7, 0, 0).random(4)
        b = path_stream(7, 0, 1).random(4)
        c = path_stream(7, 1, 0).random(4)
        d = path_stream(8, 0, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(a, d)

    def test_same_key_reproducible(self):
        assert np.array_equal(path_stream(9, 2, 3).random(8),
                              path_stream(9, 2, 3).random(8))


class TestMagneticPartitionEstimate:
    def test_half_turn_two_vertex(self, edge_graph):
        # theta = pi flips the hopping sign but leaves the trace at 1+e^{-2}
        c = connection_from_magnetic([np.pi])
        exact = partition_function(eigenvalues(assemble(edge_graph, c)), 1.0)
        V = Potential.scalar([0.0, 0.0])
        report = estimate_partition(edge_graph, c, V, 1.0, 1.0, 50_000,
                                    seed=71)
        assert exact == pytest.approx(1 + math.exp(-2), abs=1e-12)
        assert abs(report.estimate - exact) <= 3 * report.stderr


def _mode_inputs(g, mode, rng):
    """(connection, potential) of a random problem in ``mode``."""
    if mode == "covariant":
        return random_connection(g, 2, rng), random_potential(g, 2, rng)
    w = rng.uniform(-1.0, 1.0, g.n)
    if mode == "magnetic":
        return connection_from_magnetic(rng.uniform(-3, 3, len(g.edges))), w
    return None, w


def _petersen():
    """The Petersen graph: no triangle, but 5-cycles, so not bipartite."""
    ring = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    star = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return build_graph([(u, v, 1.0) for u, v in ring + star + spokes])


GRAPHS = {"lattice": lambda: generate("lattice_box", l=2, side=3),
          "even cycle": lambda: generate("cycle", n=6),
          "path": lambda: generate("path", n=5),
          "odd cycle": lambda: generate("cycle", n=5),
          "complete": lambda: generate("complete", n=4),
          "petersen": _petersen}


def _graph(name):
    return GRAPHS[name]()


class TestExactStrata:
    """Z_3 and Z_4 are exact: the walk is forced to K = 6 jumps on a
    bipartite graph and to 5 on any other, unless the closed 4-walks
    exceed ``paths.WALK_BUDGET``.  On a bipartite graph with t max deg_m
    >= 1, Z_6 is exact too and K = 8, unless the closed 6-walks exceed
    the budget."""

    @pytest.mark.parametrize("name, forced, strata", [
        ("lattice", 8, (0, 2, 4, 6)), ("even cycle", 8, (0, 2, 4, 6)),
        ("path", 8, (0, 2, 4, 6)), ("odd cycle", 5, (0, 2, 3, 4)),
        ("complete", 5, (0, 2, 3, 4)), ("petersen", 5, (0, 2, 3, 4))])
    def test_forced_jumps(self, rng, name, forced, strata):
        # at t = 0.5 the degree-2 cycle and path sit at t max deg_m = 1,
        # where Z_6 is taken, and the lattice at 2
        g = _graph(name)
        rep = estimate_partition(g, None, rng.uniform(-1, 1, g.n), 1.0, 0.5,
                                 50, seed=90)
        assert (rep.forced, rep.strata) == (forced, strata)

    @pytest.mark.parametrize("name, walks, fallback", [
        ("even cycle", 6 * 6, 4), ("complete", 84, 3), ("odd cycle", 30, 3)])
    def test_walk_budget_keeps_the_old_forcing(self, rng, monkeypatch, name,
                                               walks, fallback):
        # the 6-cycle has tr A^4 = 36 closed 4-walks, the 5-cycle 30 and
        # K_4 84: one over the budget keeps Z_0 + Z_2 and K = 4 on a
        # bipartite graph, 3 on any other
        g = _graph(name)
        w = rng.uniform(-1, 1, g.n)
        args = (g, None, w, 1.0, 0.5, 4000)
        monkeypatch.setattr(paths, "WALK_BUDGET", walks)
        assert estimate_partition(*args, seed=91).strata[-1] == 4
        monkeypatch.setattr(paths, "WALK_BUDGET", walks - 1)
        rep = estimate_partition(*args, seed=91)
        assert (rep.forced, rep.strata) == (fallback, (0, 2))
        exact = exact_trace(g, None, w, 1.0, 0.5)
        assert abs(rep.estimate - exact) <= 5 * rep.stderr

    def test_over_the_budget_no_triangle_is_listed(self, monkeypatch):
        # a dense graph has far more closed 3-walks than the budget allows
        # walks: above it the estimator asks only whether a triangle exists
        def no_three(problem, t, hbar, k, budget=None):
            if k == 3:
                raise AssertionError("closed 3-walks listed")
            return jump_terms(problem, t, hbar, k, budget)

        monkeypatch.setattr(paths, "WALK_BUDGET", 0)
        monkeypatch.setattr(paths, "jump_terms", no_three)
        g = generate("complete", n=8)
        rep = estimate_partition(g, None, np.zeros(g.n), 1.0, 0.5, 50,
                                 seed=95)
        assert (rep.forced, rep.strata) == (3, (0, 2))

    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant"])
    @pytest.mark.parametrize("name", ["lattice", "even cycle", "odd cycle",
                                      "complete", "petersen"])
    def test_matches_exact_trace(self, rng, mode, name):
        # at t = 1.5 the strata from 5 or 6 jumps on hold a few per cent
        # of the trace
        g = _graph(name)
        c, V = _mode_inputs(g, mode, rng)
        exact = exact_trace(g, c, V, 1.0, 1.5)
        rep = estimate_partition(g, c, V, 1.0, 1.5, 4000, seed=92)
        assert rep.forced == (8 if name in ("lattice", "even cycle") else 5)
        assert rep.stderr > 0
        assert abs(rep.estimate - exact) <= 5 * rep.stderr
        assert abs(rep.imag_estimate) <= 5 * max(rep.imag_stderr, 1e-15)

    @pytest.mark.parametrize("name", ["lattice", "complete"])
    def test_wide_potential_spread_stays_finite(self, rng, name):
        # beta dV = 1600 between neighbors: every stratum stays finite.
        # The holds are biased to the potential but the jumps are not: on
        # K_4 two of a low vertex's three jumps go to a high one, and 200
        # paths seldom make the runs of low-to-low jumps that carry the
        # tail, so the stated stderr is not checked here; the exact strata
        # hold the estimate to a fraction of the trace
        g = _graph(name)
        w = rng.uniform(0.0, 3.0, g.n)
        w[::2] += 1600.0
        rep = estimate_partition(g, None, w, 1.0, 1.0, 200, seed=96)
        assert np.isfinite(rep.estimate) and np.isfinite(rep.stderr)
        exact = exact_trace(g, None, w, 1.0, 1.0)
        assert abs(rep.estimate - exact) <= 1e-2 * exact

    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant"])
    @pytest.mark.parametrize("name", ["lattice", "complete"])
    def test_worker_count_invariance(self, rng, monkeypatch, mode, name):
        # 300 paths per vertex in pieces of 256 straddle the vertices
        g = _graph(name)
        c, V = _mode_inputs(g, mode, rng)
        assert _biased_somewhere(g, c, V, 0.7)
        monkeypatch.setattr(paths, "CHUNK_SIZE", 256)
        reports = [estimate_partition(g, c, V, 1.0, 0.7, 300, seed=93,
                                      workers=w)
                   for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].forced == (8 if name == "lattice" else 5)

    @pytest.mark.parametrize("name, hbar, budget, forced, reason", [
        ("lattice", 0.5, None, 8,
         "bipartite, so Z5 = Z7 = 0; Z6 computed: t max deg_m = 2 >= 1"),
        ("even cycle", 0.49, None, 6,
         "bipartite, so Z5 = 0; Z6 not computed: t max deg_m = 0.98 < 1"),
        ("even cycle", 0.5, 36, 6, "bipartite, so Z5 = 0; Z6 not computed: "
         "the closed 6-walks exceed paths.WALK_BUDGET"),
        ("odd cycle", 0.5, None, 5, "not bipartite, so Z5 is not 0"),
        ("even cycle", 0.5, 0, 4, "Z3 and Z4 not computed: the closed "
         "4-walks exceed paths.WALK_BUDGET; bipartite, so Z3 = 0"),
        ("complete", 0.5, 0, 3, "Z3 and Z4 not computed: the closed "
         "4-walks exceed paths.WALK_BUDGET")],
        ids=["eight", "six-small-s", "six-over-budget", "five",
             "four-over-budget", "three-over-budget"])
    def test_report_says_why(self, rng, monkeypatch, name, hbar, budget,
                             forced, reason):
        # one case per branch of _exact_strata; the 6-cycle has 36 closed
        # 4-walks and 132 closed 6-walks
        if budget is not None:
            monkeypatch.setattr(paths, "WALK_BUDGET", budget)
        g = _graph(name)
        rep = estimate_partition(g, None, rng.uniform(-1, 1, g.n), 1.0, hbar,
                                 50, seed=97)
        assert (rep.forced, rep.forced_reason) == (forced, reason)

    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant"])
    def test_six_walk_budget_keeps_six_jumps(self, rng, monkeypatch, mode):
        # the 6-cycle has tr A^6 = 132 closed 6-walks, times nu^6; one
        # over the budget keeps Z_0 + Z_2 + Z_4 and K = 6
        g = _graph("even cycle")
        c, V = _mode_inputs(g, mode, rng)
        walks = 132 * (2 if mode == "covariant" else 1) ** 6
        args = (g, c, V, 1.0, 1.5, 4000)
        monkeypatch.setattr(paths, "WALK_BUDGET", walks)
        assert estimate_partition(*args, seed=98).forced == 8
        monkeypatch.setattr(paths, "WALK_BUDGET", walks - 1)
        rep = estimate_partition(*args, seed=98)
        assert (rep.forced, rep.strata) == (6, (0, 2, 4))
        exact = exact_trace(g, c, V, 1.0, 1.5)
        assert abs(rep.estimate - exact) <= 5 * rep.stderr

    def test_small_s_never_takes_six_jumps(self, rng, monkeypatch):
        # the covariant benchmark's regime: the 8 x 8 box at rank 2 and
        # t = 0.01, s = 0.04.  There the tail beyond six jumps is near
        # the rounding of the trace, and Z_6 is not even computed
        def no_six(problem, t, hbar, k, budget=None):
            if k == 6:
                raise AssertionError("Z6 computed")
            return jump_terms(problem, t, hbar, k, budget)

        monkeypatch.setattr(paths, "jump_terms", no_six)
        g = generate("lattice_box", l=2, side=8)
        rep = estimate_partition(g, random_connection(g, 2, rng),
                                 random_potential(g, 2, rng), 1.0, 0.01, 50,
                                 seed=99)
        assert (rep.forced, rep.strata) == (6, (0, 2, 4))

    def test_forced_jumps_of_the_table(self):
        # a table built with forced = 6 forces six jumps on every path
        g = generate("cycle", n=4)
        tbl = _JumpTable(resolve(g), forced=6)
        assert tbl.forced == 6
        _terminal, _S, N = _path_chunk(tbl, np.zeros(500, dtype=np.int64),
                                       0.05, path_stream(94, 0, 0))
        assert N.min() == 6
