import itertools
import math

import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    MagneticPotential,
    Potential,
    connection_from_magnetic,
    spectral_floor,
)
from graphfk.errors import BadParams, RankMismatch, UnknownIndex
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import assemble, resolve
from scipy.linalg import expm

from graphfk import paths
from graphfk.paths import (
    CHUNK_SIZE,
    _chunk_moments,
    _hold,
    _JumpTable,
    _mean_se,
    _merge_moments,
    _moments,
    _path_chunk,
    estimate_heat_kernel,
    estimate_partition,
    path_stream,
    simulate_scalar_paths,
)
from graphfk.semiclassics import semiclassical_trace
from graphfk.spectral import eigenvalues, partition_function

from conftest import (
    random_connection,
    random_graph,
    random_potential,
)
from graphfk.presets import two_vertex


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


class TestSamplePath:
    """Laws of the jump process, checked on the paths that
    ``simulate_scalar_paths`` walks in one batch."""

    def test_zero_horizon(self, edge_graph):
        terminal, _F, N = simulate_scalar_paths(edge_graph, 0, 0.0, 100,
                                                seed=1)
        assert N.tolist() == [0] * 100
        assert terminal.tolist() == [0] * 100

    def test_two_vertex_alternates(self, edge_graph):
        # single neighbor: every jump flips the vertex
        terminal, _F, N = simulate_scalar_paths(edge_graph, 0, 5.0, 2000,
                                                seed=2)
        assert N.max() > 5
        assert np.array_equal(terminal, N % 2)

    def test_one_jump_lands_on_a_neighbor(self, rng):
        for i in range(20):
            g = random_graph(rng, max_n=8)
            x = int(rng.integers(0, g.n))
            terminal, _F, N = simulate_scalar_paths(g, x, 0.5, 500, seed=i)
            assert np.all(terminal[N == 0] == x)
            one = terminal[N == 1]
            assert one.size
            assert all(g.weight(x, int(y)) > 0 for y in one)

    def test_isolated_vertex_never_jumps(self):
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "c"],
                        measure=[("c", 1.0)])
        terminal, _F, N = simulate_scalar_paths(g, 2, 10.0, 100, seed=4)
        assert N.tolist() == [0] * 100 and terminal.tolist() == [2] * 100

    def test_negative_horizon(self, edge_graph):
        with pytest.raises(BadParams):
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
            _term, _F, N = simulate_scalar_paths(g, x, t, n, seed=seed)
            p_hat = float((N == 0).mean())
            p = math.exp(-rate * t)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 3 * se

    def test_mean_first_holding_time(self):
        # the centre of a star with two unit edges leaves at rate 2, and
        # leaves of measure 1e12 hold for good; with v the indicator of the
        # centre, -log F is the first holding time, of mean 1/2
        g = build_graph([("c", "l1", 1.0), ("c", "l2", 1.0)],
                        measure=[("l1", 1e12), ("l2", 1e12)])
        _term, F, N = simulate_scalar_paths(g, 0, 30.0, 20_000, seed=12,
                                            v=np.array([1.0, 0.0, 0.0]))
        assert N.tolist() == [1] * N.size
        holds = -np.log(F)
        se = holds.std(ddof=1) / math.sqrt(holds.size)
        assert abs(holds.mean() - 0.5) <= 3 * se

    def test_transition_frequencies(self):
        # the star centre jumps to leaf j with probability b_j / sum b; with
        # m(l2) = 3 both leaves leave at rate 1, so stopping after one jump
        # does not bias the leaf it took
        g = build_graph([("c", "l1", 1.0), ("c", "l2", 3.0)],
                        measure=[("l2", 3.0)])
        terminal, _F, N = simulate_scalar_paths(g, 0, 1.0, 100_000, seed=15)
        first = terminal[N == 1]
        p_hat = float((first == 2).mean())
        p = 0.75
        se = math.sqrt(p * (1 - p) / first.size)
        assert abs(p_hat - p) <= 3 * se

    def test_constant_potential_weight(self, rng):
        # a constant v weighs every path by e^{-v t}, however it jumps
        g = random_graph(rng, max_n=8)
        _term, F, N = simulate_scalar_paths(g, 0, 1.5, 2000, seed=16,
                                            v=np.full(g.n, 0.8))
        assert N.max() > 1
        want = math.exp(-0.8 * 1.5)
        assert np.abs(F - want).max() <= 1e-12 * want


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
        tbl = _JumpTable(resolve(star))
        assert tbl.cum[0, -1] == 1.0
        assert tbl.nbrs[0].tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("u, leaf", [(1.0 - 2.0**-53, "l3"),
                                         (0.0, "l0")])
    def test_every_draw_lands_on_a_neighbor(self, star, u, leaf):
        terminal, _F, N = _path_chunk(_JumpTable(resolve(star)),
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


def _dyson_product(c, V, holds, walk):
    """tr(E_0 Phi_{Y_1,Y_0} E_1 ... E_N), multiplied out directly."""
    A = expm(-holds[0] * V.values[walk[0]])
    for dt, y, ynext in zip(holds[1:], walk, walk[1:]):
        A = A @ c.matrix(ynext, y) @ expm(-dt * V.values[ynext])
    return np.trace(A)


class TestKernel:
    def test_single_path_weight_on_a_triangle(self, rng):
        # the loop 0 -> 1 -> 2 -> 0, jumping at 0.2, 0.5 and 0.9, adds to
        # the rank-2 score of the walk of test_forced_pair_weight the
        # return from 2 with the Dyson weight tr(E_0 Phi_10 E_1 Phi_21 E_2
        # Phi_02 E_3), earliest factor leftmost; with non-commuting V the
        # reverse order differs
        g, c, V = _triangle(rng, 2)
        tbl = _JumpTable(resolve(g, c, V))
        t = 1.2
        u1 = math.expm1(-2 * 0.2) / math.expm1(-2 * t)
        u2 = math.expm1(-2 * 0.3) / math.expm1(-2 * (t - 0.2))
        scores = [_path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                              _StubStream([u1, 0.25, u2, 0.75, 0.25], holds),
                              loops=True)[1][0]
                  for holds in ((), (0.8,))]
        factor = (-math.expm1(-2 * t) * -math.expm1(-2 * (t - 0.2))
                  * 0.5 * math.exp(-2 * 0.3))
        holds, walk = (0.2, 0.3, 0.4, 0.3), (0, 1, 2, 0)
        want = factor * _dyson_product(c, V, holds, walk)
        reverse = expm(-holds[-1] * V.values[walk[-1]])
        for dt, y, ynext in zip(holds[-2::-1], walk[-2::-1], walk[:0:-1]):
            reverse = reverse @ c.matrix(ynext, y) @ expm(-dt * V.values[y])
        reverse = factor * np.trace(reverse)
        loop = scores[1] - scores[0]
        assert abs(loop - want) <= 1e-12 * max(map(abs, scores))
        assert abs(loop - reverse) > 1e-6 * abs(want)
    @pytest.mark.parametrize("nu", [1, 2])
    def test_forced_pair_weight(self, rng, nu):
        # loops: the first two holding times are drawn inside the time left
        # r, with P(tau <= s) = expm1(-2 s) / expm1(-2 r), and the path
        # carries g = (1 - e^{-2t})(1 - e^{-2(t - 0.2)}), the probability
        # that both fall inside.  The walk 0 -> 1 -> 2 -> 0 jumps at 0.2,
        # 0.5 and 0.9; jumps 2 and 3 leave neighbors of 0 and score the
        # return they could have made, with probability 1/2, staying at 0
        # up to t = 1.2 with probability e^{-2 r}
        g, c, V = _triangle(rng, nu)
        tbl = _JumpTable(resolve(g, c, V))
        t = 1.2
        u1 = math.expm1(-2 * 0.2) / math.expm1(-2 * t)
        u2 = math.expm1(-2 * 0.3) / math.expm1(-2 * (t - 0.2))
        weight = -math.expm1(-2 * t) * -math.expm1(-2 * (t - 0.2))
        from1 = weight * 0.5 * math.exp(-2 * 0.7) * _dyson_product(
            c, V, (0.2, 0.3, 0.7), (0, 1, 0))
        from2 = weight * 0.5 * math.exp(-2 * 0.3) * _dyson_product(
            c, V, (0.2, 0.3, 0.4, 0.3), (0, 1, 2, 0))
        # without and with the unforced holding time 0.4 before jump 3
        for holds, want in (((), from1), ((0.8,), from1 + from2)):
            stream = _StubStream([u1, 0.25, u2, 0.75, 0.25], holds)
            terminal, S, N = _path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                                         stream, loops=True)
            assert N.tolist() == [2 + len(holds)]
            assert terminal.tolist() == [[2], [0]][len(holds)]
            assert abs(S[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("x, u", [(0, 1.0 - 2.0**-53), (4, 0.0)])
    def test_jumps_away_from_the_start_score_zero(self, rng, nu, x, u):
        # on the path 0 - 1 - 2 - 3 - 4 the walk from an end makes four
        # jumps away from it; only jump 2 leaves a neighbor of the start,
        # and jumps 3 and 4 add exactly 0
        g = generate("path", n=5)
        tbl = _JumpTable(resolve(g, random_connection(g, nu, rng),
                                 random_potential(g, nu, rng)))
        scores = []
        for holds in ((), (0.1, 0.1)):
            # the forced holding times take 0.5 and every jump u, the
            # highest or the lowest slot
            stream = _StubStream([0.5, u, 0.5, u, u, u], holds)
            terminal, S, N = _path_chunk(tbl, np.array([x]), 1.0, stream,
                                         loops=True)
            assert N.tolist() == [2 + len(holds)]
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
        tbl = _JumpTable(resolve(g, c, V), hbar)
        lam, Q = np.linalg.eigh(V.values / hbar)
        assert np.array_equal(tbl.lam, lam)
        for y in range(g.n):
            nbrs = [x for x in range(g.n) if g.weight(y, x) > 0]
            for k, x in enumerate(nbrs):
                assert tbl.nbrs[y, k] == x
                want = Q[y].conj().T @ c.matrix(x, y) @ Q[x]
                assert np.abs(tbl.W[:, :, y, k] - want).max() <= 1e-13
            dt = float(rng.uniform(0.01, 1.0))
            e = _hold(tbl, np.array([y]), np.array([dt]))[0]
            got = (Q[y] * e) @ Q[y].conj().T
            want = expm(-dt * V.values[y] / hbar)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_idle_scalar_path_holds_for_the_horizon(self):
        # a path from a vertex of rate 0 never jumps and carries the
        # Feynman-Kac weight of holding there up to t
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "c"],
                        measure=[("c", 1.0)])
        v = np.array([0.3, -0.2, 0.9])
        terminal, F, N = simulate_scalar_paths(g, 2, 0.7, 5, seed=3, v=v)
        assert terminal.tolist() == [2] * 5 and N.tolist() == [0] * 5
        want = math.exp(-0.7 * 0.9)
        assert np.abs(F - want).max() <= 1e-15 * want

    def test_conditioned_draw_stays_inside_the_horizon(self):
        # at rate 1.5 and t = 0.01 the unclamped draw -log1p(u expm1(-rt))/r
        # rounds up to t for u = 1 - 2^-53, and the path would not jump;
        # clamped, the second forced draw also lands inside the time left
        g = build_graph([("a", "b", 1.5)])
        terminal, _F, N = _path_chunk(_JumpTable(resolve(g)),
                                      np.zeros(1, dtype=np.int64), 0.01,
                                      _StubStream(1.0 - 2.0**-53),
                                      loops=True)
        assert N.tolist() == [2] and terminal.tolist() == [0]


def _series_product(c, V, holds, walk, order=4):
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
                term = term @ c.matrix(y, walk[k - 1])
            term = term @ (np.linalg.matrix_power(-dt * V.values[y], p)
                           / math.factorial(p))
        total += np.trace(term)
    return total


class TestParallelTransport:
    def test_rank1_phase_product(self, rng):
        # with V = 0 the kernel weighs the loop 0 -> 1 -> 2 -> 3 -> 0 round
        # a magnetic 4-cycle by its phases alone; each vertex leaves at
        # rate 2, so the holds 2 jump at 1, 2, 3 and 4
        g = generate("cycle", n=4)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        theta = MagneticPotential(g, phases)
        c = connection_from_magnetic(theta)
        verts = (0, 1, 2, 3, 0)
        total = sum(theta.phase(verts[k], verts[k + 1]) for k in range(4))
        terminal, F, N = _path_chunk(
            _JumpTable(resolve(g, c, np.zeros(4))),
            np.zeros(1, dtype=np.int64), 5.0,
            _StubStream([0.25, 0.75, 0.75, 0.25], (2.0,) * 4))
        assert N.tolist() == [4] and terminal.tolist() == [0]
        assert F[0] == pytest.approx(np.exp(-1j * total), abs=1e-12)


class TestOrderedExponential:
    def test_constant_scalar(self, edge_graph):
        cval = 0.8
        V = Potential.scalar([cval, cval])
        c = Connection.identity(edge_graph, 1)
        _term, F, N = _path_chunk(_JumpTable(resolve(edge_graph, c, V)),
                                  np.zeros(200, dtype=np.int64), 1.5,
                                  path_stream(32, 0, 0))
        assert N.max() > 1
        assert np.abs(F - np.exp(-cval * 1.5)).max() <= 1e-12

    def test_dyson_series_oracle(self, rng):
        # small-time truncated ordered series within 5 (|V| t)^5 per entry,
        # so 10 (|V| t)^5 on the rank-2 trace: the loop of
        # test_single_path_weight_on_a_triangle, its times scaled to t
        for _ in range(10):
            g, c, V = _triangle(rng, 2)
            norm = max(np.linalg.norm(V.values[i], 2) for i in range(g.n))
            t = 0.1 / norm
            tbl = _JumpTable(resolve(g, c, V))
            u1 = math.expm1(-2 * 0.2 * t) / math.expm1(-2 * t)
            u2 = math.expm1(-2 * 0.3 * t) / math.expm1(-2 * 0.8 * t)
            scores = [_path_chunk(tbl, np.zeros(1, dtype=np.int64), t,
                                  _StubStream([u1, 0.25, u2, 0.75, 0.25],
                                              holds), loops=True)[1][0]
                      for holds in ((), (0.8 * t,))]
            factor = (-math.expm1(-2 * t) * -math.expm1(-2 * 0.8 * t)
                      * 0.5 * math.exp(-2 * 0.1 * t))
            loop = (scores[1] - scores[0]) / factor
            oracle = _series_product(c, V, (0.2 * t, 0.3 * t, 0.4 * t,
                                            0.1 * t), (0, 1, 2, 0))
            assert abs(loop - oracle) <= 10 * (norm * t) ** 5

    def test_trivial_bundle(self):
        # c = None is the trivial bundle, as in operators.resolve
        g = generate("path", n=2)
        V = Potential.scalar([0.1, 0.2])
        start = np.zeros(200, dtype=np.int64)
        _t, none, N = _path_chunk(_JumpTable(resolve(g, None, V)), start,
                                  5.0, path_stream(1, 0, 0))
        _t, ident, _N = _path_chunk(
            _JumpTable(resolve(g, Connection.identity(g, 1), V)), start, 5.0,
            path_stream(1, 0, 0))
        assert N.max() > 5
        assert np.array_equal(none, ident)
        assert not np.iscomplexobj(none)

    def test_rank_mismatch(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        V = random_potential(edge_graph, 2, rng)
        with pytest.raises(RankMismatch):
            _JumpTable(resolve(edge_graph, c, V))

    def test_gronwall_norm_bound(self, rng):
        # ||A_t|| <= e^{-int w}, w the spectral floor of V, bounds each
        # path's rank-2 score by 2 times its score under w, on the same walk
        g = random_graph(rng, max_n=6)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        w = spectral_floor(V)
        start = np.zeros(2000, dtype=np.int64)
        term, S, N = _path_chunk(_JumpTable(resolve(g, c, V)), start, 1.0,
                                 path_stream(37, 0, 0), loops=True)
        term_w, S_w, N_w = _path_chunk(_JumpTable(resolve(g, None, w)),
                                       start, 1.0, path_stream(37, 0, 0),
                                       loops=True)
        assert np.array_equal(term, term_w) and np.array_equal(N, N_w)
        assert np.any(S != 0)
        assert np.all(np.abs(S) <= 2 * S_w.real * (1 + 1e-12))


class TestOccupationIntegral:
    """The rank-1 weight F = exp(-int_0^t v(X_s) ds) read as the
    occupation integral of v."""

    def test_constant_one(self, edge_graph):
        _term, F, N = simulate_scalar_paths(edge_graph, 0, 1.7, 100, seed=41,
                                            v=np.ones(2))
        assert N.max() > 1
        assert np.abs(-np.log(F) - 1.7).max() <= 1e-12

    def test_no_jump_value(self, edge_graph):
        terminal, F, N = _path_chunk(
            _JumpTable(resolve(edge_graph, None, np.array([0.3, 9.0]))),
            np.zeros(1, dtype=np.int64), 2.0, _StubStream(0.5, (1e9,)))
        assert N.tolist() == [0] and terminal.tolist() == [0]
        assert -math.log(F[0]) == pytest.approx(0.6, abs=1e-12)

    def test_two_interval_path(self, edge_graph):
        # the jump 0 -> 1 at 0.4: time spent at vertex 1 is 0.6
        terminal, F, N = _path_chunk(
            _JumpTable(resolve(edge_graph, None, np.array([0.0, 1.0]))),
            np.zeros(1, dtype=np.int64), 1.0, _StubStream(0.5, (0.4,)))
        assert N.tolist() == [1] and terminal.tolist() == [1]
        assert -math.log(F[0]) == pytest.approx(0.6, abs=1e-12)


class TestHeatKernelEstimate:
    def test_two_vertex_on_diagonal(self, edge_graph):
        report = estimate_heat_kernel(edge_graph, 0, 0, 1.0, 100_000, seed=51)
        target = (1 + math.exp(-2)) / 2
        assert abs(report.estimate - target) <= 3 * report.stderr

    def test_other_component_exact_zero(self):
        g = build_graph([("a", "b", 1.0), ("c", "d", 1.0)])
        report = estimate_heat_kernel(g, 0, 2, 0.8, 1000, seed=52)
        assert report.estimate == 0.0

    def test_frequencies_partition_unity(self, rng):
        g = random_graph(rng, max_n=5)
        total = sum(
            estimate_heat_kernel(g, 0, y, 0.7, 2000, seed=53).estimate
            for y in range(g.n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sample_floor(self, edge_graph):
        with pytest.raises(BadParams):
            estimate_heat_kernel(edge_graph, 0, 0, 1.0, 50, seed=54)


class TestPartitionEstimate:
    def test_free_two_vertex(self, edge_graph):
        report = estimate_partition(edge_graph, None, np.zeros(2), 1.0, 1.0,
                                    50_000, seed=61)
        target = 1 + math.exp(-2)
        assert abs(report.estimate - target) <= 3 * report.stderr

    def test_scalar_matches_spectral(self):
        g, pot = two_vertex()
        beta, hbar = 1.0, 0.05
        exact = semiclassical_trace(g, None, pot, beta, hbar)
        report = estimate_partition(g, None, pot, beta, hbar, 50_000, seed=62)
        assert abs(report.estimate - exact) <= 3 * report.stderr

    def test_covariant_three_cycle(self, rng):
        g = generate("cycle", n=3)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        beta, hbar = 1.0, 0.5
        exact = semiclassical_trace(g, c, V, beta, hbar)
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

    def test_worker_count_invariance(self):
        g, pot = two_vertex()
        kw = dict(beta=1.0, hbar=0.2, samples=20_000, seed=65, chunk=1024)
        one = estimate_partition(g, None, pot, workers=1, **kw)
        four = estimate_partition(g, None, pot, workers=4, **kw)
        assert one.estimate == four.estimate
        assert one.stderr == four.stderr
        assert one.per_vertex == four.per_vertex

    def test_straddling_chunks_worker_invariance(self, rng):
        # 1000 paths per vertex in pieces of 384: pieces straddle vertices
        g = generate("cycle", n=3)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        reports = [estimate_partition(g, c, V, 1.0, 0.5, 1000, seed=68,
                                      chunk=384, workers=w)
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
        exact = semiclassical_trace(g, None, w, 1.0, 0.25)
        assert rep.estimate == exact
        assert rep.stderr == 0.0

    def test_repeat_run_identical(self):
        g, pot = two_vertex()
        a = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        b = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        assert a == b

    def test_bad_params(self, edge_graph):
        with pytest.raises(BadParams):
            estimate_partition(edge_graph, None, np.zeros(2), -1.0, 1.0,
                               1000, seed=67)
        with pytest.raises(BadParams):
            estimate_partition(edge_graph, None, np.zeros(2), math.nan, 1.0,
                               1000, seed=67)
        with pytest.raises(RankMismatch):
            estimate_partition(edge_graph, Connection.identity(edge_graph, 2),
                               np.zeros(2), 1.0, 1.0, 1000, seed=69)

    @pytest.mark.parametrize("kw", [dict(samples=1), dict(samples=0),
                                    dict(samples=-5), dict(workers=0),
                                    dict(workers=-2), dict(chunk=0),
                                    dict(chunk=-1)])
    def test_ignored_inputs_rejected(self, edge_graph, kw):
        # one sample has no standard error, and a chunk size below 1 never
        # advances the chunk loop
        args = dict(samples=1000, chunk=CHUNK_SIZE, workers=1) | kw
        with pytest.raises(BadParams):
            estimate_partition(edge_graph, None, np.zeros(2), 1.0, 1.0,
                               seed=73, **args)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_process_law_estimators_reject_empty_chunks(self, edge_graph,
                                                        chunk):
        with pytest.raises(BadParams):
            simulate_scalar_paths(edge_graph, 0, 1.0, 1000, seed=74,
                                  chunk=chunk)
        with pytest.raises(BadParams):
            estimate_heat_kernel(edge_graph, 0, 0, 1.0, 1000, seed=75,
                                 chunk=chunk)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_process_law_estimators_reject_no_workers(self, edge_graph,
                                                      workers):
        # a worker count below 1 used to run serially without a word
        with pytest.raises(BadParams):
            simulate_scalar_paths(edge_graph, 0, 1.0, 1000, seed=76,
                                  workers=workers)
        with pytest.raises(BadParams):
            estimate_heat_kernel(edge_graph, 0, 0, 1.0, 1000, seed=77,
                                 workers=workers)

    def test_simulate_scalar_paths_rejects_negative_horizon(self,
                                                            edge_graph):
        # it used to return the t = 0 law: F = 1 and N = 0
        with pytest.raises(BadParams):
            simulate_scalar_paths(edge_graph, 0, -1.0, 3, seed=1,
                                  v=np.array([0.3, 0.5]))

    @pytest.mark.parametrize("x", [2, -1])
    def test_simulate_scalar_paths_rejects_unknown_start(self, edge_graph,
                                                         x):
        # 2 raised an IndexError in the kernel, and -1 walked from vertex 1
        # but reported -1 as the end of a path that did not jump
        with pytest.raises(UnknownIndex):
            simulate_scalar_paths(edge_graph, x, 1.0, 3, seed=1)

    @pytest.mark.parametrize("y", [7, -1])
    def test_heat_kernel_rejects_unknown_target(self, edge_graph, y):
        # 7 was reported as 0.0 with stderr 0
        with pytest.raises(UnknownIndex):
            estimate_heat_kernel(edge_graph, 0, y, 1.0, 100, seed=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_simulate_scalar_paths_rejects_no_samples(self, edge_graph,
                                                      samples):
        # it used to return (), which no caller can unpack into three arrays
        with pytest.raises(BadParams):
            simulate_scalar_paths(edge_graph, 0, 1.0, samples, seed=1)


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
        theta = MagneticPotential(edge_graph, {(0, 1): np.pi})
        c = connection_from_magnetic(theta)
        exact = partition_function(eigenvalues(assemble(edge_graph, c)), 1.0)
        V = Potential.scalar([0.0, 0.0])
        report = estimate_partition(edge_graph, c, V, 1.0, 1.0, 50_000,
                                    seed=71)
        assert exact == pytest.approx(1 + math.exp(-2), abs=1e-12)
        assert abs(report.estimate - exact) <= 3 * report.stderr
