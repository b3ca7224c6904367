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
from graphfk.errors import BadParams, RankMismatch
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import assemble
from graphfk.paths import (
    CHUNK_SIZE,
    PathSample,
    _JumpTable,
    _mean_se,
    _moments,
    _path_chunk,
    estimate_heat_kernel,
    estimate_partition,
    occupation_integral,
    ordered_exponential,
    parallel_transport,
    path_stream,
    sample_path,
    simulate_scalar_paths,
)
from graphfk.semiclassics import semiclassical_trace
from graphfk.spectral import eigenvalues, partition_function

from conftest import random_connection, random_graph, random_potential
from graphfk.presets import two_vertex


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


class TestSamplePath:
    def test_zero_horizon(self, edge_graph):
        path = sample_path(edge_graph, 0, 0.0, path_stream(1, 0, 0))
        assert path.jumps == 0
        assert path.terminal == 0

    def test_two_vertex_alternates(self, edge_graph):
        # single neighbor: every jump flips the vertex
        path = sample_path(edge_graph, 0, 50.0, path_stream(2, 0, 0))
        assert path.jumps > 5
        for k in range(path.jumps):
            assert path.vertices[k + 1] == 1 - path.vertices[k]

    def test_neighbors_and_ordering(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=8)
            x = int(rng.integers(0, g.n))
            path = sample_path(g, x, 2.0, path_stream(3, x, _))
            for k in range(path.jumps):
                assert g.weight(path.vertices[k], path.vertices[k + 1]) > 0
            assert all(a < b for a, b in zip(path.times, path.times[1:]))
            assert path.times[-1] <= path.horizon

    def test_isolated_vertex_never_jumps(self):
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "c"],
                        measure=[("c", 1.0)])
        path = sample_path(g, 2, 10.0, path_stream(4, 2, 0))
        assert path.jumps == 0

    def test_negative_horizon(self, edge_graph):
        with pytest.raises(BadParams):
            sample_path(edge_graph, 0, -1.0, path_stream(5, 0, 0))

    def test_no_jump_probability(self, edge_graph):
        # deg_m = 1, t = 1: P(N(t)=0) = e^{-1}
        n = 100_000
        _term, _F, N = simulate_scalar_paths(edge_graph, 0, 1.0, n, seed=11)
        p_hat = float((N == 0).mean())
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * se

    def test_mean_first_holding_time(self):
        # rate deg_m(x) = 2 at the center of a 3-path with unit weights
        g = generate("path", n=3)
        stream = path_stream(12, 1, 0)
        holds = []
        for _ in range(20_000):
            path = sample_path(g, 1, 30.0, stream)
            assert path.jumps >= 1
            holds.append(path.times[1])
        holds = np.asarray(holds)
        se = holds.std(ddof=1) / math.sqrt(holds.size)
        assert abs(holds.mean() - 0.5) <= 3 * se

    def test_transition_frequencies(self):
        # star center jumps to leaf j with probability b_j / sum b
        g = build_graph([("c", "l1", 1.0), ("c", "l2", 3.0)])
        stream = path_stream(13, 0, 0)
        first = []
        for _ in range(20_000):
            path = sample_path(g, 0, 50.0, stream)
            assert path.jumps >= 1
            first.append(path.vertices[1])
        first = np.asarray(first)
        p_hat = float((first == 2).mean())
        p = 0.75
        se = math.sqrt(p * (1 - p) / first.size)
        assert abs(p_hat - p) <= 3 * se


class _StubStream:
    """A generator stand-in: one jump at time 1e-9 with uniform u, then none."""

    def __init__(self, u):
        self.u = u
        self.exponentials = 0

    def standard_exponential(self, size=None):
        self.exponentials += 1
        value = 1e-9 if self.exponentials == 1 else 1e9
        return value if size is None else np.full(size, value)

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestJumpTable:
    @pytest.fixture
    def star(self):
        return build_graph([("c", "l0", 0.1), ("c", "l1", 0.7),
                            ("c", "l2", 0.7), ("c", "l3", 0.7)])

    def test_raw_row_sum_falls_short_of_one(self, star):
        # the rounding the table corrects: the centre's raw row ends below 1
        w = np.array([0.1, 0.7, 0.7, 0.7])
        assert np.cumsum(w / degrees(star).deg_1[0])[-1] < 1.0
        tbl = _JumpTable(star)
        assert tbl.cum[0, -1] == 1.0
        assert tbl.nbrs[0].tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("u, leaf", [(1.0 - 2.0**-53, "l3"),
                                         (0.0, "l0")])
    def test_every_draw_lands_on_a_neighbor(self, star, u, leaf):
        terminal, _F, N = _path_chunk(_JumpTable(star), 0, 1.0,
                                      np.zeros((star.n, 1, 1)), 1,
                                      _StubStream(u))
        assert N.tolist() == [1]
        assert star.labels[terminal[0]] == leaf
        path = sample_path(star, 0, 1.0, _StubStream(u))
        assert [star.labels[v] for v in path.vertices] == ["c", leaf]


class TestParallelTransport:
    def test_no_jumps_identity(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        path = PathSample(0, 1.0, (0,), (0.0,))
        assert np.allclose(parallel_transport(path, c), np.eye(3))

    def test_rank1_phase_product(self, rng):
        g = generate("cycle", n=4)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        theta = MagneticPotential(g, phases)
        c = connection_from_magnetic(theta)
        verts = (0, 1, 2, 3, 0)
        path = PathSample(0, 5.0, verts, (0.0, 1.0, 2.0, 3.0, 4.0))
        total = sum(theta.phase(verts[k], verts[k + 1]) for k in range(4))
        U = parallel_transport(path, c)
        assert U[0, 0] == pytest.approx(np.exp(1j * total), abs=1e-12)

    def test_retraced_edge_cancels(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        path = PathSample(0, 3.0, (0, 1, 0), (0.0, 1.0, 2.0))
        assert np.allclose(parallel_transport(path, c), np.eye(3), atol=1e-12)

    def test_unitary_after_many_jumps(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        n_jumps = 1000
        verts = tuple(k % 2 for k in range(n_jumps + 1))
        times = tuple(0.001 * k for k in range(n_jumps + 1))
        path = PathSample(0, 2.0, verts, times)
        U = parallel_transport(path, c)
        assert np.abs(U.conj().T @ U - np.eye(3)).max() <= 1e-9

    def test_unitary_on_sampled_paths(self, rng):
        g = random_graph(rng, max_n=6)
        c = random_connection(g, 2, rng)
        for i in range(20):
            path = sample_path(g, 0, 3.0, path_stream(21, 0, i))
            U = parallel_transport(path, c)
            assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-10


def _dyson_truncation(path, c, V, t, order=4):
    """Truncated time-ordered series, exact for piecewise-constant input.

    For interval-constant integrands B_1..B_M the n-th simplex integral
    splits into compositions n = p_M + ... + p_1 with weight
    prod_m Delta_m^{p_m} / p_m!, factors applied latest-leftmost.
    """
    nu = V.rank
    # interval data: (duration, transported potential)
    U = np.eye(nu, dtype=complex)
    intervals = []
    n_states = len(path.vertices)
    for k in range(n_states):
        t0 = path.times[k]
        t1 = min(path.times[k + 1] if k + 1 < n_states else t, t)
        if t0 >= t:
            break
        if t1 > t0:
            B = U.conj().T @ V.values[path.vertices[k]] @ U
            intervals.append((t1 - t0, B))
        if k + 1 < n_states:
            U = c.matrix(path.vertices[k], path.vertices[k + 1]) @ U
    total = np.zeros((nu, nu), dtype=complex)
    M = len(intervals)
    for powers in itertools.product(range(order + 1), repeat=M):
        if sum(powers) > order:
            continue
        term = np.eye(nu, dtype=complex)
        for (dt, B), p in zip(intervals, powers):
            fac = np.linalg.matrix_power(-dt * B, p) / math.factorial(p)
            term = fac @ term
        total += term
    return total


class TestOrderedExponential:
    def test_zero_potential_identity(self, edge_graph, rng):
        c = random_connection(edge_graph, 2, rng)
        V = Potential(2, np.zeros((2, 2, 2), dtype=complex))
        path = sample_path(edge_graph, 0, 2.0, path_stream(31, 0, 0))
        A = ordered_exponential(path, c, V, 2.0)
        assert np.allclose(A, np.eye(2), atol=1e-12)

    def test_constant_scalar(self, edge_graph):
        cval = 0.8
        V = Potential.scalar([cval, cval])
        c = Connection.identity(edge_graph, 1)
        path = sample_path(edge_graph, 0, 1.5, path_stream(32, 0, 0))
        A = ordered_exponential(path, c, V, 1.5)
        assert A[0, 0] == pytest.approx(np.exp(-cval * 1.5), abs=1e-12)

    def test_rank1_equals_occupation_exponential(self, rng):
        g = random_graph(rng, max_n=6)
        w = rng.uniform(-1, 1, size=g.n)
        V = Potential.scalar(w)
        c = Connection.identity(g, 1)
        for i in range(10):
            path = sample_path(g, 0, 1.2, path_stream(33, 0, i))
            A = ordered_exponential(path, c, V, 1.2)
            expect = np.exp(-occupation_integral(path, w, 1.2))
            assert A[0, 0].real == pytest.approx(expect, rel=1e-12)
            assert abs(A[0, 0].imag) < 1e-14

    def test_dyson_series_oracle(self, rng):
        # small-time truncated ordered series within 5 (|V| t)^5
        for trial in range(10):
            g = random_graph(rng, max_n=5)
            c = random_connection(g, 2, rng)
            V = random_potential(g, 2, rng)
            norm = max(np.linalg.norm(V.values[i], 2) for i in range(g.n))
            t = 0.1 / norm
            path = sample_path(g, 0, t, path_stream(34, 0, trial))
            A = ordered_exponential(path, c, V, t)
            oracle = _dyson_truncation(path, c, V, t)
            assert np.abs(A - oracle).max() <= 5 * (norm * t) ** 5

    def test_horizon_too_short(self, edge_graph, rng):
        c = random_connection(edge_graph, 2, rng)
        V = random_potential(edge_graph, 2, rng)
        path = sample_path(edge_graph, 0, 0.5, path_stream(35, 0, 0))
        with pytest.raises(BadParams):
            ordered_exponential(path, c, V, 1.0)

    def test_rank_mismatch(self, edge_graph, rng):
        c = random_connection(edge_graph, 3, rng)
        V = random_potential(edge_graph, 2, rng)
        path = sample_path(edge_graph, 0, 1.0, path_stream(36, 0, 0))
        with pytest.raises(RankMismatch):
            ordered_exponential(path, c, V, 1.0)

    def test_gronwall_norm_bound(self, rng):
        g = random_graph(rng, max_n=6)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        w = spectral_floor(V).as_scalar()
        for i in range(200):
            path = sample_path(g, 0, 1.0, path_stream(37, 0, i))
            A = ordered_exponential(path, c, V, 1.0)
            bound = np.exp(-occupation_integral(path, w, 1.0))
            assert np.linalg.norm(A, 2) <= bound + 1e-9


class TestOccupationIntegral:
    def test_constant_one(self, edge_graph):
        path = sample_path(edge_graph, 0, 1.7, path_stream(41, 0, 0))
        assert occupation_integral(path, np.ones(2), 1.7) == pytest.approx(
            1.7, abs=1e-12)

    def test_no_jump_value(self, edge_graph):
        path = PathSample(0, 2.0, (0,), (0.0,))
        assert occupation_integral(path, np.array([0.3, 9.0]), 2.0) == (
            pytest.approx(0.6, abs=1e-12))

    def test_two_interval_path(self):
        path = PathSample(0, 1.0, (0, 1), (0.0, 0.4))
        v = np.array([0.0, 1.0])
        # time spent at vertex 1 is 0.6
        assert occupation_integral(path, v, 1.0) == pytest.approx(
            0.6, abs=1e-12)


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

    def test_repeat_run_identical(self):
        g, pot = two_vertex()
        a = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        b = estimate_partition(g, None, pot, 1.0, 0.2, 10_000, seed=66)
        assert a == b

    def test_bad_params(self, edge_graph):
        with pytest.raises(BadParams):
            estimate_partition(edge_graph, None, np.zeros(2), -1.0, 1.0,
                               1000, seed=67)
        with pytest.raises(RankMismatch):
            estimate_partition(edge_graph, Connection.identity(edge_graph, 2),
                               np.zeros(2), 1.0, 1.0, 1000, seed=69)


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
