import numpy as np
import pytest

from graphfk import semiclassics
from graphfk.bundles import (
    Connection,
    MagneticPotential,
    Potential,
    connection_from_magnetic,
)
from graphfk.errors import BadParams
from graphfk.graphs import ExhaustionSequence, build_graph, generate, restrict
from graphfk.operators import assemble
from graphfk.semiclassics import (
    SweepConfig,
    classical_partition,
    exhaustion_sweep,
    golden_thompson_margin,
    sandwich_bounds,
    semiclassical_trace,
    sweep,
)
from graphfk.spectral import eigendecompose, eigenvalues, partition_function

from conftest import random_connection, random_graph, random_potential
from graphfk.presets import two_vertex, weyl_path


class TestClassicalPartition:
    def test_zero_potential(self):
        assert classical_partition(np.zeros(7), 2.5) == pytest.approx(7.0)

    def test_two_values(self):
        assert classical_partition(np.array([0.0, 1.0]), 1.0) == pytest.approx(
            1 + np.exp(-1), abs=1e-12)

    def test_fiber_trace(self):
        V = Potential(2, np.array([[[0, 1], [1, 0]]], dtype=complex))
        assert classical_partition(V, 1.0) == pytest.approx(
            np.exp(-1) + np.exp(1), abs=1e-12)


class TestSemiclassicalTrace:
    def test_two_vertex_closed_form(self):
        g, pot = two_vertex()
        hbar = 0.01
        trace = semiclassical_trace(g, None, pot, 1.0, hbar)
        lam = np.array([
            (1 + 2 * hbar - np.sqrt(1 + 4 * hbar ** 2)) / 2,
            (1 + 2 * hbar + np.sqrt(1 + 4 * hbar ** 2)) / 2,
        ])
        assert trace == pytest.approx(np.exp(-lam).sum(), abs=1e-12)
        assert trace == pytest.approx(1.35433, abs=1e-5)

    def test_zero_potential_limit(self):
        g = generate("cycle", n=5)
        traces = [semiclassical_trace(g, None, np.zeros(5), 1.0, h)
                  for h in (0.1, 0.01, 0.001)]
        assert abs(traces[-1] - 5.0) < abs(traces[0] - 5.0)
        assert traces[-1] == pytest.approx(5.0, abs=1e-2)

    def test_potential_and_vector_agree_bit_for_bit(self):
        # both scale V by hbar in the same (real) arithmetic
        g, pot = weyl_path()
        assert semiclassical_trace(g, None, pot, 1.0, 0.1) == \
            semiclassical_trace(g, None, pot.as_scalar(), 1.0, 0.1)

    def test_constant_potential_factors(self, rng):
        g = generate("cycle", n=4)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        c = connection_from_magnetic(MagneticPotential(g, phases))
        cval = 0.7
        beta, hbar = 1.3, 0.2
        with_pot = semiclassical_trace(
            g, c, np.full(4, cval), beta, hbar)
        dec = eigendecompose(assemble(g, c))
        free = float(np.exp(-beta * hbar * dec.eigenvalues).sum())
        assert with_pot == pytest.approx(np.exp(-beta * cval) * free, rel=1e-10)


class TestSandwich:
    def test_two_vertex_values(self):
        g, pot = two_vertex()
        lower, upper = sandwich_bounds(g, pot, 1.0, 0.01)
        assert lower == pytest.approx(np.exp(-0.01) * (1 + np.exp(-1)), abs=1e-12)
        assert upper == pytest.approx(1 + np.exp(-1), abs=1e-12)

    def test_lower_tends_to_upper(self):
        g, pot = two_vertex()
        gaps = [np.subtract(*sandwich_bounds(g, pot, 1.0, h)[::-1])
                for h in (0.1, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2] >= 0

    def test_constant_degree_closed_form(self):
        g = generate("cycle", n=6)
        lower, _ = sandwich_bounds(g, np.zeros(6), 2.0, 0.05)
        assert lower == pytest.approx(6 * np.exp(-2 * 2.0 * 0.05), abs=1e-12)


class TestGoldenThompson:
    def test_two_vertex_value(self):
        g, pot = two_vertex()
        margin = golden_thompson_margin(g, None, pot, 1.0)
        expect = (1 + np.exp(-1)) - (
            np.exp(-(3 - np.sqrt(5)) / 2) + np.exp(-(3 + np.sqrt(5)) / 2))
        assert margin == pytest.approx(expect, abs=1e-12)
        assert margin == pytest.approx(0.61242, abs=1e-5)

    def test_zero_potential(self):
        g, _ = two_vertex()
        margin = golden_thompson_margin(g, None, None, 1.0)
        assert margin == pytest.approx(2 - (1 + np.exp(-2)), abs=1e-12)

    def test_isolated_vertex_equality(self):
        g = build_graph([], vertices=["a"], measure=[("a", 1.0)])
        V = Potential.scalar([0.7])
        assert golden_thompson_margin(g, None, V, 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_scalar_random(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_n=10, connected=False)
            w = rng.uniform(-2, 2, size=g.n)
            t = float(rng.uniform(1e-3, 2.0))
            margin = golden_thompson_margin(
                g, None, Potential.scalar(w), t)
            assert margin >= -1e-9

    def test_covariant_random(self, rng):
        for _ in range(30):
            nu = int(rng.integers(2, 4))
            g = random_graph(rng, max_n=8, connected=False)
            c = random_connection(g, nu, rng)
            V = random_potential(g, nu, rng)
            t = float(rng.uniform(1e-3, 2.0))
            assert golden_thompson_margin(g, c, V, t) >= -1e-9


class TestSweep:
    def test_two_vertex_convergence(self):
        g, pot = two_vertex()
        config = SweepConfig(g, 1.0, (1e-1, 1e-2, 1e-3), pot)
        result = sweep(config)
        gaps = [r.gap for r in result.rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 2e-3
        for r in result.rows:
            assert r.lower <= r.trace + 1e-9
            assert r.trace <= r.upper + 1e-9

    def test_covariant_upper_bound_each_row(self, rng):
        g = generate("cycle", n=4)
        c = random_connection(g, 2, rng)
        V = random_potential(g, 2, rng)
        config = SweepConfig(g, 1.0, (1e-1, 1e-2), V, c)
        result = sweep(config)
        for r in result.rows:
            assert r.trace <= result.classical_value + 1e-9

    def test_weyl_preset(self):
        g, pot = weyl_path()
        config = SweepConfig(g, 1.0, (1e-1, 1e-2, 1e-3, 1e-4), pot)
        result = sweep(config)
        assert result.classical_value == pytest.approx(6.0, abs=1e-12)
        assert abs(result.rows[-1].trace - 6.0) < 1e-2

    def test_sandwich_asserted_exactly_when_scalar(self, monkeypatch):
        # a trace of 0 lies below the lower bound and under the upper one
        monkeypatch.setattr(semiclassics, "semiclassical_trace",
                            lambda *args: 0.0)
        g, pot = weyl_path()
        with pytest.raises(AssertionError, match="sandwich lower bound"):
            sweep(SweepConfig(g, 1.0, (1e-1, 1e-2), pot))
        magnetic = sweep(SweepConfig(g, 1.0, (1e-1, 1e-2), pot,
                                     Connection.identity(g, 1)))
        V2 = Potential(2, np.zeros((g.n, 2, 2)))
        covariant = sweep(SweepConfig(g, 1.0, (1e-1, 1e-2), V2))
        for result in (magnetic, covariant):
            assert all(r.lower > r.trace == 0.0 for r in result.rows)

    def test_schedule_validation(self):
        g, pot = two_vertex()
        with pytest.raises(BadParams):
            SweepConfig(g, 1.0, (1e-2, 1e-1), pot)
        with pytest.raises(BadParams):
            SweepConfig(g, -1.0, (1e-1,), pot)
        # NaN compares false both ways: it used to pass both checks
        with pytest.raises(BadParams):
            SweepConfig(g, np.nan, (1e-1,), pot)
        with pytest.raises(BadParams):
            SweepConfig(g, 1.0, (1e-1, np.nan), pot)

    def test_gap_envelope(self, rng):
        # gap(hbar) <= classical * (1 - e^{-beta hbar C(b,m)}) from the sandwich
        from graphfk.graphs import degrees
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            w = rng.uniform(-1, 1, size=g.n)
            config = SweepConfig(g, 1.0, (1e-1, 1e-2, 1e-3),
                                 Potential.scalar(w))
            result = sweep(config)
            c_bm = degrees(g).c_bm
            for r in result.rows:
                envelope = result.classical_value * (
                    1 - np.exp(-r.hbar * c_bm))
                assert r.gap <= envelope + 1e-9


class TestGaugeInvariance:
    def test_spectrum_invariant(self, rng):
        g = generate("cycle", n=5)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        sigma = rng.uniform(-np.pi, np.pi, size=g.n)
        shifted = {
            (i, j): float(np.angle(np.exp(
                1j * (phases[(i, j)] + sigma[j] - sigma[i]))))
            for (i, j) in phases
        }
        w = rng.uniform(-1, 1, size=g.n)
        c0 = connection_from_magnetic(MagneticPotential(g, phases))
        c1 = connection_from_magnetic(MagneticPotential(g, shifted))
        lam0 = eigendecompose(assemble(g, c0, w)).eigenvalues
        lam1 = eigendecompose(assemble(g, c1, w)).eigenvalues
        assert np.allclose(lam0, lam1, atol=1e-9)
        t = 0.7
        tr0 = partition_function(eigenvalues(assemble(g, c0, w)), t)
        tr1 = partition_function(eigenvalues(assemble(g, c1, w)), t)
        assert tr0 == pytest.approx(tr1, abs=1e-9)


class TestExhaustionSweep:
    def _config(self, g, w):
        return SweepConfig(g, 1.0, (1e-1, 1e-2), Potential.scalar(w))

    def test_constant_zero_potential(self):
        host = generate("path", n=8)
        seq = ExhaustionSequence(
            host, (set(range(2)), set(range(4)), set(range(8))))
        config = self._config(host, np.zeros(8))
        summaries, _div = exhaustion_sweep(host, seq, config)
        assert [s["classical_value"] for s in summaries] == [2.0, 4.0, 8.0]

    def test_harmonic_flagged_divergent(self):
        n = 64
        host = generate("path", n=n)
        w = np.log(1 + np.arange(n))
        seq = ExhaustionSequence(
            host, tuple(set(range(k)) for k in (8, 16, 32, 64)))
        config = self._config(host, w)
        summaries, divergent = exhaustion_sweep(host, seq, config)
        partial = [sum(1.0 / (1 + k) for k in range(s["size"]))
                   for s in summaries]
        for s, expect in zip(summaries, partial):
            assert s["classical_value"] == pytest.approx(expect, rel=1e-10)
        assert divergent

    def test_decaying_not_flagged(self):
        n = 64
        host = generate("path", n=n)
        w = 0.1 * np.arange(n)  # geometric summand decay
        seq = ExhaustionSequence(
            host, tuple(set(range(k)) for k in (8, 16, 32, 64)))
        config = self._config(host, w)
        _summaries, divergent = exhaustion_sweep(host, seq, config)
        assert not divergent

    def test_single_truncation_matches_plain_sweep(self):
        host = generate("path", n=6)
        w = np.linspace(0, 1, 6)
        keep = [0, 1, 2]
        seq = ExhaustionSequence(host, (set(keep),))
        config = self._config(host, w)
        summaries, _ = exhaustion_sweep(host, seq, config)
        sub = restrict(host, keep)
        direct = sweep(self._config(sub, w[keep]))
        assert summaries[0]["classical_value"] == pytest.approx(
            direct.classical_value)
        assert summaries[0]["final_trace"] == pytest.approx(
            direct.rows[-1].trace)
