import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from graphfk import semiclassics
from graphfk.bundles import (
    Connection,
    Potential,
    connection_from_magnetic,
)
from graphfk.errors import GraphFKError, NumericalFailure
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import assemble, resolve, symmetrize
from graphfk.semiclassics import _fan, jump_terms, sweep
from graphfk.spectral import eigendecompose, eigenvalues, partition_function

from conftest import (
    exact_trace,
    random_connection,
    random_graph,
    random_potential,
)
from graphfk.presets import two_vertex, weyl_path


class TestClassicalPartition:
    # the classical sum that every row of a sweep is bounded by
    def test_zero_potential(self):
        g = generate("path", n=7)
        result = sweep(g, None, np.zeros(7), 2.5, (1.0,))
        assert result.classical_value == pytest.approx(7.0)

    def test_two_values(self):
        g = generate("path", n=2)
        result = sweep(g, None, np.array([0.0, 1.0]), 1.0, (1.0,))
        assert result.classical_value == pytest.approx(1 + np.exp(-1),
                                                       abs=1e-12)

    def test_fiber_trace(self):
        g = build_graph([], vertices=["a"])
        V = Potential(2, np.array([[[0, 1], [1, 0]]], dtype=complex))
        assert sweep(g, None, V, 1.0, (1.0,)).classical_value == \
            pytest.approx(np.exp(-1) + np.exp(1), abs=1e-12)


def _trace(g, c, V, beta, hbar):
    """The trace of a one-row sweep."""
    row, = sweep(g, c, V, beta, (hbar,)).rows
    return row.trace


class TestSemiclassicalTrace:
    def test_two_vertex_closed_form(self):
        g, pot = two_vertex()
        hbar = 0.01
        trace = _trace(g, None, pot, 1.0, hbar)
        lam = np.array([
            (1 + 2 * hbar - np.sqrt(1 + 4 * hbar ** 2)) / 2,
            (1 + 2 * hbar + np.sqrt(1 + 4 * hbar ** 2)) / 2,
        ])
        assert trace == pytest.approx(np.exp(-lam).sum(), abs=1e-12)
        assert trace == pytest.approx(1.35433, abs=1e-5)

    def test_zero_potential_limit(self):
        g = generate("cycle", n=5)
        traces = [r.trace for r in
                  sweep(g, None, np.zeros(5), 1.0, (0.1, 0.01, 0.001)).rows]
        assert abs(traces[-1] - 5.0) < abs(traces[0] - 5.0)
        assert traces[-1] == pytest.approx(5.0, abs=1e-2)

    def test_potential_and_vector_agree_bit_for_bit(self):
        # both scale V by hbar in the same (real) arithmetic
        g, pot = weyl_path()
        assert _trace(g, None, pot, 1.0, 0.1) == \
            _trace(g, None, pot.as_scalar(), 1.0, 0.1)

    def test_constant_potential_factors(self, rng):
        g = generate("cycle", n=4)
        c = connection_from_magnetic(rng.uniform(-np.pi, np.pi, len(g.edges)))
        cval = 0.7
        beta, hbar = 1.3, 0.2
        with_pot = _trace(g, c, np.full(4, cval), beta, hbar)
        dec = eigendecompose(assemble(g, c))
        free = float(np.exp(-beta * hbar * dec.eigenvalues).sum())
        assert with_pot == pytest.approx(np.exp(-beta * cval) * free, rel=1e-10)


class TestSandwich:
    # the lower and upper columns of the sweep's rows
    def test_two_vertex_values(self):
        g, pot = two_vertex()
        row, = sweep(g, None, pot, 1.0, (0.01,)).rows
        assert row.lower == pytest.approx(np.exp(-0.01) * (1 + np.exp(-1)),
                                          abs=1e-12)
        assert row.upper == pytest.approx(1 + np.exp(-1), abs=1e-12)

    def test_lower_tends_to_upper(self):
        g, pot = two_vertex()
        rows = sweep(g, None, pot, 1.0, (0.1, 0.01, 0.001)).rows
        gaps = [r.upper - r.lower for r in rows]
        assert gaps[0] > gaps[1] > gaps[2] >= 0

    def test_constant_degree_closed_form(self):
        g = generate("cycle", n=6)
        row, = sweep(g, None, np.zeros(6), 2.0, (0.05,)).rows
        assert row.lower == pytest.approx(6 * np.exp(-2 * 2.0 * 0.05),
                                          abs=1e-12)


def _margin(g, c, V, t):
    """Classical minus quantum trace at time t, as gt-check takes them: the
    gap of the sweep at hbar = 1, beta = t; nonnegative by theory."""
    return sweep(g, c, V, t, (1.0,)).rows[0].gap


class TestGoldenThompson:
    def test_two_vertex_value(self):
        g, pot = two_vertex()
        margin = _margin(g, None, pot, 1.0)
        expect = (1 + np.exp(-1)) - (
            np.exp(-(3 - np.sqrt(5)) / 2) + np.exp(-(3 + np.sqrt(5)) / 2))
        assert margin == pytest.approx(expect, abs=1e-12)
        assert margin == pytest.approx(0.61242, abs=1e-5)

    def test_zero_potential(self):
        g, _ = two_vertex()
        margin = _margin(g, None, None, 1.0)
        assert margin == pytest.approx(2 - (1 + np.exp(-2)), abs=1e-12)

    def test_isolated_vertex_equality(self):
        g = build_graph([], vertices=["a"], measure=[("a", 1.0)])
        V = Potential.scalar([0.7])
        assert _margin(g, None, V, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_random(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_n=10, connected=False)
            w = rng.uniform(-2, 2, size=g.n)
            t = float(rng.uniform(1e-3, 2.0))
            assert _margin(g, None, Potential.scalar(w), t) >= -1e-9

    def test_covariant_random(self, rng):
        for _ in range(30):
            nu = int(rng.integers(2, 4))
            g = random_graph(rng, max_n=8, connected=False)
            c = random_connection(g, nu, rng)
            V = random_potential(g, nu, rng)
            t = float(rng.uniform(1e-3, 2.0))
            assert _margin(g, c, V, t) >= -1e-9


class TestSweep:
    def test_two_vertex_convergence(self):
        g, pot = two_vertex()
        result = sweep(g, None, pot, 1.0, (1e-1, 1e-2, 1e-3))
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
        result = sweep(g, c, V, 1.0, (1e-1, 1e-2))
        for r in result.rows:
            assert r.trace <= result.classical_value + 1e-9

    def test_weyl_preset(self):
        g, pot = weyl_path()
        result = sweep(g, None, pot, 1.0, (1e-1, 1e-2, 1e-3, 1e-4))
        assert result.classical_value == pytest.approx(6.0, abs=1e-12)
        assert abs(result.rows[-1].trace - 6.0) < 1e-2

    def test_sandwich_asserted_exactly_when_scalar(self, monkeypatch):
        # a trace of 0 lies below the lower bound and under the upper one
        monkeypatch.setattr(semiclassics, "partition_function",
                            lambda lam, t: 0.0)
        g, pot = weyl_path()
        with pytest.raises(NumericalFailure, match="sandwich lower bound"):
            sweep(g, None, pot, 1.0, (1e-1, 1e-2))
        magnetic = sweep(g, Connection.identity(g, 1), pot, 1.0,
                         (1e-1, 1e-2))
        V2 = Potential(2, np.zeros((g.n, 2, 2)))
        covariant = sweep(g, None, V2, 1.0, (1e-1, 1e-2))
        for result in (magnetic, covariant):
            assert all(r.lower > r.trace == 0.0 for r in result.rows)

    def test_two_jump_bound_asserted_when_scalar(self, monkeypatch):
        # a trace equal to Z_0 meets the paper's lower bound but falls short
        # of Z_0 + Z_2 by Z_2, which is far above the 1e-9 allowance here
        g, pot = weyl_path()
        rows = sweep(g, None, pot, 1.0, (1e-1, 1e-2)).rows
        lower = {r.hbar: r.lower for r in rows}
        # beta = 1, so the trace's t = beta hbar is hbar
        monkeypatch.setattr(semiclassics, "partition_function",
                            lambda lam, t: lower[t])
        with pytest.raises(NumericalFailure, match="sandwich lower bound"):
            sweep(g, None, pot, 1.0, (1e-1, 1e-2))

    @pytest.mark.parametrize("patched, message", [
        ("partition_function", "upper bound"),
        ("jump_terms", "sandwich lower bound")])
    def test_nan_breaks_the_bounds(self, monkeypatch, patched, message):
        # a NaN trace or Z_2 compares False with any bound, so a check
        # written as "above the bound" let its row through
        nan = {"partition_function": lambda lam, t: math.nan,
               "jump_terms": lambda *args: np.full(3, math.nan)}[patched]
        monkeypatch.setattr(semiclassics, patched, nan)
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        with pytest.raises(NumericalFailure, match=message):
            sweep(g, None, np.array([1e300, 0.0, 0.0]), 1.0, (1e-5,))

    def test_bounds_allow_for_the_rounding_of_a_large_trace(self):
        # V = -40 on the 4 x 4 box: at hbar = 1e-4 the trace is about
        # 3.8e18, and Z_0 + Z_2 came out above it by about 2e4, 5e-15 of
        # it, within the rounding of the eigensolve but far above 1e-9
        g = generate("lattice_box", l=2, side=4)
        rows = sweep(g, None, np.full(g.n, -40.0), 1.0,
                     (1e-1, 1e-2, 1e-3, 1e-4)).rows
        assert rows[-1].trace == pytest.approx(16 * math.exp(40), rel=1e-3)
        assert rows[-1].lower <= rows[-1].trace

    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant",
                                      "covariant-trivial"])
    def test_rows_equal_single_traces_bit_for_bit(self, rng, mode):
        # one symmetrized free operator for the schedule, the diagonal
        # blocks rewritten per hbar: each trace is the one-hbar call's
        schedule = (1.0, 0.3, 1e-1, 1e-2, 1e-3, 1e-4)
        for _ in range(4):
            g = random_graph(rng, max_n=9)
            g = type(g)(g.labels, g.edges, g.weights,
                        rng.uniform(0.5, 2.0, g.n))
            nu = 1 if mode in ("scalar", "magnetic") else 2
            c = None
            if mode in ("magnetic", "covariant"):
                c = random_connection(g, nu, rng)
            V = random_potential(g, nu, rng)
            rows = sweep(g, c, V, 1.3, schedule).rows
            assert [r.hbar for r in rows] == list(schedule)
            assert [r.trace for r in rows] == [
                exact_trace(g, c, V, 1.3, h) for h in schedule]

    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant",
                                      "covariant-trivial"])
    def test_each_matrix_is_the_assembled_one(self, rng, monkeypatch, mode):
        # the covariant-trivial case has a real free operator and a complex
        # potential, so the schedule solves in complex arithmetic
        g = random_graph(rng, max_n=8)
        g = type(g)(g.labels, g.edges, g.weights, rng.uniform(0.5, 2.0, g.n))
        nu = 1 if mode in ("scalar", "magnetic") else 3
        c = random_connection(g, nu, rng) if mode in ("magnetic",
                                                      "covariant") else None
        V = random_potential(g, nu, rng)
        seen = []

        def capture(S):
            seen.append(S.copy())
            return np.linalg.eigvalsh(S)

        monkeypatch.setattr(semiclassics, "hermitian_eigenvalues", capture)
        schedule = (0.5, 1e-2, 1e-4)
        sweep(g, c, V, 1.0, schedule)
        assert len(seen) == len(schedule)
        for S, hbar in zip(seen, schedule):
            want = symmetrize(assemble(g, c, V.scaled(hbar)))
            assert S.dtype == want.dtype
            assert np.array_equal(S, want)

    def test_one_assembly_per_sweep(self, rng, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(semiclassics, "assemble", counted)
        g = generate("cycle", n=5)
        c = random_connection(g, 2, rng)
        sweep(g, c, random_potential(g, 2, rng), 1.0,
              (1e-1, 1e-2, 1e-3, 1e-4))
        assert len(calls) == 1

    def test_schedule_validation(self):
        g, pot = two_vertex()
        with pytest.raises(GraphFKError, match="strictly decreasing"):
            sweep(g, None, pot, 1.0, (1e-2, 1e-1))
        with pytest.raises(GraphFKError, match="beta must be positive"):
            sweep(g, None, pot, -1.0, (1e-1,))
        # NaN compares false both ways: it used to pass both checks
        with pytest.raises(GraphFKError, match="beta must be positive"):
            sweep(g, None, pot, np.nan, (1e-1,))
        with pytest.raises(GraphFKError,
                           match="hbar schedule entries must be positive"):
            sweep(g, None, pot, 1.0, (1e-1, np.nan))

    def test_gap_envelope(self, rng):
        # gap(hbar) <= classical * (1 - e^{-beta hbar C(b,m)}) from the sandwich
        from graphfk.graphs import degrees
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            w = rng.uniform(-1, 1, size=g.n)
            result = sweep(g, None, Potential.scalar(w), 1.0,
                           (1e-1, 1e-2, 1e-3))
            c_bm = degrees(g).c_bm
            for r in result.rows:
                envelope = result.classical_value * (
                    1 - np.exp(-r.hbar * c_bm))
                assert r.gap <= envelope + 1e-9


def _dense_diagonal(g, c, V, t, hbar):
    """Per vertex, sum_a (e^{-tS})_{xa,xa}, S the symmetrized H_{Phi,
    V/hbar}, and ||S||, from the eigendecomposition."""
    dec = eigendecompose(assemble(g, c, V.scaled(hbar)))
    diag = (np.abs(dec.vectors) ** 2) @ np.exp(-t * dec.eigenvalues)
    return diag.reshape(g.n, V.rank).sum(axis=1), np.abs(dec.eigenvalues).max()


def _box(side, rng):
    """The side x side box and a U[0, 2] potential on it."""
    g = generate("lattice_box", l=2, side=side)
    return g, Potential.scalar(rng.uniform(0.0, 2.0, g.n))


class TestTraceBracket:
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("mode", ["scalar", "magnetic", "covariant"])
    def test_encloses_the_dense_diagonal(self, rng, mode, t):
        # random graphs with random weights and measures, some in pieces
        # (a start's Krylov space runs out), and a weighted 5 x 5 box;
        # each end may miss by the rounding sweep allows for, 16 ulps of
        # the trace per unit of t ||S||, and at least 16 ulps
        nu = 2 if mode == "covariant" else 1
        graphs = [random_graph(rng, min_n=2, max_n=30, connected=k % 2 == 0)
                  for k in range(6)]
        graphs.append(_weighted(generate("lattice_box", l=2, side=5), rng))
        for g in graphs:
            c = None if mode == "scalar" else random_connection(g, nu, rng)
            V = random_potential(g, nu, rng)
            if nu == 1:
                V = Potential.scalar(V.values[:, 0, 0].real)
            hbar = float(rng.choice([1.0, 0.1, 0.01]))
            problem = resolve(g, c, V)
            assert problem.mode == mode
            bracket = semiclassics.trace_bracket(problem, t, hbar)
            diag, norm = _dense_diagonal(g, c, V, t, hbar)
            allow = 16 * np.spacing(diag.sum()) * max(1.0, t * norm)
            assert (bracket.lower <= diag + allow).all()
            assert (diag <= bracket.upper + allow).all()
            assert 0 < bracket.ritz <= norm * (1 + 1e-12)

    @pytest.mark.parametrize("width", [1e-2, 1e-6])
    def test_a_wider_bracket_still_encloses(self, rng, monkeypatch, width):
        # stopped early, after fewer steps, the two rules still bracket
        # the diagonal, and the bracket closes as far as it was asked to;
        # without a potential a = lambda_min(S) = 0 exactly, the node of
        # the Gauss-Radau rule sits on the spectrum's edge
        monkeypatch.setattr(semiclassics, "BRACKET_WIDTH", width)
        for k in range(8):
            g = random_graph(rng, min_n=6, max_n=30)
            V = (Potential.scalar(np.zeros(g.n)) if k % 2 else
                 Potential.scalar(rng.uniform(0.0, 2.0, g.n)))
            c = random_connection(g, 1, rng) if k % 4 > 1 else None
            t = (0.1, 1.0)[k % 2]
            bracket = semiclassics.trace_bracket(resolve(g, c, V), t, 1.0)
            diag, norm = _dense_diagonal(g, c, V, t, 1.0)
            allow = 16 * np.spacing(diag.sum()) * max(1.0, t * norm)
            assert (bracket.lower <= diag + allow).all()
            assert (diag <= bracket.upper + allow).all()
            assert (bracket.upper - bracket.lower).sum() <= width * diag.sum()

    def test_budget_and_shared_balls(self, rng):
        # a budget below the first step's price returns None; the balls
        # grown for one call serve the next, with the same result
        g, V = _box(8, rng)
        problem = resolve(g, None, V)
        balls = semiclassics._Balls(problem)
        assert semiclassics._bracket(problem, 0.1, 0.1, balls, 1e-9) is None
        first = semiclassics._bracket(problem, 0.1, 0.1, balls)
        radius = balls.radius
        again = semiclassics._bracket(problem, 0.1, 0.1, balls)
        assert balls.radius == radius
        alone = semiclassics.trace_bracket(problem, 0.1, 0.1)
        for other in (again, alone):
            assert np.array_equal(first.lower, other.lower)
            assert np.array_equal(first.upper, other.upper)
            assert first.steps == other.steps

    def test_box_takes_the_bracket_on_every_row(self, rng, monkeypatch):
        # the 32 x 32 box on the default schedule: no row solves densely,
        # so nothing is assembled, and each trace is within 1e-12 of the
        # dense one
        g, V = _box(32, rng)

        def refuse(*args, **kwargs):
            raise AssertionError("the dense operator was assembled")

        monkeypatch.setattr(semiclassics, "assemble", refuse)
        schedule = (1e-1, 1e-2, 1e-3, 1e-4)
        rows = sweep(g, None, V, 1.0, schedule).rows
        monkeypatch.undo()
        for row in rows:
            assert row.steps > 0
            assert abs(row.width) <= semiclassics.BRACKET_WIDTH
            want = exact_trace(g, None, V, 1.0, row.hbar)
            assert abs(row.trace - want) <= 1e-12 * want

    def test_large_t_falls_back_to_the_dense_trace(self, rng):
        # beta = 10, hbar = 1: the bracket would cost more than the dense
        # solve, and the row is the dense trace, bit for bit
        g, V = _box(32, rng)
        row, = sweep(g, None, V, 10.0, (1.0,)).rows
        assert (row.steps, row.width) == (0, 0.0)
        assert row.trace == exact_trace(g, None, V, 10.0, 1.0)

    def test_two_runs_agree(self, rng):
        g, V = _box(32, rng)
        schedule = (1e-1, 1e-2, 1e-3, 1e-4)
        assert sweep(g, None, V, 1.0, schedule).rows == \
            sweep(g, None, V, 1.0, schedule).rows

    def test_small_graphs_solve_densely(self, rng, monkeypatch):
        # up to 9 vertices (the bit-identity tests' graphs) no ball is
        # built: the dense solve is predicted cheaper
        def refuse(*args, **kwargs):
            raise AssertionError("a bracket was tried")

        monkeypatch.setattr(semiclassics, "_Balls", refuse)
        for nu in (1, 3):
            g = random_graph(rng, min_n=9, max_n=9)
            c = random_connection(g, nu, rng)
            V = random_potential(g, nu, rng)
            rows = sweep(g, c, V, 1.0, (1.0, 1e-2, 1e-4)).rows
            assert all(row.steps == 0 for row in rows)

    @pytest.mark.parametrize("family", ["complete", "star"])
    def test_a_hub_builds_no_ball(self, rng, monkeypatch, family):
        # a vertex of n - 1 neighbours makes its ball of radius 1 as wide
        # as the graph, so the padded tables would hold n^2 (1 + fan)
        # entries, above the dense operator's n^2: no ball is built, and
        # every row solves densely
        def refuse(*args, **kwargs):
            raise AssertionError("a bracket was tried")

        monkeypatch.setattr(semiclassics, "_Balls", refuse)
        size = {"n": 400} if family == "complete" else {"leaves": 399}
        g = _weighted(generate(family, **size), rng)
        V = rng.uniform(0.0, 2.0, g.n)
        rows = sweep(g, None, V, 1.0, (1e-1, 1e-2, 1e-3, 1e-4)).rows
        assert all(row.steps == 0 for row in rows)

    def test_tables_stay_within_the_dense_operator(self, rng):
        # on the 16 x 16 box the tables may hold 256 / 5 slots per start:
        # B_4 (41 wide) is placed, B_5 (61) is not, and t = 1 needs 12
        # steps, so even an ample budget gives up
        g, V = _box(16, rng)
        problem = resolve(g, None, V)
        balls = semiclassics._Balls(problem)
        assert semiclassics._bracket(problem, 1.0, 1.0, balls, 1e9) is None
        assert (balls.radius, balls.rows, balls.reach) == (4, 41, 61)
        assert semiclassics._bracket(problem, 1.0, 1.0, balls).steps == 12

    def test_a_level_too_wide_is_listed_once(self, rng, monkeypatch):
        # a level that would make a ball wider than the limit is not
        # placed, and a later ask as narrow does not list it again
        g, V = _box(8, rng)
        balls = semiclassics._Balls(resolve(g, None, V))
        listed = []
        monkeypatch.setattr(semiclassics, "_fan", lambda *args: (
            listed.append(args) or _fan(*args)))
        assert balls.grow(5) and balls.radius == 1
        assert not balls.grow(12) and balls.radius == 1
        assert not balls.grow(12) and len(listed) == 2
        assert balls.grow(13) and balls.radius == 2

    def test_cap_is_checked_before_any_bracket(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a bracket was tried")

        monkeypatch.setattr(semiclassics, "_Balls", refuse)
        g = generate("lattice_box", l=2, side=65)
        with pytest.raises(GraphFKError, match="exceeds cap"):
            sweep(g, None, np.zeros(g.n), 1.0, (1e-3,))

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_bounds_are_checked_against_the_ends(self, rng, monkeypatch,
                                                 end):
        # a bracket whose lower end lies above the classical sum, or whose
        # upper end lies below Z_0 + Z_2, breaks a bound even though its
        # midpoint would not
        g, V = _box(32, rng)
        problem = resolve(g, None, V)
        classical = float(np.exp(-V.values[:, 0, 0].real).sum())
        true = semiclassics.trace_bracket(problem, 0.01, 0.01)
        low, high = true.lower.sum(), true.upper.sum()
        shift = (classical - low + 1.0) if end == "lower" else (
            -(high - low) - 1.0)
        # keep the width within BRACKET_WIDTH: move both ends
        fake = semiclassics.Bracket(true.lower + shift / g.n,
                                    true.upper + shift / g.n, true.steps,
                                    true.ritz)
        monkeypatch.setattr(semiclassics, "_bracket",
                            lambda *args, **kwargs: fake)
        message = "upper bound" if end == "lower" else "sandwich lower"
        with pytest.raises(NumericalFailure, match=message):
            sweep(g, None, V, 1.0, (1e-2,))


def _dyson_two_jump(g, c, V, t):
    """Per vertex, the second-order Dyson term of tr e^{-tH}, H = D - K
    with D the diagonal blocks of the assembled matrix: int_0^t ds
    int_0^s dr tr_x(e^{-(t-s) D} K e^{-(s-r) D} K e^{-r D}) by 32 x 32
    Gauss-Legendre nodes (r = s v) and scipy's expm at every node."""
    H = assemble(g, c, V).matrix
    nu = V.rank
    D = np.zeros_like(H)
    for x in range(g.n):
        blk = slice(x * nu, (x + 1) * nu)
        D[blk, blk] = H[blk, blk]
    K = D - H
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes, weights = (nodes + 1) / 2, weights / 2  # on [0, 1]
    total = np.zeros((g.n * nu, g.n * nu), dtype=complex)
    for a, wa in zip(nodes, weights):
        s = a * t
        left = expm(-(t - s) * D) @ K
        for b, wb in zip(nodes, weights):
            r = b * s
            total += (wa * t) * (wb * s) * (
                left @ expm(-(s - r) * D) @ K @ expm(-r * D))
    diag = np.diagonal(total).reshape(g.n, nu).sum(axis=1)
    assert np.abs(diag.imag).max() <= 1e-12 * np.abs(diag).max()
    return diag.real


class TestTwoJumpTerm:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_matches_dyson_quadrature(self, rng, nu):
        # K_4 with non-uniform weights and measure, a unitary connection,
        # and above rank 1 a complex Hermitian potential
        g = generate("complete", n=4)
        g = build_graph([(g.labels[i], g.labels[j], float(rng.uniform(0.2, 2)))
                         for i, j in g.edges.tolist()],
                        measure=[(lab, float(rng.uniform(0.3, 2.0)))
                                 for lab in g.labels])
        c = random_connection(g, nu, rng)
        V = random_potential(g, nu, rng)
        assert nu == 1 or np.abs(V.values.imag).max() > 0
        beta, hbar = 1.0, 0.4
        got = jump_terms(resolve(g, c, V), beta * hbar, hbar, 2)
        want = _dyson_two_jump(g, c, V.scaled(hbar), beta * hbar)
        assert np.all(got > 0)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_trivial_connection_is_the_scalar_term(self, rng):
        # rank 1: |W|^2 = 1 on every arc, with or without phases
        g = random_graph(rng, max_n=8)
        w = rng.uniform(-1, 1, size=g.n)
        theta = rng.uniform(-3, 3, len(g.edges))
        scalar = jump_terms(resolve(g, None, w), 0.3, 0.3, 2)
        magnetic = jump_terms(
            resolve(g, connection_from_magnetic(theta), w), 0.3, 0.3, 2)
        assert np.allclose(magnetic, scalar, rtol=1e-14, atol=0)

    def test_psi_chi_against_exact_series(self):
        # psi(z) = int_0^1 s e^{-sz} ds = e[-z, 0, -z] and chi(z) =
        # int_0^1 (1 - s) e^{-sz} ds = e[-z, 0, 0], from z = 1e-8 to 4,
        # are Z_2 at t = 1 at the two ends of an edge, b = m = 1, that
        # hold at deg_m + v = z and 0: one edge per z, all on the series
        # route, against their Taylor series summed in exact rational
        # arithmetic to 60 terms, below 1e-20
        z = np.geomspace(1e-8, 4.0, 61)
        g = build_graph([(f"a{i}", f"b{i}", 1.0) for i in range(z.size)])
        at = {label: x for x, label in enumerate(g.labels)}
        v = np.full(g.n, -1.0)
        v[[at[f"a{i}"] for i in range(z.size)]] = z - 1.0
        got = jump_terms(resolve(g, None, v), 1.0, 1.0, 2)
        for i, zk in enumerate((1.0 + (z - 1.0)).tolist()):
            x = Fraction(zk)
            for mirrored, end in ((0, f"a{i}"), (1, f"b{i}")):
                exact = sum(
                    (-x) ** j / (math.factorial(j + 2) if mirrored
                                 else math.factorial(j) * (j + 2))
                    for j in range(60))
                assert abs(got[at[end]] / float(exact) - 1) <= 1e-15

    def test_integral_matches_closed_form(self):
        # Z_2 of one edge, b = m = 1, is I(alpha, beta) = int_0^t u
        # e^{-u alpha} e^{-(t - u) beta} du at the one end and I(beta,
        # alpha) at the other, alpha and beta the values deg_m + v at the
        # ends: on both sides of alpha = beta, at and near it and far from
        # it, against (1 - e^{-td} (1 + td)) e^{-t beta} / d^2, d = alpha
        # - beta, in 50-digit decimal arithmetic
        g, _ = two_vertex()
        t = 0.7

        def closed(alpha, beta):
            d, T = alpha - beta, Decimal(t)
            if d == 0:
                return T * T / 2 * (-T * beta).exp()
            return ((1 - (-T * d).exp() * (1 + T * d)) / (d * d)
                    * (-T * beta).exp())

        for alpha, beta in ((1.0, 1.0), (2.0, 2.0 + 1e-9), (-3.0, 40.0),
                            (40.0, -3.0), (0.5, 0.25), (5.0, 5.5)):
            v = np.array([alpha, beta]) - 1.0  # deg_m = 1
            got = jump_terms(resolve(g, None, v), t, 1.0, 2)
            ends = [Decimal(a) for a in (1.0 + v).tolist()]
            with localcontext() as ctx:
                ctx.prec = 50
                want = [float(closed(*ends)), float(closed(*ends[::-1]))]
            assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0)

    def test_scalar_lower_bound_on_random_problems(self, rng):
        # every Dyson term is nonnegative in the scalar case, so
        # Z_0 + Z_2 <= trace; the bound is within a few ulps of tight
        # where hbar is small
        for _ in range(200):
            g = random_graph(rng, max_n=7, connected=bool(rng.random() < 0.8))
            w = rng.uniform(-2, 2, size=g.n)
            beta = float(rng.uniform(0.2, 2.0))
            hbar = float(10 ** rng.uniform(-3, 0))
            row, = sweep(g, None, Potential.scalar(w), beta, (hbar,)).rows
            assert row.trace == exact_trace(g, None, w, beta, hbar)
            z2 = jump_terms(resolve(g, None, w), beta * hbar, hbar, 2).sum()
            assert row.lower + z2 <= row.trace * (1 + 1e-13)


def _opitz_expm(z):
    """Entry (0, k) of scipy's expm of the Opitz matrix diag(z) + N."""
    k = len(z) - 1
    return expm(np.diag(z) + np.diag(np.ones(k), 1))[0, k]


def _contour(z):
    """e[z_0, ..., z_k] per column of z, shape (k + 1, B), by the contour
    rule of the wide route of ``jump_terms``: Re sum_j w_j prod_i 1 / (s_j
    - z_i)."""
    poles = np.prod(1 / (semiclassics._NODES[:, None, None] - z), axis=1)
    return (semiclassics._WEIGHTS @ poles).real


def _edge_two_jump(alpha, beta, t):
    """Z_2 at the end of an edge, b = m = 1, that holds at alpha, its other
    end at beta: I(alpha, beta) = int_0^t u e^{-u alpha} e^{-(t - u) beta}
    du, in Decimal arithmetic, as (1 - e^{-td} (1 + td)) e^{-t beta} / d^2
    for d = alpha - beta > 0 and (-td - 1 + e^{td}) e^{-t alpha} / d^2 for
    d < 0, so that no exponential grows."""
    d, T = alpha - beta, Decimal(t)
    if d == 0:
        return T * T / 2 * (-T * beta).exp()
    if d > 0:
        return (1 - (-T * d).exp() * (1 + T * d)) / (d * d) * (-T * beta).exp()
    return (-T * d - 1 + (T * d).exp()) / (d * d) * (-T * alpha).exp()


class TestDividedExp:
    # the contour rule of the wide route, its nodes over [-spread, 0] with
    # the largest at 0, as ``jump_terms`` shifts a start's lowest value
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spread", [0.0, 1e-9, 0.3, 1.0, 5.0, 30.0,
                                        100.0, 700.0])
    def test_against_expm_of_the_opitz_matrix(self, rng, k, spread):
        # random nodes, the first repeated last as a closed walk repeats
        # its start, and in every fourth column all nodes equal
        z = -spread * rng.uniform(0, 1, (k + 1, 64))
        z[k] = z[0]
        z[:, ::4] = z[0, ::4]
        z -= z.max(axis=0)
        got = _contour(z)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        want = np.array([_opitz_expm(col) for col in z.T])
        assert np.abs(got / want - 1).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spread", [1500.0, 5000.0])
    def test_wide_spreads_stay_finite(self, rng, k, spread):
        # e^{-spread} underflows; column 1 holds a (k - 1)-fold node at
        # -spread between two at 0
        z = -spread * rng.uniform(0, 1, (k + 1, 64))
        z[k] = z[0]
        z[:, ::4] = z[0, ::4]
        z[:, 1] = 0.0
        z[1:k, 1] = -spread
        z -= z.max(axis=0)
        got = _contour(z)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        want = np.array([_opitz_expm(col) for col in z.T])
        assert np.abs(got / want - 1).max() <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is double on this platform")
    @pytest.mark.parametrize("c", [6.0, 10.0])
    def test_walks_that_miss_the_lowest_value(self, rng, c):
        # every node at or below -c: the rule rounds off relative to e^0,
        # about e^c times the value; weights taken in long double hold
        # it within 1.5e-15 e^c, in double only within 6e-15 e^c
        for k in (2, 4, 6):
            z = -60.0 * rng.uniform(0, 1, (k + 1, 64))
            z[k] = z[0]
            z -= z.max(axis=0) + c
            want = np.array([_opitz_expm(col) for col in z.T])
            err = np.abs(_contour(z) / want - 1).max()
            assert err <= 3e-15 * math.exp(c), k

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
    def test_either_side_of_the_series_limit(self, monkeypatch, k, factor):
        # the ends of an edge, b = m = 1, hold _DD_SERIES * factor apart at
        # t = 1 (offset by k): Z_2 takes the series route just below the
        # limit and the contour just above it, against the closed form in
        # 50-digit decimal arithmetic
        series = _counting(monkeypatch, "_node")
        contour = _counting(monkeypatch, "_pole")
        g, _ = two_vertex()
        v = np.array([k, k + semiclassics._DD_SERIES * factor]) - 1.0
        got = jump_terms(resolve(g, None, v), 1.0, 1.0, 2)
        assert (bool(series), bool(contour)) == (factor < 1, factor > 1)
        ends = [Decimal(a) for a in (1.0 + v).tolist()]
        with localcontext() as ctx:
            ctx.prec = 50
            want = [_edge_two_jump(*ends, 1.0),
                    _edge_two_jump(*ends[::-1], 1.0)]
        assert np.abs(got / np.array(want, dtype=float) - 1).max() <= 1e-12

    def test_equal_and_two_nodes_in_closed_form(self):
        # e[0, ..., 0] = 1 / k!, and e[x, 0] = (e^x - 1) / x
        for k in range(1, 5):
            got = _contour(np.zeros((k + 1, 1)))[0]
            assert abs(got * math.factorial(k) - 1) <= 1e-14
        x = np.array([-1e-9, -0.5, -1.0, -40.0, -700.0])
        got = _contour(np.stack([x, np.zeros_like(x)]))
        assert np.abs(got / (np.expm1(x) / x) - 1).max() <= 1e-14

    @pytest.mark.parametrize("spread", [1e3, 5e3, 1e6, 1e10, 1e50, 1e150])
    @pytest.mark.parametrize("graph", ["path", "two_vertex"])
    def test_wide_two_jump_term_per_start(self, graph, spread):
        # Z_2 at t = 1 on the 3-path a - b - c, V = (spread, 0, 0), and on
        # two vertices, V = (0, spread), b = m = 1, against the closed form
        # in 50-digit decimal arithmetic at every start; scaling and
        # squaring one batch by its widest walk lost 4.5e-9 at 1e10 and
        # every digit at 1e50
        if graph == "path":
            g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
            v = np.array([spread, 0.0, 0.0])
            pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        else:
            g, _ = two_vertex()
            v = np.array([0.0, spread])
            pairs = [(0, 1), (1, 0)]
        got = jump_terms(resolve(g, None, v), 1.0, 1.0, 2)
        values = [Decimal(a) for a in (degrees(g).deg_m + v).tolist()]
        want = [Decimal(0)] * g.n
        with localcontext() as ctx:
            ctx.prec = 50
            for x, y in pairs:
                want[x] += _edge_two_jump(values[x], values[y], 1.0)
        want = np.array(want, dtype=float)
        assert np.all(want > 0)
        assert np.abs(got / want - 1).max() <= 1e-12


def _dyson_block(g, c, V, t, k):
    """Per vertex, the k-jump Dyson term of tr e^{-tH}: the diagonal of
    block (0, k) of the exponential of the block-bidiagonal matrix with
    -tD on the diagonal and tK above it, H = D - K (Van Loan, IEEE TAC
    23 (1978) 395), by scipy's expm."""
    H = assemble(g, c, V).matrix
    nu, N = V.rank, H.shape[0]
    D = np.zeros_like(H)
    for x in range(g.n):
        blk = slice(x * nu, (x + 1) * nu)
        D[blk, blk] = H[blk, blk]
    big = np.zeros(((k + 1) * N, (k + 1) * N), dtype=H.dtype)
    for i in range(k + 1):
        big[i * N:(i + 1) * N, i * N:(i + 1) * N] = -t * D
        if i < k:
            big[i * N:(i + 1) * N, (i + 1) * N:(i + 2) * N] = t * (D - H)
    diag = np.diagonal(expm(big)[:N, k * N:]).reshape(g.n, nu).sum(axis=1)
    assert np.abs(diag.imag).max() <= 1e-12 * np.abs(diag).max()
    return diag.real


def _weighted(g, rng):
    """g with weights in [0.2, 2] and measures in [0.3, 2]."""
    return build_graph([(g.labels[i], g.labels[j], float(rng.uniform(0.2, 2)))
                        for i, j in g.edges.tolist()],
                       measure=[(lab, float(rng.uniform(0.3, 2.0)))
                                for lab in g.labels])


class TestHigherStrata:
    @pytest.mark.parametrize("mode, nu", [("scalar", 1), ("magnetic", 1),
                                          ("covariant", 2),
                                          ("covariant", 3)])
    @pytest.mark.parametrize("graph", [("complete", dict(n=5)),
                                       ("cycle", dict(n=5)),
                                       ("lattice_box", dict(l=2, side=3)),
                                       ("random", {})])
    def test_match_block_bidiagonal_expm(self, rng, graph, mode, nu):
        # Z_3 and Z_4 per vertex, on graphs with triangles (K_5, most
        # random graphs) and without, with random weights and measures
        if graph[0] == "random":
            g = random_graph(rng, max_n=9)
        else:
            g = _weighted(generate(graph[0], **graph[1]), rng)
        c = None if mode == "scalar" else random_connection(g, nu, rng)
        V = random_potential(g, nu, rng)
        if nu == 1:
            V = Potential.scalar(V.values[:, 0, 0].real)
        t, hbar = 0.8, 0.5
        problem = resolve(g, c, V)
        assert problem.mode == mode
        for k in (3, 4):
            got = jump_terms(problem, t, hbar, k)
            want = _dyson_block(g, c, V.scaled(hbar), t, k)
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale, k

    def test_lattice_of_64_vertices(self, rng):
        # n = 64 at rank 1, with a wide spread of potential values
        g = generate("lattice_box", l=2, side=8)
        w = rng.uniform(-2.0, 30.0, g.n)
        problem = resolve(g, None, w)
        got = jump_terms(problem, 1.0, 0.5, 4)
        want = _dyson_block(g, None, Potential.scalar(w / 0.5), 1.0, 4)
        assert np.abs(got / want - 1).max() <= 1e-12
        assert not jump_terms(problem, 1.0, 0.5, 3).any()

    @pytest.mark.parametrize("graph", [("complete", dict(n=5)),
                                       ("lattice_box", dict(l=2, side=3))])
    def test_wide_potential_spread(self, rng, graph):
        # t dV = 1600 between neighbors: the divided differences of each
        # walk span a spread above 1420, where a shift by anything but the
        # largest node overflows
        g = _weighted(generate(graph[0], **graph[1]), rng)
        w = rng.uniform(0.0, 3.0, g.n)
        w[::2] += 1600.0
        problem = resolve(g, None, w)
        for k in (3, 4):
            got = jump_terms(problem, 1.0, 1.0, k)
            want = _dyson_block(g, None, Potential.scalar(w), 1.0, k)
            assert np.all(np.isfinite(got))
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale, k

    def test_budget_counts_closed_walks(self):
        # at rank 2 the 4-cycle has tr A^4 = 32 closed 4-walks, 512 index
        # sequences, and K_4 has tr A^3 = 24 closed 3-walks, 192 index
        # sequences
        for g, k, walks in ((generate("cycle", n=4), 4, 32 * 2 ** 4),
                            (generate("complete", n=4), 3, 24 * 2 ** 3)):
            problem = resolve(g, None, Potential(2, np.zeros((4, 2, 2))))
            assert jump_terms(problem, 1.0, 1.0, k, budget=walks - 1) is None
            assert jump_terms(problem, 1.0, 1.0, k, budget=walks) is not None


def _bipartite(name):
    """C_6, C_8, the 4 x 4 box or K_{2,3}."""
    if name == "K23":
        return build_graph([(f"a{i}", f"b{j}", 1.0)
                            for i in range(2) for j in range(3)])
    if name == "box":
        return generate("lattice_box", l=2, side=4)
    return generate("cycle", n=int(name[1:]))


class TestSixJumpStratum:
    @pytest.mark.parametrize("name, mode, nu", [
        *[(name, mode, nu) for name in ("C6", "C8", "box", "K23")
          for mode, nu in (("scalar", 1), ("magnetic", 1),
                           ("covariant", 2))],
        ("C6", "covariant", 3)])
    def test_matches_block_bidiagonal_expm(self, rng, name, mode, nu):
        # Z_6 per vertex with random weights and measures; rank 3 on C_6
        # alone, its nu^6 = 729 index sequences per walk being the cost
        g = _weighted(_bipartite(name), rng)
        c = None if mode == "scalar" else random_connection(g, nu, rng)
        V = random_potential(g, nu, rng)
        if nu == 1:
            V = Potential.scalar(V.values[:, 0, 0].real)
        problem = resolve(g, c, V)
        assert problem.mode == mode
        got = jump_terms(problem, 0.8, 0.5, 6)
        want = _dyson_block(g, c, V.scaled(0.5), 0.8, 6)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["C6", "C8", "box", "K23"])
    def test_budget_counts_closed_walks(self, name):
        # the budget meets tr A^6, the closed 6-walks, before any weight
        g = _bipartite(name)
        A = np.zeros((g.n, g.n))
        A[g.edges[:, 0], g.edges[:, 1]] = A[g.edges[:, 1], g.edges[:, 0]] = 1
        walks = int(np.trace(np.linalg.matrix_power(A, 6)))
        problem = resolve(g, None, np.zeros(g.n))
        assert jump_terms(problem, 1.0, 1.0, 6, budget=walks - 1) is None
        assert jump_terms(problem, 1.0, 1.0, 6, budget=walks) is not None

    def test_every_order_of_one_routine(self):
        # a d-regular graph in closed form at V = 0, b = m = 1: a vertex
        # starts (A^k)_xx closed k-walks, each holding at the degree d for
        # the whole time, so Z_k = (A^k)_xx t^k e^{-td} / k!.  C_4 for the
        # even orders, (A^k)_xx = 2^(k - 1), and K_4 for k = 3, where
        # (A^3)_xx = 6
        for name, n, d, orders in (("cycle", 4, 2, (2, 4, 6)),
                                   ("complete", 4, 3, (3,))):
            g = generate(name, n=n)
            A = np.zeros((n, n))
            A[g.edges[:, 0], g.edges[:, 1]] = 1
            A += A.T
            problem = resolve(g, None, np.zeros(n))
            for k in orders:
                walks = np.diagonal(np.linalg.matrix_power(A, k))
                want = walks * math.exp(-d) / math.factorial(k)
                got = jump_terms(problem, 1.0, 1.0, k)
                assert np.abs(got / want - 1).max() <= 1e-14, k

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_edge_no_walk(self, n):
        # a single vertex and three without an edge: every stratum is 0,
        # under any budget
        g = build_graph([], vertices=[f"v{i}" for i in range(n)])
        problem = resolve(g, None, np.zeros(n))
        for k in (2, 3, 4, 6):
            for budget in (None, 0):
                got = jump_terms(problem, 1.0, 1.0, k, budget=budget)
                assert got.shape == (n,) and not got.any()


def _counting(monkeypatch, name):
    """Wrap semiclassics.<name> to count its calls."""
    calls = []
    inner = getattr(semiclassics, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(semiclassics, name, counted)
    return calls


class TestSeriesAndPairRoutes:
    def test_every_order_and_rank_against_block_expm(self, rng, monkeypatch):
        # random graphs with random weights, measures and transports, each
        # with a tail path of five vertices hung on vertex v0, whose
        # potential sits 40 above the rest at t = 1: the starts within
        # floor(k/2) jumps of it spread over _DD_SERIES and take the
        # contour, the far end of the tail the series route, in one call
        series = _counting(monkeypatch, "_node")
        contour = _counting(monkeypatch, "_pole")
        for trial in range(9):
            nu = 1 + trial % 3
            core = random_graph(rng, min_n=3, max_n=6)
            tail = [(f"w{i}" if i else "v0", f"w{i + 1}",
                     float(rng.uniform(0.2, 2.0))) for i in range(5)]
            g = build_graph(
                [(core.labels[i], core.labels[j], w) for (i, j), w
                 in zip(core.edges.tolist(), core.weights.tolist())] + tail,
                measure=[(lab, float(rng.uniform(0.3, 2.0)))
                         for lab in core.labels + tuple(
                             f"w{i}" for i in range(1, 6))])
            c = None if trial % 2 == 0 and nu == 1 else random_connection(
                g, nu, rng)
            V = random_potential(g, nu, rng)
            if nu == 1:
                V = Potential.scalar(V.values[:, 0, 0].real)
            V.values[g.labels.index("v0")] += 40.0 * np.eye(nu)
            problem = resolve(g, c, V)
            for k in range(2, 7):
                del series[:], contour[:]
                got = jump_terms(problem, 1.0, 1.0, k)
                want = _dyson_block(g, c, V, 1.0, k)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-12 * scale, (trial, k)
                # an odd k may close no walk, and then weighs nothing
                assert k % 2 or (series and contour), (trial, k)

    def test_no_triangle_lists_no_key(self, rng, monkeypatch):
        # C_33 is not bipartite and holds no triangle: Z_3 is 0 before
        # any 2-path key is listed; on K_4 the keys are listed, and Z_3
        # meets the oracle
        def refuse(*args, **kwargs):
            raise AssertionError("a key was listed")

        g = _weighted(generate("cycle", n=33), rng)
        problem = resolve(g, None, rng.uniform(-1.0, 2.0, g.n))
        monkeypatch.setattr(semiclassics, "_levels", refuse)
        got = jump_terms(problem, 1.0, 0.5, 3)
        assert got.tolist() == [0.0] * g.n
        monkeypatch.undo()
        levels = _counting(monkeypatch, "_levels")
        g = _weighted(generate("complete", n=4), rng)
        w = rng.uniform(-1.0, 2.0, g.n)
        got = jump_terms(resolve(g, None, w), 1.0, 0.5, 3)
        want = _dyson_block(g, None, Potential.scalar(w / 0.5), 1.0, 3)
        assert levels and np.abs(got - want).max() <= 1e-12 * want.max()

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_cycle_without_a_triangle(self, rng, monkeypatch, n):
        # C_5 and C_7 are not bipartite but hold no triangle: Z_3 is 0
        # with nothing weighed, and Z_5 and Z_7 meet the oracle (Z_5 = 0
        # on C_7, which closes no walk of five jumps)
        g = _weighted(generate("cycle", n=n), rng)
        w = rng.uniform(-1.0, 2.0, n)
        problem = resolve(g, None, w)
        series = _counting(monkeypatch, "_node")
        contour = _counting(monkeypatch, "_pole")
        got = jump_terms(problem, 1.0, 0.5, 3)
        assert got.tolist() == [0.0] * n and not series and not contour
        V = Potential.scalar(w / 0.5)
        scale = np.abs(_dyson_block(g, None, V, 1.0, 4)).max()
        for k in (5, 7):
            got = jump_terms(problem, 1.0, 0.5, k)
            want = _dyson_block(g, None, V, 1.0, k)
            assert np.abs(got - want).max() <= 1e-12 * scale, k
            assert got.any() == (k >= n)


@pytest.mark.parametrize("call, message", [
    (lambda g, w: sweep(g, None, w, np.nan, (0.1,)), "beta must be positive"),
    (lambda g, w: sweep(g, None, w, 1.0, (np.nan,)),
     "hbar schedule entries must be positive"),
], ids=["sandwich-beta", "sandwich-hbar"])
def test_nan_time_rejected(call, message):
    # NaN passed the old beta <= 0 checks and came back as a NaN result
    g, pot = two_vertex()
    with pytest.raises(GraphFKError, match=message):
        call(g, pot.as_scalar())


class TestGaugeInvariance:
    def test_spectrum_invariant(self, rng):
        g = generate("cycle", n=5)
        phases = rng.uniform(-np.pi, np.pi, len(g.edges))
        sigma = rng.uniform(-np.pi, np.pi, size=g.n)
        i, j = g.edges.T
        shifted = np.angle(np.exp(1j * (phases + sigma[j] - sigma[i])))
        w = rng.uniform(-1, 1, size=g.n)
        c0 = connection_from_magnetic(phases)
        c1 = connection_from_magnetic(shifted)
        lam0 = eigendecompose(assemble(g, c0, w)).eigenvalues
        lam1 = eigendecompose(assemble(g, c1, w)).eigenvalues
        assert np.allclose(lam0, lam1, atol=1e-9)
        t = 0.7
        tr0 = partition_function(eigenvalues(assemble(g, c0, w)), t)
        tr1 = partition_function(eigenvalues(assemble(g, c1, w)), t)
        assert tr0 == pytest.approx(tr1, abs=1e-9)
