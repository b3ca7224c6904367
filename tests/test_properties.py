"""Randomized cross-checks of the three trace routes on small problems.

Each example is a random weighted graph (n <= 6) carrying a scalar, a
magnetic (rank-1 phases) or a covariant (rank-2 SU(2)) problem.  The
operator matrix is checked against the matrix-free formula, the
eigenvalue trace against the heat-kernel trace, the quantum trace against
the classical bound (and the scalar sandwich), and Monte Carlo against
the exact trace.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfk.bundles import Connection, Potential
from graphfk.graphs import build_graph
from graphfk.operators import MODES, assemble, resolve
from graphfk.paths import estimate_partition
from graphfk.semiclassics import (
    SweepConfig,
    classical_partition,
    semiclassical_trace,
    sweep,
)
from graphfk.spectral import (
    eigendecompose,
    eigenvalues,
    partition_function,
)

from conftest import apply_formal, kernel_trace

SETTINGS = settings(derandomize=True, database=None, deadline=None)
unit = st.floats(-1.0, 1.0)


@st.composite
def problems(draw):
    """(graph, connection, potential, mode) of a random small problem."""
    n = draw(st.integers(1, 6))
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[i], labels[j], draw(st.floats(0.1, 1.5)))
             for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    measure = [(lab, draw(st.floats(0.5, 2.0))) for lab in labels]
    g = build_graph(edges, measure=measure, vertices=labels)
    mode = draw(st.sampled_from(MODES))
    if mode == "covariant":
        mats = []
        for _ in g.edges:
            q = np.array([draw(unit) for _ in range(4)]) + [1.5, 0, 0, 0]
            a, b = complex(*q[:2]), complex(*q[2:])
            mats.append(np.array([[a, b], [-b.conjugate(), a.conjugate()]])
                        / np.linalg.norm(q))
        c = Connection(2, np.reshape(mats, (-1, 2, 2)))
        vals = []
        for _ in range(n):
            d1, d2, re, im = (draw(unit) for _ in range(4))
            vals.append([[d1, complex(re, im)], [complex(re, -im), d2]])
        return g, c, Potential(2, np.array(vals)), mode
    c = None
    if mode == "magnetic":
        c = Connection(1, np.reshape([np.exp(1j * math.pi * draw(unit))
                                      for _ in g.edges], (-1, 1, 1)))
    return g, c, Potential.scalar([draw(unit) for _ in range(n)]), mode


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_matrix_matches_formal_operator(problem, seed):
    g, c, V, mode = problem
    assert resolve(g, c, V).mode == mode
    nu = V.rank
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(g.n, nu)) + 1j * rng.normal(size=(g.n, nu))
    direct = (assemble(g, c, V).matrix @ f.reshape(-1)).reshape(g.n, nu)
    formal = apply_formal(g, c, V, f)
    assert np.abs(direct - formal).max() <= 1e-12 * (1 + np.abs(direct).max())


@SETTINGS
@given(problems(), st.floats(0.05, 2.0))
def test_eigenvalue_trace_matches_kernel_trace(problem, t):
    g, c, V, _mode = problem
    op = assemble(g, c, V)
    exact = partition_function(eigenvalues(op), t)
    assert abs(kernel_trace(eigendecompose(op), t) - exact) <= 1e-10 * exact


@SETTINGS
@given(problems(), st.floats(0.1, 2.0), st.floats(1e-3, 1.0))
def test_trace_bounds(problem, beta, hbar):
    g, c, V, mode = problem
    trace = semiclassical_trace(g, c, V, beta, hbar)
    classical = classical_partition(V, beta)
    assert trace <= classical + 1e-9
    # sweep asserts the upper bound, and the sandwich when scalar
    row = sweep(SweepConfig(g, beta, (hbar,), V, c)).rows[0]
    assert row.trace == trace
    if mode == "scalar":
        assert row.lower <= trace + 1e-9


@settings(SETTINGS, max_examples=40)
@given(problems(), st.floats(0.2, 1.0), st.integers(0, 2**31))
def test_monte_carlo_within_five_sigma(problem, hbar, seed):
    g, c, V, _mode = problem
    exact = semiclassical_trace(g, c, V, 1.0, hbar)
    rep = estimate_partition(g, c, V, 1.0, hbar, 2000, seed)
    # a path set without spread has se = 0: allow float64 rounding
    tol = 1e-12 * max(1.0, abs(exact))
    assert abs(rep.estimate - exact) <= 5 * rep.stderr + tol
    assert abs(rep.imag_estimate) <= 5 * rep.imag_stderr + tol
