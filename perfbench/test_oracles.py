"""Tests of the benchmark's oracles on closed-form cases.

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import oracles
from workloads import WORKLOADS, _su2


def scalar_problem(edges, measure, w):
    n = len(measure)
    return oracles.Problem([f"v{i}" for i in range(n)], edges,
                           np.asarray(measure, dtype=float),
                           np.asarray(w, dtype=float).reshape(-1, 1, 1)
                           .astype(complex))


def two_vertex():
    return scalar_problem([(0, 1, 1.0)], [1.0, 1.0], [0.0, 1.0])


def weyl_path():
    m = np.array([1.0, 2.0, 3.0])
    return scalar_problem([(0, 1, 1.0), (1, 2, 1.0)], m, -np.log(m))


def two_vertex_trace(beta, hbar):
    """H = [[1, -1], [-1, 1 + 1/hbar]] has eigenvalues c -+ r below."""
    t, a = beta * hbar, 0.5 / hbar
    return 2.0 * np.exp(-t * (1.0 + a)) * np.cosh(t * np.sqrt(1.0 + a * a))


def unsymmetrized(problem, scale=1.0):
    """A = M^{-1/2} S M^{1/2}, the operator in its original coordinates."""
    sq = np.sqrt(np.repeat(problem.measure, problem.rank))
    S = oracles.symmetric_operator(problem, scale)
    return (S / sq[:, None]) * sq[None, :]


def num(v):
    return repr(float(v))


def sweep_csv(problem, beta, rows):
    lines = ["hbar,trace,lower,upper,gap"]
    for hbar, trace in rows:
        lo, hi = oracles.sandwich(problem, beta, hbar)
        lines.append(",".join(map(num, (hbar, trace, lo, hi, hi - trace))))
    upper = oracles.sandwich(problem, beta, 1.0)[1]
    lines.append(f"# classical_value={num(upper)},converged=true")
    return "\n".join(lines) + "\n"


def failed(checks):
    return [name for name, ok, _detail in checks if not ok]


@pytest.mark.parametrize("hbar", [1.0, 0.1, 1e-3])
def test_two_vertex_trace_closed_form(hbar):
    p = two_vertex()
    want = two_vertex_trace(1.0, hbar)
    assert oracles.trace(p, 1.0, hbar) == pytest.approx(want, rel=1e-12)
    per_vertex, total = oracles.vertex_traces(p, 1.0, hbar)
    assert total == pytest.approx(want, rel=1e-12)
    assert per_vertex.sum() == pytest.approx(want, rel=1e-12)


def test_sweep_check_accepts_exact_and_rejects_wrong_trace():
    p, schedule = two_vertex(), (0.1, 0.01)
    exact = [(h, two_vertex_trace(1.0, h)) for h in schedule]
    assert failed(oracles.check_sweep(sweep_csv(p, 1.0, exact), p, 1.0,
                                      schedule)) == []
    wrong = [(h, tr * (1 + 1e-6)) for h, tr in exact]
    assert "trace at hbar=0.1" in failed(
        oracles.check_sweep(sweep_csv(p, 1.0, wrong), p, 1.0, schedule))
    assert "one row per hbar" in failed(
        oracles.check_sweep(sweep_csv(p, 1.0, exact[:1]), p, 1.0, schedule))


def test_weyl_path_classical_sum_is_total_measure():
    p = weyl_path()
    assert oracles.classical(p, 1.0) == pytest.approx(6.0, rel=1e-14)
    lo, hi = oracles.sandwich(p, 1.0, 1e-4)
    assert hi == pytest.approx(6.0, rel=1e-14)
    assert lo < oracles.trace(p, 1.0, 1e-4) < hi
    assert oracles.trace(p, 1.0, 1e-4) == pytest.approx(6.0, rel=1e-3)


def test_weyl_path_sandwich_rejects_trace_above_classical():
    p = weyl_path()
    text = sweep_csv(p, 1.0, [(1e-3, 6.01)])
    bad = failed(oracles.check_sweep(text, p, 1.0, (1e-3,)))
    assert "sandwich at hbar=0.001" in bad


def test_weighted_trace_matches_unsymmetrized_eigenvalues():
    p = weyl_path()
    lam = np.linalg.eigvals(unsymmetrized(p, 1.0 / 0.1))
    assert oracles.trace(p, 1.0, 0.1) == pytest.approx(
        float(np.exp(-0.1 * lam).sum().real), rel=1e-12)


def test_operator_matches_defining_formula():
    rng = np.random.default_rng(5)
    edges = [(0, 1, 0.7), (1, 2, 1.3), (0, 2, 0.4)]
    m = np.array([1.0, 2.5, 0.6])
    V = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    V = V + V.conj().transpose(0, 2, 1)
    phis = _su2(rng, 3)
    p = oracles.Problem(["a", "b", "c"], edges, m, V,
                        {(i, j): phis[k] for k, (i, j, _b) in enumerate(edges)})
    f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    # A f(x) = (1/m(x)) sum_y b(x,y) (f(x) - Phi_{y,x} f(y)) + V(x) f(x)
    # with Phi_{i,j} = phis[k] stored and Phi_{j,i} = phis[k]^*
    want = np.array([V[x] @ f[x] for x in range(3)])
    for (i, j, b), phi in zip(edges, phis):
        want[i] += b / m[i] * (f[i] - phi.conj().T @ f[j])
        want[j] += b / m[j] * (f[j] - phi @ f[i])
    got = unsymmetrized(p) @ f.reshape(-1)
    assert np.allclose(got, want.reshape(-1), atol=1e-12)


def test_covariant_trivial_bundle_doubles_scalar_trace():
    p = oracles.Problem(["a", "b"], [(0, 1, 1.0)], np.ones(2),
                        np.array([0.0, 1.0])[:, None, None] * np.eye(2),
                        {(0, 1): np.eye(2, dtype=complex)})
    assert oracles.trace(p, 1.0, 0.1) == pytest.approx(
        2 * two_vertex_trace(1.0, 0.1), rel=1e-12)
    assert oracles.classical(p, 1.0) == pytest.approx(2 * (1 + np.exp(-1)))


def fk_csv(want_x, est_x, se_x, est, se):
    lines = ["x,exact,estimate,stderr,z_score"]
    lines += [f"{x},{num(w)},{num(e)},{num(s)},0" for x, (w, e, s)
              in enumerate(zip(want_x, est_x, se_x))]
    lines.append(f"total,{num(np.sum(want_x))},{num(est)},{num(se)},0")
    return "\n".join(lines) + "\n"


@pytest.fixture
def fk_case():
    """Covariant 3-cycle: exact per-vertex values, honest unit z-scores."""
    rng = np.random.default_rng(11)
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    phis = _su2(rng, 3)
    V = np.array([np.diag(d) for d in rng.uniform(0, 1, (3, 2))],
                 dtype=complex)
    p = oracles.Problem(["a", "b", "c"], edges, np.ones(3), V,
                        {(i, j): phis[k] for k, (i, j, _b) in enumerate(edges)})
    want_x, want = oracles.vertex_traces(p, 1.0, 0.5)
    se_x = np.full(3, 1e-3)
    est_x = want_x + se_x * np.array([1.0, -1.0, 1.0])  # mean z^2 = 1
    return p, want_x, want, se_x, est_x


def test_fk_check_accepts_honest_estimate(fk_case):
    p, want_x, want, se_x, est_x = fk_case
    se = float(np.sqrt((se_x ** 2).sum()))
    checks, rel = oracles.check_fk(
        fk_csv(want_x, est_x, se_x, float(est_x.sum()), se), p, 1.0, 0.5)
    assert failed(checks) == []
    assert rel == pytest.approx(se / want)
    assert want <= oracles.classical(p, 1.0)


def test_fk_check_rejects_understated_or_missing_stderr(fk_case):
    p, want_x, _want, se_x, est_x = fk_case
    se = float(np.sqrt((se_x ** 2).sum()))
    halved = oracles.check_fk(fk_csv(want_x, est_x, se_x / 2,
                                     float(est_x.sum()), se / 2), p, 1.0, 0.5)
    assert "per-vertex mean z^2" in failed(halved[0])
    zero = oracles.check_fk(fk_csv(want_x, est_x, se_x * 0,
                                   float(est_x.sum()), 0.0), p, 1.0, 0.5)
    assert {"stderr positive", "per-vertex mean z^2"} <= set(failed(zero[0]))


def test_fk_check_rejects_biased_total_and_wrong_exact(fk_case):
    p, want_x, _want, se_x, est_x = fk_case
    se = float(np.sqrt((se_x ** 2).sum()))
    biased = oracles.check_fk(fk_csv(want_x, est_x, se_x,
                                     float(est_x.sum()) + 6 * se, se),
                              p, 1.0, 0.5)
    assert failed(biased[0]) == ["total within 5 stderr"]
    wrong = oracles.check_fk(fk_csv(want_x * (1 + 1e-6), est_x, se_x,
                                    float(est_x.sum()), se), p, 1.0, 0.5)
    assert {"per-vertex exact", "exact total"} <= set(failed(wrong[0]))


def two_vertex_kato(t):
    """|w| = (0, 1): (e^{-sL}|w|)(b) = (1 + e^{-2s}) / 2 is the sup."""
    return t / 2 + (1 - np.exp(-2 * t)) / 4


def test_kato_closed_form_two_vertex():
    grid = (1.0, 0.5, 0.0625)
    got = oracles.kato_values(two_vertex(), grid)
    assert got == pytest.approx([two_vertex_kato(t) for t in grid], rel=1e-13)


def test_kato_closed_form_matches_quadrature_with_measure():
    p = weyl_path()
    A0 = unsymmetrized(scalar_problem(p.edges, p.measure, np.zeros(3))).real
    absw = np.abs(p.scalar_potential())
    integral, _err = quad_vec(lambda s: expm(-s * A0) @ absw, 0.0, 0.7,
                              epsabs=1e-13, epsrel=1e-12)
    assert oracles.kato_values(p, (0.7,))[0] == pytest.approx(
        integral.max(), rel=1e-10)


def kato_csv(rows):
    return "t,value\n" + "".join(f"{num(t)},{num(v)}\n" for t, v in rows)


def test_kato_check_accepts_exact_and_rejects_wrong():
    p, grid = two_vertex(), (1.0, 0.5, 0.25)
    exact = [(t, two_vertex_kato(t)) for t in grid]
    assert failed(oracles.check_kato(kato_csv(exact), p, grid)) == []
    off = [(t, v * (1 + 1e-4)) for t, v in exact]
    assert "closed form at t=1" in failed(
        oracles.check_kato(kato_csv(off), p, grid))
    swapped = [(1.0, exact[1][1]), (0.5, exact[0][1]), exact[2]]
    assert "nonincreasing as t decreases" in failed(
        oracles.check_kato(kato_csv(swapped), p, grid))
    too_big = [(t, 1.5 * t) for t in grid]
    assert "at most t max|w| at t=1" in failed(
        oracles.check_kato(kato_csv(too_big), p, grid))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = WORKLOADS[name]
    first = wl.make(np.random.default_rng([wl.base_seed, 3])).config
    again = wl.make(np.random.default_rng([wl.base_seed, 3])).config
    other = wl.make(np.random.default_rng([wl.base_seed, 4])).config
    assert first == again
    assert first != other
