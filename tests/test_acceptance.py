"""End-to-end acceptance checks, one per headline criterion.

Each test prints a single PASS/FAIL line; run with ``pytest -v -s`` to
see them.  Tolerances are stated inline next to each assertion.
"""

import json
import math
import time

import numpy as np
import pytest

from graphfk.bundles import (
    MagneticPotential,
    Potential,
    connection_from_magnetic,
    spectral_floor,
)
from graphfk.cli import run as cli_run
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import (
    apply_formal,
    assemble,
    degree_bound,
    quadratic_form,
    resolve,
)
from graphfk.paths import (
    _JumpTable,
    _path_chunk,
    estimate_partition,
    path_stream,
    simulate_scalar_paths,
)
from graphfk.presets import four_cycle, two_vertex, weyl_path
from graphfk.semiclassics import SweepConfig, semiclassical_trace, sweep
from graphfk.spectral import eigendecompose, heat_kernel

from conftest import (
    random_connection,
    random_graph,
    random_potential,
    random_section,
)


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_semiclassical_limit():
    g, pot = two_vertex()
    start = time.perf_counter()
    result = sweep(SweepConfig(g, 1.0, (1e-1, 1e-2, 1e-3, 1e-4), pot))
    elapsed = time.perf_counter() - start
    rows_ok = all(r.lower <= r.trace + 1e-9 and r.trace <= r.upper + 1e-9
                  for r in result.rows)
    final_gap = result.rows[-1].gap
    err = abs(result.rows[-1].trace - (1 + math.exp(-1)))
    ok = rows_ok and final_gap < 2e-3 and err < 2e-4 and elapsed < 1.0
    report(1, "semiclassical limit", ok,
           f"final gap {final_gap:.2e}, trace error {err:.2e}, "
           f"{elapsed:.3f}s")


def test_criterion_2_golden_thompson_scalar():
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    good = 0
    for _ in range(200):
        g = random_graph(rng, max_n=10, connected=False)
        w = rng.uniform(-2, 2, size=g.n)
        t = float(rng.uniform(1e-6, 2.0))
        dec = eigendecompose(assemble(g, None, w))
        quantum = float(np.exp(-t * dec.eigenvalues).sum())
        classical = float(np.exp(-t * w).sum())
        if classical - quantum >= -1e-9:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == 200 and elapsed < 10.0
    report(2, "scalar trace inequality", ok,
           f"{good}/200 margins nonnegative, {elapsed:.2f}s")


def test_criterion_3_golden_thompson_covariant():
    rng = np.random.default_rng(3001)
    good = 0
    for _ in range(200):
        nu = int(rng.integers(2, 4))
        g = random_graph(rng, max_n=10, connected=False)
        c = random_connection(g, nu, rng)
        V = random_potential(g, nu, rng)
        t = float(rng.uniform(1e-6, 2.0))
        dec = eigendecompose(assemble(g, c, V))
        quantum = float(np.exp(-t * dec.eigenvalues).sum())
        classical = sum(
            float(np.exp(-t * np.linalg.eigvalsh(V.values[i])).sum())
            for i in range(g.n))
        if quantum <= classical + 1e-9:
            good += 1
    ok = good == 200
    report(3, "covariant trace inequality", ok, f"{good}/200 bounded")


def test_criterion_4_feynman_kac_scalar():
    rng = np.random.default_rng(4001)
    start = time.perf_counter()
    hits = 0
    for k in range(40):
        g = random_graph(rng, max_n=8, connected=False)
        w = rng.uniform(-1, 1, size=g.n)
        beta = 1.0
        hbar = float(rng.uniform(0.3, 1.0))  # beta*hbar <= 1
        exact = semiclassical_trace(g, None, w, beta, hbar)
        rep = estimate_partition(g, None, w, beta, hbar, 100_000,
                                 seed=4100 + k)
        if abs(rep.estimate - exact) <= 3 * rep.stderr:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 38 and elapsed < 120.0
    report(4, "scalar path-integral estimator", ok,
           f"{hits}/40 within 3 standard errors, {elapsed:.1f}s")


def test_criterion_5_feynman_kac_covariant():
    rng = np.random.default_rng(5001)
    g = generate("cycle", n=3)
    c = random_connection(g, 2, rng)
    V = random_potential(g, 2, rng)
    beta, hbar = 1.0, 0.5
    exact = semiclassical_trace(g, c, V, beta, hbar)
    rep = estimate_partition(g, c, V, beta, hbar, 100_000, seed=5100)
    z_re = abs(rep.estimate - exact) / rep.stderr
    z_im = abs(rep.imag_estimate) / rep.imag_stderr
    ok = z_re <= 3.0 and z_im <= 3.0
    report(5, "covariant path-integral estimator", ok,
           f"|z| = {z_re:.2f}, imaginary |z| = {z_im:.2f}")


def test_criterion_6_process_laws():
    n = 100_000
    worst = 0.0
    ok = True
    for g, t in ((two_vertex()[0], 1.0), (four_cycle()[0], 0.5)):
        deg_m = degrees(g).deg_m
        dec = eigendecompose(assemble(g))
        K = heat_kernel(dec, t)
        for x in range(g.n):
            terminal, _F, N = simulate_scalar_paths(g, x, t, n, seed=6100 + x)
            # holding law: P(N(t)=0) = e^{-deg_m(x) t}
            p0 = math.exp(-deg_m[x] * t)
            se0 = math.sqrt(p0 * (1 - p0) / n)
            z0 = abs(float((N == 0).mean()) - p0) / se0
            ok = ok and z0 <= 3.0
            worst = max(worst, z0)
            # terminal law: P^x(X_t = y) = p(t,x,y) m(y)
            for y in range(g.n):
                p = K.block(x, y)[0, 0].real * g.measure[y]
                se = math.sqrt(p * (1 - p) / n)
                z = abs(float((terminal == y).mean()) - p) / se
                ok = ok and z <= 3.0
                worst = max(worst, z)
    report(6, "jump process laws", ok, f"worst |z| = {worst:.2f}")


def test_criterion_7_operator_layer():
    rng = np.random.default_rng(7001)
    worst_green = 0.0
    norm_ok = True
    for _ in range(100):
        nu = int(rng.integers(1, 4))
        g = random_graph(rng, max_n=10, connected=False)
        c = random_connection(g, nu, rng)
        f1 = random_section(rng, g.n, nu)
        f2 = random_section(rng, g.n, nu)
        Q = quadratic_form(g, c, f1, f2)
        Hf1 = apply_formal(g, c, None, f1)
        ip = complex(np.sum(np.conj(f2) * Hf1 * g.measure[:, None]))
        worst_green = max(worst_green, abs(Q - ip) / (1 + abs(Q)))
        _c_bm, bound, observed = degree_bound(g)
        norm_ok = norm_ok and observed <= bound + 1e-9
    stencil_ok = True
    for l, side in ((1, 6), (2, 3)):
        g = generate("lattice_box", l=l, side=side)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        theta = MagneticPotential(g, phases)
        A = assemble(g, connection_from_magnetic(theta)).matrix
        B = g.adjacency()
        expect = np.diag(B.sum(axis=1)).astype(complex)
        for (i, j), b in g.edges.items():
            expect[i, j] = -b * np.exp(1j * theta.phase(j, i))
            expect[j, i] = -b * np.exp(1j * theta.phase(i, j))
        stencil_ok = stencil_ok and np.abs(A - expect).max() < 1e-12
    ok = worst_green <= 1e-10 and norm_ok and stencil_ok
    report(7, "operator layer identities", ok,
           f"worst pairing residual {worst_green:.2e}, "
           f"norm bounds {'held' if norm_ok else 'violated'}, "
           f"lattice stencil {'matched' if stencil_ok else 'mismatched'}")


def test_criterion_8_diamagnetic_and_norm_bound():
    rng = np.random.default_rng(8001)
    dia_ok = True
    for _ in range(100):
        nu = int(rng.integers(1, 4))
        g = random_graph(rng, max_n=8, connected=False)
        c = random_connection(g, nu, rng)
        f = random_section(rng, g.n, nu)
        q_cov = quadratic_form(g, c, f, f).real
        absf = np.linalg.norm(f, axis=1)
        q_scal = quadratic_form(g, None, absf, absf).real
        dia_ok = dia_ok and q_cov >= q_scal - 1e-10
    # the path half on the estimator's kernel: a next-event score is a sum
    # of g p e^{-deg r} tr(A Phi e^{-r V(x)}) over returns, and Gronwall's
    # ||A_t|| <= e^{-int w} with w = lambda_min(V) bounds each term by nu
    # times the score of the same return under the scalar floor w
    t, per_graph = 0.8, 40_000
    walk_ok = gron_ok = True
    worst = 0.0
    for i in range(10):
        nu = 2 + i % 2
        g = random_graph(rng, max_n=6)
        c = random_connection(g, nu, rng)
        V = random_potential(g, nu, rng)
        start = np.arange(per_graph) % g.n
        cov, floor = (
            _path_chunk(_JumpTable(problem), start, t,
                        path_stream(8100, 0, i), loops=True)
            for problem in (resolve(g, c, V),
                            resolve(g, None, spectral_floor(V))))
        walk_ok = walk_ok and all(np.array_equal(a, b) for a, b in
                                  ((cov[0], floor[0]), (cov[2], floor[2])))
        S, S_w = np.abs(cov[1]), floor[1].real
        gron_ok = gron_ok and bool(np.all(S <= nu * S_w * (1 + 1e-12)))
        live = S_w > 0
        worst = max(worst, float((S[live] / (nu * S_w[live])).max()))
    ok = dia_ok and walk_ok and gron_ok
    report(8, "diamagnetic and pathwise norm bounds", ok,
           f"form bound {'held' if dia_ok else 'violated'} on 100 draws, "
           f"walk {'rank-independent' if walk_ok else 'rank-dependent'} and "
           f"path bound {'held' if gron_ok else 'violated'} on "
           f"{10 * per_graph} scores, worst ratio {worst:.2f}")


def test_criterion_9_weighted_limit():
    g, pot = weyl_path()
    result = sweep(SweepConfig(g, 1.0, (1e-1, 1e-2, 1e-3, 1e-4), pot))
    err = abs(result.rows[-1].trace - 6.0)
    ok = result.classical_value == pytest.approx(6.0, abs=1e-12) and err < 1e-3
    report(9, "measure-weighted classical limit", ok,
           f"trace error {err:.2e} at the finest step")


def test_criterion_10_determinism(tmp_path):
    def config(name, workers, extra):
        extra = dict(extra)
        cfg = {
            "graph": {"preset": "two_vertex"},
            "params": {"beta": 1.0, "hbar": 0.5, "samples": 100_000,
                       "workers": workers, **extra.pop("params", {})},
            "seed": 10100,
            "output_dir": str(tmp_path / f"{name}-w{workers}"),
        }
        cfg.update(extra)
        path = tmp_path / f"{name}-w{workers}.json"
        path.write_text(json.dumps(cfg))
        return str(path), tmp_path / f"{name}-w{workers}" / "fk_compare.csv"

    outputs = {}
    for name, extra in (
        ("scalar", {}),
        ("magnetic", {"magnetic": {"inline": [["a", "b", 1.1]]},
                      "params": {"mode": "covariant"}}),
    ):
        blobs = []
        for workers in (1, 4):
            cfg_path, csv_path = config(name, workers, extra)
            assert cli_run(cfg_path, "fk-compare") == 0
            first = csv_path.read_bytes()
            assert cli_run(cfg_path, "fk-compare") == 0
            assert csv_path.read_bytes() == first  # repeat run identical
            blobs.append(first)
        outputs[name] = blobs[0] == blobs[1]
    # terminal-state law runs are covered by the library API directly
    g, _ = four_cycle()
    t1 = simulate_scalar_paths(g, 0, 0.5, 100_000, seed=10200, workers=1)
    t4 = simulate_scalar_paths(g, 0, 0.5, 100_000, seed=10200, workers=4)
    process_same = all(np.array_equal(a, b) for a, b in zip(t1, t4))
    ok = all(outputs.values()) and process_same
    report(10, "seeded determinism across worker counts", ok,
           f"byte-identical outputs: {outputs}, "
           f"process arrays identical: {process_same}")
