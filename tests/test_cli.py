import json
import math
import re
import warnings

import numpy as np
import pytest

from graphfk import cli, fileio, paths, presets, semiclassics, spectral
from graphfk.bundles import connection_from_magnetic
from graphfk.cli import main, run
from graphfk.graphs import generate
from graphfk.paths import EstimatorReport
from graphfk.presets import four_cycle, two_vertex
from graphfk.semiclassics import sweep

from conftest import exact_trace


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def for_subcommand(tmp_path, cfg, subcommand):
    """A config file of ``cfg`` with only the params keys that
    ``subcommand`` reads: a config may not hold any other."""
    params = {k: v for k, v in cfg.get("params", {}).items()
              if k in cli.PARAMS[subcommand]}
    return write_config(tmp_path, f"{subcommand}.json",
                        cfg | {"params": params})


def csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


class TestValidate:
    def test_clean_preset(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "validate") == 0
        header, rows = csv_rows(tmp_path / "out" / "violations.csv")
        assert header == "edge_i,edge_j,kind,deviation"
        assert rows == []
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[PASS] connection valid" in report

    def test_bad_connection_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "connection": {"inline": [["a", "b", [[[2.0, 0.0]]]]]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "validate") == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["kind"] == "validation"
        _header, rows = csv_rows(tmp_path / "out" / "violations.csv")
        assert rows[0].split(",")[:3] == ["0", "1", "unitarity"]

    @pytest.mark.parametrize("subcommand",
                             ["spectrum", "sweep", "fk-compare", "gt-check"])
    def test_other_subcommands_reject_bad_connection(self, tmp_path, capsys,
                                                     subcommand):
        # symmetrize would hide the non-unitary [[2]] and report numbers
        cfg = for_subcommand(tmp_path, {
            "graph": {"preset": "two_vertex"},
            "connection": {"inline": [["a", "b", [[[2.0, 0.0]]]]]},
            "params": {"samples": 1000},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }, subcommand)
        assert run(cfg, subcommand) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["kind"] == "validation"
        assert "unitarity on edge (a, b)" in record["error"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _on_four_cycle(tmp_path, diagonals):
        """A validate config for four_cycle with the transports diag(d)
        on its edges (v0, v1), (v1, v2), (v2, v3), (v3, v0), and a zero
        potential of rank 2 to match them."""
        pairs = [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"]]
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        return write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "connection": {"inline": [
                pair + [[[[d[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [d[1], 0.0]]]]
                for pair, d in zip(pairs, diagonals)]},
            "potential": {"inline": [[f"v{x}", zero] for x in range(4)]},
            "output_dir": str(tmp_path / "out")})

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    def test_rank_mismatch_refused(self, tmp_path, capsys, subcommand):
        # a unitary rank-2 connection on two_vertex's rank-1 potential:
        # validate used to pass it while every other subcommand refused it
        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "connection": {"inline": [["a", "b", identity]]},
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, subcommand) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "potential rank 1 != connection rank 2",
            "kind": "validation"}
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_failed_validate_names_the_first_edge(self, tmp_path, capsys):
        # the record's message used to be a JSON string of its own
        cfg = self._on_four_cycle(
            tmp_path, [(1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0)])
        assert run(cfg, "validate") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "connection fails unitarity on edge (v1, v2): deviation "
                     "3.000e+00; 2 of 4 edges fail",
            "kind": "validation"}
        _header, rows = csv_rows(tmp_path / "out" / "violations.csv")
        assert rows == ["1,2,unitarity,3", "0,3,unitarity,3"]

    def test_passing_validate_reports_the_largest_deviation(self, tmp_path):
        # ||Phi^* Phi - I|| is 2.0e-12 on (v1, v2) and 1.0e-12 on (v3, v0),
        # both within bundles.UNITARITY_TOL; the maximum used to be taken
        # over the violations alone and read 0 on every passing run
        cfg = self._on_four_cycle(tmp_path, [
            (1.0, 1.0), (1.0, 1.0 + 1e-12), (1.0, 1.0), (1.0 + 5e-13, 1.0)])
        assert run(cfg, "validate") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "violations: 0\n" in report
        assert ("[PASS] connection valid: max deviation 2.000e-12\n"
                in report)

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.json"), "validate") == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "not found" in record["error"]

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "bogus"},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "validate") == 1
        capsys.readouterr()

    @pytest.mark.parametrize("graph, message", [
        ({"family": "lattice_box", "l": 2, "side": 3, "n": 1000},
         "lattice_box does not read graph key 'n'"),
        ({"family": "path", "n": 4, "side": 9},
         "path does not read graph key 'side'"),
        ({"preset": "two_vertex", "family": "path", "n": 4,
          "file": "/nonexistent"},
         "exactly one of file, preset and family, not ['file', 'preset', "
         "'family']"),
        ({"preset": "two_vertex", "n": 4},
         "a preset graph entry does not read graph key 'n'"),
        ({"file": "g.json", "side": 2},
         "a file graph entry does not read graph key 'side'"),
        ({"n": 4}, "graph entry must give a file, preset, or family")])
    def test_graph_keys_the_form_does_not_read(self, tmp_path, capsys, graph,
                                               message):
        # every subcommand exits 1 before it reads a graph it would
        # otherwise build without the stray key
        cfg = write_config(tmp_path, "c.json", {
            "graph": graph, "output_dir": str(tmp_path / "out")})
        for subcommand in ("validate", "spectrum"):
            assert run(cfg, subcommand) == 1
            record = json.loads(capsys.readouterr().err.strip())
            assert message in record["error"]
        assert not (tmp_path / "out").exists()


class TestSpectrum:
    def test_two_vertex_eigenvalues(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "spectrum") == 0
        _header, rows = csv_rows(tmp_path / "out" / "spectrum.csv")
        lams = [float(r.split(",")[1]) for r in rows]
        expect = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
        assert np.allclose(lams, expect, atol=1e-12)

    def test_graph_from_file(self, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1.0], ["b", "c", 1.0]],
            "measure": [["a", 1.0], ["b", 1.0], ["c", 1.0]],
        }))
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"file": str(gpath)},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "spectrum") == 0
        _header, rows = csv_rows(tmp_path / "out" / "spectrum.csv")
        lams = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(lams, [0.0, 1.0, 3.0], atol=1e-10)


class TestSweep:
    def _config(self, tmp_path):
        return write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"beta": 1.0,
                       "hbar_schedule": [1e-1, 1e-2, 1e-3]},
            "output_dir": str(tmp_path / "out"),
        })

    def test_one_assembly_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cli.assemble(*args, **kwargs)

        monkeypatch.setattr(semiclassics, "assemble", counted)
        assert run(self._config(tmp_path), "sweep") == 0
        assert len(calls) == 1

    def test_header_and_final_gap(self, tmp_path):
        assert run(self._config(tmp_path), "sweep") == 0
        header, rows = csv_rows(tmp_path / "out" / "sweep.csv")
        assert header == "hbar,trace,lower,upper,gap"
        data = [r for r in rows if not r.startswith("#")]
        last = data[-1].split(",")
        assert float(last[4]) < 2e-3
        for r in data:
            _h, trace, lower, upper, _gap = map(float, r.split(","))
            assert lower <= trace + 1e-9 <= upper + 2e-9

    def test_wider_stated_mode_runs_with_derived_mode(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "weyl_path"},
            "params": {"mode": "covariant"},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "sweep") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "mode: scalar" in report

    @pytest.mark.parametrize("mode", ["magnetic", "scalar", "bogus"])
    def test_narrower_or_unknown_mode_exits_1(self, tmp_path, capsys, mode):
        swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        cfg = {
            "graph": {"family": "path", "n": 2},
            "connection": {"inline": [["v0", "v1", swap]]},
            "params": {"samples": 1000, "mode": mode},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        for subcommand in ("sweep", "fk-compare", "spectrum"):
            assert run(for_subcommand(tmp_path, cfg, subcommand),
                       subcommand) == 1, subcommand
            record = json.loads(capsys.readouterr().err.strip())
            assert record["kind"] == "validation"
            assert "'covariant'" in record["error"]

    def test_report_states_each_row_route(self, tmp_path):
        # the two-vertex rows solve densely; the 32 x 32 box's rows take
        # the trace bracket, with its steps and its relative width
        assert run(self._config(tmp_path), "sweep") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert ("routes: hbar=0.10000000000000001 dense; hbar=0.01 dense; "
                "hbar=0.001 dense\n") in report
        g = generate("lattice_box", l=2, side=32)
        cfg = write_config(tmp_path, "box.json", {
            "graph": {"family": "lattice_box", "l": 2, "side": 32},
            "potential": {"inline": [[lab, 0.5] for lab in g.labels]},
            "output_dir": str(tmp_path / "box")})
        assert run(cfg, "sweep") == 0
        line, = [line for line in (tmp_path / "box" / "report.txt")
                 .read_text().splitlines() if line.startswith("routes: ")]
        routes = line[len("routes: "):].split("; ")
        assert len(routes) == 4
        for route in routes:
            m, width = re.fullmatch(
                r"hbar=\S+ bracket m=(\d+), width=(\S+)", route).groups()
            assert int(m) > 0 and abs(float(width)) <= 1e-13

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        assert run(cfg, "sweep") == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert run(cfg, "sweep") == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first

    @pytest.mark.parametrize("patched, message", [
        ("partition_function", "upper bound violated at hbar=1e-05"),
        ("jump_terms", "sandwich lower bound violated at hbar=1e-05")])
    def test_nan_in_a_bound_exits_2(self, tmp_path, capsys, monkeypatch,
                                    patched, message):
        # a NaN trace or Z_2 on the 3-path with V = (1e300, 0, 0) exits 2
        # with a JSON record, not 0 with the row written
        nan = {"partition_function": lambda lam, t: math.nan,
               "jump_terms": lambda *args: np.full(3, math.nan)}[patched]
        monkeypatch.setattr(semiclassics, patched, nan)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "path", "n": 3},
            "potential": {"inline": [["v0", 1e300], ["v1", 0.0],
                                     ["v2", 0.0]]},
            "params": {"beta": 1.0, "hbar_schedule": [1e-5]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "sweep") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert err["error"].startswith(message)
        assert not (tmp_path / "out").exists()


class TestGtCheck:
    def test_zero_potential_margin(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", 0.0], ["b", 0.0]]},
            "params": {"t": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 0
        _header, rows = csv_rows(tmp_path / "out" / "gt.csv")
        t, classical, quantum, margin = map(float, rows[0].split(","))
        assert t == 1.0
        assert classical == pytest.approx(2.0, abs=1e-12)
        assert quantum == pytest.approx(1 + math.exp(-2), abs=1e-12)
        assert margin == pytest.approx(0.86466, abs=1e-5)
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[PASS] trace upper bound" in report

    def test_preset_potential(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"t": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 0
        _header, rows = csv_rows(tmp_path / "out" / "gt.csv")
        margin = float(rows[0].split(",")[3])
        assert margin == pytest.approx(0.61242, abs=1e-5)

    def test_quantum_is_the_trace_bit_for_bit(self, tmp_path):
        # it was classical - (classical - trace), 1 ulp off here
        g, pot = presets.lattice_box_2d()
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "lattice_box"},
            "params": {"t": 2.5},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 0
        _header, rows = csv_rows(tmp_path / "out" / "gt.csv")
        _t, classical, quantum, margin = map(float, rows[0].split(","))
        assert quantum == exact_trace(g, None, pot, 2.5, 1.0)
        assert margin == classical - quantum

    def test_quantum_takes_the_sweep_dispatch(self, tmp_path):
        # the 32 x 32 box at t = 0.01: the one-row sweep brackets, and the
        # quantum column is its midpoint, within 1e-12 of the dense trace
        g = generate("lattice_box", l=2, side=32)
        V = np.linspace(0.0, 2.0, g.n)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "lattice_box", "l": 2, "side": 32},
            "potential": {"inline": [[lab, float(v)]
                                     for lab, v in zip(g.labels, V)]},
            "params": {"t": 0.01},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 0
        _header, rows = csv_rows(tmp_path / "out" / "gt.csv")
        _t, classical, quantum, margin = map(float, rows[0].split(","))
        row, = sweep(g, None, V, 0.01, (1.0,)).rows
        assert row.steps > 0
        assert (quantum, margin) == (row.trace, row.gap)
        want = exact_trace(g, None, V, 0.01, 1.0)
        assert abs(quantum - want) <= 1e-12 * want

    def test_margin_is_the_sweep_gap_within_its_rounding(self, tmp_path):
        # V = -4e18 on the 4 x 4 box at t = 1e-17: the trace rounds above
        # the classical sum by far more than 1e-9, within the rounding
        # that sweep allows for; a fixed -1e-9 tolerance read [FAIL] here
        g = generate("lattice_box", l=2, side=4)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "lattice_box", "l": 2, "side": 4},
            "potential": {"inline": [[lab, -4e18] for lab in g.labels]},
            "params": {"t": 1e-17},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 0
        _header, rows = csv_rows(tmp_path / "out" / "gt.csv")
        _t, classical, quantum, margin = map(float, rows[0].split(","))
        row, = sweep(g, None, np.full(g.n, -4e18), 1e-17, (1.0,)).rows
        assert (quantum, margin) == (row.trace, row.gap)
        assert margin < -1e-9
        report = (tmp_path / "out" / "report.txt").read_text()
        assert f"[PASS] trace upper bound: margin {margin:.6g}" in report

    def test_broken_upper_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # a trace above the classical sum beyond its rounding
        monkeypatch.setattr(semiclassics, "partition_function",
                            lambda lam, t: 10.0)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"t": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert err["error"].startswith("upper bound violated at hbar=1.0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_t_exits_1_before_the_solve(self, tmp_path, capsys,
                                                    monkeypatch, t):
        def no_solve(*args, **kwargs):
            raise AssertionError("an eigensolve ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"t": t},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "gt-check") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "t must be positive", "kind": "validation"}


class TestFkCompare:
    def _config(self, tmp_path, **extra):
        cfg = {
            "graph": {"preset": "two_vertex"},
            "params": {"beta": 1.0, "hbar": 0.2, "samples": 20000},
            "seed": 99,
            "output_dir": str(tmp_path / "out"),
        }
        cfg.update(extra)
        return write_config(tmp_path, "c.json", cfg)

    def test_csv_shape_and_agreement(self, tmp_path):
        assert run(self._config(tmp_path), "fk-compare") == 0
        header, rows = csv_rows(tmp_path / "out" / "fk_compare.csv")
        assert header == "x,exact,estimate,stderr,z_score"
        assert len(rows) == 3  # one per vertex plus the total
        assert rows[-1].startswith("total,")
        z_total = float(rows[-1].split(",")[4])
        assert abs(z_total) <= 3.0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[PASS] estimate within 3 standard errors" in report

    def test_seed_mandatory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"samples": 1000},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "fk-compare") == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "seed" in record["error"]

    def test_worker_count_invariance(self, tmp_path):
        assert run(self._config(tmp_path), "fk-compare") == 0
        one = (tmp_path / "out" / "fk_compare.csv").read_bytes()
        cfg4 = self._config(
            tmp_path,
            params={"beta": 1.0, "hbar": 0.2, "samples": 20000,
                    "workers": 4})
        assert run(cfg4, "fk-compare") == 0
        assert (tmp_path / "out" / "fk_compare.csv").read_bytes() == one

    def test_wide_potential_spread_stays_finite(self, tmp_path):
        # beta dV = 1500: the divided differences of the closed walks span
        # more than exp's range, and each must still come out finite
        cfg = self._config(
            tmp_path, potential={"inline": [["a", 0.0], ["b", 1500.0]]},
            params={"beta": 1.0, "hbar": 1.0, "samples": 2000})
        assert run(cfg, "fk-compare") == 0
        _header, rows = csv_rows(tmp_path / "out" / "fk_compare.csv")
        values = [float(v) for row in rows for v in row.split(",")[1:4]]
        assert len(values) == 9 and np.all(np.isfinite(values))

    def _exact_total(self, tmp_path, cfg):
        assert run(write_config(tmp_path, "c.json", cfg), "fk-compare") == 0
        _header, rows = csv_rows(tmp_path / "out" / "fk_compare.csv")
        return float(rows[-1].split(",")[1])

    def test_magnetic_entry_resolves_to_magnetic_mode(self, tmp_path):
        g, pot = two_vertex()
        mag = {"inline": [["a", "b", 1.1]]}
        cfg = {"graph": {"preset": "two_vertex"}, "magnetic": mag,
               "params": {"samples": 2000}, "seed": 3,
               "output_dir": str(tmp_path / "out")}
        exact = self._exact_total(tmp_path, cfg)
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "mode: magnetic" in report
        c = fileio.magnetic_from_entries(mag["inline"], g)
        assert np.array_equal(c.matrices,
                              connection_from_magnetic([1.1]).matrices)
        assert exact == pytest.approx(
            exact_trace(g, c, pot, 1.0, 0.1), rel=1e-12)
        # two_vertex is a tree, so the phase is a gauge: the total matches
        # the scalar run; on a cycle the flux changes it
        cycle = {"graph": {"preset": "four_cycle"},
                 "params": {"samples": 2000}, "seed": 3,
                 "output_dir": str(tmp_path / "out")}
        scalar = self._exact_total(tmp_path, cycle)
        plain = (tmp_path / "out" / "fk_compare.csv").read_bytes()
        flux = {"inline": [["v0", "v1", 1.1], ["v1", "v2", 0.0],
                           ["v2", "v3", 0.0], ["v3", "v0", 0.0]]}
        magnetic = self._exact_total(tmp_path, {**cycle, "magnetic": flux})
        assert (tmp_path / "out" / "fk_compare.csv").read_bytes() != plain
        g4, pot4 = four_cycle()
        c4 = fileio.magnetic_from_entries(flux["inline"], g4)
        assert magnetic == pytest.approx(
            exact_trace(g4, c4, pot4, 1.0, 0.1), rel=1e-12)
        assert abs(magnetic - scalar) > 1e-6

    @pytest.mark.parametrize("graph, budget, lines", [
        ({"preset": "four_cycle"}, None,
         ["forced_jumps: 6", "exact_strata: Z0 Z2 Z4"]),
        ({"preset": "four_cycle"}, 0,
         ["forced_jumps: 4", "exact_strata: Z0 Z2\n",
          "forced_reason: Z3 and Z4 not computed"]),
        ({"family": "complete", "n": 4}, None,
         ["forced_jumps: 5", "exact_strata: Z0 Z2 Z3 Z4"]),
        ({"family": "complete", "n": 4}, 0, ["forced_jumps: 3"])])
    def test_report_states_the_forced_jumps(self, tmp_path, monkeypatch,
                                            graph, budget, lines):
        if budget is not None:
            monkeypatch.setattr(paths, "WALK_BUDGET", budget)
        cfg = write_config(tmp_path, "c.json", {
            "graph": graph, "params": {"samples": 200},
            "seed": 1, "output_dir": str(tmp_path / "out")})
        assert run(cfg, "fk-compare") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert all(line in report for line in lines)

    @pytest.mark.parametrize("hbar, lines", [
        (0.5, ["forced_jumps: 8", "exact_strata: Z0 Z2 Z4 Z6\n",
               "forced_reason: bipartite, so Z5 = Z7 = 0; Z6 computed: "
               "t max deg_m = 1 >= 1\n"]),
        (0.1, ["forced_jumps: 6", "exact_strata: Z0 Z2 Z4\n",
               "forced_reason: bipartite, so Z5 = 0; Z6 not computed: "
               "t max deg_m = 0.2 < 1\n"])])
    def test_report_says_why_six_jumps_are_taken_or_not(self, tmp_path,
                                                         hbar, lines):
        # the 4-cycle has degree 2: Z_6 from t max deg_m = 2 hbar = 1 up
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "cycle", "n": 4},
            "params": {"samples": 200, "hbar": hbar},
            "seed": 1, "output_dir": str(tmp_path / "out")})
        assert run(cfg, "fk-compare") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert all(line in report for line in lines)

    def test_rank2_connection_without_potential(self, tmp_path, capsys):
        swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "path", "n": 2},
            "connection": {"inline": [["v0", "v1", swap]]},
            "params": {"samples": 1000},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "fk-compare") == 0
        assert "Traceback" not in capsys.readouterr().err
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "mode: covariant" in report

    def test_rank2_potential_without_connection(self, tmp_path):
        V = [[[[1.0, 0.0], [0.2, 0.3]], [[0.2, -0.3], [0.5, 0.0]]],
             [[[0.0, 0.0], [0.1, 0.0]], [[0.1, 0.0], [2.0, 0.0]]]]
        cfg = {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", V[0]], ["b", V[1]]]},
            "params": {"samples": 1000},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        for subcommand in ("sweep", "fk-compare"):
            assert run(for_subcommand(tmp_path, cfg, subcommand),
                       subcommand) == 0
            report = (tmp_path / "out" / "report.txt").read_text()
            assert "mode: covariant" in report

    def test_scalar_mode_rejects_rank2_potential(self, tmp_path, capsys):
        V = [[[1.0, 0.0], [0.2, 0.0]], [[0.2, 0.0], [0.5, 0.0]]]
        cfg = {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", V], ["b", V]]},
            "params": {"samples": 1000, "mode": "scalar"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        for subcommand in ("sweep", "fk-compare"):
            assert run(for_subcommand(tmp_path, cfg, subcommand),
                       subcommand) == 1, subcommand
            err = capsys.readouterr().err
            assert "Traceback" not in err
            record = json.loads(err.strip().splitlines()[-1])
            assert record["kind"] == "validation"
            assert "rank-1 potential" in record["error"]

    def test_zero_stderr_is_not_a_pass(self, tmp_path, monkeypatch):
        # an estimate that states stderr 0 and misses the exact trace: here
        # the no-jump stratum 4 p_0 = 4 e^{-2t} alone (t = 1e-7, deg_m = 2),
        # just below the exact trace 1 + 2 e^{-2t} + e^{-4t} = 4 - 8t + 12t^2
        p0 = math.exp(-2e-7)

        def zero_stderr(g, *args, **kwargs):
            return EstimatorReport(
                4 * p0, 0.0, 0.0, 0.0,
                per_vertex=tuple((x, p0, 0.0) for x in range(g.n)),
                forced=6, strata=(0, 2, 4),
                forced_reason="bipartite, so Z5 = 0; Z6 not computed: "
                              "t max deg_m = 2e-07 < 1")

        monkeypatch.setattr(cli, "estimate_partition", zero_stderr)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "params": {"beta": 1.0, "hbar": 1e-7, "samples": 1024},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "fk-compare") == 0
        _header, rows = csv_rows(tmp_path / "out" / "fk_compare.csv")
        assert float(rows[-1].split(",")[2]) == 4 * p0
        assert rows[-1].split(",")[3:] == ["0", "-inf"]
        assert all(row.split(",")[3:] == ["0", "-inf"] for row in rows[:-1])
        report = (tmp_path / "out" / "report.txt").read_text()
        assert ("[FAIL] estimate within 3 standard errors: |z| = inf "
                "(stderr is 0)") in report

    @pytest.mark.parametrize("params", [dict(hbar=0.0), dict(hbar=-0.1),
                                        dict(beta=0.0)])
    def test_nonpositive_beta_or_hbar_exit_1_before_the_solve(
            self, tmp_path, capsys, monkeypatch, params):
        # hbar = 0 used to scale the potential by 1/0 (two RuntimeWarnings,
        # then "potential values must be finite"), and hbar < 0 ran the
        # whole eigensolve before the estimator refused it
        def no_solve(*args, **kwargs):
            raise AssertionError("the eigensolve ran")

        monkeypatch.setattr(cli, "eigendecompose", no_solve)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"beta": 1.0, "hbar": 0.1, "samples": 1000} | params,
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, "fk-compare") == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err) == {"error": "beta and hbar must be positive",
                                   "kind": "validation"}

    @pytest.mark.parametrize("samples", [0, 1, -5])
    def test_too_few_samples_exit_1(self, tmp_path, capsys, samples):
        # fewer than 2 paths per vertex give no standard error
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "params": {"samples": samples},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "fk-compare") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["kind"] == "validation"
        assert "samples" in record["error"]


    def test_dimension_cap_refused_before_sampling(self, tmp_path, capsys,
                                                   monkeypatch):
        # the exact side's cap was met only after every path was drawn
        def no_paths(*args, **kwargs):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(cli, "estimate_partition", no_paths)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "lattice_box", "l": 2, "side": 65},
            "params": {"samples": 20000}, "seed": 1,
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, "fk-compare") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "dimension 4225 exceeds cap 4096", "kind": "validation"}
        assert not (tmp_path / "out").exists()


class TestMalformedConfig:
    """Bad config values exit 1 with a JSON error record and write no
    output, where they used to crash with a traceback or run on."""

    def _exit_1(self, tmp_path, capsys, subcommand, cfg):
        cfg = write_config(tmp_path, "c.json", {
            "seed": 1, "output_dir": str(tmp_path / "out"), **cfg})
        assert run(cfg, subcommand) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["kind"] == "validation"
        assert not (tmp_path / "out").exists()
        return record

    @pytest.mark.parametrize("subcommand", sorted(cli.PARAMS))
    @pytest.mark.parametrize("entry, message", [
        ("edges", "b(1,2) = inf"),
        ("measure", "measure must be strictly positive and finite: "
                    "m(2) = inf")], ids=["weight", "measure"])
    def test_infinite_weight_or_measure(self, tmp_path, capsys, subcommand,
                                        entry, message):
        # JSON reads Infinity as inf > 0: on a weight kato wrote nan and
        # validate passed, on a measure fk-compare ended in a traceback
        spec = {"edges": [["p", "q", 1.0], ["q", "r", 1.0]],
                "measure": [["p", 1.0], ["q", 1.0], ["r", 1.0]]}
        spec[entry][-1][-1] = math.inf
        path = write_config(tmp_path, "g.json", spec)
        record = self._exit_1(tmp_path, capsys, subcommand, {"graph": path})
        assert record["error"] == message

    def test_repeated_potential_vertex(self, tmp_path, capsys):
        # a second entry for a vertex used to replace the first silently
        record = self._exit_1(tmp_path, capsys, "spectrum", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", 0.5], ["b", 0.1], ["a", 0.7]]}})
        assert "two potential entries for vertex 'a'" in record["error"]

    def test_vertex_without_potential_entry_takes_zero(self, tmp_path):
        g, _pot = two_vertex()
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", 0.5]]},
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, "spectrum") == 0
        _header, rows = csv_rows(tmp_path / "out" / "spectrum.csv")
        got = [float(r.split(",")[1]) for r in rows]
        want = spectral.eigenvalues(cli.assemble(g, None, [0.5, 0.0]))
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_unknown_label_in_inline_potential(self, tmp_path, capsys):
        record = self._exit_1(tmp_path, capsys, "spectrum", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", 0.5], ["zz", 1.0]]}})
        assert "'zz'" in record["error"]

    @pytest.mark.parametrize("entry", [
        {"potential": {"inline": [["a", "abc"]]}},
        {"potential": {"inline": [["a"]]}},
        {"magnetic": {"inline": [["a", "b", "x"]]}},
        {"connection": {"inline": [["a", "b", "x"]]}},
        {"graph": {"family": "path", "n": "x"}},
    ], ids=["potential-text", "potential-no-value", "magnetic-text",
            "connection-text", "family-text-size"])
    def test_malformed_entry(self, tmp_path, capsys, entry):
        self._exit_1(tmp_path, capsys, "spectrum",
                     {"graph": {"preset": "two_vertex"}, **entry})

    @pytest.mark.parametrize("subcommand, cfg", [
        ("sweep", {"params": {"beta": math.nan}}),
        ("sweep", {"params": {"beta": "x"}}),
        ("fk-compare", {"params": {"samples": 100}, "seed": "x"}),
        ("sweep", {"params": {"hbar_schedule": 0.1}}),
        ("sweep", {"params": [1]}),
    ], ids=["nan-beta", "text-beta", "text-seed", "scalar-schedule",
            "params-list"])
    def test_bad_params(self, tmp_path, capsys, subcommand, cfg):
        self._exit_1(tmp_path, capsys, subcommand,
                     {"graph": {"preset": "two_vertex"}, **cfg})

    @pytest.mark.parametrize("subcommand, key", [("kato", "t_grid"),
                                                 ("sweep", "hbar_schedule")])
    def test_empty_list_params(self, tmp_path, capsys, subcommand, key):
        # kato wrote a kato.csv of its header alone and exited 0; sweep
        # exited 1 but said its "entries must be positive"
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"preset": "two_vertex"}, "params": {key: []}})
        assert key in record["error"]

    @pytest.mark.parametrize("subcommand, cfg", [
        ("sweep", {"params": {"beta": True}}),
        ("sweep", {"params": {"hbar_schedule": [True]}}),
        ("spectrum", {"potential": {"inline": [["a", True], ["b", 0.5]]}}),
        ("spectrum", {"graph": {"family": "path", "n": True}}),
    ], ids=["beta", "hbar-schedule", "potential", "family-size"])
    def test_boolean_for_a_number(self, tmp_path, capsys, subcommand, cfg):
        # JSON true was read as 1, and the run exited 0
        record = self._exit_1(tmp_path, capsys, subcommand,
                              {"graph": {"preset": "two_vertex"}, **cfg})
        assert "True" in record["error"]

    @pytest.mark.parametrize("subcommand, cfg, named", [
        ("sweep", {"params": {"beta": "0.5"}}, "'0.5'"),
        ("fk-compare", {"params": {"samples": 100}, "seed": "7"}, "'7'"),
        ("spectrum", {"magnetic": {"inline": [["a", "b", True]]}}, "True"),
        ("spectrum", {"magnetic": {"inline": [["a", "b", "0.3"]]}}, "'0.3'"),
        ("spectrum", {"connection": {"inline": [["a", "b", [[["1", "0"]]]]]}},
         "'1'"),
        ("spectrum", {"potential": {"inline": [["a", "0.5"]]}}, "'0.5'"),
        ("spectrum", {"graph": {"family": "path", "n": "3"}}, "'3'"),
    ], ids=["beta", "seed", "magnetic-boolean", "magnetic-text",
            "connection-text", "potential-text", "family-size"])
    def test_string_or_boolean_for_a_number(self, tmp_path, capsys,
                                            subcommand, cfg, named):
        # each was read as the number it spells (float("0.5"), int("7"),
        # float(True)), and the run exited 0: a 3-vertex path for "3"
        record = self._exit_1(tmp_path, capsys, subcommand,
                              {"graph": {"preset": "two_vertex"}, **cfg})
        assert named in record["error"]

    @pytest.mark.parametrize("graph, named", [
        ({"edges": [["a", "b", True]]}, "True"),
        ({"edges": [["a", "b", 1.0]], "measure": [["a", "2"]]}, "'2'"),
        ({"edges": [["a", "b", 10**400]]}, "too large"),
    ], ids=["boolean-weight", "text-measure", "huge-weight"])
    def test_graph_file_numbers(self, tmp_path, capsys, graph, named):
        # a weight of true was read as 1 and a measure of "2" as 2; an
        # integer too large for a float crashed with an OverflowError
        path = write_config(tmp_path, "g.json", graph)
        record = self._exit_1(tmp_path, capsys, "spectrum", {"graph": path})
        assert named in record["error"]

    @pytest.mark.parametrize("graph", [5, {"preset": {}}, {"preset": ["x"]},
                                       {"file": 5}],
                             ids=["number", "object-preset", "list-preset",
                                  "number-file"])
    def test_graph_entry_of_the_wrong_type(self, tmp_path, capsys, graph):
        # the first three crashed with a TypeError traceback, and open()
        # took the file number 5 for a file descriptor
        self._exit_1(tmp_path, capsys, "spectrum", {"graph": graph})

    def test_output_dir_not_a_string(self, tmp_path, capsys):
        # pathlib raised a TypeError
        self._exit_1(tmp_path, capsys, "spectrum",
                     {"graph": {"preset": "two_vertex"}, "output_dir": 5})

    def test_list_labels_in_a_graph_file(self, tmp_path, capsys):
        # build_graph raised "unhashable type: 'list'" outside the parser
        path = write_config(tmp_path, "g.json",
                            {"edges": [[["a"], "b", 1.0]]})
        record = self._exit_1(tmp_path, capsys, "spectrum", {"graph": path})
        assert "malformed graph spec" in record["error"]

    @pytest.mark.parametrize("key", ["graph", "potential"])
    def test_data_path_names_a_directory(self, tmp_path, capsys, key):
        # an IsADirectoryError traceback
        cfg = {"graph": {"preset": "two_vertex"}, key: str(tmp_path)}
        record = self._exit_1(tmp_path, capsys, "spectrum", cfg)
        assert "cannot read" in record["error"]

    def test_config_path_names_a_directory(self, tmp_path, capsys):
        assert run(str(tmp_path), "spectrum") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "cannot read" in json.loads(err.strip())["error"]

    def test_config_not_utf8(self, tmp_path, capsys):
        # a UnicodeDecodeError traceback
        path = tmp_path / "c.json"
        path.write_bytes(b'{"graph": "\xff"}')
        assert run(str(path), "spectrum") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "cannot read" in json.loads(err.strip())["error"]

    def test_unreadable_data_file(self, tmp_path, capsys, monkeypatch):
        # a PermissionError traceback; open is stubbed, since a file mode
        # does not stop a superuser from reading
        path = write_config(tmp_path, "g.json", {"edges": [["a", "b", 1.0]]})
        cfg = write_config(tmp_path, "c.json", {"graph": path})

        def refuse(name, *args, **kwargs):
            if name == path:
                raise PermissionError(13, "Permission denied", name)
            return open(name, *args, **kwargs)

        monkeypatch.setattr(fileio, "open", refuse, raising=False)
        assert run(cfg, "spectrum") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "Permission denied" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("graph, name", [
        ({"edges": [["a", "b", math.nan], ["b", "c", 1.0]]}, "b("),
        ({"edges": [["a", "b", 1.0]], "measure": [["a", math.nan]]}, "m("),
    ], ids=["nan-weight", "nan-measure"])
    def test_nan_in_a_graph_file(self, tmp_path, capsys, graph, name):
        # NaN passed the old w <= 0 and v <= 0 checks, and the eigensolve
        # exited 2 with "Eigenvalues did not converge"
        path = write_config(tmp_path, "g.json", graph)
        record = self._exit_1(tmp_path, capsys, "spectrum", {"graph": path})
        assert name in record["error"] and "nan" in record["error"]

    @pytest.mark.parametrize("entry", [
        {"potential": {"inline": [["a", math.nan], ["b", 1.0]]}},
        {"magnetic": {"inline": [["a", "b", math.nan]]}},
        {"connection": {"inline": [["a", "b", [[[math.nan, 0.0]]]]]}},
    ], ids=["nan-potential", "nan-phase", "nan-connection"])
    @pytest.mark.parametrize("subcommand", ["spectrum", "sweep"])
    def test_nan_in_inline_data(self, tmp_path, capsys, entry, subcommand):
        # a NaN potential ran to exit 0 with a wrong spectrum and NaN
        # bounds; a NaN transport crashed in the unitarity check's SVD
        self._exit_1(tmp_path, capsys, subcommand,
                     {"graph": {"preset": "two_vertex"}, **entry})

    def test_workers_above_the_bound(self, tmp_path, capsys, monkeypatch):
        # refused before any job or thread exists: no pool is ever built
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(paths, "ThreadPoolExecutor", no_pool)
        record = self._exit_1(tmp_path, capsys, "fk-compare", {
            "graph": {"preset": "two_vertex"},
            "params": {"samples": 1000, "workers": 10**12}})
        assert str(paths.MAX_WORKERS) in record["error"]

    @pytest.mark.parametrize("subcommand, cfg", [
        ("spectrum", {"graph": {"family": "path", "n": 2.7}}),
        ("fk-compare", {"graph": {"preset": "two_vertex"},
                        "params": {"samples": 1000.9}}),
    ], ids=["family-size", "samples"])
    def test_fractional_integer_params(self, tmp_path, capsys, subcommand,
                                       cfg):
        # the fraction was dropped: a 2-vertex path, 1000 paths
        self._exit_1(tmp_path, capsys, subcommand, cfg)


class TestParams:
    """Each subcommand reads the params keys of ``cli.PARAMS``; any other
    key exits 1 and is named, where it used to be ignored."""

    READ = {"mode": "covariant", "t": 0.5, "beta": 1.0, "hbar": 0.3,
            "hbar_schedule": [0.1, 0.01], "samples": 200, "workers": 1,
            "t_grid": [1.0, 0.5]}
    STRAY = {"validate": {"mode": "scalar"},
             "spectrum": {"hbar": -5, "bogus": 1},
             "kernel": {"beta": 1.0}, "sweep": {"samples": 100},
             "gt-check": {"hbar": 0.1}, "fk-compare": {"t": 1.0},
             "kato": {"beta": 2.0}}

    @pytest.mark.parametrize("subcommand", sorted(cli.PARAMS))
    def test_stray_key_exits_1(self, tmp_path, capsys, subcommand):
        params = {k: self.READ[k] for k in cli.PARAMS[subcommand]}
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"}, "seed": 1,
            "params": params | self.STRAY[subcommand],
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, subcommand) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "validation"
        first = sorted(self.STRAY[subcommand])[0]
        assert f"does not read params key {first!r}" in record["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", sorted(cli.PARAMS))
    def test_every_key_read_runs(self, tmp_path, subcommand):
        # the table lists only keys the subcommand reads: each of them, at
        # a valid value, runs
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"}, "seed": 1,
            "params": {k: self.READ[k] for k in cli.PARAMS[subcommand]},
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, subcommand) == 0


class TestEdgeEntries:
    """Connection and magnetic entries give each edge one transport: an
    entry that would be dropped or overwritten exits 1 before any output
    is written, where it used to be ignored without a word."""

    _exit_1 = TestMalformedConfig._exit_1
    UNIT = [[[1.0, 0.0]]]
    CYCLE = [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"]]

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    @pytest.mark.parametrize("key, value", [("connection", [[[5.0, 0.0]]]),
                                            ("magnetic", 0.3)])
    def test_entry_on_a_non_edge(self, tmp_path, capsys, subcommand, key,
                                 value):
        # a non-unitary [[5]] on the diagonal (v0, v2) of four_cycle
        unit = self.UNIT if key == "connection" else 0.0
        entries = [pair + [unit] for pair in self.CYCLE]
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"preset": "four_cycle"},
            key: {"inline": entries + [["v0", "v2", value]]}})
        assert "on (v0, v2), which is not an edge" in record["error"]

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    @pytest.mark.parametrize("key, first, second", [
        ("connection", [[[1.0, 0.0]]], [[[0.0, 1.0]]]),
        ("magnetic", 0.5, 0.7)])
    def test_second_entry_in_one_orientation(self, tmp_path, capsys,
                                             subcommand, key, first, second):
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"preset": "two_vertex"},
            key: {"inline": [["a", "b", first], ["a", "b", second]]}})
        assert "two " in record["error"] and "on (a, b)" in record["error"]

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    def test_magnetic_both_ways_must_agree(self, tmp_path, capsys,
                                           subcommand):
        # 0.5 on b -> a is -0.5 on a -> b, not the 0.5 given there
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"preset": "two_vertex"},
            "magnetic": {"inline": [["a", "b", 0.5], ["b", "a", 0.5]]}})
        assert "inverse-symmetry on edge (a, b)" in record["error"]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "magnetic": {"inline": [["a", "b", 0.5], ["b", "a", -0.5]]},
            "output_dir": str(tmp_path / "out")})
        assert run(cfg, subcommand) == 0

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    @pytest.mark.parametrize("key, entries, message", [
        ("connection", [["v0", "v1", [[[1.0, 0.0]]]]],
         "connection has no entry for edge (v1, v2)"),
        ("magnetic", [["v1", "v0", 0.2]],
         "magnetic potential has no entry for edge (v1, v2)"),
        ("connection", [["v0", "v1", [[[0.0, 1.0]]]],
                        ["v1", "v0", [[[0.0, 1.0]]]],
                        ["v1", "v2", [[[1.0, 0.0]]]]],
         "connection fails inverse-symmetry on edge (v0, v1): deviation "
         "2.000e+00"),
    ], ids=["missing-matrix", "missing-phase", "bad-reverse"])
    def test_edge_checks_at_parse(self, tmp_path, capsys, subcommand, key,
                                  entries, message):
        # validate used to write violations.csv with a missing or an
        # inverse-symmetry row; the entries now fail before any output
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"family": "path", "n": 3}, key: {"inline": entries}})
        assert record["error"] == message

    @pytest.mark.parametrize("subcommand", ["validate", "spectrum"])
    def test_nonsquare_first_matrix(self, tmp_path, capsys, subcommand):
        row = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        record = self._exit_1(tmp_path, capsys, subcommand, {
            "graph": {"preset": "two_vertex"},
            "connection": {"inline": [["a", "b", [row, row]]]}})
        assert "square" in record["error"]


class TestKato:
    def test_monotone_grid(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"t_grid": [1.0, 0.5, 0.25]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "kato") == 0
        _header, rows = csv_rows(tmp_path / "out" / "kato.csv")
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] >= values[1] >= values[2] >= 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[PASS] monotone in t" in report

    def test_monotone_check_reads_values_in_order_of_t(self, tmp_path,
                                                       monkeypatch):
        # the check compared the values in grid order, so a correct result
        # on a grid that rises read [FAIL]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "params": {"t_grid": [0.5, 2.0, 1.0]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "kato") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[PASS] monotone in t: values nondecreasing in t" in report
        # values that fall as t rises still fail it
        monkeypatch.setattr(cli, "kato_functional",
                            lambda g, w, t: np.array([3.0, 1.0, 2.0]))
        assert run(cfg, "kato") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[FAIL] monotone in t" in report

    def test_connection_exits_1(self, tmp_path, capsys):
        # the Kato functional is of the free scalar kernel: a flux through
        # the cycle must not be dropped silently
        flux = [["v0", "v1", 1.1], ["v1", "v2", 0.0], ["v2", "v3", 0.0],
                ["v3", "v0", 0.0]]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "magnetic": {"inline": flux},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "kato") == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["kind"] == "validation"
        assert "scalar" in record["error"]
        assert not (tmp_path / "out" / "kato.csv").exists()


    def test_one_decomposition_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(op):
            calls.append(op)
            return spectral.SpectralDecomposition(
                *np.linalg.eigh(spectral.symmetrize(op)), op.measure, op.rank)

        monkeypatch.setattr(spectral, "eigendecompose", counted)
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"family": "path", "n": 6},
            "potential": {"inline": [[f"v{i}", 0.5 * i - 1.0]
                                     for i in range(6)]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "kato") == 0
        assert len(calls) == 1
        _header, rows = csv_rows(tmp_path / "out" / "kato.csv")
        assert len(rows) == 5


class TestKernel:
    def test_trace_consistency(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", 0.0], ["b", 0.0]]},
            "params": {"t": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "kernel") == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        line = next(l for l in report.splitlines() if l.startswith("trace:"))
        assert float(line.split(":")[1]) == pytest.approx(
            1 + math.exp(-2), abs=1e-12)


class TestMain:
    def test_exit_status_propagates(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "weyl_path"},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["sweep", cfg]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a solver that fails on accepted input exits 2, "numerical"; a
        # refused input still exits 1, "validation"
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        cfg = {"graph": {"preset": "two_vertex"},
               "output_dir": str(tmp_path / "out")}
        assert main(["spectrum", write_config(tmp_path, "c.json", cfg)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "eigenvalue solve failed: Eigenvalues did not converge",
            "kind": "numerical"}
        bad = write_config(tmp_path, "bad.json",
                           cfg | {"params": {"mode": "bogus"}})
        assert main(["spectrum", bad]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "validation"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, quantity", [
        ("sweep", "the classical sum at beta = 1"),
        ("gt-check", "the classical sum at beta = 1"),
        ("kernel", "the heat kernel at t = 1"),
        ("fk-compare", "the exact part of the estimate at t = 0.1")])
    def test_overflowing_trace_exits_2(self, tmp_path, capsys, subcommand,
                                       quantity):
        # V = -800 on the 5-cycle: e^800 overflows a float, and each of
        # these wrote inf and nan into its CSV and exited 0
        cfg = {"graph": {"family": "cycle", "n": 5},
               "potential": {"inline": [[f"v{k}", -800.0]
                                        for k in range(5)]},
               "seed": 1, "output_dir": str(tmp_path / "out")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning first
            assert run(write_config(tmp_path, "c.json", cfg),
                       subcommand) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{quantity} is not finite: it overflows a float",
            "kind": "numerical"}
        assert not (tmp_path / "out").exists()

    def test_rejects_unknown_subcommand(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "whatever.json"])
