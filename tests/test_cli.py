import json
import math

import numpy as np
import pytest

from graphfk import fileio
from graphfk.bundles import connection_from_magnetic
from graphfk.cli import main, run
from graphfk.presets import four_cycle, two_vertex
from graphfk.semiclassics import semiclassical_trace


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        assert run(cfg, "sweep") == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert run(cfg, "sweep") == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


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
        theta = fileio.magnetic_from_entries(mag["inline"], g)
        c = connection_from_magnetic(theta)
        assert exact == pytest.approx(
            semiclassical_trace(g, c, pot, 1.0, 0.1), rel=1e-12)
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
        c4 = connection_from_magnetic(
            fileio.magnetic_from_entries(flux["inline"], g4))
        assert magnetic == pytest.approx(
            semiclassical_trace(g4, c4, pot4, 1.0, 0.1), rel=1e-12)
        assert abs(magnetic - scalar) > 1e-6

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
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", V[0]], ["b", V[1]]]},
            "params": {"samples": 1000},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        for subcommand in ("sweep", "fk-compare"):
            assert run(cfg, subcommand) == 0
            report = (tmp_path / "out" / "report.txt").read_text()
            assert "mode: covariant" in report

    def test_scalar_mode_rejects_rank2_potential(self, tmp_path, capsys):
        V = [[[1.0, 0.0], [0.2, 0.0]], [[0.2, 0.0], [0.5, 0.0]]]
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "two_vertex"},
            "potential": {"inline": [["a", V], ["b", V]]},
            "params": {"samples": 1000, "mode": "scalar"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        for subcommand in ("sweep", "fk-compare"):
            assert run(cfg, subcommand) == 1, subcommand
            err = capsys.readouterr().err
            assert "Traceback" not in err
            record = json.loads(err.strip().splitlines()[-1])
            assert record["kind"] == "validation"
            assert "rank-1 potential" in record["error"]

    def test_zero_stderr_is_not_a_pass(self, tmp_path):
        # at hbar = 1e-7 no path jumps: every weight is 1, the stderr 0,
        # while the exact trace is 4 - 8e-7
        cfg = write_config(tmp_path, "c.json", {
            "graph": {"preset": "four_cycle"},
            "params": {"beta": 1.0, "hbar": 1e-7, "samples": 1024},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert run(cfg, "fk-compare") == 0
        _header, rows = csv_rows(tmp_path / "out" / "fk_compare.csv")
        assert rows[-1].split(",")[3:] == ["0", "inf"]
        report = (tmp_path / "out" / "report.txt").read_text()
        assert ("[FAIL] estimate within 3 standard errors: |z| = inf "
                "(stderr is 0)") in report


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

    def test_rejects_unknown_subcommand(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "whatever.json"])
