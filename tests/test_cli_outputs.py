"""``tools/cli_outputs.py`` on three of its runs, and on every run it
expects to be refused."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_outputs.py"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_listing_names_each_run_and_digests_its_outputs(tmp_path, capsys):
    tool = load_tool()
    names = ["two_vertex-spectrum", "c5-magnetic-validate", "error-no-seed"]
    assert tool.main([str(ROOT / "src"), str(tmp_path)] + names) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [
        ["two_vertex-spectrum", "exit=0"], ["c5-magnetic-validate", "exit=0"],
        ["error-no-seed", "exit=1"]]
    error = json.dumps({"error": "fk-compare requires an explicit seed",
                        "kind": "validation"}) + "\n"
    assert [line[2] for line in lines] == [
        f"stderr={sha(b'')}", f"stderr={sha(b'')}",
        f"stderr={sha(error.encode())}"]
    # each file the run wrote, by its digest; a refused run writes none
    for line, files in zip(lines, (["report.txt", "spectrum.csv"],
                                   ["report.txt", "violations.csv"], [])):
        out = tmp_path / line[0] / "out"
        assert line[3:] == [f"{f}={sha((out / f).read_bytes())}"
                            for f in files]
    # the config names its data files and its output by relative paths
    cfg = json.loads((tmp_path / "c5-magnetic-validate" / "config.json")
                     .read_text())
    assert (cfg["magnetic"], cfg["output_dir"]) == ("phases.json", "out")


def test_each_refusal_writes_one_json_line(tmp_path, capsys):
    # the runs refused with exit 1 or 2: the stderr of each is its JSON
    # error record alone, with no traceback and no warning before it, and
    # none writes an output
    tool = load_tool()
    names = [name for name in tool.runs()
             if name.startswith(("error-", "overflow-"))]
    assert tool.main([str(ROOT / "src"), str(tmp_path)] + names) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, line in zip(names, lines):
        exit_status = line.split()[1]
        kind = "numerical" if name.startswith("overflow-") else "validation"
        assert exit_status == ("exit=2" if kind == "numerical" else "exit=1")
        err = (tmp_path / name / "stderr.txt").read_text()
        assert err.count("\n") == 1 and err.endswith("\n"), name
        record = json.loads(err)
        assert set(record) == {"error", "kind"} and record["kind"] == kind
        assert not (tmp_path / name / "out").exists()
