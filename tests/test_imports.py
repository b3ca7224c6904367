import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_no_heavy_module():
    # the package runs on numpy and the standard library: importing
    # scipy.linalg would add tens of MiB and a large share of the start-up
    # time to every run, and the test tools belong to the tests
    probe = ("import sys, graphfk, graphfk.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'hypothesis', 'pytest'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_subcommands_load_no_masked_arrays(tmp_path):
    # numpy.ma costs each run about 1.7 MiB of memory; np.unique, for one,
    # imports it on first use, so a run that reaches it would pay it
    # fk-compare's params; the other subcommands read none of them
    for params, name in (({"samples": 200, "hbar": 0.3}, "fk.json"),
                         ({}, "c.json")):
        (tmp_path / name).write_text(json.dumps({
            "graph": {"preset": "weyl_path"}, "seed": 1, "params": params,
            "output_dir": str(tmp_path / "out")}))
    probe = ("import sys; from graphfk import cli; "
             f"codes = [cli.run({str(tmp_path)!r} + ('/fk.json' "
             "if s == 'fk-compare' else '/c.json'), s) "
             "for s in sorted(cli._COMMANDS)]; "
             "print(codes, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0, 0, 0] False"
