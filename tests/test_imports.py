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
