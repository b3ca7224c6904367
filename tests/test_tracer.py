"""The benchmark's tracer still finds every name it rebinds in graphfk.

``perfbench/tracer.py`` times layers by rebinding module attributes such
as ``graphfk.semiclassics.assemble``; a refactor that drops one of them
would break traced benchmark runs, so the ordinary test run checks them.
"""

import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_recorded_and_targets_restored(tmp_path):
    from graphfk.cli import run

    tracer_mod = load_tracer()
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _name in tracer_mod.TARGETS]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "graph": {"preset": "four_cycle"},
        "params": {"hbar_schedule": [1e-1, 1e-2], "samples": 1000},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert run(str(cfg), "sweep") == 0
        assert run(str(cfg), "fk-compare") == 0
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.spans}
    assert {"operators.assemble", "semiclassics.sweep",
            "paths.estimate_partition"} <= names
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"
