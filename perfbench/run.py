"""Benchmark of graphfk's three trace routes through its CLI entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs one workload
process (``worker.py``) that calls ``graphfk.cli.run`` repeatedly,
checks every operation's CSV against the benchmark's own computation
(``oracles.py``), and prints one JSON line: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
# Fresh processes that time the graphfk import, besides the worker.
SETUP_PROBES = 10
# Nominal time of worker.reference_s: times taken against the reference
# loop are reported as if the loop had taken this long.
REFERENCE_S = 0.04
WORKER_TIMEOUT_S = 170


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, rundir, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=rundir,
        env=python_env(), capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_op(case, check, rundir, op):
    """(ok, stated stderr) for one operation's outputs."""
    csv = rundir / "ops" / str(op["k"]) / case.output
    if op["status"] != 0 or not csv.is_file():
        print(f"op {op['k']}: status {op['status']}, no {case.output}",
              file=sys.stderr)
        return False, None
    try:
        checks, stderr = check(csv.read_text())
    except (ValueError, KeyError, IndexError) as exc:
        print(f"op {op['k']}: unreadable {case.output}: {exc!r}",
              file=sys.stderr)
        return False, None
    failed = [c for c in checks if not c[1]]
    for name, _ok, detail in failed:
        print(f"op {op['k']}: FAIL {name}: {detail}", file=sys.stderr)
    if op["k"] == 0:
        for name, ok, detail in checks:
            print(f"# check {'ok' if ok else 'FAIL'} {name}: {detail}")
    return not failed, stderr


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graphfk" / "cli.py").is_file():
        print(f"graphfk sources not found under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    case = wl.make(np.random.default_rng([wl.base_seed, args.seed]))
    rundir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    (rundir / "config.json").write_text(
        json.dumps({**case.config, "output_dir": "out"}))
    spec = {"config": "config.json", "subcommand": wl.subcommand,
            "seconds": args.seconds, "trace": bool(args.trace),
            "clocked": wl.clocked, "mc": case.mc}
    (rundir / "spec.json").write_text(json.dumps(spec))

    # The set-up being measured is an import with bytecode compiled.
    compileall.compile_dir(str(SRC / "graphfk"), quiet=1)
    probes = [run_worker(["--setup-only"], rundir, 60)
              for _ in range(SETUP_PROBES)]
    result = run_worker(["spec.json"], rundir, WORKER_TIMEOUT_S)
    probes.append(result)
    setup = [p["setup_s"] * REFERENCE_S / p["reference_s"] for p in probes]
    print("# env: " + json.dumps(result["env"]))

    ops = result["ops"]
    failed = 0
    stderrs = []
    # Identical outputs (the usual case: every operation is the same) are
    # checked against the oracle once.
    check = functools.cache(case.check)
    for op in ops:
        ok, stderr = check_op(case, check, rundir, op)
        failed += not ok
        if ok and stderr is not None:
            stderrs.append(stderr)
    shutil.rmtree(rundir / "ops")
    timed = [op for op in ops if not op.get("warmup") and not op["traced"]]
    median = statistics.median(op["seconds"] for op in timed)
    solve = median
    if wl.clocked:
        solve = statistics.median(op["seconds"] * 2 * REFERENCE_S
                                  / op["reference_s"] for op in timed)
    scale = 1.0
    if wl.target_rel_stderr is not None and stderrs:
        scale = (statistics.median(stderrs) / wl.target_rel_stderr) ** 2

    if not args.trace:
        metrics = {
            "solve_s": metric(solve * scale, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(result["peak_rss_kib"] / 1024, "MiB"),
        }
    else:
        metrics = layer_metrics(result, probes, timed, median, stderrs)
    print(f"# {wl.name}: {len(timed)} timed operations, wall median "
          f"{median:.4f} s, clocked median {solve:.4f} s, stderr scale "
          f"{scale:.4f}; import median "
          f"{statistics.median(p['setup_s'] for p in probes):.4f} s")
    print(json.dumps({"correct": failed < len(ops),
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


UNITS = {"operators.matrix_mb": "MiB", "cli.output_bytes": "bytes",
         "paths.paths": "count", "paths.jumps": "count",
         "paths.ns_per_jump": "ns", "paths.ns_per_path": "ns",
         "paths.zero_jump_frac": "fraction", "paths.return_frac": "fraction",
         "paths.stderr": "1"}


def layer_metrics(result, probes, timed, untimed_median, stderrs):
    layers = dict(result["layers"])
    ops = result["ops"]
    traced = [op for op in ops if op["traced"]]
    references = [p["reference_s"] for p in probes]
    if any(op["reference_s"] for op in timed):
        references += [op["reference_s"] / 2 for op in timed]
    layers["bench.reference_s"] = statistics.median(references)
    layers["cli.output_bytes"] = statistics.median(
        op["output_bytes"] for op in traced)
    counts = result.get("paths") or {"paths": 0, "jumps": 0,
                                     "zero_jump_frac": 0.0,
                                     "return_frac": 0.0}
    layers.update({f"paths.{k}": v for k, v in counts.items()})
    est = layers["paths.estimate_partition_s"]
    layers["paths.ns_per_jump"] = (est / counts["jumps"] * 1e9
                                   if counts["jumps"] else 0.0)
    layers["paths.ns_per_path"] = (est / counts["paths"] * 1e9
                                   if counts["paths"] else 0.0)
    layers["paths.stderr"] = statistics.median(stderrs) if stderrs else 0.0
    layers["trace.overhead_s"] = layers["cli.run_s"] - untimed_median
    return {name: metric(v, UNITS.get(name, "s"))
            for name, v in sorted(layers.items())}


if __name__ == "__main__":
    sys.exit(main())
