"""Workload process: import graphfk, then run one CLI operation repeatedly.

Usage: python3 worker.py SPEC.json   (or --setup-only)

Run with the current directory set to the run directory and ``src`` on
PYTHONPATH.  The import of graphfk is timed first, before anything else
loads numpy, and then the reference loop (``reference_s``) three times.
Each operation is ``graphfk.cli.run(config, subcommand)`` into ``out/``,
which is then renamed to ``ops/<k>`` for checking.  On a clocked
workload the reference loop also runs just before and just after every
operation.  The last line of stdout is a JSON record of the timings.
"""

import sys
import time

_t0 = time.perf_counter()
import graphfk.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

REFERENCE_ITERATIONS = 400_000


def reference_s():
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    It shares nothing with graphfk, so a change to the program cannot
    change the work it does.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


SETUP_REFERENCE_S = statistics.median(reference_s() for _ in range(3))


def output_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_op(spec, k, tracer=None):
    """One operation; the timing covers graphfk.cli.run and nothing else."""
    status = None
    reference = reference_s() if spec["clocked"] else 0.0
    if tracer is not None:
        tracer.begin_root()
    t0 = time.perf_counter()
    try:
        status = graphfk.cli.run(spec["config"], spec["subcommand"])
    except Exception:  # a crash is a failed operation, not a dead run
        traceback.print_exc()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_root()
    if spec["clocked"]:
        reference += reference_s()  # the loop before plus the loop after
    record = {"k": k, "status": status, "seconds": seconds,
              "reference_s": reference, "traced": tracer is not None,
              "output_bytes": 0}
    if os.path.isdir("out"):
        record["output_bytes"] = output_bytes("out")
        os.rename("out", os.path.join("ops", str(k)))
    return record


def run_for(spec, seconds, ops, tracer=None):
    """Run whole operations until ``seconds`` have elapsed (at least one)."""
    start = time.perf_counter()
    while True:
        ops.append(run_op(spec, len(ops), tracer))
        if time.perf_counter() - start >= seconds:
            return


def main(argv):
    if argv[1] == "--setup-only":
        print(json.dumps({"setup_s": SETUP_S,
                          "reference_s": SETUP_REFERENCE_S}))
        return 0
    with open(argv[1]) as fh:
        spec = json.load(fh)
    os.makedirs("ops", exist_ok=True)
    ops = []
    ops.append(run_op(spec, 0))  # warm-up, untimed
    ops[0]["warmup"] = True
    result = {"setup_s": SETUP_S, "reference_s": SETUP_REFERENCE_S}
    if not spec["trace"]:
        run_for(spec, spec["seconds"], ops)
        result["peak_rss_kib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    else:
        import tracer as tracing
        run_for(spec, spec["seconds"] / 2, ops)
        tracer = tracing.Tracer()
        tracer.install()
        run_for(spec, spec["seconds"] / 2, ops, tracer)
        tracer.uninstall()
        tracer.write("trace.json")
        result["layers"] = tracer.layer_metrics()
        if spec.get("mc"):
            result["paths"] = tracing.path_counts(**spec["mc"])
    result["ops"] = ops
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def environment():
    import ctypes
    import glob
    import platform

    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "blas_threads": None, "blas": None}
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                env["blas_threads"] = threads()
                env["blas"] = config().decode()
                return env
    return env


if __name__ == "__main__":
    sys.exit(main(sys.argv))
