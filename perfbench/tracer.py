"""Spans around the calls graphfk's modules make into each other.

``Tracer.install`` rebinds, in this process only, the public names that
graphfk modules call across layers (``graphfk.cli.assemble``,
``graphfk.semiclassics.eigendecompose``, ...) to timing wrappers, and
``uninstall`` restores them.  No file under ``src/graphfk`` changes, and
untraced runs never import this module.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import graphfk.cli
import graphfk.fileio
import graphfk.semiclassics
import graphfk.spectral
from graphfk import generate
from graphfk.paths import simulate_scalar_paths

# (module, attribute, span name): every cross-module call site of the
# layers the benchmark reports.
TARGETS = (
    (graphfk.fileio, "load_config", "fileio.load_config"),
    (graphfk.fileio, "potential_from_entries", "fileio.potential_from_entries"),
    (graphfk.fileio, "connection_from_entries", "fileio.connection_from_entries"),
    (graphfk.cli, "generate", "graphs.generate"),
    (graphfk.cli, "assemble", "operators.assemble"),
    (graphfk.semiclassics, "assemble", "operators.assemble"),
    (graphfk.spectral, "assemble", "operators.assemble"),
    (graphfk.spectral, "symmetrize", "operators.symmetrize"),
    (graphfk.cli, "eigendecompose", "spectral.eigendecompose"),
    (graphfk.semiclassics, "eigendecompose", "spectral.eigendecompose"),
    (graphfk.spectral, "eigendecompose", "spectral.eigendecompose"),
    (graphfk.cli, "propagator", "spectral.propagator"),
    (graphfk.cli, "kato_functional", "spectral.kato_functional"),
    (graphfk.cli, "sweep", "semiclassics.sweep"),
    (graphfk.cli, "estimate_partition", "paths.estimate_partition"),
)

# Layers reported as seconds per call (median over traced operations).
PER_CALL = ("operators.assemble", "operators.symmetrize",
            "spectral.eigendecompose", "spectral.propagator",
            "spectral.kato_functional", "semiclassics.sweep",
            "paths.estimate_partition")


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, parent, op, start, end, bytes
        self.stack = []
        self.op = -1
        self.saved = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "op": self.op,
                           "start": time.perf_counter(), "end": None})
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self.stack.pop()]["end"] = time.perf_counter()

    def begin_root(self):
        self.op += 1
        self._open("cli.run")

    def end_root(self):
        self._close()

    def _wrap(self, fn, name):
        def timed(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            matrix = getattr(out, "matrix", None)
            if name == "operators.assemble" and matrix is not None:
                span["bytes"] = matrix.nbytes
            return out
        return timed

    def install(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def layer_metrics(self):
        """Per-layer seconds: median over traced operations."""
        per_op = [_op_metrics(root, [s for s in self.spans
                                     if s["op"] == root["op"]])
                  for root in self.spans if root["name"] == "cli.run"]
        return {key: statistics.median(m[key] for m in per_op)
                for key in per_op[0]}


def _dur(span):
    return span["end"] - span["start"]


def _self_time(span, spans):
    return _dur(span) - sum(_dur(s) for s in spans
                            if s["parent"] == span["id"])


def _op_metrics(root, spans):
    run_s = _dur(root)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    m = {
        "cli.run_s": run_s,
        "cli.self_s": _self_time(root, spans),
        "fileio.resolve_s": sum(_dur(s) for s in spans
                                if s["name"].startswith("fileio.")),
        "graphs.generate_s": sum(_dur(s) for s in by_name.get(
            "graphs.generate", [])),
    }
    for name in PER_CALL:
        calls = by_name.get(name, [])
        m[f"{name}_s"] = (sum(_dur(s) for s in calls) / len(calls)
                          if calls else 0.0)
    sweeps = by_name.get("semiclassics.sweep", [])
    m["semiclassics.sweep_self_s"] = (
        sum(_self_time(s, spans) for s in sweeps) / len(sweeps)
        if sweeps else 0.0)
    m["operators.matrix_mb"] = max(
        (s.get("bytes", 0) for s in by_name.get("operators.assemble", [])),
        default=0) / 2**20
    return m


def path_counts(side, t, samples, seed):
    """Exact path and jump counts of the workload's Monte Carlo run.

    simulate_scalar_paths consumes the same Philox stream, keyed by
    (seed, start vertex, chunk), in the same order as both chunk kernels
    of estimate_partition, so these are the paths that estimate ran.
    """
    g = generate("lattice_box", l=2, side=side)
    paths = jumps = zero = returned = 0
    for x in range(g.n):
        terminal, _F, N = simulate_scalar_paths(g, x, t, samples, seed)
        paths += N.size
        jumps += int(N.sum())
        zero += int(np.count_nonzero(N == 0))
        returned += int(np.count_nonzero(terminal == x))
    return {"paths": paths, "jumps": jumps, "zero_jump_frac": zero / paths,
            "return_frac": returned / paths}
