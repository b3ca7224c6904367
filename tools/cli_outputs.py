"""Run a fixed set of CLI configs and print the digest of every output.

Usage (from the repository root):

    python3 tools/cli_outputs.py SRC WORKDIR [NAME ...]

Each run writes its config and data files into WORKDIR/NAME, which must
not exist yet, and runs ``python -m graphfk.cli SUBCOMMAND config.json``
there with ``PYTHONPATH=SRC``.  It prints one line per run: the name,
the exit status, the sha256 of stderr and the sha256 of each file the
run wrote, in sorted order.  Paths in the configs are relative, so the
config bytes, and the input digest in ``report.txt``, do not depend on
WORKDIR.  To compare two trees, list both and diff the listings:

    python3 tools/cli_outputs.py old/src /tmp/old > old.txt
    python3 tools/cli_outputs.py src /tmp/new > new.txt
    diff old.txt new.txt

The set: the five presets through all seven subcommands; a magnetic
5-cycle with phases and a potential read from files, and a covariant
3 x 3 box with inline SU(2) transports and potential, each through the
six subcommands other than ``kato``; a weighted graph file through all
seven; a ``validate`` that fails; twenty-one configs that each exit 1
for a different input (``ERRORS``), among them the graph file with an
infinite weight or measure, an ``fk-compare`` above the dimension cap
and graph entries with keys their form does not read; a ``sweep`` and
a ``gt-check`` of traces near 3.8e18, whose bounds must allow for their
rounding; an ``fk-compare`` on a 4 x 4 box with 1600 on one corner,
whose exact strata take both routes of ``semiclassics.jump_terms``;
and a potential whose traces overflow a float through the four
subcommands that sum one, each of which exits 2.  Each run leaves its
stderr in WORKDIR/NAME/stderr.txt.
NAME restricts the runs to the ones named.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SUBCOMMANDS = ("validate", "spectrum", "kernel", "sweep", "gt-check",
               "fk-compare", "kato")

# Only the params keys each subcommand reads; the CLI refuses any other
PARAMS = {
    "validate": {},
    "spectrum": {},
    "kernel": {"t": 0.7},
    "sweep": {"beta": 1.0, "hbar_schedule": [0.1, 0.01, 0.001]},
    "gt-check": {"t": 0.7},
    "fk-compare": {"beta": 1.0, "hbar": 0.5, "samples": 2000},
    "kato": {"t_grid": [1.0, 0.5, 0.25]},
}

PRESETS = ("two_vertex", "four_cycle", "star", "lattice_box", "weyl_path")


def _pair(z):
    return [z.real, z.imag]


def _matrix(M):
    return [[_pair(complex(z)) for z in row] for row in M]


def _box():
    """Labels and edges of the 3 x 3 lattice box, as the ``lattice_box``
    family names them."""
    labels = [f"x{i}_{j}" for i in range(3) for j in range(3)]
    edges = [(f"x{i}_{j}", f"x{i + di}_{j + dj}")
             for i in range(3) for j in range(3)
             for di, dj in ((1, 0), (0, 1)) if i + di < 3 and j + dj < 3]
    return labels, edges


def _su2(k):
    """An SU(2) transport [[a, -conj b], [b, conj a]], |a|^2 + |b|^2 = 1."""
    theta = 0.3 + 0.1 * k
    a = math.cos(theta) * cmath.exp(0.2j * k)
    b = math.sin(theta) * cmath.exp(-0.15j * k)
    return [[a, -b.conjugate()], [b, a.conjugate()]]


def _covariant(diagonal_on=None):
    """The covariant box: one transport per edge, a Hermitian 2 x 2
    potential per vertex; the transport of edge ``diagonal_on`` is
    diag(2, 1), which is not unitary."""
    labels, edges = _box()
    transports = [_su2(k) for k in range(len(edges))]
    if diagonal_on is not None:
        transports[diagonal_on] = [[2.0, 0.0], [0.0, 1.0]]
    potential = [[lab, _matrix([[0.1 * x, 0.1 + 0.05j * x],
                                [0.1 - 0.05j * x, -0.2 + 0.05 * x]])]
                 for x, lab in enumerate(labels)]
    return {"graph": {"family": "lattice_box", "l": 2, "side": 3},
            "connection": {"inline": [[a, b, _matrix(M)] for (a, b), M
                                      in zip(edges, transports)]},
            "potential": {"inline": potential}}


def _c5_phases(skip=None):
    return [[f"v{k}", f"v{(k + 1) % 5}", 0.3 * (k + 1)]
            for k in range(5) if k != skip]


C5_FILES = {
    "phases.json": _c5_phases(),
    "potential.json": [[f"v{k}", 0.25 * k - 0.5] for k in range(5)],
}
C5 = {"graph": {"family": "cycle", "n": 5}, "magnetic": "phases.json",
      "potential": "potential.json"}

GRAPH_FILE = {
    "vertices": ["p", "q", "r", "s"],
    "edges": [["p", "q", 1.5], ["q", "r", 0.5], ["r", "s", 2.0],
              ["s", "p", 1.0], ["p", "r", 0.25]],
    "measure": [["p", 1.0], ["q", 2.0], ["r", 0.5], ["s", 1.5]],
}

# The 4 x 4 box at V = -40 through sweep's default schedule: at hbar =
# 1e-4 the trace is about 3.8e18, and Z_0 + Z_2 rounds above it by about 2e4
BOX_DEEP = {"graph": {"family": "lattice_box", "l": 2, "side": 4},
            "potential": {"inline": [[f"x{i}_{j}", -40.0] for i in range(4)
                                     for j in range(4)]},
            "params": {"beta": 1.0}}

# The 4 x 4 box at V = -4e18 and t = 1e-17: the trace rounds above the
# classical sum by about 1.7e4, within the rounding that sweep allows for
BOX_TINY_T = {"graph": {"family": "lattice_box", "l": 2, "side": 4},
              "potential": {"inline": [[f"x{i}_{j}", -4e18] for i in range(4)
                                       for j in range(4)]},
              "params": {"t": 1e-17}}


def _infinite(entry):
    """The weighted graph file with its last ``entry`` ("edges" or
    "measure") infinite, as JSON's Infinity."""
    spec = json.loads(json.dumps(GRAPH_FILE))
    spec[entry][-1][-1] = math.inf
    return {"graph.json": spec}


# The 5-cycle at V = -800: e^800 overflows a float
OVERFLOW = {"graph": {"family": "cycle", "n": 5},
            "potential": {"inline": [[f"v{k}", -800.0] for k in range(5)]}}

# name: (subcommand, config, data files); each exits 1
ERRORS = {
    "error-graph-entry": ("spectrum", {"graph": {}}, {}),
    "error-self-loop": ("spectrum", {"graph": "loop.json"},
                        {"loop.json": {"edges": [["a", "a", 1.0]]}}),
    "error-beta": ("sweep", {"graph": {"preset": "two_vertex"},
                             "params": {"beta": -1.0}}, {}),
    "error-stray-key": ("spectrum", {"graph": {"preset": "two_vertex"},
                                     "params": {"beta": 1.0}}, {}),
    "error-missing-potential-file": (
        "spectrum", {"graph": {"preset": "two_vertex"},
                     "potential": "missing.json"}, {}),
    "error-potential-spec": (
        "spectrum", {"graph": {"preset": "two_vertex"},
                     "potential": {"values": [["a", 1.0]]}}, {}),
    "error-mode": ("spectrum", {"graph": {"preset": "two_vertex"},
                                "params": {"mode": "bogus"}}, {}),
    "error-negative-t": ("gt-check", {"graph": {"preset": "two_vertex"},
                                      "params": {"t": -0.5}}, {}),
    "error-no-seed": ("fk-compare", {"graph": {"preset": "two_vertex"}}, {}),
    "error-dimension-cap": (
        "spectrum", {"graph": {"family": "lattice_box", "l": 2,
                               "side": 65}}, {}),
    "error-unknown-family": ("spectrum", {"graph": {"family": "bogus"}}, {}),
    "error-kato-covariant": ("kato", _covariant(), {}),
    "error-magnetic-missing-edge": (
        "spectrum", {"graph": {"family": "cycle", "n": 5},
                     "magnetic": {"inline": _c5_phases(skip=2)}}, {}),
    "error-infinite-weight-kato": ("kato", {"graph": "graph.json"},
                                   _infinite("edges")),
    "error-infinite-weight-validate": ("validate", {"graph": "graph.json"},
                                       _infinite("edges")),
    "error-infinite-measure-fk-compare": (
        "fk-compare", {"graph": "graph.json", "seed": 1},
        _infinite("measure")),
    # refused before any of its 84,500,000 paths is drawn
    "error-fk-compare-dimension-cap": (
        "fk-compare", {"graph": {"family": "lattice_box", "l": 2,
                                 "side": 65},
                       "params": {"samples": 20000}, "seed": 1}, {}),
    # graph keys that the entry's form does not read
    "error-family-stray-key": (
        "spectrum", {"graph": {"family": "lattice_box", "l": 2, "side": 3,
                               "n": 1000}}, {}),
    "error-path-stray-key": (
        "spectrum", {"graph": {"family": "path", "n": 4, "side": 9}}, {}),
    "error-preset-stray-key": (
        "spectrum", {"graph": {"preset": "two_vertex", "n": 4}}, {}),
    "error-three-graph-forms": (
        "spectrum", {"graph": {"preset": "two_vertex", "family": "path",
                               "n": 4, "file": "/nonexistent"}}, {}),
}

# The 4 x 4 box with 1600 on the corner x0_0 and 0.1 k on the rest: at
# beta = 1 and hbar = 0.5 the starts within floor(k/2) jumps of the
# corner spread too widely for the series route of the exact stratum
# Z_k, and the rest take it
BOX_CORNER = {
    "graph": {"family": "lattice_box", "l": 2, "side": 4},
    "potential": {"inline": [[f"x{i}_{j}", 1600.0 if i == j == 0
                              else 0.1 * (4 * i + j)]
                             for i in range(4) for j in range(4)]},
    "params": PARAMS["fk-compare"], "seed": 1}


def _with_params(cfg, subcommand):
    cfg = cfg | {"params": PARAMS[subcommand]}
    if subcommand == "fk-compare":
        cfg["seed"] = 1
    return cfg


def runs():
    """name -> (subcommand, config, {file name: JSON data}), in order."""
    table = {}
    for sub in SUBCOMMANDS:
        for preset in PRESETS:
            table[f"{preset}-{sub}"] = (
                sub, _with_params({"graph": {"preset": preset}}, sub), {})
        table[f"graph-file-{sub}"] = (
            sub, _with_params({"graph": "graph.json"}, sub),
            {"graph.json": GRAPH_FILE})
        if sub != "kato":
            table[f"c5-magnetic-{sub}"] = (sub, _with_params(C5, sub),
                                           C5_FILES)
            table[f"box-covariant-{sub}"] = (
                sub, _with_params(_covariant(), sub), {})
    table["validate-fails"] = ("validate", _covariant(diagonal_on=4), {})
    table.update(ERRORS)
    table["box-deep-sweep"] = ("sweep", BOX_DEEP, {})
    table["box-tiny-t-gt-check"] = ("gt-check", BOX_TINY_T, {})
    table["box-corner-fk-compare"] = ("fk-compare", BOX_CORNER, {})
    # at the default params: e^{-tH} overflows at t = 1, not at 0.7
    for sub in ("sweep", "gt-check", "kernel"):
        table[f"overflow-{sub}"] = (sub, OVERFLOW, {})
    table["overflow-fk-compare"] = ("fk-compare", OVERFLOW | {"seed": 1}, {})
    return table


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(name, subcommand, cfg, files, workdir, src):
    """Write and run one config in workdir/name; its listing line."""
    here = Path(workdir) / name
    here.mkdir(parents=True)
    for fname, data in files.items():
        (here / fname).write_text(json.dumps(data))
    (here / "config.json").write_text(json.dumps(cfg | {"output_dir": "out"}))
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "graphfk.cli", subcommand, "config.json"],
        cwd=here, env=env, capture_output=True)
    (here / "stderr.txt").write_bytes(proc.stderr)
    out = here / "out"
    digests = [f"{p.relative_to(out)}={_sha(p.read_bytes())}"
               for p in sorted(out.rglob("*")) if p.is_file()]
    return " ".join([name, f"exit={proc.returncode}",
                     f"stderr={_sha(proc.stderr)}"] + digests)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, workdir, names = argv[0], argv[1], argv[2:]
    table = runs()
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown run {unknown[0]!r}; runs: {', '.join(table)}",
              file=sys.stderr)
        return 2
    for name in names or table:
        print(run_one(name, *table[name], workdir, src), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
