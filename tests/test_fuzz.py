"""Mutated preset configs: every run exits 0, 1 or 2, never with a traceback.

Each example takes a preset graph, gives it a connection, magnetic
phases, a potential and params, and then breaks some of them: entries
with swapped or unknown labels, on non-edges, duplicated, reversed or
dropped, non-square, NaN or non-numeric matrices, values of the wrong
type, numbers given as strings or booleans, and params keys the
subcommand does not read.  ``cli.run`` must return 0, 1 or 2, and a run
that fails writes one JSON error record as the last line of stderr; a
stray params key exits 1 with an error that names it.  The params stay
small (samples <= 10^4, workers <= 4), so no example starts large work.
Hypothesis draws each example's seed, derandomized and without a
database, and a stdlib Random on that seed makes the choices, evenly:
Hypothesis's own draws favour the first of a list's entries.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfk import cli
from graphfk.presets import PRESETS

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=500)
GRAPHS = {name: make()[0] for name, make in PRESETS.items()}


def matrix_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def transport(rnd, rank):
    """A unitary of the given rank, as a config entry value."""
    if rank == 1:
        return matrix_json([[np.exp(1j * rnd.uniform(-math.pi, math.pi))]])
    q = np.array([rnd.gauss(0.0, 1.0) for _ in range(4)])
    q /= np.linalg.norm(q)
    a, b = complex(*q[:2]), complex(*q[2:])
    return matrix_json([[a, b], [-b.conjugate(), a.conjugate()]])


NONSQUARE = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]
BAD_VALUES = [math.nan, "x", None, {}, [], [[[math.nan, 0.0]]], NONSQUARE,
              [NONSQUARE[0]], [[["x", 0.0]]], [[1.0, 2.0, 3.0]],
              matrix_json(np.eye(3)), "0.5", True, [[["1", "0"]]]]


def mutated(rnd, entries, labels):
    """``entries`` [[label, ..., value]] with up to three of them broken:
    swapped or unknown labels, a new pair (often a non-edge, sometimes a
    self-loop), a duplicate, a reversed copy, a dropped entry, a bad value
    or an entry of the wrong type."""
    entries = [list(e) for e in entries]
    for _ in range(rnd.randint(0, 3)):
        whole = [k for k, e in enumerate(entries) if isinstance(e, list)]
        if not whole:
            break
        k = rnd.choice(whole)
        *ends, value = entries[k]
        how = rnd.choice(["swap", "unknown", "pair", "duplicate", "reverse",
                          "drop", "value", "entry"])
        if how == "swap":
            entries[k] = ends[::-1] + [value]
        elif how == "unknown":
            entries[k] = ["zz"] + ends[1:] + [value]
        elif how == "pair":
            entries.append([rnd.choice(labels) for _ in ends] + [value])
        elif how == "duplicate":
            entries.append(list(entries[k]))
        elif how == "reverse":
            entries.append(ends[::-1] + [value])
        elif how == "drop":
            del entries[k]
        elif how == "value":
            entries[k] = ends + [rnd.choice(BAD_VALUES)]
        else:
            entries[k] = rnd.choice([5, "x", None, ends])
    if not rnd.randint(0, 5):
        entries = rnd.choice([5, "x", {}, []])
    return entries


VALID = {
    "samples": [2, 50, 500, 10**4], "workers": [1, 2, 4],
    "beta": [1.0, 0.5], "hbar": [0.3, 0.05], "t": [0.5, 1.0],
    "mode": ["scalar", "magnetic", "covariant"],
    "hbar_schedule": [[0.1, 0.01]], "t_grid": [[1.0, 0.5]]}
INVALID = {
    "samples": [0, -3, 1.5, "x", None, "50"],
    "workers": [0, -1, 2.5, "x", "1"],
    "beta": [0.0, -1.0, math.nan, "x", "0.5"],
    "hbar": [0.0, -0.1, math.nan, "0.3"], "t": [0.0, -1.0, "x", "0.5"],
    "mode": ["bogus", 5],
    "hbar_schedule": [[0.01, 0.1], [], "x", [0.1, -1.0], ["0.1"]],
    "t_grid": [[], ["x"], 1.0, ["1.0"]]}


def params(rnd, subcommand):
    """Some of the params ``subcommand`` reads, at most one of them out of
    range or of the wrong type, and at times one it does not read; for
    fk-compare always ``samples``, whose default of 10^5 would start large
    work."""
    reads = sorted(cli.PARAMS[subcommand])
    keys = rnd.sample(reads, rnd.randint(0, len(reads)))
    if subcommand == "fk-compare":
        keys.append("samples")
    out = {key: rnd.choice(VALID[key]) for key in keys}
    if reads and rnd.random() < 0.3:
        key = rnd.choice(reads)
        out[key] = rnd.choice(INVALID[key])
    if rnd.random() < 0.2:
        key = rnd.choice(sorted(set(VALID) - set(reads)) + ["bogus"])
        out[key] = rnd.choice(VALID.get(key, [1]))
    return out


@st.composite
def configs(draw):
    """A preset's config with a connection or magnetic phases, maybe a
    potential, and params; mutated as above, and at times one top-level
    value of the wrong type."""
    rnd = random.Random(draw(st.integers(0, 2**64 - 1)))
    subcommand = rnd.choice(sorted(cli._COMMANDS))
    name = rnd.choice(sorted(PRESETS))
    labels = list(GRAPHS[name].labels)
    pairs = [[labels[i], labels[j]] for i, j in GRAPHS[name].edges.tolist()]
    cfg = {"graph": {"preset": name}, "params": params(rnd, subcommand),
           "seed": rnd.choice([1, 7, "7"])}
    rank = rnd.randint(1, 2)
    kind = rnd.choice(["none", "connection", "magnetic"])
    if kind == "connection":
        entries = [p + [transport(rnd, rank)] for p in pairs]
    elif kind == "magnetic":
        entries = [p + [rnd.uniform(-4.0, 4.0)] for p in pairs]
    if kind != "none":
        cfg[kind] = {"inline": mutated(rnd, entries, labels)}
    if rnd.random() < 0.5:
        entries = [[lab, rnd.uniform(-1, 1) if rank == 1 else matrix_json(
            np.diag([rnd.uniform(-1, 1), rnd.uniform(-1, 1)]))]
            for lab in labels]
        cfg["potential"] = {"inline": mutated(rnd, entries, labels)}
    if rnd.random() < 0.1:
        # never a string: a string output_dir would be written to
        key = rnd.choice(["params", "seed", "graph", "output_dir"])
        cfg[key] = rnd.choice([[1], 5, None, {"preset": 5}])
    return cfg, subcommand


@SETTINGS
@given(configs())
def test_mutated_configs_exit_cleanly(case):
    cfg, subcommand = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg.setdefault("output_dir", str(Path(tmp) / "out"))
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.run(str(path), subcommand)
    assert status in (0, 1, 2)
    if status:
        record = json.loads(err.getvalue().strip().splitlines()[-1])
        assert set(record) == {"error", "kind"}
    params = cfg.get("params")
    stray = sorted(set(params) - set(cli.PARAMS[subcommand])
                   if isinstance(params, dict) else ())
    if stray and isinstance(cfg["output_dir"], str):
        # a key the subcommand does not read is refused before any input
        # is read, and named
        assert status == 1
        assert repr(stray[0]) in record["error"]
