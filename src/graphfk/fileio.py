"""JSON-compatible file formats for graphs, connections, and potentials.

Graph spec: {"vertices": [...], "edges": [[a, b, weight], ...],
"measure": [[a, value], ...]}; missing measure entries default to 1.0.
Connection: [[label_i, label_j, matrix]] with complex entries [re, im].
Magnetic: [[label_i, label_j, phase]].  Potential: [[label, matrix]] or
[[label, scalar]], at most one entry per vertex; a vertex without one
takes the value 0.

Connection and magnetic entries go through one aligner, a magnetic
phase as its rank-1 transport e^{i phase}.  Every edge takes an entry
in either orientation, and the reverse orientation is read as the
conjugate transpose.  An entry on a pair that is not an edge, two
entries on one edge in one orientation, an edge without an entry, and
an edge given both ways whose reverse is not the inverse within
``bundles.UNITARITY_TOL``, are refused with a ConfigError.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .bundles import (
    UNITARITY_TOL,
    Connection,
    Potential,
    connection_from_magnetic,
    distance_to_identity,
)
from .errors import ConfigError
from .graphs import WeightedGraph, build_graph


def _load_json(path):
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an integer for a file descriptor
        raise ConfigError(f"a file path must be a string, not {path!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None


@contextmanager
def _parsing(what):
    """Report the TypeError or ValueError of a malformed entry as a
    ConfigError naming ``what``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from None


def graph_from_dict(data) -> WeightedGraph:
    if not isinstance(data, dict):
        raise ConfigError("a graph spec must be a JSON object")
    with _parsing("graph spec"):
        edges = [(a, b, float(w)) for a, b, w in data.get("edges", [])]
        measure = [(a, float(v)) for a, v in data.get("measure", [])]
        # an unhashable label, such as a list, fails in build_graph
        return build_graph(edges, measure=measure or None,
                           vertices=data.get("vertices"))


def load_graph(path) -> WeightedGraph:
    return graph_from_dict(_load_json(path))


def _complex_matrix(entry):
    arr = np.asarray(entry, dtype=float)
    if arr.ndim == 0:
        return np.array([[complex(arr)]])
    if arr.ndim == 2 and arr.shape[1] == 2 and arr.shape[0] == 1:
        # single [re, im] pair
        return np.array([[arr[0, 0] + 1j * arr[0, 1]]])
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ConfigError(f"cannot interpret matrix entry of shape {arr.shape}")


def _aligned(g: WeightedGraph, arcs, mats, what) -> Connection:
    """The Connection of g that the transports ``mats`` (k, nu, nu),
    given on the arcs ``arcs`` [(i, j)], make, by the rules of the module
    docstring; ``what`` names the entries in the errors."""
    def name(i, j):
        return f"({g.labels[i]}, {g.labels[j]})"

    edge = dict(zip(map(tuple, g.edges.tolist()), range(len(g.edges))))
    given = np.full(2 * len(g.edges), -1)  # the entry on i -> j, on j -> i
    for k, (i, j) in enumerate(arcs):
        e = edge.get((min(i, j), max(i, j)))
        if e is None:
            raise ConfigError(f"{what} entry on {name(i, j)}, which is not "
                              "an edge")
        slot = 2 * e + (i > j)
        if given[slot] >= 0:
            raise ConfigError(f"two {what} entries on {name(i, j)}")
        given[slot] = k
    fwd, rev = given[0::2], given[1::2]
    missing = np.flatnonzero((fwd < 0) & (rev < 0))
    if missing.size:
        raise ConfigError(f"{what} has no entry for edge "
                          f"{name(*g.edges[missing[0]])}")
    both = np.flatnonzero((fwd >= 0) & (rev >= 0))
    dev = distance_to_identity(mats[rev[both]] @ mats[fwd[both]])
    bad = np.flatnonzero(~(dev <= UNITARITY_TOL))  # NaN fails it too
    if bad.size:
        raise ConfigError(f"{what} fails inverse-symmetry on edge "
                          f"{name(*g.edges[both[bad[0]]])}: deviation "
                          f"{dev[bad[0]]:.3e}")
    return Connection(mats.shape[1], np.where(
        (fwd >= 0)[:, None, None], mats[fwd], mats[rev].conj().swapaxes(1, 2)))


def _entries(entries, g: WeightedGraph, what, parse):
    """The arcs (i, j) and the parsed values of ``entries`` [[label_i,
    label_j, value]]."""
    arcs, values = [], []
    with _parsing(f"{what} entry"):
        for a, b, value in entries:
            arcs.append((g.index(a), g.index(b)))
            values.append(parse(value))
    return arcs, values


def connection_from_entries(entries, g: WeightedGraph) -> Connection:
    arcs, mats = _entries(entries, g, "connection", _complex_matrix)
    if not mats:
        raise ConfigError("empty connection file")
    if any(M.shape != (len(mats[0]),) * 2 for M in mats):
        raise ConfigError("connection matrices must be square, of one rank")
    return _aligned(g, arcs, np.array(mats), "connection")


def load_connection(path, g: WeightedGraph) -> Connection:
    return connection_from_entries(_load_json(path), g)


def magnetic_from_entries(entries, g: WeightedGraph) -> Connection:
    """The rank-1 connection e^{i theta} of magnetic entries."""
    arcs, phases = _entries(entries, g, "magnetic", float)
    return _aligned(g, arcs, connection_from_magnetic(phases).matrices,
                    "magnetic potential")


def load_magnetic(path, g: WeightedGraph) -> Connection:
    return magnetic_from_entries(_load_json(path), g)


def potential_from_entries(entries, g: WeightedGraph) -> Potential:
    by_index = {}
    rank = None
    with _parsing("potential entry"):
        for lab, value in entries:
            i = g.index(lab)
            if i in by_index:
                raise ConfigError(f"two potential entries for vertex {lab!r}")
            if isinstance(value, bool):  # JSON true is not the number 1
                raise ConfigError(f"potential entry for vertex {lab!r} must "
                                  f"be a number or a matrix, not {value!r}")
            if isinstance(value, (int, float)):
                M = np.array([[complex(value)]])
            else:
                M = _complex_matrix(value)
            if rank is None:
                rank = M.shape[0]
            if M.shape != (rank, rank):
                raise ConfigError("potential matrices must be square, of one "
                                  "rank")
            by_index[i] = M
    if rank is None:
        raise ConfigError("empty potential file")
    vals = np.zeros((g.n, rank, rank), dtype=complex)
    for i, M in by_index.items():
        vals[i] = M
    return Potential(rank, vals)


def load_potential(path, g: WeightedGraph) -> Potential:
    return potential_from_entries(_load_json(path), g)


def load_config(path) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data
