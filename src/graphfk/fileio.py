"""JSON-compatible file formats for graphs, connections, and potentials.

Graph spec: {"vertices": [...], "edges": [[a, b, weight], ...],
"measure": [[a, value], ...]}; missing measure entries default to 1.0.
Connection: [[label_i, label_j, matrix]] with complex entries [re, im].
Magnetic: [[label_i, label_j, phase]].  Potential: [[label, matrix]] or
[[label, scalar]], at most one entry per vertex; a vertex without one
takes the value 0.  Every number is a JSON number (``is_number``): a
string or a boolean in its place is refused with a GraphFKError that
names it.

The CLI reads these entries from a file or from an ``{"inline": ...}``
entry of its config and passes them to the ``*_from_entries`` parsers.

Connection and magnetic entries go through one aligner, a magnetic
phase as its rank-1 transport e^{i phase}.  Every edge takes an entry
in either orientation, and the reverse orientation is read as the
conjugate transpose.  An entry on a pair that is not an edge, two
entries on one edge in one orientation, an edge without an entry, and
an edge given both ways whose reverse is not the inverse within
``bundles.UNITARITY_TOL``, are refused with a GraphFKError.
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
from .errors import GraphFKError
from .graphs import WeightedGraph, build_graph


def _load_json(path):
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an integer for a file descriptor
        raise GraphFKError(f"a file path must be a string, not {path!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise GraphFKError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8
        raise GraphFKError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphFKError(f"cannot parse {path}: {exc}") from None


@contextmanager
def _parsing(what):
    """Report the TypeError, ValueError or OverflowError of a malformed
    entry as a GraphFKError naming ``what``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFKError(f"malformed {what}: {exc}") from None


def is_number(value) -> bool:
    """True for a JSON number, an int or a float; a boolean, which Python
    counts as an int, is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value):
    """float(value) for a JSON number; ValueError naming it else."""
    if not is_number(value):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _reals(entry):
    """``entry``, a number or nested lists of them, with every number
    taken by ``_real``."""
    if isinstance(entry, list):
        return [_reals(e) for e in entry]
    return _real(entry)


def graph_from_dict(data) -> WeightedGraph:
    if not isinstance(data, dict):
        raise GraphFKError("a graph spec must be a JSON object")
    with _parsing("graph spec"):
        edges = [(a, b, _real(w)) for a, b, w in data.get("edges", [])]
        measure = [(a, _real(v)) for a, v in data.get("measure", [])]
        # an unhashable label, such as a list, fails in build_graph
        return build_graph(edges, measure=measure or None,
                           vertices=data.get("vertices"))


def load_graph(path) -> WeightedGraph:
    return graph_from_dict(_load_json(path))


def _complex_matrix(entry):
    arr = np.asarray(_reals(entry), dtype=float)
    if arr.ndim == 0:
        return np.array([[complex(arr)]])
    if arr.ndim == 2 and arr.shape[1] == 2 and arr.shape[0] == 1:
        # single [re, im] pair
        return np.array([[arr[0, 0] + 1j * arr[0, 1]]])
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise GraphFKError(f"cannot interpret matrix entry of shape {arr.shape}")


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
            raise GraphFKError(f"{what} entry on {name(i, j)}, which is not "
                               "an edge")
        slot = 2 * e + (i > j)
        if given[slot] >= 0:
            raise GraphFKError(f"two {what} entries on {name(i, j)}")
        given[slot] = k
    fwd, rev = given[0::2], given[1::2]
    missing = np.flatnonzero((fwd < 0) & (rev < 0))
    if missing.size:
        raise GraphFKError(f"{what} has no entry for edge "
                           f"{name(*g.edges[missing[0]])}")
    both = np.flatnonzero((fwd >= 0) & (rev >= 0))
    dev = distance_to_identity(mats[rev[both]] @ mats[fwd[both]])
    bad = np.flatnonzero(~(dev <= UNITARITY_TOL))  # NaN fails it too
    if bad.size:
        raise GraphFKError(f"{what} fails inverse-symmetry on edge "
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
        raise GraphFKError("empty connection file")
    if any(M.shape != (len(mats[0]),) * 2 for M in mats):
        raise GraphFKError("connection matrices must be square, of one rank")
    return _aligned(g, arcs, np.array(mats), "connection")


def magnetic_from_entries(entries, g: WeightedGraph) -> Connection:
    """The rank-1 connection e^{i theta} of magnetic entries."""
    arcs, phases = _entries(entries, g, "magnetic", _real)
    return _aligned(g, arcs, connection_from_magnetic(phases).matrices,
                    "magnetic potential")


def potential_from_entries(entries, g: WeightedGraph) -> Potential:
    by_index = {}
    rank = None
    with _parsing("potential entry"):
        for lab, value in entries:
            i = g.index(lab)
            if i in by_index:
                raise GraphFKError(f"two potential entries for vertex {lab!r}")
            # apart: ``_complex_matrix`` takes about 1 us more per scalar
            if is_number(value):
                M = np.array([[complex(value)]])
            else:
                M = _complex_matrix(value)
            if rank is None:
                rank = M.shape[0]
            if M.shape != (rank, rank):
                raise GraphFKError("potential matrices must be square, of one "
                                   "rank")
            by_index[i] = M
    if rank is None:
        raise GraphFKError("empty potential file")
    vals = np.zeros((g.n, rank, rank), dtype=complex)
    for i, M in by_index.items():
        vals[i] = M
    return Potential(rank, vals)


def load_config(path) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise GraphFKError("config must be a JSON object")
    return data
