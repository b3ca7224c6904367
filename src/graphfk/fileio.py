"""JSON-compatible file formats for graphs, connections, and potentials.

Graph spec: {"vertices": [...], "edges": [[a, b, weight], ...],
"measure": [[a, value], ...]}; missing measure entries default to 1.0.
Connection: [[label_i, label_j, matrix]] with complex entries [re, im].
Magnetic: [[label_i, label_j, phase]].  Potential: [[label, matrix]] or
[[label, scalar]].
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .bundles import Connection, MagneticPotential, Potential
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


def connection_from_entries(entries, g: WeightedGraph) -> Connection:
    mats = {}
    rank = None
    with _parsing("connection entry"):
        for a, b, matrix in entries:
            i, j = g.index(a), g.index(b)
            M = _complex_matrix(matrix)
            if rank is None:
                rank = M.shape[0]
            elif M.shape != (rank, rank):
                raise ConfigError(
                    "connection matrices have inconsistent ranks")
            mats[(i, j)] = M
    if rank is None:
        raise ConfigError("empty connection file")
    return Connection(rank, mats)


def load_connection(path, g: WeightedGraph) -> Connection:
    return connection_from_entries(_load_json(path), g)


def magnetic_from_entries(entries, g: WeightedGraph) -> MagneticPotential:
    phases = {}
    with _parsing("magnetic entry"):
        for a, b, ph in entries:
            i, j = g.index(a), g.index(b)
            key = (i, j) if i < j else (j, i)
            phases[key] = float(ph) if i < j else -float(ph)
    return MagneticPotential(g, phases)


def load_magnetic(path, g: WeightedGraph) -> MagneticPotential:
    return magnetic_from_entries(_load_json(path), g)


def potential_from_entries(entries, g: WeightedGraph) -> Potential:
    by_index = {}
    rank = None
    with _parsing("potential entry"):
        for lab, value in entries:
            i = g.index(lab)
            if isinstance(value, (int, float)):
                M = np.array([[complex(value)]])
            else:
                M = _complex_matrix(value)
            if rank is None:
                rank = M.shape[0]
            elif M.shape != (rank, rank):
                raise ConfigError("potential matrices have inconsistent ranks")
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
