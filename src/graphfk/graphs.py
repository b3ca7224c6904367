"""Finite weighted graphs (X, b, m) and their degree data.

A graph is a finite ordered vertex set with a symmetric positive edge
weight b (zero diagonal, absence encodes 0) and a strictly positive
vertex measure m.  Its E edges are stored once, as arrays: the pairs
(i, j) with i < j, shape (E, 2), and their weights b(i, j) = b(j, i),
shape (E,), in the order the edges were first given.  Edge e runs in
both directions, as arc 2e, i -> j, and arc 2e + 1, j -> i; every
per-edge array of the package (a connection's transports, the arcs of
``operators.Problem``) is aligned with this order.  All numerics
downstream run on the contiguous vertex indices; labels are opaque
strings kept for I/O only.

Graphs are built from labelled edge lists (``build_graph``) or standard
families (``generate``).  Besides the degrees, the module answers the
one question of structure the trace estimator asks: whether the graph
is bipartite (``two_colouring``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphFKError


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable triple (X, b, m) on contiguous indices 0..n-1.

    ``edges`` holds each edge once as a pair (i, j) with i < j, shape
    (E, 2), and ``weights`` the positive weights b(i, j), shape (E,).
    """

    labels: tuple
    edges: np.ndarray
    weights: np.ndarray
    measure: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.measure, dtype=float)
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(self.weights, dtype=float)
        for name, value in (("measure", m), ("edges", e), ("weights", w)):
            object.__setattr__(self, name, value)
        bad = ~(np.isfinite(m) & (m > 0))  # NaN fails too
        if bad.any():
            k = int(np.argmax(bad))
            raise GraphFKError("measure must be strictly positive and "
                               f"finite: m({k}) = {m[k]}")
        if w.shape != (len(e),):
            raise GraphFKError(f"{len(e)} edges and {w.size} weights")
        # each check names the first edge that fails it
        checks = (
            (e[:, 0] == e[:, 1], "self-loop at index {i}"),
            (((e < 0) | (e >= self.n)).any(axis=1),
             "edge ({i},{j}) out of range"),
            (e[:, 0] > e[:, 1], "edge ({i},{j}) not stored as i < j"),
            (~(np.isfinite(w) & (w > 0)), "b({i},{j}) = {w}"),  # NaN fails
        )
        for fails, text in checks:
            if fails.any():
                k = int(np.argmax(fails))
                raise GraphFKError(text.format(i=e[k, 0], j=e[k, 1], w=w[k]))
        # a set of the keys i n + j: numpy's sort would map a few hundred
        # KiB of its code into every run, and np.unique imports numpy.ma
        key = e[:, 0] * self.n + e[:, 1]
        if len(set(key.tolist())) < len(key):
            key = np.sort(key)  # the pair stored twice sits next to itself
            i, j = divmod(int(key[1:][key[1:] == key[:-1]][0]), self.n)
            raise GraphFKError(f"edge ({i},{j}) stored twice")

    @property
    def n(self):
        return len(self.labels)

    @cached_property
    def _positions(self):
        """label -> index of its first occurrence, as ``tuple.index``."""
        return {lab: i for i, lab in reversed(tuple(enumerate(self.labels)))}

    def index(self, label):
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise GraphFKError(f"unknown vertex label {label!r}") from None


@dataclass(frozen=True)
class DegreeProfile:
    """deg_1(i) = sum_j b(i, j), deg_m = deg_1 / m, c_bm = max deg_m."""

    deg_1: np.ndarray
    deg_m: np.ndarray
    c_bm: float


def build_graph(edges, measure=None, vertices=None):
    """Build a WeightedGraph from an edge list and a measure list.

    ``edges`` is an iterable of (label_a, label_b, weight); ``measure``
    an iterable of (label, value), defaulting to 1.0 for absent labels;
    ``vertices`` optionally fixes the label order (and admits isolated
    vertices).
    """
    labels = []
    seen = set()

    def add_label(lab):
        if lab in seen:
            return
        seen.add(lab)
        labels.append(lab)

    if vertices is not None:
        for lab in vertices:
            if lab in seen:
                raise GraphFKError(f"duplicate vertex label {lab!r}")
            add_label(lab)
    for a, b_lab, _w in edges:
        add_label(a)
        add_label(b_lab)
    if measure:
        for lab, _v in measure:
            add_label(lab)

    idx = {lab: i for i, lab in enumerate(labels)}
    edge_map = {}
    for a, b_lab, w in edges:
        if a == b_lab:
            raise GraphFKError(f"self-loop at {a!r}")
        if not w > 0:  # NaN fails it too
            raise GraphFKError(f"b({a!r},{b_lab!r}) = {w}")
        i, j = idx[a], idx[b_lab]
        key = (i, j) if i < j else (j, i)
        if key in edge_map and edge_map[key] != w:
            raise GraphFKError(
                f"conflicting weights for edge ({a!r},{b_lab!r}): "
                f"{edge_map[key]} vs {w}"
            )
        edge_map[key] = w

    m = np.ones(len(labels))
    if measure:
        for lab, v in measure:
            if not v > 0:  # NaN fails it too
                raise GraphFKError(f"m({lab!r}) = {v}")
            m[idx[lab]] = v

    return WeightedGraph(tuple(labels), list(edge_map),
                         list(edge_map.values()), m)


def degrees(g: WeightedGraph) -> DegreeProfile:
    """Degree functionals of the graph.

    deg_1 sums the weights over the arcs in arc order, the order in which
    ``operators.Problem`` lists them.
    """
    deg_1 = np.bincount(g.edges.ravel(), weights=np.repeat(g.weights, 2),
                        minlength=g.n)
    deg_m = deg_1 / g.measure
    return DegreeProfile(deg_1, deg_m, float(deg_m.max()) if g.n else 0.0)


def _neighbours(g: WeightedGraph):
    """(nbrs, ptr) as lists, the neighbours of i nbrs[ptr[i]:ptr[i + 1]]."""
    src = g.edges.ravel()
    order = np.argsort(src, kind="stable")
    nbrs = g.edges[:, ::-1].ravel()[order].tolist()
    ptr = np.searchsorted(src[order], np.arange(g.n + 1)).tolist()
    return nbrs, ptr


def two_colouring(g: WeightedGraph):
    """A colour 0 or 1 per vertex, shape (n,), that differs across every
    edge, or None when there is none: when some component holds an odd
    cycle.  Each component is searched once from its first vertex, in
    O(n + E).  A graph with a colouring is bipartite and has no closed
    walk of odd length."""
    nbrs, ptr = _neighbours(g)
    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in nbrs[ptr[i]:ptr[i + 1]]:
                if colour[j] < 0:
                    colour[j] = 1 - colour[i]
                    stack.append(j)
    colour = np.array(colour, dtype=np.int64)
    ends = colour[g.edges]
    return colour if np.all(ends[:, 0] != ends[:, 1]) else None


def generate(family, **params) -> WeightedGraph:
    """Standard graph families with b = 1 and m = 1.

    Families: path(n), cycle(n), star(leaves), complete(n),
    lattice_box(l, side) -- the integer lattice restricted to a box of
    the given side length, edges between Euclidean-distance-1 points.
    """
    try:
        ints = {key: int(value) for key, value in params.items()}
        # int() would drop the fraction of 2.7 silently, and read true as 1
        if any(isinstance(value, bool)
               or isinstance(value, float) and ints[key] != value
               for key, value in params.items()):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise GraphFKError(f"{family} takes integer parameters, not "
                           f"{params}") from None
    params = ints
    # each family's vertices and edges (i, j), i < j, in the order in
    # which ``build_graph`` would list them from its label strings
    n = params.get("n", 0)
    if family == "path":
        if n < 1:
            raise GraphFKError("path needs n >= 1")
        labels = [f"v{i}" for i in range(n)]
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    elif family == "cycle":
        if n < 3:
            raise GraphFKError("cycle needs n >= 3 (no self-loops or doubled edges)")
        labels = [f"v{i}" for i in range(n)]
        edges = np.stack([np.r_[np.arange(n - 1), 0],
                          np.r_[np.arange(1, n), n - 1]], axis=1)
    elif family == "star":
        k = params.get("leaves", 0)
        if k < 1:
            raise GraphFKError("star needs leaves >= 1")
        labels = ["c"] + [f"l{i}" for i in range(k)]
        edges = np.stack([np.zeros(k, dtype=np.int64), np.arange(1, k + 1)],
                         axis=1)
    elif family == "complete":
        if n < 2:
            raise GraphFKError("complete needs n >= 2")
        labels = [f"v{i}" for i in range(n)]
        edges = np.stack(np.triu_indices(n, 1), axis=1)
    elif family == "lattice_box":
        l = params.get("l", 0)
        side = params.get("side", 0)
        if l < 1 or side < 2:
            raise GraphFKError("lattice_box needs l >= 1 and side >= 2")
        # vertex v has the coordinates coords[v], the last the fastest; its
        # edges go one step up each dimension d where there is room, in the
        # order (v, d), to v + side^(l - 1 - d)
        coords = np.indices((side,) * l).reshape(l, -1).T
        v = np.arange(len(coords))[:, None]
        up = coords < side - 1
        edges = np.stack([np.broadcast_to(v, up.shape)[up],
                          (v + side ** np.arange(l)[::-1])[up]], axis=1)
        labels = ["x" + "_".join(map(str, c)) for c in coords.tolist()]
    else:
        raise GraphFKError(f"unknown family {family!r}")
    return WeightedGraph(tuple(labels), edges, np.ones(len(edges)),
                         np.ones(len(labels)))

