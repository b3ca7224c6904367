"""Finite weighted graphs (X, b, m) and their degree data.

A graph is a finite ordered vertex set with a symmetric positive edge
weight b (zero diagonal, absence encodes 0) and a strictly positive
vertex measure m.  All numerics downstream run on the contiguous vertex
indices; labels are opaque strings kept for I/O only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricInput,
    BadParams,
    DuplicateLabel,
    EmptySubset,
    NonpositiveMeasure,
    NonpositiveWeight,
    SelfLoop,
    UnknownIndex,
)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable triple (X, b, m) on contiguous indices 0..n-1.

    ``edges`` maps canonical pairs (i, j) with i < j to the positive
    weight b(i, j) = b(j, i); both directed views are synthesized on
    demand.
    """

    labels: tuple
    edges: dict
    measure: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.measure, dtype=float)
        object.__setattr__(self, "measure", m)
        if np.any(m <= 0):
            raise NonpositiveMeasure("measure must be strictly positive")
        for (i, j), w in self.edges.items():
            if i == j:
                raise SelfLoop(f"self-loop at index {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise UnknownIndex(f"edge ({i},{j}) out of range")
            if w <= 0:
                raise NonpositiveWeight(f"b({i},{j}) = {w}")

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
            raise UnknownIndex(f"unknown vertex label {label!r}") from None

    def weight(self, i, j):
        """b(i, j); zero when no edge is stored."""
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self.edges.get(key, 0.0)

    def directed_edges(self):
        """Both orientations of every stored edge."""
        for (i, j), w in self.edges.items():
            yield i, j, w
            yield j, i, w

    def adjacency(self):
        """Dense symmetric weight matrix B with B[i, j] = b(i, j)."""
        B = np.zeros((self.n, self.n))
        for (i, j), w in self.edges.items():
            B[i, j] = w
            B[j, i] = w
        return B


@dataclass(frozen=True)
class DegreeProfile:
    """deg_1(i) = sum_j b(i, j), deg_m = deg_1 / m, c_bm = max deg_m."""

    deg_1: np.ndarray
    deg_m: np.ndarray
    c_bm: float


@dataclass(frozen=True)
class ExhaustionSequence:
    """Nested vertex-index subsets of a host graph.

    ``partial`` marks sequences whose last subset does not cover the
    host vertex set.
    """

    host: WeightedGraph
    subsets: tuple = field(default_factory=tuple)

    def __post_init__(self):
        prev = None
        for s in self.subsets:
            s = frozenset(s)
            if prev is not None and not prev <= s:
                raise BadParams("exhaustion subsets must be nested")
            for i in s:
                if not (0 <= i < self.host.n):
                    raise UnknownIndex(f"index {i} not in host graph")
            prev = s

    @property
    def partial(self):
        if not self.subsets:
            return True
        return frozenset(self.subsets[-1]) != frozenset(range(self.host.n))


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
                raise DuplicateLabel(f"duplicate vertex label {lab!r}")
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
            raise SelfLoop(f"self-loop at {a!r}")
        if w <= 0:
            raise NonpositiveWeight(f"b({a!r},{b_lab!r}) = {w}")
        i, j = idx[a], idx[b_lab]
        key = (i, j) if i < j else (j, i)
        if key in edge_map and edge_map[key] != w:
            raise AsymmetricInput(
                f"conflicting weights for edge ({a!r},{b_lab!r}): "
                f"{edge_map[key]} vs {w}"
            )
        edge_map[key] = w

    m = np.ones(len(labels))
    if measure:
        for lab, v in measure:
            if v <= 0:
                raise NonpositiveMeasure(f"m({lab!r}) = {v}")
            m[idx[lab]] = v

    return WeightedGraph(tuple(labels), edge_map, m)


def degrees(g: WeightedGraph) -> DegreeProfile:
    """Degree functionals of the graph."""
    deg_1 = np.zeros(g.n)
    for i, j, w in g.directed_edges():
        deg_1[i] += w
    deg_m = deg_1 / g.measure
    return DegreeProfile(deg_1, deg_m, float(deg_m.max()) if g.n else 0.0)


def is_connected(g: WeightedGraph) -> bool:
    """True iff every vertex pair is joined by a chain of positive-b edges."""
    if g.n <= 1:
        return True
    nbrs = {i: [] for i in range(g.n)}
    for (i, j) in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in nbrs[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == g.n


def generate(family, **params) -> WeightedGraph:
    """Standard graph families with b = 1 and m = 1.

    Families: path(n), cycle(n), star(leaves), complete(n),
    lattice_box(l, side) -- the integer lattice restricted to a box of
    the given side length, edges between Euclidean-distance-1 points.
    """
    try:
        params = {key: int(value) for key, value in params.items()}
    except (TypeError, ValueError, OverflowError):
        raise BadParams(f"{family} takes integer parameters, not "
                        f"{params}") from None
    if family == "path":
        n = params.get("n", 0)
        if n < 1:
            raise BadParams("path needs n >= 1")
        edges = [(f"v{i}", f"v{i+1}", 1.0) for i in range(n - 1)]
        return build_graph(edges, vertices=[f"v{i}" for i in range(n)])
    if family == "cycle":
        n = params.get("n", 0)
        if n < 3:
            raise BadParams("cycle needs n >= 3 (no self-loops or doubled edges)")
        edges = [(f"v{i}", f"v{(i+1) % n}", 1.0) for i in range(n)]
        return build_graph(edges)
    if family == "star":
        k = params.get("leaves", 0)
        if k < 1:
            raise BadParams("star needs leaves >= 1")
        edges = [("c", f"l{i}", 1.0) for i in range(k)]
        return build_graph(edges)
    if family == "complete":
        n = params.get("n", 0)
        if n < 2:
            raise BadParams("complete needs n >= 2")
        edges = [
            (f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(i + 1, n)
        ]
        return build_graph(edges)
    if family == "lattice_box":
        l = params.get("l", 0)
        side = params.get("side", 0)
        if l < 1 or side < 2:
            raise BadParams("lattice_box needs l >= 1 and side >= 2")
        coords = [()]
        for _ in range(l):
            coords = [c + (k,) for c in coords for k in range(side)]
        label = {c: "x" + "_".join(map(str, c)) for c in coords}
        edges = []
        for c in coords:
            for d in range(l):
                nb = c[:d] + (c[d] + 1,) + c[d + 1:]
                if nb[d] < side:
                    edges.append((label[c], label[nb], 1.0))
        return build_graph(edges, vertices=[label[c] for c in coords])
    raise BadParams(f"unknown family {family!r}")


def restrict(g: WeightedGraph, keep) -> WeightedGraph:
    """Induced subgraph on ``keep`` (vertex indices), measure restricted.

    Edges crossing the boundary are discarded (Dirichlet truncation).
    """
    keep = sorted(set(keep))
    if not keep:
        raise EmptySubset("keep must be nonempty")
    for i in keep:
        if not (0 <= i < g.n):
            raise UnknownIndex(f"index {i} not in graph")
    remap = {old: new for new, old in enumerate(keep)}
    edges = {
        (remap[i], remap[j]): w
        for (i, j), w in g.edges.items()
        if i in remap and j in remap
    }
    return WeightedGraph(
        tuple(g.labels[i] for i in keep), edges, g.measure[keep]
    )
