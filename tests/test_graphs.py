import itertools

import numpy as np
import pytest

from graphfk.errors import (
    AsymmetricInput,
    BadParams,
    DuplicateLabel,
    EmptySubset,
    NonpositiveMeasure,
    NonpositiveWeight,
    SelfLoop,
    UnknownIndex,
)
from graphfk.graphs import (
    ExhaustionSequence,
    WeightedGraph,
    _triangle_pieces,
    build_graph,
    degrees,
    edge_mask,
    generate,
    has_triangle,
    is_connected,
    restrict,
    two_colouring,
)

from conftest import dense_weights, random_graph


def brute_force_connected(g):
    """Transitive-closure oracle."""
    n = g.n
    reach = np.eye(n, dtype=bool) | (dense_weights(g) > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([("a", "b", 1.0)])
        assert g.n == 2
        d = degrees(g)
        assert np.allclose(d.deg_1, [1.0, 1.0])

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(AsymmetricInput):
            build_graph([("a", "b", 1.0), ("b", "a", 2.0)])

    def test_symmetric_duplicate_allowed(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0)])
        assert len(g.edges) == 1

    def test_four_cycle_degrees(self):
        g = generate("cycle", n=4)
        d = degrees(g)
        assert np.allclose(d.deg_1, 2.0)
        assert d.c_bm == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(SelfLoop):
            build_graph([("a", "a", 1.0)])
        with pytest.raises(NonpositiveWeight):
            build_graph([("a", "b", 0.0)])
        with pytest.raises(NonpositiveMeasure):
            build_graph([("a", "b", 1.0)], measure=[("a", -1.0)])
        with pytest.raises(DuplicateLabel):
            build_graph([("a", "b", 1.0)], vertices=["a", "a", "b"])

    def test_nan_weight_and_measure_rejected(self):
        # NaN compares false both ways, so it passed w <= 0 and m <= 0
        nan = float("nan")
        with pytest.raises(NonpositiveWeight):
            build_graph([("a", "b", nan)])
        with pytest.raises(NonpositiveMeasure):
            build_graph([("a", "b", 1.0)], measure=[("a", nan)])
        with pytest.raises(NonpositiveWeight):
            WeightedGraph(("a", "b"), [(0, 1)], [nan], np.ones(2))
        with pytest.raises(NonpositiveMeasure):
            WeightedGraph(("a", "b"), [(0, 1)], [1.0], np.array([1.0, nan]))

    @pytest.mark.parametrize("edges, error, message", [
        ([(0, 1), (2, 2)], SelfLoop, "self-loop at index 2"),
        ([(0, 1), (1, 3)], UnknownIndex, r"edge \(1,3\) out of range"),
        ([(0, 1), (-1, 2)], UnknownIndex, r"edge \(-1,2\) out of range"),
        ([(0, 1), (2, 1)], BadParams, r"edge \(2,1\) not stored as i < j"),
        ([(1, 2), (0, 1), (1, 2)], BadParams, r"edge \(1,2\) stored twice"),
    ])
    def test_edge_arrays_checked(self, edges, error, message):
        with pytest.raises(error, match=message):
            WeightedGraph(("a", "b", "c"), edges, np.ones(len(edges)),
                          np.ones(3))

    def test_weights_one_per_edge(self):
        with pytest.raises(BadParams, match="2 edges and 1 weights"):
            WeightedGraph(("a", "b", "c"), [(0, 1), (1, 2)], [1.0],
                          np.ones(3))

    def test_label_lookup(self):
        # the first occurrence, as tuple.index finds it
        g = WeightedGraph(("a", "b", "a"), [], [], np.ones(3))
        assert [g.index(lab) for lab in ("a", "b")] == [0, 1]
        for label in ("c", ["a"]):
            with pytest.raises(UnknownIndex):
                g.index(label)


class TestDegrees:
    def test_unit_measure(self):
        g = build_graph([("a", "b", 1.0)])
        d = degrees(g)
        assert np.allclose(d.deg_m, 1.0)
        assert d.c_bm == pytest.approx(1.0)

    def test_half_measure(self):
        g = build_graph([("a", "b", 1.0)], measure=[("b", 0.5)])
        d = degrees(g)
        assert np.allclose(d.deg_m, [1.0, 2.0])
        assert d.c_bm == pytest.approx(2.0)

    def test_star(self):
        k = 6
        g = generate("star", leaves=k)
        d = degrees(g)
        center = g.index("c")
        assert d.deg_m[center] == pytest.approx(k)
        leaves = [i for i in range(g.n) if i != center]
        assert np.allclose(d.deg_m[leaves], 1.0)

    def test_recomputed_brute_force(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=8, connected=False)
            d = degrees(g)
            B = dense_weights(g)
            assert np.allclose(d.deg_1, B.sum(axis=1), rtol=1e-12, atol=0)
            assert np.allclose(d.deg_m * g.measure, d.deg_1, rtol=1e-12, atol=0)
            # bit for bit the sum over the arcs, edge by edge, i -> j
            # first: the order the operator and the jump table read
            deg_1 = np.zeros(g.n)
            for (i, j), w in zip(g.edges.tolist(), g.weights.tolist()):
                deg_1[i] += w
                deg_1[j] += w
            assert np.array_equal(d.deg_1, deg_1)


class TestConnectivity:
    def test_examples(self):
        assert is_connected(build_graph([("a", "b", 1.0)]))
        assert not is_connected(
            build_graph([("a", "b", 1.0), ("c", "d", 1.0)]))
        assert is_connected(generate("cycle", n=5))

    def test_against_transitive_closure(self, rng):
        for _ in range(40):
            g = random_graph(rng, max_n=8, connected=False)
            assert is_connected(g) == brute_force_connected(g)


def triangles(g):
    """Every triangle of g once, the rows of ``_triangle_pieces`` joined."""
    return np.concatenate([np.zeros((0, 3), dtype=np.int64),
                           *_triangle_pieces(g)])


def _triangle_set(g):
    return {frozenset(t) for t in triangles(g).tolist()}


class TestTriangles:
    def test_examples(self):
        assert has_triangle(generate("cycle", n=3))
        assert has_triangle(generate("complete", n=5))
        assert not has_triangle(generate("cycle", n=4))
        assert not has_triangle(generate("lattice_box", l=2, side=5))
        assert not has_triangle(generate("star", leaves=6))
        assert not has_triangle(build_graph([], vertices=["a", "b"]))
        assert _triangle_set(generate("cycle", n=3)) == {frozenset(range(3))}
        assert len(triangles(generate("complete", n=5))) == 10
        assert len(triangles(generate("cycle", n=4))) == 0
        assert len(triangles(generate("lattice_box", l=2, side=5))) == 0
        assert len(triangles(generate("star", leaves=6))) == 0
        assert triangles(build_graph([], vertices=["a", "b"])).shape == (0, 3)

    def test_against_brute_force(self, rng):
        # each triangle once, as a row (u, v, w) whose three pairs are edges
        for _ in range(60):
            g = random_graph(rng, max_n=9, connected=False)
            B = dense_weights(g)
            want = {frozenset(c) for c in itertools.combinations(range(g.n), 3)
                    if B[c[0], c[1]] and B[c[1], c[2]] and B[c[0], c[2]]}
            found = triangles(g)
            assert len(found) == len(want)
            assert _triangle_set(g) == want
            assert has_triangle(g) == bool(want)


class TestTwoColouring:
    @staticmethod
    def _proper(g, colour):
        return colour is not None and all(
            colour[i] != colour[j] for i, j in g.edges.tolist())

    def test_even_cycle(self):
        g = generate("cycle", n=6)
        colour = two_colouring(g)
        assert self._proper(g, colour)
        assert colour.tolist() == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cycle(self, n):
        assert two_colouring(generate("cycle", n=n)) is None

    def test_forest(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0),
                         ("e", "f", 2.0)], vertices=list("abcdefg"))
        assert self._proper(g, two_colouring(g))

    def test_one_odd_component(self):
        # a square, a lone vertex and a separate 5-cycle: the odd cycle in
        # the last component decides
        square = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        pentagon = [(f"p{i}", f"p{(i + 1) % 5}") for i in range(5)]
        g = build_graph([(u, v, 1.0) for u, v in square + pentagon],
                        vertices=["z"])
        assert two_colouring(g) is None
        h = build_graph([(u, v, 1.0) for u, v in square], vertices=["z"])
        assert self._proper(h, two_colouring(h))

    def test_against_odd_closed_walks(self, rng):
        # a graph is bipartite iff it has no closed walk of odd length, that
        # is iff tr A^k = 0 for every odd k up to n
        for _ in range(60):
            g = random_graph(rng, max_n=9, connected=False)
            A = (dense_weights(g) > 0).astype(float)
            odd = any(np.trace(np.linalg.matrix_power(A, k)) > 0
                      for k in range(3, g.n + 1, 2))
            colour = two_colouring(g)
            assert (colour is None) == odd
            assert colour is None or self._proper(g, colour)


class TestGenerate:
    def test_lattice_box_1d(self):
        g = generate("lattice_box", l=1, side=3)
        assert g.n == 3
        assert np.allclose(degrees(g).deg_1, [1.0, 2.0, 1.0])

    def test_lattice_box_2d_is_cycle(self):
        g = generate("lattice_box", l=2, side=2)
        assert g.n == 4
        assert np.allclose(degrees(g).deg_1, 2.0)
        assert is_connected(g)

    def test_lattice_box_edges_are_distance_one(self):
        g = generate("lattice_box", l=2, side=3)
        coords = {lab: tuple(map(int, lab[1:].split("_")))
                  for lab in g.labels}
        for (i, j), w in zip(g.edges.tolist(), g.weights.tolist()):
            a, b = coords[g.labels[i]], coords[g.labels[j]]
            dist = sum((u - v) ** 2 for u, v in zip(a, b))
            assert dist == 1 and w == 1.0
        # every distance-1 pair is present
        n_expected = 2 * 3 * 2  # per-dimension interior bonds
        assert len(g.edges) == n_expected

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate("cycle", n=1)
        with pytest.raises(BadParams):
            generate("lattice_box", l=0, side=3)
        with pytest.raises(BadParams):
            generate("nonsense")
        with pytest.raises(BadParams):
            generate("path", n="x")


class TestRestrict:
    def test_path_to_edge(self):
        g = generate("path", n=3)
        sub = restrict(g, [0, 1])
        assert sub.n == 2 and len(sub.edges) == 1

    def test_identity(self):
        g = generate("cycle", n=5)
        sub = restrict(g, range(5))
        assert np.array_equal(sub.edges, g.edges)
        assert np.array_equal(sub.weights, g.weights)
        assert np.array_equal(sub.measure, g.measure)

    def test_opposite_corners(self):
        g = generate("cycle", n=4)
        sub = restrict(g, [0, 2])
        assert sub.n == 2 and len(sub.edges) == 0

    def test_nesting(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=8, connected=False)
            idx = list(range(g.n))
            a = sorted(rng.choice(idx, size=max(2, g.n - 1), replace=False))
            b = sorted(rng.choice(a, size=max(1, len(a) - 1), replace=False))
            via_a = restrict(restrict(g, a), [a.index(i) for i in b])
            direct = restrict(g, b)
            assert via_a.labels == direct.labels
            assert np.array_equal(via_a.edges, direct.edges)
            assert np.array_equal(via_a.weights, direct.weights)
            # the edges kept are those of the mask, in their order in g
            mask = edge_mask(g, b)
            assert np.array_equal(direct.weights, g.weights[mask])
            assert np.array_equal(np.array(direct.labels)[direct.edges],
                                  np.array(g.labels)[g.edges[mask]])

    def test_errors(self):
        g = generate("path", n=3)
        with pytest.raises(EmptySubset):
            restrict(g, [])
        with pytest.raises(UnknownIndex):
            restrict(g, [0, 99])


class TestExhaustion:
    def test_nested_ok(self):
        g = generate("path", n=4)
        seq = ExhaustionSequence(g, ({0}, {0, 1}, {0, 1, 2, 3}))
        assert not seq.partial

    def test_partial_flag(self):
        g = generate("path", n=4)
        seq = ExhaustionSequence(g, ({0}, {0, 1}))
        assert seq.partial

    def test_not_nested_rejected(self):
        g = generate("path", n=4)
        with pytest.raises(BadParams):
            ExhaustionSequence(g, ({0, 1}, {2, 3}))
