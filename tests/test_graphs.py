import numpy as np
import pytest

from graphfk import graphs
from graphfk.errors import GraphFKError
from graphfk.graphs import (
    WeightedGraph,
    build_graph,
    degrees,
    generate,
    two_colouring,
)

from conftest import brute_force_connected, dense_weights, random_graph


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([("a", "b", 1.0)])
        assert g.n == 2
        d = degrees(g)
        assert np.allclose(d.deg_1, [1.0, 1.0])

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(GraphFKError,
                           match=r"conflicting weights for edge \('b','a'\): "
                           "1.0 vs 2.0"):
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
        with pytest.raises(GraphFKError, match="self-loop at 'a'"):
            build_graph([("a", "a", 1.0)])
        with pytest.raises(GraphFKError, match=r"b\('a','b'\) = 0.0"):
            build_graph([("a", "b", 0.0)])
        with pytest.raises(GraphFKError, match=r"m\('a'\) = -1.0"):
            build_graph([("a", "b", 1.0)], measure=[("a", -1.0)])
        with pytest.raises(GraphFKError, match="duplicate vertex label 'a'"):
            build_graph([("a", "b", 1.0)], vertices=["a", "a", "b"])

    def test_nan_weight_and_measure_rejected(self):
        # NaN compares false both ways, so it passed w <= 0 and m <= 0
        nan = float("nan")
        with pytest.raises(GraphFKError, match=r"b\('a','b'\) = nan"):
            build_graph([("a", "b", nan)])
        with pytest.raises(GraphFKError, match=r"m\('a'\) = nan"):
            build_graph([("a", "b", 1.0)], measure=[("a", nan)])
        with pytest.raises(GraphFKError, match=r"b\(0,1\) = nan"):
            WeightedGraph(("a", "b"), [(0, 1)], [nan], np.ones(2))
        with pytest.raises(GraphFKError,
                           match="measure must be strictly positive"):
            WeightedGraph(("a", "b"), [(0, 1)], [1.0], np.array([1.0, nan]))

    def test_infinite_weight_and_measure_rejected(self):
        # inf > 0, and JSON's Infinity reads as inf: kato wrote nan, and
        # a measure inf ended fk-compare in a ValueError
        inf = float("inf")
        with pytest.raises(GraphFKError, match=r"b\(0,1\) = inf"):
            build_graph([("a", "b", inf)])
        with pytest.raises(GraphFKError, match=r"m\(1\) = inf"):
            build_graph([("a", "b", 1.0)], measure=[("b", inf)])
        with pytest.raises(GraphFKError, match=r"b\(1,2\) = -inf"):
            WeightedGraph(("a", "b", "c"), [(0, 1), (1, 2)], [1.0, -inf],
                          np.ones(3))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2)], "self-loop at index 2"),
        ([(0, 1), (1, 3)], r"edge \(1,3\) out of range"),
        ([(0, 1), (-1, 2)], r"edge \(-1,2\) out of range"),
        ([(0, 1), (2, 1)], r"edge \(2,1\) not stored as i < j"),
        ([(1, 2), (0, 1), (1, 2)], r"edge \(1,2\) stored twice"),
    ])
    def test_edge_arrays_checked(self, edges, message):
        with pytest.raises(GraphFKError, match=message):
            WeightedGraph(("a", "b", "c"), edges, np.ones(len(edges)),
                          np.ones(3))

    def test_weights_one_per_edge(self):
        with pytest.raises(GraphFKError, match="2 edges and 1 weights"):
            WeightedGraph(("a", "b", "c"), [(0, 1), (1, 2)], [1.0],
                          np.ones(3))

    def test_label_lookup(self):
        # the first occurrence, as tuple.index finds it
        g = WeightedGraph(("a", "b", "a"), [], [], np.ones(3))
        assert [g.index(lab) for lab in ("a", "b")] == [0, 1]
        for label in ("c", ["a"]):
            with pytest.raises(GraphFKError, match="unknown vertex label"):
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
        # the oracle that test_spectral's positivity precondition reads
        assert brute_force_connected(build_graph([("a", "b", 1.0)]))
        assert not brute_force_connected(
            build_graph([("a", "b", 1.0), ("c", "d", 1.0)]))
        assert brute_force_connected(generate("cycle", n=5))


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
        assert brute_force_connected(g)

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

    @pytest.mark.parametrize("family, key, sizes", [
        ("path", "n", (1, 2, 5, 40)),
        ("cycle", "n", (3, 4, 7, 40)),
        ("star", "leaves", (1, 2, 9, 40)),
        ("complete", "n", (2, 3, 6, 40))])
    def test_families_match_the_label_construction(self, monkeypatch,
                                                   family, key, sizes):
        # the label strings through build_graph are the oracle; generate
        # builds the index arrays without them
        def labelled(n):
            v = [f"v{i}" for i in range(n)]
            if family == "path":
                return build_graph([(v[i], v[i + 1], 1.0)
                                    for i in range(n - 1)], vertices=v)
            if family == "cycle":
                return build_graph([(v[i], v[(i + 1) % n], 1.0)
                                    for i in range(n)])
            if family == "star":
                return build_graph([("c", f"l{i}", 1.0) for i in range(n)])
            return build_graph([(v[i], v[j], 1.0) for i in range(n)
                                for j in range(i + 1, n)])

        want = [labelled(n) for n in sizes]
        monkeypatch.setattr(graphs, "build_graph", None)
        for n, h in zip(sizes, want):
            g = generate(family, **{key: n})
            assert g.labels == h.labels
            for a, b in ((g.edges, h.edges), (g.weights, h.weights),
                         (g.measure, h.measure)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_bad_params(self):
        with pytest.raises(GraphFKError, match="cycle needs n >= 3"):
            generate("cycle", n=1)
        with pytest.raises(GraphFKError, match="lattice_box needs l >= 1"):
            generate("lattice_box", l=0, side=3)
        with pytest.raises(GraphFKError, match="unknown family 'nonsense'"):
            generate("nonsense")
        with pytest.raises(GraphFKError,
                           match="path takes integer parameters"):
            generate("path", n="x")

