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
    build_graph,
    degrees,
    generate,
    is_connected,
    restrict,
)

from conftest import random_graph


def brute_force_connected(g):
    """Transitive-closure oracle."""
    n = g.n
    reach = np.eye(n, dtype=bool) | (g.adjacency() > 0)
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

    def test_label_lookup(self):
        # the first occurrence, as tuple.index finds it
        g = WeightedGraph(("a", "b", "a"), {}, np.ones(3))
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
            B = g.adjacency()
            assert np.allclose(d.deg_1, B.sum(axis=1), rtol=1e-12, atol=0)
            assert np.allclose(d.deg_m * g.measure, d.deg_1, rtol=1e-12, atol=0)


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
        for (i, j), w in g.edges.items():
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
        assert sub.edges == g.edges
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
            assert via_a.edges == direct.edges

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
