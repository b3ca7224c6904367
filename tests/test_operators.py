import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    MagneticPotential,
    Potential,
    connection_from_magnetic,
)
from graphfk.errors import DimensionCap, InvalidConnection, RankMismatch
from graphfk.graphs import build_graph, generate
from graphfk.operators import (
    apply_formal,
    assemble,
    degree_bound,
    quadratic_form,
    resolve,
    symmetrize,
)

from conftest import random_connection, random_graph, random_section


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


class TestAssemble:
    def test_free_laplacian(self, edge_graph):
        A = assemble(edge_graph).matrix
        assert np.allclose(A, [[1, -1], [-1, 1]])

    def test_with_potential(self, edge_graph):
        A = assemble(edge_graph, None, np.array([0.0, 1.0])).matrix
        assert np.allclose(A, [[1, -1], [-1, 2]])

    def test_half_turn_flips_sign(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): np.pi})
        c = connection_from_magnetic(theta)
        A = assemble(edge_graph, c).matrix
        assert np.allclose(A, [[1, 1], [1, 1]])
        assert np.allclose(np.linalg.eigvalsh(A.real), [0.0, 2.0])

    def test_rank_mismatch(self, edge_graph):
        c = Connection.identity(edge_graph, 2)
        with pytest.raises(RankMismatch):
            assemble(edge_graph, c, Potential.scalar([0.0, 1.0]))

    def test_dimension_cap(self):
        g = generate("path", n=5)
        with pytest.raises(DimensionCap):
            assemble(g, cap=4)


class TestResolve:
    def test_arcs_follow_directed_edges(self, rng):
        g = random_graph(rng, max_n=7)
        c = random_connection(g, 2, rng)
        p = resolve(g, c)
        arcs = list(zip(p.src.tolist(), p.dst.tolist(), p.w.tolist()))
        assert arcs == list(g.directed_edges())
        for e, (i, j, _w) in enumerate(arcs):
            assert np.array_equal(p.phi[e], c.matrix(i, j))
            assert (p.src[e ^ 1], p.dst[e ^ 1]) == (j, i)

    def test_defaults_and_modes(self, edge_graph):
        p = resolve(edge_graph)
        assert p.mode == "scalar" and p.rank == 1
        assert np.array_equal(p.potential.values, np.zeros((2, 1, 1)))
        assert p.phi.dtype == p.potential.values.dtype == np.float64
        theta = MagneticPotential(edge_graph, {(0, 1): 0.3})
        assert resolve(edge_graph, connection_from_magnetic(theta)).mode == \
            "magnetic"
        p2 = resolve(edge_graph, Connection.identity(edge_graph, 2))
        assert (p2.mode, p2.rank) == ("covariant", 2)
        assert p2.potential.values.shape == (2, 2, 2)
        V2 = Potential(2, np.zeros((2, 2, 2)))
        assert resolve(edge_graph, None, V2).mode == "covariant"

    def test_rejects_missing_edge_and_wrong_size(self, edge_graph):
        with pytest.raises(InvalidConnection):
            resolve(edge_graph, Connection(1, {}))
        with pytest.raises(RankMismatch):
            resolve(edge_graph, None, [0.0, 1.0, 2.0])


class TestApplyFormal:
    def test_constants_harmonic(self):
        g = generate("cycle", n=5)
        f = np.ones(5)
        assert np.allclose(apply_formal(g, None, None, f), 0.0, atol=1e-12)

    def test_matches_first_column(self, edge_graph):
        out = apply_formal(edge_graph, None, None, np.array([1.0, 0.0]))
        assert np.allclose(out[:, 0], [1.0, -1.0])

    def test_indicator_formula(self, rng):
        g = random_graph(rng, max_n=7)
        z = int(rng.integers(0, g.n))
        f = np.zeros(g.n)
        f[z] = 1.0
        out = apply_formal(g, None, None, f)[:, 0]
        for x in range(g.n):
            if x != z:
                assert out[x] == pytest.approx(
                    -g.weight(x, z) / g.measure[x], abs=1e-12)

    def test_agrees_with_matrix(self, rng):
        for nu in (1, 2, 3):
            g = random_graph(rng, max_n=6)
            c = random_connection(g, nu, rng)
            f = random_section(rng, g.n, nu)
            op = assemble(g, c)
            direct = (op.matrix @ f.reshape(-1)).reshape(g.n, nu)
            assert np.allclose(apply_formal(g, c, None, f), direct, atol=1e-12)


class TestQuadraticForm:
    def test_constants_vanish(self):
        g = generate("cycle", n=4)
        f = np.ones(4)
        assert abs(quadratic_form(g, None, f, f)) < 1e-12

    def test_single_edge_value(self, edge_graph):
        f = np.array([1.0, 0.0])
        assert quadratic_form(edge_graph, None, f, f).real == pytest.approx(1.0)

    def test_half_turn_value(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): np.pi})
        c = connection_from_magnetic(theta)
        f = np.array([1.0, 1.0])
        assert quadratic_form(edge_graph, c, f, f).real == pytest.approx(4.0)

    def test_greens_formula(self, rng):
        for _ in range(25):
            nu = int(rng.integers(1, 4))
            g = random_graph(rng, max_n=10)
            c = random_connection(g, nu, rng)
            f1 = random_section(rng, g.n, nu)
            f2 = random_section(rng, g.n, nu)
            Q = quadratic_form(g, c, f1, f2)
            Hf1 = apply_formal(g, c, None, f1)
            ip = complex(np.sum(np.conj(f2) * Hf1 * g.measure[:, None]))
            assert abs(Q - ip) < 1e-10 * (1 + abs(Q))

    def test_nonnegative(self, rng):
        for _ in range(20):
            nu = int(rng.integers(1, 4))
            g = random_graph(rng, max_n=8)
            c = random_connection(g, nu, rng)
            f = random_section(rng, g.n, nu)
            q = quadratic_form(g, c, f, f)
            norm2 = float(np.sum(np.abs(f) ** 2 * g.measure[:, None]))
            assert q.real >= -1e-12 * norm2
            assert abs(q.imag) < 1e-10 * (1 + q.real)

    def test_diamagnetic(self, rng):
        for _ in range(30):
            nu = int(rng.integers(1, 4))
            g = random_graph(rng, max_n=8)
            c = random_connection(g, nu, rng)
            f = random_section(rng, g.n, nu)
            q_cov = quadratic_form(g, c, f, f).real
            absf = np.linalg.norm(f, axis=1)
            q_scal = quadratic_form(g, None, absf, absf).real
            assert q_cov >= q_scal - 1e-10


class TestDegreeBound:
    def test_single_edge(self, edge_graph):
        c_bm, bound, observed = degree_bound(edge_graph)
        assert (c_bm, bound) == (1.0, 2.0)
        assert observed == pytest.approx(2.0)

    def test_path3(self):
        g = generate("path", n=3)
        c_bm, bound, observed = degree_bound(g)
        assert (c_bm, bound) == (2.0, 4.0)
        assert observed <= bound + 1e-9
        lam = np.linalg.eigvalsh(assemble(g).matrix.real)
        assert np.allclose(lam, [0.0, 1.0, 3.0])

    def test_measure_scaling(self, edge_graph):
        scaled = build_graph([("a", "b", 1.0)],
                             measure=[("a", 0.1), ("b", 0.1)])
        c1, _b1, o1 = degree_bound(edge_graph)
        c2, _b2, o2 = degree_bound(scaled)
        assert c2 == pytest.approx(10 * c1)
        assert o2 == pytest.approx(10 * o1)

    def test_norm_bound_random(self, rng):
        for _ in range(25):
            g = random_graph(rng, max_n=9, connected=False)
            c_bm, bound, observed = degree_bound(g)
            assert observed <= bound + 1e-9


class TestSymmetrize:
    def test_unit_measure_identity(self, edge_graph):
        op = assemble(edge_graph)
        assert np.allclose(symmetrize(op), op.matrix)

    def test_explicit_conjugation(self):
        g = build_graph([("a", "b", 1.0)], measure=[("b", 4.0)])
        op = assemble(g)
        assert np.allclose(op.matrix, [[1, -1], [-0.25, 0.25]])
        assert np.allclose(symmetrize(op), [[1, -0.5], [-0.5, 0.25]])

    def test_spectrum_preserved(self, rng):
        for _ in range(10):
            nu = int(rng.integers(1, 4))
            g = random_graph(rng, max_n=7)
            c = random_connection(g, nu, rng)
            op = assemble(g, c)
            lam_a = np.sort(np.linalg.eigvals(op.matrix).real)
            lam_s = np.linalg.eigvalsh(symmetrize(op))
            assert np.allclose(lam_a, lam_s, atol=1e-9)

    def test_hermitian(self, rng):
        g = random_graph(rng, max_n=8)
        c = random_connection(g, 2, rng)
        S = symmetrize(assemble(g, c))
        assert np.abs(S - S.conj().T).max() < 1e-10


class TestScalarReduction:
    def test_magnetic_coefficients_entrywise(self, rng):
        g = generate("cycle", n=5)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        theta = MagneticPotential(g, phases)
        c = connection_from_magnetic(theta)
        A = assemble(g, c).matrix
        deg_m = np.array([2.0] * 5)
        for x in range(5):
            assert A[x, x] == pytest.approx(deg_m[x])
            for y in range(5):
                if x != y and g.weight(x, y) > 0:
                    expect = -(g.weight(x, y) / g.measure[x]) * np.exp(
                        1j * theta.phase(y, x))
                    assert A[x, y] == pytest.approx(expect)

    @pytest.mark.parametrize("l,side", [(1, 4), (2, 3)])
    def test_lattice_stencil(self, l, side):
        g = generate("lattice_box", l=l, side=side)
        A = assemble(g).matrix.real
        B = g.adjacency()
        stencil = np.diag(B.sum(axis=1)) - B
        assert np.allclose(A, stencil, atol=0)
