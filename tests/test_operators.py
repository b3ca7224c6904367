import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    Potential,
    connection_from_magnetic,
)
from graphfk.errors import DimensionCap, InvalidConnection, RankMismatch
from graphfk.graphs import build_graph, degrees, generate
from graphfk.operators import DIMENSION_CAP, assemble, resolve, symmetrize

from conftest import (
    apply_formal,
    dense_weights,
    quadratic_form,
    random_connection,
    random_graph,
    random_section,
)


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
        c = connection_from_magnetic([np.pi])
        A = assemble(edge_graph, c).matrix
        assert np.allclose(A, [[1, 1], [1, 1]])
        assert np.allclose(np.linalg.eigvalsh(A.real), [0.0, 2.0])

    def test_rank_mismatch(self, edge_graph):
        c = Connection.identity(edge_graph, 2)
        with pytest.raises(RankMismatch):
            assemble(edge_graph, c, Potential.scalar([0.0, 1.0]))

    def test_dimension_cap(self):
        # n = 4225 > DIMENSION_CAP; refused before the matrix is allocated
        g = generate("lattice_box", l=2, side=65)
        assert g.n > DIMENSION_CAP
        with pytest.raises(DimensionCap, match="4225"):
            assemble(g)


class TestResolve:
    def test_arcs_follow_directed_edges(self, rng):
        g = random_graph(rng, max_n=7)
        c = random_connection(g, 2, rng)
        p = resolve(g, c)
        arcs = list(zip(p.src.tolist(), p.dst.tolist(), p.w.tolist()))
        # edge k = (i, j) is arc 2k, i -> j, and arc 2k + 1, j -> i
        assert arcs == [arc for (i, j), w in zip(g.edges.tolist(),
                                                 g.weights.tolist())
                        for arc in ((i, j, w), (j, i, w))]
        for e, (i, j, _w) in enumerate(arcs):
            M = c.matrices[e // 2]
            assert np.array_equal(p.phi[e], M.conj().T if e % 2 else M)
            assert (p.src[e ^ 1], p.dst[e ^ 1]) == (j, i)

    def test_defaults_and_modes(self, edge_graph):
        p = resolve(edge_graph)
        assert p.mode == "scalar" and p.rank == 1
        assert np.array_equal(p.potential.values, np.zeros((2, 1, 1)))
        assert p.phi.dtype == p.potential.values.dtype == np.float64
        assert resolve(edge_graph, connection_from_magnetic([0.3])).mode == \
            "magnetic"
        p2 = resolve(edge_graph, Connection.identity(edge_graph, 2))
        assert (p2.mode, p2.rank) == ("covariant", 2)
        assert p2.potential.values.shape == (2, 2, 2)
        V2 = Potential(2, np.zeros((2, 2, 2)))
        assert resolve(edge_graph, None, V2).mode == "covariant"

    def test_rejects_missing_edge_and_wrong_size(self, edge_graph):
        with pytest.raises(InvalidConnection):
            resolve(edge_graph, Connection(1, np.zeros((0, 1, 1))))
        with pytest.raises(InvalidConnection):
            resolve(edge_graph, Connection(1, np.ones((2, 1, 1))))
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
        B = dense_weights(g)
        for x in range(g.n):
            if x != z:
                assert out[x] == pytest.approx(
                    -B[x, z] / g.measure[x], abs=1e-12)

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
        c = connection_from_magnetic([np.pi])
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


def free_norm(g):
    """||H_0||, the largest-magnitude eigenvalue of the free scalar
    operator."""
    return float(np.abs(np.linalg.eigvalsh(symmetrize(assemble(g)))).max())


class TestDegreeBound:
    """||H_0|| <= 2 C(b, m), C(b, m) = max deg_m."""

    def test_single_edge(self, edge_graph):
        assert degrees(edge_graph).c_bm == 1.0
        assert free_norm(edge_graph) == pytest.approx(2.0)

    def test_path3(self):
        g = generate("path", n=3)
        assert degrees(g).c_bm == 2.0
        assert free_norm(g) <= 2 * degrees(g).c_bm + 1e-9
        lam = np.linalg.eigvalsh(assemble(g).matrix.real)
        assert np.allclose(lam, [0.0, 1.0, 3.0])

    def test_measure_scaling(self, edge_graph):
        scaled = build_graph([("a", "b", 1.0)],
                             measure=[("a", 0.1), ("b", 0.1)])
        assert degrees(scaled).c_bm == pytest.approx(
            10 * degrees(edge_graph).c_bm)
        assert free_norm(scaled) == pytest.approx(10 * free_norm(edge_graph))

    def test_norm_bound_random(self, rng):
        for _ in range(25):
            g = random_graph(rng, max_n=9, connected=False)
            assert free_norm(g) <= 2 * degrees(g).c_bm + 1e-9


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
        phases = rng.uniform(-np.pi, np.pi, len(g.edges))
        c = connection_from_magnetic(phases)
        A = assemble(g, c).matrix
        deg_m = np.array([2.0] * 5)
        # theta(y, x) = -theta(x, y), given on edge (i, j) as theta(i, j)
        theta = np.zeros((5, 5))
        theta[tuple(g.edges.T)] = phases
        theta -= theta.T
        B = dense_weights(g)
        for x in range(5):
            assert A[x, x] == pytest.approx(deg_m[x])
            for y in range(5):
                if x != y and B[x, y] > 0:
                    expect = -(B[x, y] / g.measure[x]) * np.exp(
                        1j * theta[y, x])
                    assert A[x, y] == pytest.approx(expect)

    @pytest.mark.parametrize("l,side", [(1, 4), (2, 3)])
    def test_lattice_stencil(self, l, side):
        g = generate("lattice_box", l=l, side=side)
        A = assemble(g).matrix.real
        B = dense_weights(g)
        stencil = np.diag(B.sum(axis=1)) - B
        assert np.allclose(A, stencil, atol=0)
