import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    MagneticPotential,
    Potential,
    connection_from_magnetic,
    decompose_potential,
    spectral_floor,
    validate_connection,
)
from graphfk.errors import MissingEdgePhase, NonHermitian
from graphfk.graphs import build_graph, generate

from conftest import random_connection, random_potential


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


class TestMagnetic:
    def test_zero_phase_gives_identity(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): 0.0})
        c = connection_from_magnetic(theta)
        assert c.matrix(0, 1)[0, 0] == pytest.approx(1.0)
        assert c.matrix(1, 0)[0, 0] == pytest.approx(1.0)

    def test_quarter_turn(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): np.pi / 2})
        c = connection_from_magnetic(theta)
        assert c.matrix(0, 1)[0, 0] == pytest.approx(1j)
        assert c.matrix(1, 0)[0, 0] == pytest.approx(-1j)

    def test_half_turn_endpoint(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): np.pi})
        c = connection_from_magnetic(theta)
        assert c.matrix(0, 1)[0, 0] == pytest.approx(-1.0)
        assert c.matrix(1, 0)[0, 0] == pytest.approx(-1.0)

    def test_half_turn_is_exactly_minus_one(self, edge_graph):
        for ph in (np.pi, -np.pi):
            c = connection_from_magnetic(
                MagneticPotential(edge_graph, {(0, 1): ph}))
            assert c.matrix(0, 1)[0, 0] == -1.0
            assert c.matrix(1, 0)[0, 0] == -1.0

    def test_pi_endpoints_coincide(self, edge_graph):
        cp = connection_from_magnetic(
            MagneticPotential(edge_graph, {(0, 1): np.pi}))
        cm = connection_from_magnetic(
            MagneticPotential(edge_graph, {(0, 1): -np.pi}))
        assert cp.matrix(0, 1)[0, 0] == pytest.approx(cm.matrix(0, 1)[0, 0])

    def test_antisymmetric_view(self, edge_graph):
        theta = MagneticPotential(edge_graph, {(0, 1): 0.7})
        assert theta.phase(1, 0) == -theta.phase(0, 1)

    def test_missing_phase(self, edge_graph):
        with pytest.raises(MissingEdgePhase):
            MagneticPotential(edge_graph, {})

    def test_output_always_validates(self, rng):
        g = generate("cycle", n=6)
        phases = {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges}
        c = connection_from_magnetic(MagneticPotential(g, phases))
        assert validate_connection(c, g).ok


class TestValidateConnection:
    def test_identity_clean(self):
        g = generate("cycle", n=4)
        report = validate_connection(Connection.identity(g, 2), g)
        assert report.ok

    def test_nonunitary_flagged(self, edge_graph):
        c = Connection(2, {(0, 1): np.diag([1.0, 2.0]).astype(complex)})
        report = validate_connection(c, edge_graph)
        kinds = {v[1] for v in report.violations}
        assert "unitarity" in kinds
        assert report.max_deviation >= 1.0

    def test_wrong_reverse_flagged(self, edge_graph):
        a = np.pi / 3
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]],
                       dtype=complex)
        # reverse set to the forward matrix instead of its inverse
        c = Connection(2, {(0, 1): rot, (1, 0): rot})
        report = validate_connection(c, edge_graph)
        kinds = {v[1] for v in report.violations}
        assert "inverse-symmetry" in kinds

    def test_missing_edge_flagged(self):
        g = generate("path", n=3)
        c = Connection(1, {(0, 1): np.eye(1, dtype=complex)})
        report = validate_connection(c, g)
        assert any(v[1] == "missing" for v in report.violations)


class TestSpectralFloor:
    def test_diagonal(self):
        V = Potential(2, np.diag([2.0, -1.0])[None].astype(complex))
        assert spectral_floor(V).as_scalar()[0] == pytest.approx(-1.0)

    def test_swap_matrix(self):
        V = Potential(2, np.array([[[0, 1], [1, 0]]], dtype=complex))
        assert spectral_floor(V).as_scalar()[0] == pytest.approx(-1.0)

    def test_scalar_passthrough(self):
        V = Potential.scalar([3.0, -2.0])
        assert np.allclose(spectral_floor(V).as_scalar(), [3.0, -2.0])

    def test_lower_bound_semantics(self, rng):
        g = generate("cycle", n=4)
        V = random_potential(g, 3, rng)
        w = spectral_floor(V).as_scalar()
        for i in range(g.n):
            for _ in range(20):
                u = rng.normal(size=3) + 1j * rng.normal(size=3)
                u /= np.linalg.norm(u)
                assert np.vdot(u, V.values[i] @ u).real >= w[i] - 1e-10


class TestDecompose:
    def test_diagonal_split(self):
        V = Potential(2, np.diag([2.0, -1.0])[None].astype(complex))
        plus, minus = decompose_potential(V)
        assert np.allclose(plus.values[0], np.diag([2.0, 0.0]))
        assert np.allclose(minus.values[0], np.diag([0.0, 1.0]))

    def test_nonnegative_has_zero_minus(self):
        V = Potential(2, np.diag([1.0, 3.0])[None].astype(complex))
        _plus, minus = decompose_potential(V)
        assert np.allclose(minus.values, 0.0)

    def test_swap_matrix_projections(self):
        V = Potential(2, np.array([[[0, 1], [1, 0]]], dtype=complex))
        plus, minus = decompose_potential(V)
        e_plus = np.array([1, 1]) / np.sqrt(2)
        e_minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(plus.values[0], np.outer(e_plus, e_plus))
        assert np.allclose(minus.values[0], np.outer(e_minus, e_minus))
        assert np.allclose(plus.values[0] @ minus.values[0], 0.0, atol=1e-10)

    def test_properties_random(self, rng):
        g = generate("cycle", n=5)
        V = random_potential(g, 3, rng)
        plus, minus = decompose_potential(V)
        for i in range(g.n):
            P, M, A = plus.values[i], minus.values[i], V.values[i]
            assert np.allclose(P - M, A, atol=1e-10)
            assert np.linalg.eigvalsh(P)[0] >= -1e-10
            assert np.linalg.eigvalsh(M)[0] >= -1e-10
            assert np.allclose(P @ M, 0.0, atol=1e-10)
            assert np.allclose(P @ A - A @ P, 0.0, atol=1e-9)
            assert np.allclose(M @ A - A @ M, 0.0, atol=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            Potential(2, np.array([[[0, 1], [0, 0]]], dtype=complex))


class TestConnectionStorage:
    def test_reverse_is_inverse_by_construction(self, rng):
        g = generate("cycle", n=4)
        c = random_connection(g, 3, rng)
        for (i, j) in g.edges:
            F = c.matrix(i, j)
            R = c.matrix(j, i)
            assert np.allclose(R @ F, np.eye(3), atol=1e-10)
