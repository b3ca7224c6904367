import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    Potential,
    connection_from_magnetic,
    validate_connection,
)
from graphfk.errors import ConfigError, InvalidConnection, NonHermitian
from graphfk.fileio import connection_from_entries, magnetic_from_entries
from graphfk.graphs import build_graph, generate
from graphfk.operators import resolve

from conftest import random_connection, random_potential, spectral_floor


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


def both_ways(c, g):
    """(Phi_{0,1}, Phi_{1,0}) of the one-edge graph, as resolve sees them."""
    phi = resolve(g, c).phi
    return complex(phi[0, 0, 0]), complex(phi[1, 0, 0])


def matrix_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


class TestMagnetic:
    def test_zero_phase_gives_identity(self, edge_graph):
        c = connection_from_magnetic([0.0])
        forward, reverse = both_ways(c, edge_graph)
        assert forward == pytest.approx(1.0)
        assert reverse == pytest.approx(1.0)

    def test_quarter_turn(self, edge_graph):
        c = connection_from_magnetic([np.pi / 2])
        forward, reverse = both_ways(c, edge_graph)
        assert forward == pytest.approx(1j)
        assert reverse == pytest.approx(-1j)

    def test_half_turn_endpoint(self, edge_graph):
        c = connection_from_magnetic([np.pi])
        forward, reverse = both_ways(c, edge_graph)
        assert forward == pytest.approx(-1.0)
        assert reverse == pytest.approx(-1.0)

    def test_half_turn_is_exactly_minus_one(self, edge_graph):
        for ph in (np.pi, -np.pi):
            c = connection_from_magnetic([ph])
            assert both_ways(c, edge_graph) == (-1.0, -1.0)

    def test_pi_endpoints_coincide(self, edge_graph):
        cp = connection_from_magnetic([np.pi])
        cm = connection_from_magnetic([-np.pi])
        assert cp.matrices[0, 0, 0] == pytest.approx(cm.matrices[0, 0, 0])

    def test_antisymmetric_view(self, edge_graph):
        # an entry on the reverse orientation is the negated phase
        forward = magnetic_from_entries([["a", "b", -0.7]], edge_graph)
        reverse = magnetic_from_entries([["b", "a", 0.7]], edge_graph)
        assert both_ways(reverse, edge_graph) == both_ways(forward, edge_graph)
        assert reverse.matrices[0, 0, 0] == pytest.approx(np.exp(-0.7j))

    def test_missing_phase(self, edge_graph):
        with pytest.raises(ConfigError, match=r"no entry for edge \(a, b\)"):
            magnetic_from_entries([], edge_graph)

    def test_output_always_validates(self, rng):
        g = generate("cycle", n=6)
        c = connection_from_magnetic(rng.uniform(-np.pi, np.pi, len(g.edges)))
        assert validate_connection(c, g).ok


class TestValidateConnection:
    def test_identity_clean(self):
        g = generate("cycle", n=4)
        report = validate_connection(Connection.identity(g, 2), g)
        assert report.ok

    def test_nonunitary_flagged(self, edge_graph):
        c = Connection(2, [np.diag([1.0, 2.0]).astype(complex)])
        report = validate_connection(c, edge_graph)
        kinds = {v[1] for v in report.violations}
        assert "unitarity" in kinds
        assert report.max_deviation >= 1.0

    @pytest.mark.parametrize("both", [False, True])
    def test_nan_matrix_flagged(self, edge_graph, both):
        # the norm's SVD raised LinAlgError on a NaN entry
        M = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        if both:
            # given both ways, the reverse is checked as the entries align
            entries = [["a", "b", matrix_json(M)],
                       ["b", "a", matrix_json(np.eye(2))]]
            with pytest.raises(ConfigError,
                               match="inverse-symmetry .* deviation nan"):
                connection_from_entries(entries, edge_graph)
            return
        report = validate_connection(Connection(2, [M]), edge_graph)
        assert not report.ok
        assert all(np.isnan(v[2]) for v in report.violations)
        assert {v[1] for v in report.violations} == {"unitarity"}

    def test_wrong_reverse_flagged(self, edge_graph):
        a = np.pi / 3
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]],
                       dtype=complex)
        # reverse set to the forward matrix instead of its inverse
        entries = [["a", "b", matrix_json(rot)], ["b", "a", matrix_json(rot)]]
        with pytest.raises(ConfigError, match="inverse-symmetry on edge"):
            connection_from_entries(entries, edge_graph)
        # the true inverse passes, and the forward entry is kept
        entries[1][2] = matrix_json(rot.conj().T)
        c = connection_from_entries(entries, edge_graph)
        assert np.array_equal(c.matrices[0], rot)

    def test_missing_edge_flagged(self):
        g = generate("path", n=3)
        c = Connection(1, [np.eye(1, dtype=complex)])
        with pytest.raises(InvalidConnection, match="per edge of 2"):
            validate_connection(c, g)
        with pytest.raises(ConfigError, match=r"no entry for edge \(v1, v2\)"):
            connection_from_entries([["v0", "v1", 1.0]], g)


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
    """``Potential`` refuses the values that no fiberwise spectral split
    takes: non-Hermitian or non-finite ones."""

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            Potential(2, np.array([[[0, 1], [0, 0]]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN made the Hermiticity deviation NaN, which passed dev > tol
        with pytest.raises(NonHermitian, match="finite"):
            Potential.scalar([0.0, bad])
        with pytest.raises(NonHermitian, match="finite"):
            Potential(2, np.array([[[bad, 0], [0, 1]]], dtype=complex))


class TestConnectionStorage:
    def test_reverse_is_inverse_by_construction(self, rng):
        g = generate("cycle", n=4)
        c = random_connection(g, 3, rng)
        phi = resolve(g, c, random_potential(g, 3, rng)).phi
        for F, R in zip(phi[0::2], phi[1::2]):
            assert np.allclose(R @ F, np.eye(3), atol=1e-10)
