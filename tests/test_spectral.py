import numpy as np
import pytest

from graphfk.bundles import (
    Connection,
    MagneticPotential,
    Potential,
    connection_from_magnetic,
)
from graphfk.errors import BadCoefficients
from graphfk.graphs import build_graph, generate, is_connected
from graphfk.operators import OperatorMatrix, assemble, symmetrize
from graphfk.spectral import (
    SpectralDecomposition,
    eigendecompose,
    eigenvalues,
    heat_kernel,
    kato_functional,
    kernel_trace,
    partition_function,
    propagator,
    relative_form_bound_check,
)

from conftest import random_connection, random_graph, random_potential


@pytest.fixture
def edge_graph():
    return build_graph([("a", "b", 1.0)])


@pytest.fixture
def edge_dec(edge_graph):
    return eigendecompose(assemble(edge_graph))


class TestEigendecompose:
    def test_free_two_vertex(self, edge_dec):
        assert np.allclose(edge_dec.eigenvalues, [0.0, 2.0])

    def test_half_turn(self, edge_graph):
        from graphfk.bundles import MagneticPotential, connection_from_magnetic
        c = connection_from_magnetic(
            MagneticPotential(edge_graph, {(0, 1): np.pi}))
        dec = eigendecompose(assemble(edge_graph, c))
        assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_shifted(self, edge_graph):
        dec = eigendecompose(assemble(edge_graph, None, np.array([0.0, 1.0])))
        expect = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        assert np.allclose(dec.eigenvalues, expect)

    def test_invariants(self, rng):
        g = random_graph(rng, max_n=8)
        c = random_connection(g, 2, rng)
        op = assemble(g, c)
        dec = eigendecompose(op)
        from graphfk.operators import symmetrize
        S = symmetrize(op)
        U, lam = dec.vectors, dec.eigenvalues
        assert np.linalg.norm(S @ U - U * lam) <= 1e-9 * (1 + np.abs(lam).max())
        assert np.allclose(U.conj().T @ U, np.eye(U.shape[0]), atol=1e-10)


class TestRealAndEigenvaluesOnlyRoutes:
    """eigenvalues() and the real solve match a complex eigh of the same S."""

    def _cases(self, rng):
        for _ in range(6):
            g = random_graph(rng, max_n=8)
            w = rng.uniform(-2, 2, size=g.n)
            phases = MagneticPotential(
                g, {key: float(rng.uniform(-np.pi, np.pi)) for key in g.edges})
            half_turn = Connection(
                1, {key: np.array([[-1.0 + 0j]]) for key in g.edges})
            yield "scalar", g, None, w, True
            yield "magnetic", g, connection_from_magnetic(phases), w, False
            yield "half turn", g, half_turn, w, True
            yield ("covariant", g, random_connection(g, 2, rng),
                   random_potential(g, 2, rng), False)

    def test_match_complex_eigh(self, rng):
        for name, g, c, V, real in self._cases(rng):
            op = assemble(g, c, V)
            assert np.isrealobj(op.matrix) == real, name
            reference = OperatorMatrix(g, op.rank, op.matrix.astype(complex),
                                       op.measure)
            lam_ref, U_ref = np.linalg.eigh(symmetrize(reference))
            scale = np.abs(lam_ref).max()
            dec = eigendecompose(op)
            assert np.isrealobj(dec.vectors) == real, name
            for lam in (eigenvalues(op), dec.eigenvalues):
                assert np.abs(lam - lam_ref).max() <= 1e-12 * scale, name
            t = float(rng.uniform(0.1, 2.0))
            want = np.exp(-t * lam_ref).sum()
            got = partition_function(eigenvalues(op), t)
            assert got == pytest.approx(want, rel=1e-12), name
            K_ref = heat_kernel(SpectralDecomposition(
                lam_ref, U_ref, op.measure, op.rank), t).matrix
            K = heat_kernel(dec, t).matrix
            assert np.abs(K - K_ref).max() <= 1e-12 * np.abs(K_ref).max(), name


class TestHeatKernel:
    def test_on_diagonal_value(self, edge_dec):
        K = heat_kernel(edge_dec, 1.0)
        assert K.block(0, 0)[0, 0].real == pytest.approx(
            (1 + np.exp(-2)) / 2, abs=1e-12)

    def test_stochastic_rows(self, edge_dec, edge_graph):
        for t in (0.3, 1.0, 2.5):
            K = heat_kernel(edge_dec, t)
            for x in range(2):
                total = sum(K.block(x, y)[0, 0].real * edge_graph.measure[y]
                            for y in range(2))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_small_time_identity(self, edge_dec):
        K = heat_kernel(edge_dec, 1e-9)
        assert K.block(0, 0)[0, 0].real * 1.0 == pytest.approx(1.0, abs=1e-6)

    def test_positivity_on_connected(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            assert is_connected(g)
            dec = eigendecompose(assemble(g))
            K = heat_kernel(dec, 0.8)
            assert (K.matrix.real > 0).all()

    def test_conservative_random(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=7, connected=False)
            dec = eigendecompose(assemble(g))
            K = heat_kernel(dec, 1.3)
            rowsums = K.matrix.real @ g.measure
            assert np.allclose(rowsums, 1.0, atol=1e-9)

    def test_semigroup_law(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            c = random_connection(g, 2, rng)
            dec = eigendecompose(assemble(g, c))
            s, t = rng.uniform(0.05, 2.0, size=2)
            M = np.repeat(g.measure, 2)
            Ks = heat_kernel(dec, s).matrix
            Kt = heat_kernel(dec, t).matrix
            Kst = heat_kernel(dec, s + t).matrix
            assert np.abs(Ks @ (M[:, None] * Kt) - Kst).max() < 1e-9

    def test_taylor_series_oracle(self, rng):
        # independent oracle: 20-term Taylor series of e^{-tA}
        for _ in range(5):
            g = random_graph(rng, max_n=6)
            op = assemble(g)
            A = op.matrix
            norm = np.linalg.norm(A, 2)
            t = min(1.0 / norm, 1.0)
            series = np.eye(g.n, dtype=complex)
            term = np.eye(g.n, dtype=complex)
            for k in range(1, 21):
                term = term @ (-t * A) / k
                series = series + term
            dec = eigendecompose(op)
            K = heat_kernel(dec, t)
            KM = K.matrix * g.measure[None, :]
            assert np.abs(KM - series).max() < 1e-10


class TestPartitionFunction:
    def test_two_vertex(self, edge_dec):
        assert partition_function(edge_dec.eigenvalues, 1.0) == pytest.approx(
            1 + np.exp(-2), abs=1e-12)

    def test_long_time_single_zero_mode(self, edge_dec):
        assert partition_function(edge_dec.eigenvalues, 60.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_short_time_dimension(self, rng):
        g = random_graph(rng, max_n=6)
        c = random_connection(g, 3, rng)
        dec = eigendecompose(assemble(g, c))
        assert partition_function(dec.eigenvalues, 1e-12) == pytest.approx(
            3 * g.n, rel=1e-9)

    def test_matches_kernel_trace(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            c = random_connection(g, 2, rng)
            dec = eigendecompose(assemble(g, c))
            t = float(rng.uniform(0.1, 2.0))
            assert abs(partition_function(dec.eigenvalues, t)
                       - kernel_trace(dec, t)) < 1e-9

    def test_strictly_decreasing(self, edge_dec):
        values = [partition_function(edge_dec.eigenvalues, t)
                  for t in (0.5, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]

    def test_propagator_consistency(self, edge_dec):
        P = propagator(edge_dec, 1.0)
        assert np.trace(P).real == pytest.approx(1 + np.exp(-2), abs=1e-12)


class TestKato:
    def test_two_vertex_closed_form(self, edge_graph):
        # sup at x = b: int_0^t p(s, b, b) ds = t/2 + (1 - e^{-2t})/4
        for t in (1e-3, 0.0625, 0.5, 1.0, 4.0):
            want = t / 2 + (1 - np.exp(-2 * t)) / 4
            got = kato_functional(edge_graph, [0.0, 1.0], t)
            assert got == pytest.approx(want, rel=1e-13)

    def test_matches_fine_quadrature(self, rng):
        # independent of the eigensolve: composite Simpson over a grid of
        # e^{-sA} |w|, stepped by a Taylor series of e^{-hA}
        for _ in range(3):
            g = random_graph(rng, max_n=7)
            w = rng.uniform(-2, 2, size=g.n)
            A = assemble(g).matrix
            t, steps = 0.8, 4000
            h = t / steps
            step = np.eye(g.n)
            term = np.eye(g.n)
            for k in range(1, 25):
                term = term @ (-h * A) / k
                step = step + term
            f = [np.abs(w)]
            for _k in range(steps):
                f.append(step @ f[-1])
            simpson = np.ones(steps + 1)
            simpson[1:-1:2] = 4.0
            simpson[2:-1:2] = 2.0
            integral = (h / 3.0) * (simpson @ np.array(f))
            assert kato_functional(g, w, t) == pytest.approx(
                integral.max(), rel=1e-11)

    def test_zero_potential(self, edge_graph):
        assert kato_functional(edge_graph, [0.0, 0.0], 1.0) == 0.0

    def test_constant_potential(self, edge_graph):
        for t in (0.5, 1.0, 2.0):
            val = kato_functional(edge_graph, [3.0, 3.0], t)
            assert val == pytest.approx(3.0 * t, rel=1e-6)

    def test_monotone_in_t(self, rng):
        g = random_graph(rng, max_n=6)
        w = rng.uniform(-2, 2, size=g.n)
        v_half = kato_functional(g, w, 0.5)
        v_full = kato_functional(g, w, 1.0)
        assert v_half <= v_full + 1e-9

    def test_needs_positive_t(self, edge_graph):
        with pytest.raises(BadCoefficients):
            kato_functional(edge_graph, [1.0, 1.0], 0.0)


class TestRelativeFormBound:
    def test_zero_minus_part(self, edge_graph):
        V0 = Potential.scalar([0.0, 0.0])
        ok, margin = relative_form_bound_check(edge_graph, None, V0, 0.5, 0.7)
        assert ok
        assert margin == pytest.approx(0.7, abs=1e-10)

    def test_constant_shift(self, edge_graph):
        Vc = Potential.scalar([0.4, 0.4])
        ok, margin = relative_form_bound_check(edge_graph, None, Vc, 0.5, 0.4)
        assert ok and margin >= -1e-10

    def test_too_large_minus_part(self, edge_graph):
        V = Potential.scalar([10.0, 0.0])
        ok, margin = relative_form_bound_check(edge_graph, None, V, 0.5, 0.0)
        assert not ok and margin < 0

    def test_bad_coefficients(self, edge_graph):
        V0 = Potential.scalar([0.0, 0.0])
        with pytest.raises(BadCoefficients):
            relative_form_bound_check(edge_graph, None, V0, 1.5, 0.0)
