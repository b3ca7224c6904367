"""Shared randomized-instance helpers and independent oracles for the
test suite."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from graphfk.bundles import Connection, Potential
from graphfk.errors import GraphFKError
from graphfk.graphs import build_graph, degrees
from graphfk.operators import _coupling, assemble, resolve
from graphfk.paths import _chunk_moments, _merge_moments
from graphfk.spectral import eigenvalues, heat_kernel, partition_function


def random_graph(rng, max_n=10, min_n=2, connected=True):
    """Random weighted graph: spanning tree plus extra edges.

    Weights b in (0, 2], measure m in (0.1, 2].
    """
    n = int(rng.integers(min_n, max_n + 1))
    labels = [f"v{i}" for i in range(n)]
    edges = []
    seen = set()
    if connected:
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((labels[j], labels[i], float(rng.uniform(1e-6, 2.0))))
            seen.add((j, i))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) in seen:
            continue
        seen.add((i, j))
        edges.append((labels[i], labels[j], float(rng.uniform(1e-6, 2.0))))
    measure = [(lab, float(rng.uniform(0.1, 2.0))) for lab in labels]
    return build_graph(edges, measure=measure, vertices=labels)


def dense_weights(g):
    """Dense symmetric weight matrix B with B[i, j] = b(i, j)."""
    B = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges.tolist(), g.weights.tolist()):
        B[i, j] = B[j, i] = w
    return B


def brute_force_connected(g):
    """Transitive-closure oracle."""
    n = g.n
    reach = np.eye(n, dtype=bool) | (dense_weights(g) > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def transports(g, c):
    """Phi_{i,j} of c for both orientations of every edge, keyed (i, j):
    the stored matrix on edge (i, j), its conjugate transpose on (j, i)."""
    phi = {}
    for (i, j), M in zip(g.edges.tolist(), c.matrices):
        phi[i, j], phi[j, i] = M, M.conj().T
    return phi


def random_unitary(rng, nu):
    z = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_connection(g, nu, rng):
    mats = [random_unitary(rng, nu) for _ in g.edges]
    return Connection(nu, np.reshape(mats, (-1, nu, nu)))


def random_hermitian(rng, nu, scale=1.0):
    z = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    return scale * 0.5 * (z + z.conj().T)


def random_potential(g, nu, rng, scale=1.0):
    vals = np.stack([random_hermitian(rng, nu, scale) for _ in range(g.n)])
    return Potential(nu, vals)


def random_section(rng, n, nu):
    return rng.normal(size=(n, nu)) + 1j * rng.normal(size=(n, nu))


def kernel_trace(dec, t):
    """Trace recomputed as sum_x tr_x K(t,x,x) m(x) (basis independence check)."""
    n, nu = dec.measure.size, dec.rank
    K = heat_kernel(dec, t).reshape(n, nu, n, nu)
    total = 0.0
    for x in range(n):
        total += np.trace(K[x, :, x, :]).real * dec.measure[x]
    return total


def _as_section(f, n, rank):
    f = np.asarray(f, dtype=complex)
    if rank == 1 and f.shape == (n,):
        f = f.reshape(n, 1)
    if f.shape != (n, rank):
        raise GraphFKError(f"section must have shape ({n}, {rank}), "
                           f"got {f.shape}")
    return f


def apply_formal(g, c, V, f):
    """Matrix-free evaluation of the operator on a section (n, nu)."""
    p = resolve(g, c, V)
    f = _as_section(f, g.n, p.rank)
    out = degrees(g).deg_m[:, None] * f
    hop = (_coupling(p) @ f[p.dst][:, :, None])[:, :, 0]
    np.subtract.at(out, p.src, (p.w / g.measure[p.src])[:, None] * hop)
    return out + (p.potential.values @ f[:, :, None])[:, :, 0]


def quadratic_form(g, c, f1, f2):
    """Sesquilinear energy form of the free covariant operator.

    (1/2) sum over ordered neighbor pairs x~y of
    b(x,y) (f1(x) - Phi_{y,x} f1(y), f2(x) - Phi_{y,x} f2(y))_x,
    conjugate-linear in the second argument.
    """
    p = resolve(g, c)
    f1 = _as_section(f1, g.n, p.rank)
    f2 = _as_section(f2, g.n, p.rank)
    P = _coupling(p)
    d1 = f1[p.src] - (P @ f1[p.dst][:, :, None])[:, :, 0]
    d2 = f2[p.src] - (P @ f2[p.dst][:, :, None])[:, :, 0]
    return complex(0.5 * (p.w * np.sum(np.conj(d2) * d1, axis=1)).sum())


def exact_trace(g, c, V, beta, hbar):
    """tr e^{-beta hbar H_{Phi, V/hbar}} from the eigenvalues of the
    assembled operator, V / hbar taken in the arithmetic of V's values."""
    V = resolve(g, c, V).potential
    return partition_function(eigenvalues(assemble(g, c, V.scaled(hbar))),
                              beta * hbar)


def classical_sum(V, beta):
    """sum_x tr_x e^{-beta V(x)} (scalar: sum_x e^{-beta w(x)})."""
    if not isinstance(V, Potential):
        V = Potential.scalar(V)
    return float(np.exp(-beta * np.linalg.eigvalsh(V.values)).sum())


def spectral_floor(V):
    """Scalar potential w(i) = min spec(V(i)); identity on rank 1."""
    if V.rank == 1:
        return Potential.scalar(V.as_scalar())
    return Potential.scalar(np.linalg.eigvalsh(V.values)[:, 0])


def _moments(values_by_chunk):
    """(count, mean, M2) of one sample given in chunks, merged in order."""
    n, mean, m2 = _merge_moments(1, 1, (
        _chunk_moments(np.zeros(v.size, dtype=np.int64), v[:, None])
        for v in values_by_chunk))
    return int(n[0, 0]), float(mean[0, 0]), float(m2[0, 0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_configure(config):
    # Hypothesis caches the constants of local modules in its home
    # directory, ./.hypothesis by default, even without an example
    # database; keep that cache out of the checkout
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)
