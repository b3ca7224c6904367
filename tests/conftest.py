"""Shared randomized-instance helpers for the test suite."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from graphfk.bundles import Connection, Potential
from graphfk.graphs import build_graph


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


def random_unitary(rng, nu):
    z = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_connection(g, nu, rng):
    return Connection(nu, {key: random_unitary(rng, nu) for key in g.edges})


def random_hermitian(rng, nu, scale=1.0):
    z = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    return scale * 0.5 * (z + z.conj().T)


def random_potential(g, nu, rng, scale=1.0):
    vals = np.stack([random_hermitian(rng, nu, scale) for _ in range(g.n)])
    return Potential(nu, vals)


def random_section(rng, n, nu):
    return rng.normal(size=(n, nu)) + 1j * rng.normal(size=(n, nu))


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
