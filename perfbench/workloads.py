"""The four workloads: seeded inputs, the graphfk config, and the check.

Each workload draws its inputs from ``numpy.random.default_rng([base
seed, --seed])``.  The program receives only the generated config with
inline entries; the benchmark keeps the same data as an
``oracles.Problem`` to check the outputs against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

HBAR_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
KATO_GRID = (1.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass(frozen=True)
class Case:
    """One generated operation: config for graphfk, output file, checker."""

    config: dict
    output: str
    check: Callable  # csv text -> (checks, relative stderr or None)
    mc: dict = None  # path-count inputs for the traced run


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    base_seed: int
    # Target stderr of the total, relative to the exact trace, for Monte
    # Carlo workloads; solve_s scales the wall time by (stated relative
    # stderr / target)^2.  None for exact routes.
    target_rel_stderr: float
    make: Callable  # numpy Generator -> Case
    # Time each operation against the reference loop run around it (see
    # README): only where the operation slows with the machine's momentary
    # speed as the loop does.
    clocked: bool = False


def lattice_box(side):
    """The 2-d lattice box as graphfk's lattice_box(l=2) orders it."""
    labels = [f"x{i}_{j}" for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if i + 1 < side:
                edges.append((v, v + side, 1.0))
            if j + 1 < side:
                edges.append((v, v + 1, 1.0))
    return labels, edges


def _scalar_problem(side, w):
    labels, edges = lattice_box(side)
    return oracles.Problem(labels, edges, np.ones(len(labels)),
                           w.reshape(-1, 1, 1).astype(complex))


def _graph(side):
    return {"family": "lattice_box", "l": 2, "side": side}


def _scalar_inline(problem):
    return {"inline": [[lab, float(v)] for lab, v
                       in zip(problem.labels, problem.scalar_potential())]}


def _matrix_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _su2(rng, size):
    """Haar-random SU(2) matrices from normalized Gaussian quaternions."""
    q = rng.standard_normal((size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a = q[:, 0] + 1j * q[:, 1]
    b = q[:, 2] + 1j * q[:, 3]
    return np.stack([np.stack([a, b], -1),
                     np.stack([-b.conj(), a.conj()], -1)], -2)


def _mc_seed(rng):
    return int(rng.integers(1, 2**31))


def make_sweep(rng):
    beta = 1.0
    problem = _scalar_problem(32, rng.uniform(0.0, 2.0, 32 * 32))
    config = {
        "graph": _graph(32),
        "potential": _scalar_inline(problem),
        "params": {"beta": beta, "hbar_schedule": list(HBAR_SCHEDULE),
                   "mode": "scalar"},
    }
    return Case(config, "sweep.csv", lambda text: (
        oracles.check_sweep(text, problem, beta, HBAR_SCHEDULE), None))


def make_fk_jumpy(rng):
    beta, hbar, samples = 2.0, 0.5, 256
    problem = _scalar_problem(32, rng.uniform(0.0, 1.0, 32 * 32))
    seed = _mc_seed(rng)
    config = {
        "graph": _graph(32),
        "potential": _scalar_inline(problem),
        "params": {"beta": beta, "hbar": hbar, "samples": samples,
                   "mode": "scalar", "workers": 1},
        "seed": seed,
    }
    return Case(config, "fk_compare.csv",
                lambda text: oracles.check_fk(text, problem, beta, hbar),
                {"side": 32, "t": beta * hbar, "samples": samples,
                 "seed": seed})


def make_fk_cov(rng):
    beta, hbar, samples, side = 1.0, 0.01, 8192, 8
    labels, edges = lattice_box(side)
    n = len(labels)
    phis = _su2(rng, len(edges))
    rot = _su2(rng, n)
    lam = rng.uniform(0.0, 1.0, (n, 2))
    V = (rot * lam[:, None, :]) @ rot.conj().transpose(0, 2, 1)
    V = 0.5 * (V + V.conj().transpose(0, 2, 1))
    connection = {(i, j): phis[k] for k, (i, j, _b) in enumerate(edges)}
    problem = oracles.Problem(labels, edges, np.ones(n), V, connection)
    seed = _mc_seed(rng)
    config = {
        "graph": _graph(side),
        "connection": {"inline": [[labels[i], labels[j], _matrix_json(phis[k])]
                                  for k, (i, j, _b) in enumerate(edges)]},
        "potential": {"inline": [[lab, _matrix_json(V[x])]
                                 for x, lab in enumerate(labels)]},
        "params": {"beta": beta, "hbar": hbar, "samples": samples,
                   "mode": "covariant", "workers": 1},
        "seed": seed,
    }
    return Case(config, "fk_compare.csv",
                lambda text: oracles.check_fk(text, problem, beta, hbar),
                {"side": side, "t": beta * hbar, "samples": samples,
                 "seed": seed})


def make_kato(rng):
    problem = _scalar_problem(12, rng.uniform(-1.0, 1.0, 12 * 12))
    config = {
        "graph": _graph(12),
        "potential": _scalar_inline(problem),
        "params": {"t_grid": list(KATO_GRID)},
    }
    return Case(config, "kato.csv", lambda text: (
        oracles.check_kato(text, problem, KATO_GRID), None))


WORKLOADS = {w.name: w for w in (
    Workload("sweep_n1024", "sweep", 1024, None, make_sweep),
    Workload("fk_jumpy_n1024", "fk-compare", 2048, 6e-3, make_fk_jumpy),
    Workload("fk_cov_semiclassical", "fk-compare", 4096, 2.5e-4, make_fk_cov,
             clocked=True),
    Workload("kato_n144", "kato", 144, None, make_kato),
)}
