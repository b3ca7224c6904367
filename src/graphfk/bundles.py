"""Hermitian vector bundles over a graph: connections and potentials.

Fibers are the standard nu-dimensional complex space with the standard
Hermitian product (conjugate-linear in the second argument).  A unitary
connection assigns to each directed edge (i, j) a unitary nu x nu matrix
mapping the fiber at i to the fiber at j; only one direction per edge is
stored and the reverse is synthesized as the conjugate transpose, so the
inverse-symmetry relation is exact by construction for validated inputs.
The scalar case is rank 1, where a connection is a unit-modulus phase
e^{i theta} with theta an antisymmetric magnetic potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingEdgeMatrix, MissingEdgePhase, NonHermitian
from .graphs import WeightedGraph

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Connection:
    """Unitary connection: stored matrices over directed edges.

    ``matrices`` maps directed pairs (i, j) to Phi_{i,j} : F_i -> F_j.
    Normally only one direction per edge is stored; the reverse is
    synthesized as the conjugate transpose (= inverse for unitaries).
    Storing both directions is allowed so that diagnostics can flag
    inconsistent inputs.
    """

    rank: int
    matrices: dict

    def matrix(self, i, j):
        """Phi_{i,j} as a nu x nu complex array."""
        M = self.matrices.get((i, j))
        if M is None:
            M = self.matrices.get((j, i))
            M = None if M is None else M.conj().T
        if M is None:
            raise MissingEdgeMatrix(f"no connection matrix for edge ({i},{j})")
        return M

    def has_edge(self, i, j):
        return (i, j) in self.matrices or (j, i) in self.matrices

    @staticmethod
    def identity(g: WeightedGraph, rank: int = 1) -> "Connection":
        eye = np.eye(rank, dtype=complex)
        return Connection(rank, {key: eye for key in g.edges})


@dataclass(frozen=True)
class MagneticPotential:
    """Antisymmetric edge phase theta in [-pi, pi], stored once per edge."""

    graph: WeightedGraph
    phases: dict

    def __post_init__(self):
        for key in self.graph.edges:
            if key not in self.phases:
                raise MissingEdgePhase(f"no phase for edge {key}")

    def phase(self, i, j):
        """theta(i, j); the reverse orientation is the negated view."""
        if i < j:
            return self.phases[(i, j)]
        return -self.phases[(j, i)]


@dataclass(frozen=True)
class Potential:
    """Fiberwise Hermitian potential: one nu x nu matrix per vertex.

    ``values`` is float64 when no entry has an imaginary part, so a real
    potential scales and assembles in real arithmetic.
    """

    rank: int
    values: np.ndarray  # shape (n, rank, rank), float64 or complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 3 or vals.shape[1:] != (self.rank, self.rank):
            raise NonHermitian(
                f"potential values must have shape (n, {self.rank}, {self.rank})"
            )
        dev = np.abs(vals - vals.conj().transpose(0, 2, 1)).max(initial=0.0)
        scale = np.abs(vals).max(initial=0.0)
        if dev > 1e-12 * (1.0 + scale):
            raise NonHermitian(f"potential not Hermitian (deviation {dev:.3e})")
        if not vals.imag.any():
            vals = vals.real.copy()
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.values.shape[0]

    @staticmethod
    def scalar(values) -> "Potential":
        """Rank-1 potential from a real vector."""
        return Potential(1, np.asarray(values, dtype=float).reshape(-1, 1, 1))

    def scaled(self, hbar) -> "Potential":
        """V / hbar, in the arithmetic of the stored values."""
        return Potential(self.rank, self.values / hbar)

    def as_scalar(self):
        """Real vertex values of a rank-1 potential."""
        if self.rank != 1:
            raise NonHermitian("not a scalar potential")
        return self.values[:, 0, 0].real.copy()


@dataclass
class ValidationReport:
    """Diagnostic list of connection violations; empty means valid."""

    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    @property
    def max_deviation(self):
        return max((v[2] for v in self.violations), default=0.0)


def connection_from_magnetic(theta: MagneticPotential) -> Connection:
    """Rank-1 connection Phi_{i,j} = e^{i theta(i, j)}.

    theta = +-pi gives exactly -1 (e^{i pi} rounds to -1 + 1.2e-16 i), so
    an operator whose phases are all 0 or +-pi assembles real.
    """
    mats = {
        key: np.array([[-1.0 + 0j if abs(ph) == np.pi else np.exp(1j * ph)]])
        for key, ph in theta.phases.items()
    }
    return Connection(1, mats)


def validate_connection(c: Connection, g: WeightedGraph) -> ValidationReport:
    """Check unitarity and inverse-symmetry of c on every edge of g.

    Returns a diagnostic report; never raises.  Entries are
    (edge, kind, deviation) with kind in {"missing", "unitarity",
    "inverse-symmetry"}.
    """
    report = ValidationReport()
    eye = np.eye(c.rank)
    for key in g.edges:
        if not c.has_edge(*key):
            report.violations.append((key, "missing", float("inf")))
            continue
        M = c.matrix(*key)
        dev = np.linalg.norm(M.conj().T @ M - eye, ord=2)
        if dev > UNITARITY_TOL:
            report.violations.append((key, "unitarity", float(dev)))
        # When both orientations were supplied explicitly, check that the
        # reverse really is the inverse; stored-once inputs satisfy this
        # by construction.
        if key in c.matrices and (key[1], key[0]) in c.matrices:
            rev = c.matrices[(key[1], key[0])]
            dev2 = np.linalg.norm(rev @ M - eye, ord=2)
            if dev2 > UNITARITY_TOL:
                report.violations.append((key, "inverse-symmetry", float(dev2)))
    return report


def _check_hermitian(V: Potential):
    # Potential.__post_init__ already enforces Hermiticity; re-validate in
    # case callers hand in raw arrays.
    if not isinstance(V, Potential):
        raise NonHermitian("expected a Potential")


def spectral_floor(V: Potential) -> Potential:
    """Scalar potential w(i) = min spec(V(i)); identity on rank 1."""
    _check_hermitian(V)
    if V.rank == 1:
        return Potential.scalar(V.as_scalar())
    return Potential.scalar(np.linalg.eigvalsh(V.values)[:, 0])


def decompose_potential(V: Potential):
    """Fiberwise spectral split V = V_plus - V_minus with V_pm >= 0."""
    _check_hermitian(V)
    lam, U = np.linalg.eigh(V.values)
    Uh = U.conj().swapaxes(1, 2)
    plus = (U * np.clip(lam, 0.0, None)[:, None]) @ Uh
    minus = (U * np.clip(-lam, 0.0, None)[:, None]) @ Uh
    return Potential(V.rank, plus), Potential(V.rank, minus)
