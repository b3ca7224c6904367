"""Hermitian vector bundles over a graph: connections and potentials.

Fibers are the standard nu-dimensional complex space with the standard
Hermitian product (conjugate-linear in the second argument).  A unitary
connection assigns to each directed edge (i, j) a unitary nu x nu matrix
mapping the fiber at i to the fiber at j.  It is stored once per edge,
as an (E, nu, nu) array aligned with the edges of the graph
(``graphs.WeightedGraph``): entry e is Phi_{i,j} for edge e = (i, j),
i < j, and the reverse Phi_{j,i} is its conjugate transpose, so the
inverse-symmetry relation is exact by construction for validated inputs.
The scalar case is rank 1, where a connection is a unit-modulus phase
e^{i theta} with theta an antisymmetric magnetic potential.

``validate_connection`` lists the edges whose transport is not unitary
within ``UNITARITY_TOL``; the CLI refuses a connection with any.  A
malformed connection or potential raises ``errors.GraphFKError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphFKError
from .graphs import WeightedGraph

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Connection:
    """Unitary connection: one transport per edge, shape (E, rank, rank).

    ``matrices[e]`` is Phi_{i,j} : F_i -> F_j for edge e = (i, j) of the
    graph, in its edge order; Phi_{j,i} is its conjugate transpose (=
    inverse for unitaries).
    """

    rank: int
    matrices: np.ndarray

    @staticmethod
    def identity(g: WeightedGraph, rank: int = 1) -> "Connection":
        eye = np.eye(rank, dtype=complex)
        return Connection(rank, np.broadcast_to(eye, (len(g.edges), rank, rank)))

    def aligned(self, g: WeightedGraph) -> np.ndarray:
        """``matrices`` as a complex array, checked to hold one transport
        per edge of g."""
        P = np.asarray(self.matrices, dtype=complex)
        if P.shape != (len(g.edges), self.rank, self.rank):
            raise GraphFKError(
                f"connection matrices of shape {P.shape}, not one "
                f"{self.rank} x {self.rank} transport per edge of "
                f"{len(g.edges)}")
        return P


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
            raise GraphFKError(
                f"potential values must have shape (n, {self.rank}, {self.rank})"
            )
        if not np.isfinite(vals).all():
            raise GraphFKError("potential values must be finite")
        dev = np.abs(vals - vals.conj().transpose(0, 2, 1)).max(initial=0.0)
        scale = np.abs(vals).max(initial=0.0)
        if dev > 1e-12 * (1.0 + scale):
            raise GraphFKError(f"potential not Hermitian (deviation {dev:.3e})")
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
            raise GraphFKError("not a scalar potential")
        return self.values[:, 0, 0].real.copy()


def connection_from_magnetic(theta) -> Connection:
    """Rank-1 connection Phi_{i,j} = e^{i theta(i, j)} from the phases
    theta, one per edge (i, j) in edge order.

    theta = +-pi gives exactly -1 (e^{i pi} rounds to -1 + 1.2e-16 i), so
    an operator whose phases are all 0 or +-pi assembles real.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1, 1, 1)
    return Connection(1, np.where(np.abs(theta) == np.pi, -1.0 + 0j,
                                  np.exp(1j * theta)))


def distance_to_identity(P) -> np.ndarray:
    """||P_k - I||_2 for a stack of square matrices P, shape (k,); NaN
    where P_k has a non-finite entry, on which the norm's SVD would fail
    to converge."""
    dev = np.full(len(P), np.nan)
    finite = np.isfinite(P).all(axis=(1, 2))
    dev[finite] = np.linalg.norm(P[finite] - np.eye(P.shape[1]), ord=2,
                                 axis=(1, 2))
    return dev


def validate_connection(c: Connection, g: WeightedGraph):
    """Check the unitarity of c on every edge of g.

    Returns the violations, entries (edge, "unitarity", deviation) in
    edge order, where the deviation is ||Phi^* Phi - I||_2 (NaN for a
    non-finite transport), and the largest deviation over all edges.
    Raises GraphFKError only when c does not hold one transport per edge
    of g.
    """
    P = c.aligned(g)
    dev = distance_to_identity(P.conj().swapaxes(1, 2) @ P)
    bad = np.flatnonzero(~(dev <= UNITARITY_TOL))  # NaN fails it too
    return ([(tuple(g.edges[e].tolist()), "unitarity", float(dev[e]))
             for e in bad], float(dev.max(initial=0.0)))
