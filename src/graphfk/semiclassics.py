"""Semiclassical trace sweeps, Golden-Thompson margins, sandwich bounds.

The quantum partition function tr(e^{-beta hbar H_{Phi, V/hbar}}) is
squeezed, in the scalar nonmagnetic case, between

    sum_x e^{-deg_m(x) beta hbar} e^{-beta w(x)}   (lower)
    sum_x e^{-beta w(x)}                           (upper),

so it converges to the classical partition sum as hbar -> 0+.  For
magnetic and covariant operators only the upper bound is available; the
lower column is still reported (with the fiberwise classical terms
tr_x e^{-beta V(x)} in place of e^{-beta w(x)}) but never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundles import Connection, Potential
from .errors import BadParams
from .graphs import ExhaustionSequence, WeightedGraph, degrees, restrict
from .operators import assemble, resolve
from .spectral import eigenvalues, partition_function
# not called here; kept because perfbench/tracer.py rebinds it
from .spectral import eigendecompose  # noqa: F401


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of a semiclassical sweep over a decreasing hbar schedule.

    The mode is not an input: ``sweep`` derives it from the connection
    and the potential (``operators.Problem.mode``).
    """

    graph: WeightedGraph
    beta: float
    hbar_schedule: tuple
    potential: Potential = None
    connection: Connection = None

    def __post_init__(self):
        if not self.beta > 0:  # NaN fails it too
            raise BadParams("beta must be positive")
        sched = tuple(float(h) for h in self.hbar_schedule)
        if not sched or any(not h > 0 for h in sched):
            raise BadParams("hbar schedule entries must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise BadParams("hbar schedule must be strictly decreasing")
        object.__setattr__(self, "hbar_schedule", sched)


@dataclass
class SweepRow:
    hbar: float
    trace: float
    lower: float
    upper: float
    gap: float


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)
    classical_value: float = 0.0
    converged: bool = False
    gap_ratios: list = field(default_factory=list)

    def to_csv(self):
        lines = ["hbar,trace,lower,upper,gap"]
        for r in self.rows:
            lines.append(
                f"{r.hbar:.17g},{r.trace:.17g},{r.lower:.17g},"
                f"{r.upper:.17g},{r.gap:.17g}"
            )
        lines.append(
            f"# classical_value={self.classical_value:.17g},"
            f"converged={str(self.converged).lower()}"
        )
        return "\n".join(lines) + "\n"


def _classical_terms(V: Potential, beta: float) -> np.ndarray:
    """Per-vertex terms tr_x e^{-beta V(x)} (scalar: e^{-beta w(x)})."""
    return np.exp(-beta * np.linalg.eigvalsh(V.values)).sum(axis=1)


def classical_partition(V, beta: float) -> float:
    """sum_x tr_x e^{-beta V(x)} (scalar: sum_x e^{-beta w(x)})."""
    if beta <= 0:
        raise BadParams("beta must be positive")
    if not isinstance(V, Potential):
        V = Potential.scalar(V)
    return float(_classical_terms(V, beta).sum())


def semiclassical_trace(g: WeightedGraph, c: Connection, V,
                        beta: float, hbar: float) -> float:
    """tr(e^{-beta hbar H_{Phi, V/hbar}})."""
    if beta <= 0 or hbar <= 0:
        raise BadParams("beta and hbar must be positive")
    V = resolve(g, c, V).potential.scaled(hbar)
    lam = eigenvalues(assemble(g, c, V))
    return partition_function(lam, beta * hbar)


def sandwich_bounds(g: WeightedGraph, w, beta: float, hbar: float):
    """(lower, upper) bracketing the scalar nonmagnetic quantum trace."""
    if beta <= 0 or hbar <= 0:
        raise BadParams("beta and hbar must be positive")
    w = resolve(g, None, w).potential.as_scalar()
    deg_m = degrees(g).deg_m
    upper = float(np.exp(-beta * w).sum())
    lower = float((np.exp(-deg_m * beta * hbar) * np.exp(-beta * w)).sum())
    return lower, upper


def golden_thompson_margin(g: WeightedGraph, c: Connection, V,
                           t: float) -> float:
    """Classical minus quantum trace at time t; nonnegative by theory."""
    if t <= 0:
        raise BadParams("t must be positive")
    V = resolve(g, c, V).potential
    lam = eigenvalues(assemble(g, c, V))
    return classical_partition(V, t) - partition_function(lam, t)


def sweep(config: SweepConfig) -> SweepResult:
    """Semiclassical sweep over the hbar schedule.

    Each row carries (hbar, trace, lower, upper, gap = upper - trace).
    The scalar sandwich lower <= trace <= upper is asserted when the
    problem is scalar; only the upper bound is asserted otherwise.
    """
    g = config.graph
    beta = config.beta
    problem = resolve(g, config.connection, config.potential)
    deg_m = degrees(g).deg_m
    terms = _classical_terms(problem.potential, beta)
    classical = float(terms.sum())
    result = SweepResult(classical_value=classical)
    for hbar in config.hbar_schedule:
        trace = semiclassical_trace(
            g, config.connection, problem.potential, beta, hbar)
        lower = float((np.exp(-deg_m * beta * hbar) * terms).sum())
        gap = classical - trace
        if trace > classical + 1e-9:
            raise AssertionError(
                f"upper bound violated at hbar={hbar}: {trace} > {classical}")
        if problem.mode == "scalar" and lower > trace + 1e-9:
            raise AssertionError(
                f"sandwich lower bound violated at hbar={hbar}: "
                f"{lower} > {trace}")
        result.rows.append(SweepRow(hbar, trace, lower, classical, gap))
    result.gap_ratios = [
        b.gap / a.gap if a.gap > 0 else float("nan")
        for a, b in zip(result.rows, result.rows[1:])
    ]
    final_gap = result.rows[-1].gap
    result.converged = final_gap < max(1e-6, 1e-3 * classical)
    return result


def exhaustion_sweep(host: WeightedGraph, exhaustion: ExhaustionSequence,
                     config: SweepConfig):
    """Sweep summaries along a nested truncation sequence.

    Returns a list of dicts (size, classical_value, final_trace,
    converged) plus a coarse divergence flag on the classical values:
    the trend is flagged divergent when the marginal per-vertex
    contribution of the last truncation step does not vanish faster
    than 1/size.
    """
    summaries = []
    V = resolve(host, config.connection, config.potential).potential
    for keep in exhaustion.subsets:
        keep = sorted(keep)
        sub = restrict(host, keep)
        subV = Potential(V.rank, V.values[keep])
        subc = None
        if config.connection is not None:
            remap = {old: new for new, old in enumerate(keep)}
            mats = {
                (remap[i], remap[j]): M
                for (i, j), M in config.connection.matrices.items()
                if i in remap and j in remap
            }
            subc = Connection(config.connection.rank, mats)
        subconf = SweepConfig(sub, config.beta, config.hbar_schedule,
                              subV, subc)
        res = sweep(subconf)
        summaries.append({
            "size": sub.n,
            "classical_value": res.classical_value,
            "final_trace": res.rows[-1].trace,
            "converged": res.converged,
        })
    divergent = False
    if len(summaries) >= 3:
        s0, s1, s2 = summaries[-3], summaries[-2], summaries[-1]
        d1 = s1["size"] - s0["size"]
        d2 = s2["size"] - s1["size"]
        if d1 > 0 and d2 > 0:
            # size-weighted marginal per-vertex contributions; a convergent
            # tail must decay faster than 1/size
            prod_prev = (s1["classical_value"] - s0["classical_value"]) \
                / d1 * s1["size"]
            prod_last = (s2["classical_value"] - s1["classical_value"]) \
                / d2 * s2["size"]
            divergent = prod_last > 1e-12 and prod_last >= 0.9 * prod_prev
    elif len(summaries) == 2:
        a, b = summaries
        dn = b["size"] - a["size"]
        if dn > 0:
            marginal = (b["classical_value"] - a["classical_value"]) / dn
            divergent = marginal * b["size"] > 0.1
    return summaries, divergent
