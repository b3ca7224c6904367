"""Semiclassical trace sweeps, Golden-Thompson margins, sandwich bounds.

The quantum partition function tr(e^{-beta hbar H_{Phi, V/hbar}}) is
squeezed, in the scalar nonmagnetic case, between

    sum_x e^{-deg_m(x) beta hbar} e^{-beta w(x)}   (lower)
    sum_x e^{-beta w(x)}                           (upper),

so it converges to the classical partition sum as hbar -> 0+.  For
magnetic and covariant operators only the upper bound is available; the
lower column is still reported (with the fiberwise classical terms
tr_x e^{-beta V(x)} in place of e^{-beta w(x)}) but never asserted.

The lower bound is the no-jump term Z_0 of the Dyson series of the
trace.  ``two_jump_terms`` gives the next nonzero term, Z_2, in closed
form; in the scalar case every term of the series is nonnegative, so
Z_0 + Z_2 <= trace is a sharper lower bound, and the sweep asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Connection, Potential
from .errors import BadParams
from .graphs import (ExhaustionSequence, WeightedGraph, degrees, edge_mask,
                     restrict)
from .operators import Problem, _coupling, assemble, resolve, symmetrize
from .spectral import eigenvalues, hermitian_eigenvalues, partition_function
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
    if not beta > 0:  # NaN fails it too
        raise BadParams("beta must be positive")
    if not isinstance(V, Potential):
        V = Potential.scalar(V)
    return float(_classical_terms(V, beta).sum())


def _traces(problem: Problem, beta: float, schedule):
    """tr(e^{-beta hbar H_{Phi, V/hbar}}) for each hbar of ``schedule``.

    The hops do not depend on hbar, so the free operator is assembled and
    symmetrized once; each hbar then writes the diagonal blocks
    0.5 (B + B^H), B = deg_m + V/hbar, in place, as ``symmetrize`` of the
    assembled H_{Phi, V/hbar} holds them (its scale ratio is exactly 1
    there), and solves for the eigenvalues.  V / hbar is taken in the
    arithmetic of V's values.
    """
    g, nu = problem.graph, problem.rank
    S = symmetrize(assemble(g, problem.connection,
                            Potential(nu, np.zeros((g.n, nu, nu)))))
    # complex as soon as the hops or V are, as the assembled matrix is
    S = S.astype(np.result_type(S, problem.potential.values), copy=False)
    blocks = S.reshape(g.n, nu, g.n, nu)
    deg = degrees(g).deg_m[:, None, None] * np.eye(nu)
    diag = np.arange(g.n)
    for hbar in schedule:
        B = deg + problem.potential.scaled(hbar).values
        blocks[diag, :, diag, :] = 0.5 * (B + B.conj().swapaxes(1, 2))
        yield partition_function(hermitian_eigenvalues(S), beta * hbar)


def semiclassical_trace(g: WeightedGraph, c: Connection, V,
                        beta: float, hbar: float) -> float:
    """tr(e^{-beta hbar H_{Phi, V/hbar}})."""
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    return next(_traces(resolve(g, c, V), beta, (hbar,)))


def sandwich_bounds(g: WeightedGraph, w, beta: float, hbar: float):
    """(lower, upper) bracketing the scalar nonmagnetic quantum trace."""
    if not (beta > 0 and hbar > 0):  # NaN fails it too
        raise BadParams("beta and hbar must be positive")
    w = resolve(g, None, w).potential.as_scalar()
    deg_m = degrees(g).deg_m
    upper = float(np.exp(-beta * w).sum())
    lower = float((np.exp(-deg_m * beta * hbar) * np.exp(-beta * w)).sum())
    return lower, upper


def golden_thompson_margin(g: WeightedGraph, c: Connection, V,
                           t: float) -> float:
    """Classical minus quantum trace at time t; nonnegative by theory."""
    if not t > 0:  # NaN fails it too
        raise BadParams("t must be positive")
    V = resolve(g, c, V).potential
    lam = eigenvalues(assemble(g, c, V))
    return classical_partition(V, t) - partition_function(lam, t)


def _series(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule (numpy.polynomial would add
    a few milliseconds to the package import)."""
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


# Taylor coefficients of psi(z) = int_0^1 s e^{-sz} ds, (-1)^k / (k! (k + 2)),
# and of chi(z) = int_0^1 (1 - s) e^{-sz} ds, (-1)^k / (k + 2)!; below
# _SERIES_CUT the closed forms cancel, and 20 terms leave under 1e-19 there
_SERIES_CUT = 1.0
_PSI = np.array([(-1) ** k / (math.factorial(k) * (k + 2)) for k in range(20)])
_CHI = np.array([(-1) ** k / math.factorial(k + 2) for k in range(20)])


def _psi_chi(z):
    """(psi(z), chi(z)) for z >= 0, psi(z) = int_0^1 s e^{-sz} ds and
    chi(z) = int_0^1 (1 - s) e^{-sz} ds: the series below the cut, the
    closed forms (-expm1(-z) - z e^{-z}) / z^2 and (z + expm1(-z)) / z^2,
    accurate to a few units in the last place, from it up (McCurdy, Ng &
    Parlett, Math. Comp. 43 (1984) 501)."""
    small = z < _SERIES_CUT
    zs = np.where(small, z, 0.0)
    zc = np.where(small, _SERIES_CUT, z)
    em = np.expm1(-zc)
    return (np.where(small, _series(_PSI, zs),
                     (-em - zc * np.exp(-zc)) / zc ** 2),
            np.where(small, _series(_CHI, zs), (zc + em) / zc ** 2))


def _two_jump_integral(alpha, beta, t):
    """I(alpha, beta) = int_0^t u e^{-u alpha} e^{-(t - u) beta} du,
    elementwise: t^2 e^{-t beta} psi(t (alpha - beta)) for alpha >= beta,
    and t^2 e^{-t alpha} chi(t (beta - alpha)) by the mirror s -> 1 - s
    for alpha < beta, so no exponential grows."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float),
                                      np.asarray(beta, float))
    psi, chi = _psi_chi(t * np.abs(alpha - beta))
    return t * t * np.exp(-t * np.minimum(alpha, beta)) * np.where(
        alpha >= beta, psi, chi)


def two_jump_terms(problem: Problem, t: float, hbar: float = 1.0):
    """Per vertex x, the two-jump term Z_2(x) of tr e^{-t H_{Phi, V/hbar}}.

    H = D - K splits into its diagonal blocks D_x = deg_m(x) + V(x)/hbar
    and the hops K_xy = b(x,y)/m_x Phi_{y,x}.  Z_k(x) is the trace at x of
    the term of the Dyson series of e^{-tH} with k factors K; in the
    scalar case every term is nonnegative.  With the eigenbases V(x)/hbar
    = Q_x diag(lam_x) Q_x^H and a = deg_m + lam,

        Z_2(x) = sum_{y~x} b(x,y)^2/(m_x m_y) sum_ab |W_ab|^2 I(a_xa, a_yb),
        W = Q_x^H Phi_{y,x} Q_y,

    I as in ``_two_jump_integral``: by the cyclicity of the trace the two
    holds at x merge into one of total time u, and the splits of u weigh
    it by u.  Z_0(x) = sum_a e^{-t a_xa}, Z_1 = 0 without self-loops, and
    Z_3 = 0 without triangles.  O(E nu^3) on the arcs of ``problem``;
    V / hbar is taken in the arithmetic of V's values.
    """
    g, nu = problem.graph, problem.rank
    x, y = problem.src, problem.dst
    values = problem.potential.scaled(hbar).values
    back = _coupling(problem)  # Phi_{y,x} on the arc x -> y
    if nu == 1:
        lam, W = values[:, :, 0].real, back
    else:
        lam, Q = np.linalg.eigh(values)
        W = Q[x].conj().swapaxes(1, 2) @ back @ Q[y]
    a = degrees(g).deg_m[:, None] + lam
    I = _two_jump_integral(a[x][:, :, None], a[y][:, None, :], t)
    arcs = (problem.w ** 2 / (g.measure[x] * g.measure[y])
            * np.einsum("eab,eab->e", np.abs(W) ** 2, I))
    return np.bincount(x, weights=arcs, minlength=g.n)


def sweep(config: SweepConfig) -> SweepResult:
    """Semiclassical sweep over the hbar schedule.

    Each row carries (hbar, trace, lower, upper, gap = upper - trace).
    The scalar sandwich lower <= trace <= upper is asserted when the
    problem is scalar, sharpened below to lower + Z_2 <= trace with the
    two-jump term of ``two_jump_terms``; only the upper bound is asserted
    otherwise.  The problem is resolved, and the free operator assembled
    and symmetrized, once for the whole schedule (``_traces``).
    """
    g = config.graph
    beta = config.beta
    problem = resolve(g, config.connection, config.potential)
    deg_m = degrees(g).deg_m
    terms = _classical_terms(problem.potential, beta)
    classical = float(terms.sum())
    result = SweepResult(classical_value=classical)
    schedule = config.hbar_schedule
    for hbar, trace in zip(schedule, _traces(problem, beta, schedule)):
        lower = float((np.exp(-deg_m * beta * hbar) * terms).sum())
        gap = classical - trace
        if trace > classical + 1e-9:
            raise AssertionError(
                f"upper bound violated at hbar={hbar}: {trace} > {classical}")
        if problem.mode == "scalar":
            two_jump = float(two_jump_terms(problem, beta * hbar, hbar).sum())
            if lower + two_jump > trace + 1e-9:
                raise AssertionError(
                    f"sandwich lower bound violated at hbar={hbar}: "
                    f"{lower} + {two_jump} > {trace}")
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
            subc = Connection(config.connection.rank, config.connection
                              .aligned(host)[edge_mask(host, keep)])
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
