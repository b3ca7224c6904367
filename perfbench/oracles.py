"""Reference computations and output checks, independent of graphfk.

Every operator here is built from the raw problem data (edge list,
vertex measure, connection matrices, potential) with numpy alone, by
the defining formula

    A f(x) = (1/m(x)) sum_y b(x,y) (f(x) - Phi_{y,x} f(y)) + V(x) f(x),

and conjugated to the Hermitian S = M^{1/2} A M^{-1/2}, which has the
same spectrum and the same diagonal blocks of e^{-tA}.  A check returns
a list of (name, ok, detail); an operation passes when every entry is ok.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |total estimate - exact| must stay within this many stated standard
# errors; a Gaussian exceeds 5 sigma with probability 5.7e-7.
Z_TOTAL = 5.0
# Band for the mean of the squared per-vertex z-scores (see README).
MEAN_Z2_BAND = (0.3, 2.5)
# Exact traces agree with the benchmark's own eigensolve to this
# relative tolerance (linear-algebra rounding only).
EXACT_RTOL = 1e-9
# kato_functional integrates with adaptive Simpson at rtol 1e-6 per
# vertex; allow ten times that against the closed form.
KATO_RTOL = 1e-5


@dataclass
class Problem:
    """Raw inputs of one operator: what the benchmark hands the program.

    ``connection`` maps the stored orientation (i, j) of an edge to
    Phi_{i,j} : F_i -> F_j, or is None for the trivial bundle;
    ``potential`` holds one Hermitian nu x nu matrix per vertex.
    """

    labels: list
    edges: list  # (i, j, b) with i != j, each undirected edge once
    measure: np.ndarray
    potential: np.ndarray  # (n, nu, nu) complex
    connection: dict = None

    @property
    def n(self):
        return len(self.labels)

    @property
    def rank(self):
        return self.potential.shape[1]

    def degree_m(self):
        deg = np.zeros(self.n)
        for i, j, b in self.edges:
            deg[i] += b
            deg[j] += b
        return deg / self.measure

    def scalar_potential(self):
        return self.potential[:, 0, 0].real


def transport(problem, y, x):
    """Phi_{y,x} : F_y -> F_x, synthesized from the stored orientation."""
    nu = problem.rank
    if problem.connection is None:
        return np.eye(nu)
    if (y, x) in problem.connection:
        return problem.connection[(y, x)]
    return problem.connection[(x, y)].conj().T


def symmetric_operator(problem, potential_scale=1.0):
    """Hermitian S = M^{1/2} (H_Phi + scale * V) M^{-1/2} as a dense matrix.

    Real when the problem has no connection and a real potential.
    """
    n, nu = problem.n, problem.rank
    real = problem.connection is None and not np.any(problem.potential.imag)
    S = np.zeros((n * nu, n * nu), dtype=float if real else complex)
    V = problem.potential * potential_scale
    deg_m = problem.degree_m()
    for x in range(n):
        blk = slice(x * nu, (x + 1) * nu)
        S[blk, blk] = deg_m[x] * np.eye(nu) + (V[x].real if real else V[x])
    sq = np.sqrt(problem.measure)
    for i, j, b in problem.edges:
        for x, y in ((i, j), (j, i)):
            S[x * nu:(x + 1) * nu, y * nu:(y + 1) * nu] -= (
                b / (sq[x] * sq[y])) * transport(problem, y, x)
    return S


def trace(problem, beta, hbar):
    """tr e^{-beta hbar H_{Phi, V/hbar}} from eigenvalues alone."""
    lam = np.linalg.eigvalsh(symmetric_operator(problem, 1.0 / hbar))
    return float(np.exp(-beta * hbar * lam).sum())


def vertex_traces(problem, beta, hbar):
    """(tr_x of the diagonal blocks of e^{-tH}, their sum), t = beta hbar."""
    lam, U = np.linalg.eigh(symmetric_operator(problem, 1.0 / hbar))
    e = np.exp(-beta * hbar * lam)
    diag = (np.abs(U) ** 2) @ e
    return diag.reshape(problem.n, problem.rank).sum(axis=1), float(e.sum())


def classical(problem, beta):
    """sum_x tr e^{-beta V(x)}."""
    lam = np.linalg.eigvalsh(problem.potential)
    return float(np.exp(-beta * lam).sum())


def sandwich(problem, beta, hbar):
    """The paper's scalar bounds (sum e^{-deg_m beta hbar} e^{-beta w}, sum e^{-beta w})."""
    terms = np.exp(-beta * problem.scalar_potential())
    return (float((np.exp(-problem.degree_m() * beta * hbar) * terms).sum()),
            float(terms.sum()))


def kato_values(problem, grid):
    """sup_x int_0^t (e^{-sH_0} |w|)(x) ds in closed form, for each t.

    With S = U diag(lam) U^T the free symmetrized operator,
    e^{-sA} = M^{-1/2} U e^{-s lam} U^T M^{1/2}, and the time integral of
    e^{-s lam} is (1 - e^{-t lam}) / lam, equal to t where lam = 0.
    """
    free = Problem(problem.labels, problem.edges, problem.measure,
                   np.zeros((problem.n, 1, 1)))
    lam, U = np.linalg.eigh(symmetric_operator(free))
    sq = np.sqrt(problem.measure)
    proj = U.T @ (sq * np.abs(problem.scalar_potential()))
    zero = np.abs(lam) < 1e-12
    safe = np.where(zero, 1.0, lam)
    out = []
    for t in grid:
        phi = np.where(zero, t, -np.expm1(-t * safe) / safe)
        out.append(float(((U @ (phi * proj)) / sq).max()))
    return out


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def parse_csv(text):
    """Header-keyed rows of a graphfk CSV; '#' lines are returned apart."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows, notes = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            notes.append(line)
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, notes


def check_sweep(text, problem, beta, schedule):
    """sweep.csv: own eigenvalue traces, own sandwich bounds, classical value."""
    rows, notes = parse_csv(text)
    checks = [("one row per hbar", [float(r["hbar"]) for r in rows]
               == list(schedule), f"{len(rows)} rows")]
    upper = sandwich(problem, beta, 1.0)[1]
    for r in rows:
        hbar = float(r["hbar"])
        got = float(r["trace"])
        want = trace(problem, beta, hbar)
        lo, hi = sandwich(problem, beta, hbar)
        checks += [
            (f"trace at hbar={hbar:g}", _close(got, want, EXACT_RTOL),
             f"{got!r} vs {want!r}"),
            (f"sandwich at hbar={hbar:g}",
             lo * (1 - 1e-12) <= got <= hi * (1 + 1e-12),
             f"{lo!r} <= {got!r} <= {hi!r}"),
            (f"bounds at hbar={hbar:g}",
             _close(float(r["lower"]), lo, 1e-10)
             and _close(float(r["upper"]), hi, 1e-10), "lower, upper columns"),
        ]
    stated = [float(note.split("classical_value=")[1].split(",")[0])
              for note in notes if "classical_value=" in note]
    checks.append(("classical value", len(stated) == 1
                   and _close(stated[0], upper, 1e-10), f"{stated} vs {upper!r}"))
    return checks


def check_fk(text, problem, beta, hbar):
    """fk_compare.csv: exact columns, total within Z_TOTAL stderr, z calibration.

    Returns (checks, stated total stderr relative to the exact trace).
    """
    rows, _ = parse_csv(text)
    per_vertex, total = rows[:-1], rows[-1]
    want_x, want = vertex_traces(problem, beta, hbar)
    checks = [("one row per vertex plus total",
               [r["x"] for r in per_vertex] == [str(x) for x in range(problem.n)]
               and total["x"] == "total", f"{len(rows)} rows")]
    if not checks[0][1]:
        return checks, float("nan")
    exact_x = np.array([float(r["exact"]) for r in per_vertex])
    est_x = np.array([float(r["estimate"]) for r in per_vertex])
    se_x = np.array([float(r["stderr"]) for r in per_vertex])
    est, se = float(total["estimate"]), float(total["stderr"])
    dev = float(np.abs(exact_x - want_x).max())
    checks += [
        ("per-vertex exact", dev <= EXACT_RTOL * float(np.abs(want_x).max()),
         f"max deviation {dev:.3e}"),
        ("exact total", _close(float(total["exact"]), want, EXACT_RTOL),
         f"{total['exact']} vs {want!r}"),
        ("stderr positive", se > 0, f"stderr {se!r}"),
        (f"total within {Z_TOTAL:g} stderr", abs(est - want) <= Z_TOTAL * se,
         f"|{est!r} - {want!r}| vs {se!r}"),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (est_x - want_x) / se_x
    mean_z2 = float(np.mean(np.where(np.isnan(z), np.inf, z * z)))
    lo, hi = MEAN_Z2_BAND
    checks.append(("per-vertex mean z^2", lo <= mean_z2 <= hi,
                   f"{mean_z2:.4f} in [{lo}, {hi}]"))
    if problem.rank > 1 or problem.connection is not None:
        bound = classical(problem, beta)
        checks.append(("classical upper bound", want <= bound * (1 + 1e-12),
                       f"{want!r} <= {bound!r}"))
    return checks, se / want


def check_kato(text, problem, grid):
    """kato.csv: closed form, monotone along the grid, at most t max|w|."""
    rows, _ = parse_csv(text)
    ts = [float(r["t"]) for r in rows]
    vals = [float(r["value"]) for r in rows]
    checks = [("one row per t", ts == list(grid), f"{ts}")]
    wmax = float(np.abs(problem.scalar_potential()).max())
    for t, got, want in zip(ts, vals, kato_values(problem, ts)):
        checks += [
            (f"closed form at t={t:g}", _close(got, want, KATO_RTOL),
             f"{got!r} vs {want!r}"),
            (f"at most t max|w| at t={t:g}", got <= t * wmax * (1 + 1e-12),
             f"{got!r} <= {t * wmax!r}"),
        ]
    checks.append(("nonincreasing as t decreases",
                   all(b <= a for a, b in zip(vals, vals[1:])), f"{vals}"))
    return checks
