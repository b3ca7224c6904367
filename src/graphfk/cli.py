"""Config-driven experiment runner.

Usage: graphfk SUBCOMMAND CONFIG.json

Subcommands: validate | spectrum | kernel | sweep | gt-check |
fk-compare | kato.  The config is a JSON object with keys ``graph``,
``connection`` or ``magnetic``, ``potential``, ``params``,
``output_dir``, ``seed``; ``params`` may hold only the keys its
subcommand reads (``PARAMS``).  All outputs (CSV files plus a plain-text
report) are deterministic given the config; stochastic subcommands
require an explicit seed.

Connection, magnetic and potential entries come from a file path or
from ``{"inline": entries}`` (``_entries``) and go to the parsers of
``fileio``.  Every CSV is written by ``_write_csv``: a header line, then
one line per row, with numbers printed to 17 significant digits.

Exit status: 0 on success; 1 when an input is refused
(``errors.GraphFKError``) and 2 when a numerical routine fails
(``errors.NumericalFailure``), each with a JSON error record on stderr,
{"error": message, "kind": "validation" | "numerical"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio, presets
from .bundles import Connection, validate_connection
from .errors import GraphFKError, NumericalFailure
from .graphs import generate
from .operators import MODES, assemble, check_dimension, resolve
from .paths import estimate_partition
from .semiclassics import sweep
from .spectral import (
    eigendecompose,
    eigenvalues,
    heat_kernel,
    kato_functional,
    partition_function,
)
# not called here; kept because perfbench/tracer.py rebinds it
from .spectral import propagator  # noqa: F401


def _fmt(v):
    return f"{float(v):.17g}"


def _resolve_graph(cfg):
    spec = cfg.get("graph")
    if spec is None:
        raise GraphFKError("config needs a 'graph' entry")
    if isinstance(spec, str):
        return fileio.load_graph(spec), None
    if not isinstance(spec, dict):
        raise GraphFKError("graph entry must be a file path or an object, "
                           f"not {spec!r}")
    forms = [form for form in ("file", "preset", "family") if form in spec]
    if not forms:
        raise GraphFKError("graph entry must give a file, preset, or family")
    if len(forms) > 1:
        raise GraphFKError("graph entry must give exactly one of file, "
                           f"preset and family, not {forms}")
    form, = forms
    if form != "family" and len(spec) > 1:
        stray = sorted(set(spec) - {form})
        raise GraphFKError(f"a {form} graph entry does not read graph key "
                           f"{stray[0]!r}")
    if form == "preset":
        name = spec["preset"]
        if not isinstance(name, str) or name not in presets.PRESETS:
            raise GraphFKError(f"unknown preset {name!r}")
        return presets.PRESETS[name]()
    if form == "file":
        return fileio.load_graph(spec["file"]), None
    params = {k: _number(v, k, int) for k, v in spec.items()
              if k != "family"}
    return generate(spec["family"], **params), None


# The ``params`` keys each subcommand reads; ``run`` refuses any other
PARAMS = {
    "validate": (),
    "spectrum": ("mode",),
    "kernel": ("mode", "t"),
    "sweep": ("mode", "beta", "hbar_schedule"),
    "gt-check": ("mode", "t"),
    "fk-compare": ("mode", "beta", "hbar", "samples", "workers"),
    "kato": ("mode", "t_grid"),
}


def _params(cfg):
    """The config's ``params`` object, {} when absent."""
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise GraphFKError("'params' must be a JSON object")
    return params


def _check_params(cfg, subcommand):
    """GraphFKError naming the first ``params`` key, in sorted order, that
    ``subcommand`` does not read."""
    stray = sorted(set(_params(cfg)) - set(PARAMS[subcommand]))
    if stray:
        reads = ", ".join(PARAMS[subcommand]) or "none"
        raise GraphFKError(f"{subcommand} does not read params key "
                           f"{stray[0]!r} (it reads: {reads})")


def _number(value, name, kind=float):
    """``kind(value)`` for a finite JSON number (``fileio.is_number``);
    GraphFKError else, and for an int also when ``value`` has a fraction
    that it would drop."""
    try:
        x = kind(value)
        if (fileio.is_number(value) and math.isfinite(x)
                and not (isinstance(value, float) and x != value)):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise GraphFKError(f"{name} must be a finite number, not {value!r}")


def _numbers(params, key, default):
    """The nonempty list ``params[key]`` as finite floats; GraphFKError
    else."""
    values = params.get(key, default)
    if not isinstance(values, list) or not values:
        raise GraphFKError(f"{key} must be a nonempty list of numbers, not "
                           f"{values!r}")
    return [_number(v, f"{key} entry") for v in values]


def _entries(spec):
    """The entries of a connection, magnetic or potential spec: the JSON
    of the file it names, or its ``inline`` value."""
    if isinstance(spec, str):
        return fileio._load_json(spec)
    if isinstance(spec, dict) and "inline" in spec:
        return spec["inline"]
    raise GraphFKError("expected a file path or an 'inline' entry")


def _read_inputs(cfg):
    """(graph, connection, potential) as the config gives them."""
    g, pot = _resolve_graph(cfg)
    conn = None
    if "connection" in cfg:
        conn = fileio.connection_from_entries(_entries(cfg["connection"]), g)
    elif "magnetic" in cfg:
        conn = fileio.magnetic_from_entries(_entries(cfg["magnetic"]), g)
    if "potential" in cfg:
        pot = fileio.potential_from_entries(_entries(cfg["potential"]), g)
    return g, conn, pot


def _resolve_inputs(cfg):
    """The config's Problem; ``params.mode``, if stated, bounds its mode."""
    g, conn, pot = _read_inputs(cfg)
    # symmetrize would hide a non-unitary transport, so reject it here
    bad = validate_connection(conn, g)[0] if conn is not None else []
    if bad:
        (i, j), kind, dev = bad[0]
        raise GraphFKError(f"connection fails {kind} on edge ({g.labels[i]}, "
                           f"{g.labels[j]}): deviation {dev:.3e}")
    problem = resolve(g, conn, pot)
    stated = _params(cfg).get("mode", problem.mode)
    if stated not in MODES or MODES.index(stated) < MODES.index(problem.mode):
        raise GraphFKError(
            f"mode {stated!r} must be one of {MODES}, no narrower than the "
            f"inputs' mode {problem.mode!r} (scalar takes no connection and "
            "only a rank-1 potential, magnetic only rank 1)")
    return problem


def _write(outdir, name, text):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_csv(outdir, name, header, rows):
    """The CSV file ``name`` in outdir: the line ``header``, then one line
    per row, string cells as they are and numbers through ``_fmt``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c)
                              for c in row))
    return _write(outdir, name, "\n".join(lines) + "\n")


def emit_report(results, outdir, digest):
    """Plain-text summary of a subcommand run."""
    lines = [
        f"inputs sha256: {digest}",
        f"subcommand: {results.get('subcommand', '?')}",
        "",
    ]
    for key, value in results.items():
        if key in ("subcommand", "checks"):
            continue
        lines.append(f"{key}: {value}")
    for name, ok, detail in results.get("checks", []):
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return _write(outdir, "report.txt", "\n".join(lines) + "\n")


def _cmd_validate(cfg, outdir):
    g, conn, pot = _read_inputs(cfg)
    bad, largest = validate_connection(
        Connection.identity(g) if conn is None else conn, g)
    _write_csv(outdir, "violations.csv", "edge_i,edge_j,kind,deviation",
               ((i, j, kind, dev) for (i, j), kind, dev in bad))
    if bad:
        # the first violation as the other subcommands name it, and the count
        (i, j), kind, dev = bad[0]
        raise GraphFKError(f"connection fails {kind} on edge ({g.labels[i]}, "
                           f"{g.labels[j]}): deviation {dev:.3e}; "
                           f"{len(bad)} of {len(g.edges)} edges fail")
    # the unitary inputs must also fit together, as every other
    # subcommand requires
    resolve(g, conn, pot)
    return {
        "subcommand": "validate",
        "vertices": g.n,
        "edges": len(g.edges),
        "violations": len(bad),
        "checks": [("connection valid", not bad,
                    f"max deviation {largest:.3e}")],
    }


def _cmd_spectrum(cfg, outdir):
    p = _resolve_inputs(cfg)
    lam = eigenvalues(assemble(p.graph, p.connection, p.potential))
    _write_csv(outdir, "spectrum.csv", "index,eigenvalue", enumerate(lam))
    return {
        "subcommand": "spectrum",
        "dimension": lam.size,
        "lambda_min": _fmt(lam[0]),
        "lambda_max": _fmt(lam[-1]),
    }


def _cmd_kernel(cfg, outdir):
    p = _resolve_inputs(cfg)
    g = p.graph
    t = _number(_params(cfg).get("t", 1.0), "t")
    dec = eigendecompose(assemble(g, p.connection, p.potential))
    nu = dec.rank
    # rows in the order (x, y, a, b), of entry (x nu + a, y nu + b)
    K = heat_kernel(dec, t).reshape(g.n, nu, g.n, nu)
    _write_csv(outdir, "kernel.csv", "t,x,y,re,im", (
        (t, x * nu + a, y * nu + b, K[x, a, y, b].real, K[x, a, y, b].imag)
        for x, y, a, b in np.ndindex(g.n, g.n, nu, nu)))
    return {"subcommand": "kernel", "t": t,
            "trace": _fmt(partition_function(dec.eigenvalues, t))}


def _cmd_sweep(cfg, outdir):
    p = _resolve_inputs(cfg)
    params = _params(cfg)
    beta = _number(params.get("beta", 1.0), "beta")
    schedule = _numbers(params, "hbar_schedule", [1e-1, 1e-2, 1e-3, 1e-4])
    result = sweep(p.graph, p.connection, p.potential, beta, schedule)
    rows = [(r.hbar, r.trace, r.lower, r.upper, r.gap) for r in result.rows]
    rows.append((f"# classical_value={_fmt(result.classical_value)}",
                 f"converged={str(result.converged).lower()}"))
    _write_csv(outdir, "sweep.csv", "hbar,trace,lower,upper,gap", rows)
    last = result.rows[-1]
    return {
        "subcommand": "sweep",
        "mode": p.mode,
        "beta": beta,
        "classical_value": _fmt(result.classical_value),
        "final_trace": _fmt(last.trace),
        "final_gap": _fmt(last.gap),
        "rows": "; ".join(
            f"hbar={_fmt(r.hbar)} lower={_fmt(r.lower)} "
            f"trace={_fmt(r.trace)} upper={_fmt(r.upper)}"
            for r in result.rows),
        "checks": [("semiclassical convergence", result.converged,
                    f"final gap {last.gap:.3e}")],
    }


def _cmd_gt_check(cfg, outdir):
    p = _resolve_inputs(cfg)
    t = _number(_params(cfg).get("t", 1.0), "t")
    if not t > 0:
        raise GraphFKError("t must be positive")
    # the sweep at the one hbar = 1, beta = t: a bound broken beyond the
    # rounding of the trace raises NumericalFailure there
    result = sweep(p.graph, p.connection, p.potential, t, (1.0,))
    row, = result.rows
    classical, quantum, margin = result.classical_value, row.trace, row.gap
    _write_csv(outdir, "gt.csv", "t,classical,quantum,margin",
               [(t, classical, quantum, margin)])
    return {
        "subcommand": "gt-check",
        "t": t,
        "classical": _fmt(classical),
        "quantum": _fmt(quantum),
        "margin": _fmt(margin),
        "checks": [("trace upper bound", True, f"margin {margin:.6g}")],
    }


def _z_score(estimate, exact, se):
    """(estimate - exact) / se; +-inf when se is 0 and the two differ."""
    if se > 0:
        return (estimate - exact) / se
    if estimate == exact:
        return 0.0
    return math.copysign(math.inf, estimate - exact)


def _cmd_fk_compare(cfg, outdir):
    p = _resolve_inputs(cfg)
    g, conn, pot = p.graph, p.connection, p.potential
    params = _params(cfg)
    if "seed" not in cfg:
        raise GraphFKError("fk-compare requires an explicit seed")
    seed = _number(cfg["seed"], "seed", int)
    beta = _number(params.get("beta", 1.0), "beta")
    hbar = _number(params.get("hbar", 0.1), "hbar")
    samples = _number(params.get("samples", 100000), "samples", int)
    workers = _number(params.get("workers", 1), "workers", int)
    t = beta * hbar
    # the exact side is refused above the cap before any path is drawn;
    # the estimator checks beta, hbar, samples and workers before the
    # eigensolve runs or the potential is scaled by hbar
    check_dimension(g.n, p.rank)
    rep = estimate_partition(g, conn, pot, beta, hbar, samples, seed,
                             workers=workers)
    dec = eigendecompose(assemble(g, conn, pot.scaled(hbar)))
    # tr_x of the diagonal block of e^{-tA}: sum_k |U_{xa,k}|^2 e^{-t lambda_k}
    diag = np.abs(dec.vectors) ** 2 @ np.exp(-t * dec.eigenvalues)
    exact_x = diag.reshape(g.n, dec.rank).sum(axis=1)
    rows = [(x, exact, est, se, _z_score(est, exact, se))
            for (x, est, se), exact in zip(rep.per_vertex, exact_x.tolist())]
    exact_total = partition_function(dec.eigenvalues, t)
    z_total = _z_score(rep.estimate, exact_total, rep.stderr)
    rows.append(("total", exact_total, rep.estimate, rep.stderr, z_total))
    _write_csv(outdir, "fk_compare.csv", "x,exact,estimate,stderr,z_score",
               rows)
    max_z = max(0.0, *(abs(row[-1]) for row in rows))
    detail = f"|z| = {abs(z_total):.3f}"
    if rep.stderr == 0:
        detail += " (stderr is 0)"
    return {
        "subcommand": "fk-compare",
        "mode": p.mode,
        "samples_per_vertex": samples,
        "exact_trace": _fmt(exact_total),
        "estimate": _fmt(rep.estimate),
        "stderr": _fmt(rep.stderr),
        "max_abs_z": _fmt(max_z),
        "forced_jumps": rep.forced,
        "exact_strata": " ".join(f"Z{k}" for k in rep.strata),
        "forced_reason": rep.forced_reason,
        "checks": [("estimate within 3 standard errors", abs(z_total) <= 3.0,
                    detail)],
    }


def _cmd_kato(cfg, outdir):
    p = _resolve_inputs(cfg)
    if p.mode != "scalar":
        raise GraphFKError(f"kato takes a scalar problem, not {p.mode}: "
                           "no connection and a rank-1 potential")
    g, w = p.graph, p.potential.as_scalar()
    grid = _numbers(_params(cfg), "t_grid", [1.0, 0.5, 0.25, 0.125, 0.0625])
    values = kato_functional(g, w, np.array(grid)).tolist()
    _write_csv(outdir, "kato.csv", "t,value", zip(grid, values))
    by_t = [val for _t, val in sorted(zip(grid, values))]
    return {
        "subcommand": "kato",
        "t_grid": grid,
        "values": values,
        "checks": [("monotone in t", all(
            a <= b + 1e-12 for a, b in zip(by_t, by_t[1:])),
            "values nondecreasing in t")],
    }


_COMMANDS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "kernel": _cmd_kernel,
    "sweep": _cmd_sweep,
    "gt-check": _cmd_gt_check,
    "fk-compare": _cmd_fk_compare,
    "kato": _cmd_kato,
}


def run(config_path, subcommand):
    """Run one experiment; returns the process exit status."""
    try:
        cfg = fileio.load_config(config_path)
        outdir = cfg.get("output_dir", ".")
        if not isinstance(outdir, str):
            raise GraphFKError(f"output_dir must be a path, not {outdir!r}")
        digest = hashlib.sha256(
            Path(config_path).read_bytes()).hexdigest()
        _check_params(cfg, subcommand)
        results = _COMMANDS[subcommand](cfg, outdir)
        emit_report(results, outdir, digest)
        return 0
    except NumericalFailure as exc:
        print(json.dumps({"error": str(exc), "kind": "numerical"}),
              file=sys.stderr)
        return 2
    except GraphFKError as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}),
              file=sys.stderr)
        return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="graphfk",
        description="Graph Schrodinger operator experiments")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="JSON experiment config")
    args = parser.parse_args(argv)
    return run(args.config, args.subcommand)


if __name__ == "__main__":
    sys.exit(main())
