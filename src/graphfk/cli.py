"""Config-driven experiment runner.

Usage: graphfk SUBCOMMAND CONFIG.json

Subcommands: validate | spectrum | kernel | sweep | gt-check |
fk-compare | kato.  The config is a JSON object with keys ``graph``,
``connection`` or ``magnetic``, ``potential``, ``params``,
``output_dir``, ``seed``.  All outputs (CSV files plus a plain-text
report) are deterministic given the config; stochastic subcommands
require an explicit seed.

Exit status: 0 on success, 1 on config/validation failure (with a
machine-readable error record), 2 on numerical failure.
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
from .bundles import (
    Connection,
    connection_from_magnetic,
    validate_connection,
)
from .errors import (
    BadParams,
    ConfigError,
    GraphFKError,
    IOFailure,
    NumericalFailure,
)
from .graphs import generate
from .operators import MODES, assemble, resolve
from .paths import estimate_partition
from .semiclassics import (
    SweepConfig,
    classical_partition,
    golden_thompson_margin,
    sweep,
)
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
        raise ConfigError("config needs a 'graph' entry")
    if isinstance(spec, str):
        return fileio.load_graph(spec), None
    if "preset" in spec:
        name = spec["preset"]
        if name not in presets.PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        return presets.PRESETS[name]()
    if "file" in spec:
        return fileio.load_graph(spec["file"]), None
    if "family" in spec:
        params = {k: v for k, v in spec.items() if k != "family"}
        return generate(spec["family"], **params), None
    raise ConfigError("graph entry must give a file, preset, or family")


def _params(cfg):
    """The config's ``params`` object, {} when absent."""
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a JSON object")
    return params


def _number(value, name, kind=float):
    """``kind(value)`` for a finite config number; ConfigError else."""
    try:
        x = kind(value)
        if math.isfinite(x):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a finite number, not {value!r}")


def _numbers(params, key, default):
    """The list ``params[key]`` as finite floats; ConfigError else."""
    values = params.get(key, default)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers, not {values!r}")
    return [_number(v, f"{key} entry") for v in values]


def _resolve_inline_or_file(spec, loader_file, loader_inline, g):
    if isinstance(spec, str):
        return loader_file(spec, g)
    if isinstance(spec, dict) and "inline" in spec:
        return loader_inline(spec["inline"], g)
    raise ConfigError("expected a file path or an 'inline' entry")


def _read_inputs(cfg):
    """(graph, connection, potential) as the config gives them."""
    g, preset_pot = _resolve_graph(cfg)
    conn = None
    if "connection" in cfg:
        conn = _resolve_inline_or_file(
            cfg["connection"], fileio.load_connection,
            fileio.connection_from_entries, g)
    elif "magnetic" in cfg:
        theta = _resolve_inline_or_file(
            cfg["magnetic"], fileio.load_magnetic,
            fileio.magnetic_from_entries, g)
        conn = connection_from_magnetic(theta)
    pot = preset_pot
    if "potential" in cfg:
        pot = _resolve_inline_or_file(
            cfg["potential"], fileio.load_potential,
            fileio.potential_from_entries, g)
    return g, conn, pot


def _resolve_inputs(cfg):
    """The config's Problem; ``params.mode``, if stated, bounds its mode."""
    g, conn, pot = _read_inputs(cfg)
    # symmetrize would hide a non-unitary transport, so reject it here
    bad = validate_connection(conn, g).violations if conn is not None else []
    if bad:
        (i, j), kind, dev = bad[0]
        raise ConfigError(f"connection fails {kind} on edge ({g.labels[i]}, "
                          f"{g.labels[j]}): deviation {dev:.3e}")
    problem = resolve(g, conn, pot)
    stated = _params(cfg).get("mode", problem.mode)
    if stated not in MODES or MODES.index(stated) < MODES.index(problem.mode):
        raise BadParams(
            f"mode {stated!r} must be one of {MODES}, no narrower than the "
            f"inputs' mode {problem.mode!r} (scalar takes no connection and "
            "only a rank-1 potential, magnetic only rank 1)")
    return problem


def _write(outdir, name, text):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def emit_report(results, outdir, digest):
    """Plain-text summary of a subcommand run."""
    if not results:
        raise IOFailure("refusing to report empty results")
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
    g, conn, _pot = _read_inputs(cfg)
    if conn is None:
        conn = Connection.identity(g)
    report = validate_connection(conn, g)
    lines = ["edge_i,edge_j,kind,deviation"]
    for (i, j), kind, dev in report.violations:
        lines.append(f"{i},{j},{kind},{_fmt(dev)}")
    _write(outdir, "violations.csv", "\n".join(lines) + "\n")
    results = {
        "subcommand": "validate",
        "vertices": g.n,
        "edges": len(g.edges),
        "violations": len(report.violations),
        "checks": [("connection valid", report.ok,
                    f"max deviation {report.max_deviation:.3e}")],
    }
    if not report.ok:
        raise ConfigError(
            json.dumps({"error": "connection validation failed",
                        "violations": len(report.violations)}))
    return results


def _cmd_spectrum(cfg, outdir):
    p = _resolve_inputs(cfg)
    lam = eigenvalues(assemble(p.graph, p.connection, p.potential))
    lines = ["index,eigenvalue"]
    for k, value in enumerate(lam):
        lines.append(f"{k},{_fmt(value)}")
    _write(outdir, "spectrum.csv", "\n".join(lines) + "\n")
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
    K = heat_kernel(dec, t)
    lines = ["t,x,y,re,im"]
    nu = dec.rank
    for x in range(g.n):
        for y in range(g.n):
            blk = K.block(x, y)
            for a in range(nu):
                for b in range(nu):
                    lines.append(
                        f"{_fmt(t)},{x * nu + a},{y * nu + b},"
                        f"{_fmt(blk[a, b].real)},{_fmt(blk[a, b].imag)}")
    _write(outdir, "kernel.csv", "\n".join(lines) + "\n")
    return {"subcommand": "kernel", "t": t,
            "trace": _fmt(partition_function(dec.eigenvalues, t))}


def _cmd_sweep(cfg, outdir):
    p = _resolve_inputs(cfg)
    params = _params(cfg)
    beta = _number(params.get("beta", 1.0), "beta")
    schedule = _numbers(params, "hbar_schedule", [1e-1, 1e-2, 1e-3, 1e-4])
    config = SweepConfig(p.graph, beta, schedule, p.potential, p.connection)
    result = sweep(config)
    _write(outdir, "sweep.csv", result.to_csv())
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
    margin = golden_thompson_margin(p.graph, p.connection, p.potential, t)
    classical = classical_partition(p.potential, t)
    quantum = classical - margin
    _write(outdir, "gt.csv",
           "t,classical,quantum,margin\n"
           f"{_fmt(t)},{_fmt(classical)},{_fmt(quantum)},{_fmt(margin)}\n")
    return {
        "subcommand": "gt-check",
        "t": t,
        "classical": _fmt(classical),
        "quantum": _fmt(quantum),
        "margin": _fmt(margin),
        "checks": [("trace upper bound", margin >= -1e-9,
                    f"margin {margin:.6g}")],
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
        raise ConfigError("fk-compare requires an explicit seed")
    seed = _number(cfg["seed"], "seed", int)
    beta = _number(params.get("beta", 1.0), "beta")
    hbar = _number(params.get("hbar", 0.1), "hbar")
    samples = _number(params.get("samples", 100000), "samples", int)
    workers = _number(params.get("workers", 1), "workers", int)
    t = beta * hbar
    dec = eigendecompose(assemble(g, conn, pot.scaled(hbar)))
    rep = estimate_partition(g, conn, pot, beta, hbar, samples, seed,
                             workers=workers)
    # tr_x of the diagonal block of e^{-tA}: sum_k |U_{xa,k}|^2 e^{-t lambda_k}
    diag = np.abs(dec.vectors) ** 2 @ np.exp(-t * dec.eigenvalues)
    exact_x = diag.reshape(g.n, dec.rank).sum(axis=1)
    lines = ["x,exact,estimate,stderr,z_score"]
    max_z = 0.0
    for (x, est, se), exact in zip(rep.per_vertex, exact_x.tolist()):
        z = _z_score(est, exact, se)
        max_z = max(max_z, abs(z))
        lines.append(f"{x},{_fmt(exact)},{_fmt(est)},{_fmt(se)},{_fmt(z)}")
    exact_total = partition_function(dec.eigenvalues, t)
    z_total = _z_score(rep.estimate, exact_total, rep.stderr)
    max_z = max(max_z, abs(z_total))
    lines.append(f"total,{_fmt(exact_total)},{_fmt(rep.estimate)},"
                 f"{_fmt(rep.stderr)},{_fmt(z_total)}")
    _write(outdir, "fk_compare.csv", "\n".join(lines) + "\n")
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
        "checks": [("estimate within 3 standard errors", abs(z_total) <= 3.0,
                    detail)],
    }


def _cmd_kato(cfg, outdir):
    p = _resolve_inputs(cfg)
    if p.mode != "scalar":
        raise BadParams(f"kato takes a scalar problem, not {p.mode}: "
                        "no connection and a rank-1 potential")
    g, w = p.graph, p.potential.as_scalar()
    grid = _numbers(_params(cfg), "t_grid", [1.0, 0.5, 0.25, 0.125, 0.0625])
    lines = ["t,value"]
    values = []
    for t in grid:
        val = kato_functional(g, w, t)
        values.append(val)
        lines.append(f"{_fmt(t)},{_fmt(val)}")
    _write(outdir, "kato.csv", "\n".join(lines) + "\n")
    return {
        "subcommand": "kato",
        "t_grid": grid,
        "values": [float(v) for v in values],
        "checks": [("monotone in t", all(
            a >= b - 1e-12 for a, b in zip(values, values[1:])),
            "values nonincreasing along decreasing grid")],
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
        digest = hashlib.sha256(
            Path(config_path).read_bytes()).hexdigest()
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
