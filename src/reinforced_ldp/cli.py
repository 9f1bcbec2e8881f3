"""Command-line front end.

Subcommands: ``simulate`` (reinforced-chain paths), ``exact`` (count
laws and finite-n ball rates), ``rate`` (bracket profiles over query
points), ``lowerbound`` (reversed plans and scheduled-run experiments),
and ``validate`` (the acceptance battery).

Configuration comes from a JSON file given with ``--config``; command
line flags override config values.  Every CSV output starts with a
provenance comment ``# config_sha256=<hash> seed=<seed>`` where the hash
covers the effective (post-override) parameter set.  Exit codes: 0
success, 1 validation failures, 2 configuration errors, 3 violated
preconditions, 4 resource limits, 5 numerical failures (a solve that does
not converge, a control that leaves the simplex, or an exact law whose mass
drifts).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._format import write_csv
from .chains import export_path_csv, simulate_chain
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionMismatch,
    InfeasibleTrajectory,
    PolicyError,
    PositivityViolation,
    PreconditionViolation,
    ResourceLimitExceeded,
    SimplexViolation,
)
from .exact import DEFAULT_MEM_CAP_BYTES, ball_rate, exact_law_levels, export_law_csv, export_rate_trend_csv
from .lowerbound import (
    DEFAULT_EPS_TARGET,
    DEFAULT_SLACK,
    build_plan,
    check_cost_convergence,
    export_cost_report_csv,
    export_runs_csv,
    plan_to_json,
    run_plan,
)
from .measures import Kernel, build_kernel_mixture, build_kernel_qsd
from .ratesolver import rate_profile, simplex_mesh
from .validation import REPORT_FILENAME, format_report_lines, run_acceptance, write_report_csv

MEM_CAP_ENV = "REINFORCED_LDP_MEM_CAP_MB"


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _field(sect, key: str, where: str):
    """``sect[key]``, or a ConfigError naming the missing ``where.key``."""
    if not isinstance(sect, dict) or key not in sect:
        raise ConfigError(f"config needs '{where}.{key}'")
    return sect[key]


def _typed(value, kind, where: str):
    """``kind(value)``, or a ConfigError naming ``where`` when the value has the wrong type."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config '{where}' has a value of the wrong type: {value!r}") from None


def _json_bool(value) -> bool:
    """A JSON ``true``/``false``; anything else, the string "false" included, is a TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _int_list(values) -> list[int]:
    return [int(v) for v in values]


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


def _str_list(values) -> list[str]:
    """A JSON list of strings; a bare string or a number is a TypeError."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"expected a list of strings, got {values!r}")
    return values


def _section(doc: dict, name: str) -> dict:
    sect = doc.get(name, {})
    if not isinstance(sect, dict):
        raise ConfigError(f"config '{name}' must be an object")
    return sect


def _kernel_from_config(doc: dict) -> Kernel:
    spec = doc.get("kernel")
    if not isinstance(spec, dict):
        raise ConfigError("config must define a 'kernel' object")
    if "matrix" in spec:
        return Kernel(spec["matrix"])
    if "qsd" in spec:
        return build_kernel_qsd(_field(spec["qsd"], "p", "kernel.qsd"))
    if "mixture" in spec:
        mix = spec["mixture"]
        return build_kernel_mixture(*(_field(mix, key, "kernel.mixture") for key in ("alpha", "p", "B")))
    raise ConfigError("kernel config needs one of 'matrix', 'qsd', 'mixture'")


def _provenance(effective: dict, seed: int) -> str:
    blob = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return f"config_sha256={digest} seed={seed}"


def _resolve_seed(args, doc: dict) -> int:
    seed = args.seed if args.seed is not None else _typed(doc.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _resolve_threads(args, doc: dict) -> int:
    threads = args.threads if args.threads else _typed(doc.get("threads", 0), int, "threads")
    if threads <= 0:
        threads = os.cpu_count() or 1
    return threads


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mem_cap_bytes() -> int:
    raw = os.environ.get(MEM_CAP_ENV)
    if raw is None:
        return DEFAULT_MEM_CAP_BYTES
    try:
        mb = int(raw)
        if mb <= 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{MEM_CAP_ENV} must be a positive integer, got {raw!r}") from None
    return mb * 2**20


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "simulate")
    n = args.n if args.n is not None else _typed(sect.get("n", 1000), int, "simulate.n")
    x0 = args.x0 if args.x0 is not None else _typed(sect.get("x0", 1), int, "simulate.x0")
    paths = args.paths if args.paths is not None else _typed(sect.get("paths", 1), int, "simulate.paths")
    if paths < 1:
        raise ConfigError("simulate: paths must be >= 1")
    seed = _resolve_seed(args, doc)
    eff = {
        "command": "simulate",
        "kernel": A.matrix.tolist(),
        "n": n,
        "x0": x0,
        "paths": paths,
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    finals = np.empty((paths, A.d))
    for i in range(paths):
        path = simulate_chain(A, x0, n, seed + i)
        export_path_csv(path, out / f"path_{seed + i}.csv", prov)
        finals[i] = path.L[-1]
    header = ["seed"] + [f"L_{x}" for x in range(1, A.d + 1)]
    rows = ([seed + i] + [float(v) for v in finals[i]] for i in range(paths))
    write_csv(out / "simulate_summary.csv", header, rows, prov)
    mean = finals.mean(axis=0)
    print(f"simulate: {paths} path(s) of {n} steps; mean final measure "
          + " ".join(f"{v:.6f}" for v in mean))
    return 0


def cmd_exact(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "exact")
    if args.n is not None:
        n_list = [args.n]
    elif "n_list" in sect:
        n_list = _typed(sect["n_list"], _int_list, "exact.n_list")
    else:
        n_list = [_typed(sect.get("n", 20), int, "exact.n")]
    x0 = args.x0 if args.x0 is not None else _typed(sect.get("x0", 1), int, "exact.x0")
    target, radius = sect.get("target"), None
    if target is not None:
        target = _typed(target, _float_list, "exact.target")
        radius = _typed(sect.get("radius", 0.05), float, "exact.radius")
    seed = _resolve_seed(args, doc)
    eff = {
        "command": "exact",
        "kernel": A.matrix.tolist(),
        "n_list": n_list,
        "x0": x0,
        "target": target,
        "radius": radius,
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    laws = exact_law_levels(A, x0, n_list, _mem_cap_bytes())
    for n in sorted(laws):
        export_law_csv(laws[n], out / f"law_{n}.csv", prov)
        print(f"exact: law at n={n} has {len(laws[n].atoms)} atoms "
              f"(dropped mass {laws[n].dropped_mass:.3e})")
    if target is not None:
        records = [ball_rate(laws[n], np.asarray(target), radius) for n in sorted(laws)]
        export_rate_trend_csv(records, out / "rate_trend.csv", prov)
        print(f"exact: ball rates for {len(records)} level(s) written")
    return 0


def cmd_rate(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "rate")
    T = args.T if args.T is not None else _typed(sect.get("T", 14.0), float, "rate.T")
    J = sect.get("J")
    J = _typed(J, int, "rate.J") if J is not None else None
    dv = True if args.dv else _typed(sect.get("dv", False), _json_bool, "rate.dv")
    if sect.get("points") is not None:
        raw_points = _typed(sect["points"], list, "rate.points")
        points = [np.asarray(_typed(p, _float_list, "rate.points")) for p in raw_points]
    elif sect.get("mesh_step") is not None:
        points = simplex_mesh(A.d, _typed(sect["mesh_step"], float, "rate.mesh_step"))
    else:
        raise ConfigError("rate config needs 'points' or 'mesh_step'")
    seed = _resolve_seed(args, doc)
    threads = _resolve_threads(args, doc)
    eff = {
        "command": "rate",
        "kernel": A.matrix.tolist(),
        "T": T,
        "J": J,
        "dv": dv,
        "points": [[float(v) for v in p] for p in points],
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    rows = rate_profile(A, points, T=T, J=J, dv=dv, threads=threads)
    header = [f"m_{x}" for x in range(1, A.d + 1)] + ["lower", "upper"]
    if dv:
        header.append("dv_rate")
    header += ["iterations", "gap", "converged", "boundary_flag"]

    def _rows():
        for r in rows:
            rec = list(r.m) + [r.lower, r.upper]
            if dv:
                rec.append(r.dv_rate)
            rec += [r.iterations, r.gap, int(r.converged), int(r.boundary_lifted)]
            yield rec

    write_csv(out / "rate_profile.csv", header, _rows(), prov)
    for r in rows:
        at = " ".join(f"{v:.6f}" for v in r.m)
        if not r.converged:
            print(f"rate: solve did not converge at m={at} (gap bound {r.gap:.3e})")
        if r.binding:
            print(f"rate: feasibility cap binding at m={at}")
    print(f"rate: {len(rows)} point(s) written to rate_profile.csv")
    return 0


def cmd_lowerbound(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "lowerbound")
    m = sect.get("m")
    if m is None:
        raise ConfigError("lowerbound config needs a target 'm'")
    m = _typed(m, _float_list, "lowerbound.m")
    seed = _resolve_seed(args, doc)
    T = _typed(sect.get("T", 2.0), float, "lowerbound.T")
    J = sect.get("J")
    J = _typed(J, int, "lowerbound.J") if J is not None else None
    kappa1, kappa2 = (
        _typed(sect[k], float, f"lowerbound.{k}") if sect.get(k) is not None else None
        for k in ("kappa1", "kappa2")
    )
    include_schedule = _typed(sect.get("include_schedule", False), _json_bool, "lowerbound.include_schedule")
    slack = _typed(sect.get("slack", DEFAULT_SLACK), float, "lowerbound.slack")
    eps_target = _typed(sect.get("eps_target", DEFAULT_EPS_TARGET), float, "lowerbound.eps_target")
    eps0 = _typed(sect.get("eps0", 0.3), float, "lowerbound.eps0")
    # read the experiment settings before the plan, so a bad one costs no plan work
    n_list = sect.get("n_list")
    if n_list is not None:
        n_list = _typed(n_list, _int_list, "lowerbound.n_list")
    trend_seeds = _typed(sect.get("n_seeds", 20), int, "lowerbound.n_seeds")
    runs_sect = sect.get("runs")
    if runs_sect is not None:
        n_run = _typed(_field(runs_sect, "n", "lowerbound.runs"), int, "lowerbound.runs.n")
        run_seeds = _typed(runs_sect.get("n_seeds", 10), int, "lowerbound.runs.n_seeds")
    eff = {
        "command": "lowerbound",
        "kernel": A.matrix.tolist(),
        "m": m,
        "T": T,
        "J": J,
        "slack": slack,
        "kappas": [kappa1, kappa2],
        "eps_target": eps_target,
        "eps0": eps0,
        "n_list": n_list,
        "n_seeds": trend_seeds,
        "runs": {"n": n_run, "n_seeds": run_seeds} if runs_sect is not None else None,
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    plan = build_plan(
        m,
        A,
        T=T,
        J=J,
        kappa1=kappa1,
        kappa2=kappa2,
        eps_target=eps_target,
        slack=slack,
    )
    plan_doc = json.loads(plan_to_json(plan, include_schedule=include_schedule))
    plan_doc["provenance"] = prov
    (out / "plan.json").write_text(json.dumps(plan_doc, indent=2) + "\n")
    print(f"lowerbound: schedule of {plan.Jc} intervals (mesh {plan.c:.3e}), "
          f"certified cost {plan.certified_cost:.6f}, target gap {plan.bounds.target_gap:.3e}")
    if n_list is not None:
        report = check_cost_convergence(plan, A, n_list, trend_seeds, eps0, seed=seed)
        export_cost_report_csv(out / "cost_trend.csv", report, prov)
        print(f"lowerbound: cost trend over n={n_list} written (quad {report.quad_cost:.6f}, "
              f"allowance {report.allowance:.6f})")
    if runs_sect is not None:
        runs = [run_plan(plan, A, n_run, eps0, seed + i) for i in range(run_seeds)]
        export_runs_csv(out / "runs.csv", runs, prov)
        hits = sum(r.an_occurred for r in runs)
        print(f"lowerbound: {run_seeds} run(s) at n={n_run}; fallback taken {hits} time(s)")
    return 0


def cmd_validate(args) -> int:
    doc = _load_config(args.config)
    sect = _section(doc, "validate")
    scale = args.scale if args.scale is not None else _typed(sect.get("scale", 1.0), float, "validate.scale")
    include = sect.get("include")
    if args.include is not None:
        include = [c for c in args.include.split(",") if c]
    elif include is not None:
        include = _typed(include, _str_list, "validate.include")
    seed = _resolve_seed(args, doc)
    threads = _resolve_threads(args, doc)
    eff = {
        "command": "validate",
        "scale": scale,
        "include": include if include is not None else "all",
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    results = run_acceptance(scale=scale, seed=seed, threads=threads, include=include)
    write_report_csv(out / REPORT_FILENAME, results, prov)
    for line in format_report_lines(results):
        print(line)
    n_fail = sum(not r.passed for r in results)
    total = sum(r.runtime_s for r in results)
    print(f"validate: {len(results) - n_fail}/{len(results)} criteria passed "
          f"in {total:.1f}s (scale {scale:g})")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--seed", type=int, default=None, help="base RNG seed")
    common.add_argument("--threads", type=int, default=0,
                        help="worker processes (0 = all available)")
    parser = argparse.ArgumentParser(
        prog="reinforced-ldp",
        description="Reinforced-chain empirical-measure rates: simulation, "
                    "exact laws, rate brackets, scheduled lower-bound runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="simulate reinforced-chain paths")
    p.add_argument("--n", type=int, default=None, help="steps per path")
    p.add_argument("--x0", type=int, default=None, help="starting state (1-based)")
    p.add_argument("--paths", type=int, default=None, help="number of paths")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", parents=[common], help="exact count laws and ball rates")
    p.add_argument("--n", type=int, default=None, help="single level to compute")
    p.add_argument("--x0", type=int, default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("rate", parents=[common], help="rate brackets over query points")
    p.add_argument("--T", type=float, default=None, help="horizon of the discretization")
    p.add_argument("--dv", action="store_true", default=False,
                   help="also solve the pair-measure rate per point")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("lowerbound", parents=[common],
                       help="build a reversed plan and run scheduled experiments")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("validate", parents=[common], help="run the acceptance battery")
    p.add_argument("--scale", type=float, default=None,
                   help="sample-count multiplier (tolerances unchanged)")
    p.add_argument("--include", default=None, help="comma-separated criterion ids")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PositivityViolation, SimplexViolation, DimensionMismatch, PolicyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitExceeded as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return 4
    except (ConvergenceError, InfeasibleTrajectory) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
