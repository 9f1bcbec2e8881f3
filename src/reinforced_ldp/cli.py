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
preconditions, 4 resource limits, 5 numerical failures (a rate solve that
cannot proceed, or an exact law whose mass drifts).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
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
    PolicyError,
    PositivityViolation,
    PreconditionViolation,
    ResourceLimitExceeded,
    SimplexViolation,
)
from .exact import DEFAULT_MEM_CAP_BYTES, ball_rate, check_ball, exact_law_levels, export_law_csv, export_rate_trend_csv
from .lowerbound import (
    DEFAULT_SLACK,
    EPS_TARGET,
    _plan_horizon,
    _plan_runs,
    build_plan,
    check_cost_convergence,
    export_cost_report_csv,
    export_runs_csv,
    plan_to_json,
)
from .measures import Kernel, build_kernel_mixture, build_kernel_qsd
from .ratesolver import rate_profile, simplex_mesh, solve_dv_rate
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


_REQUIRED = object()


def _as_kind(value, kind):
    """``value`` as the JSON kind ``kind``, or a TypeError.

    ``int`` takes an integer or an integral float (``1000.0`` is 1000),
    ``float`` any finite number, ``bool`` only ``true``/``false``, ``str`` a
    string, ``dict`` an object, ``object`` any value but a bool, and
    ``[kind]`` a list of ``kind``.  Strings, bools, ``NaN`` and ``Infinity``
    are never numbers.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise TypeError
        return [_as_kind(v, kind[0]) for v in value]
    if isinstance(value, bool) != (kind is bool):
        raise TypeError
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and isinstance(value, int):
        return float(value)
    if not isinstance(value, kind) or (kind is float and not math.isfinite(value)):
        raise TypeError
    return value


def _read(sect: dict, where: str, key: str, kind, default=_REQUIRED):
    """``sect[key]`` as ``kind`` (see :func:`_as_kind`), or ``default`` when absent.

    A null value counts as absent only where ``default`` is None.  A missing
    required key or a value of the wrong kind is a ConfigError naming
    ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    value = sect.get(key)
    if value is None and (key not in sect or default is None):
        if default is _REQUIRED:
            raise ConfigError(f"config needs '{name}'")
        return default
    try:
        return _as_kind(value, kind)
    except TypeError:
        raise ConfigError(f"config '{name}' has a value of the wrong type: {value!r}") from None


def _count(sect: dict, where: str, key: str, default=_REQUIRED) -> int:
    """An integer key that must be at least 1."""
    value = _read(sect, where, key, int, default)
    if value < 1:
        raise ConfigError(f"config '{where}.{key}' must be >= 1, got {value}")
    return value


def _list(sect: dict, where: str, key: str, kind):
    """A non-empty list of ``kind`` (see :func:`_read`), or None when absent;
    a list of integers is a list of counts, each at least 1."""
    value = _read(sect, where, key, [kind], None)
    if value is not None and (not value or (kind is int and min(value) < 1)):
        what = "non-empty list of counts >= 1" if kind is int else "non-empty list"
        raise ConfigError(f"config '{where}.{key}' must be a {what}, got {value!r}")
    return value


def _overlay(sect: dict, **flags) -> dict:
    """``sect`` with the command-line ``flags`` laid over its keys; a flag
    left at None does not override."""
    return {**sect, **{k: v for k, v in flags.items() if v is not None}}


def _section(doc: dict, name: str, **flags) -> dict:
    return _overlay(_read(doc, "", name, dict, {}), **flags)


def _kernel_from_config(doc: dict) -> Kernel:
    spec = _read(doc, "", "kernel", dict)
    if "matrix" in spec:
        return Kernel(_read(spec, "kernel", "matrix", object))
    if "qsd" in spec:
        return build_kernel_qsd(_read(_read(spec, "kernel", "qsd", dict), "kernel.qsd", "p", object))
    if "mixture" in spec:
        mix = _read(spec, "kernel", "mixture", dict)
        return build_kernel_mixture(
            _read(mix, "kernel.mixture", "alpha", float),
            _read(mix, "kernel.mixture", "p", object),
            _read(mix, "kernel.mixture", "B", object),
        )
    raise ConfigError("kernel config needs one of 'matrix', 'qsd', 'mixture'")


def _provenance(effective: dict, seed: int) -> str:
    blob = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return f"config_sha256={digest} seed={seed}"


def _resolve_seed(args, doc: dict) -> int:
    seed = _read(_overlay(doc, seed=args.seed), "", "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
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
    sect = _section(doc, "simulate", n=args.n, x0=args.x0, paths=args.paths)
    n = _count(sect, "simulate", "n", 1000)
    x0 = _read(sect, "simulate", "x0", int, 1)
    paths = _count(sect, "simulate", "paths", 1)
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
    sect = _section(doc, "exact", n_list=None if args.n is None else [args.n], x0=args.x0)
    n_list = _list(sect, "exact", "n_list", int)
    if n_list is None:
        n_list = [_count(sect, "exact", "n", 20)]
    x0 = _read(sect, "exact", "x0", int, 1)
    target = _read(sect, "exact", "target", [float], None)
    radius = _read(sect, "exact", "radius", float, 0.05)
    if target is not None:
        check_ball(target, radius, A.d)  # before the DP, so a bad ball costs no law
    seed = _resolve_seed(args, doc)
    eff = {
        "command": "exact",
        "kernel": A.matrix.tolist(),
        "n_list": n_list,
        "x0": x0,
        "target": target,
        "radius": radius if target is not None else None,
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    laws = exact_law_levels(A, x0, n_list, _mem_cap_bytes())
    for n in sorted(laws):
        export_law_csv(laws[n], out / f"law_{n}.csv", prov)
        print(f"exact: law at n={n} has {len(laws[n].probs)} atoms "
              f"(dropped mass {laws[n].dropped_mass:.3e})")
    if target is not None:
        records = [ball_rate(laws[n], np.asarray(target), radius) for n in sorted(laws)]
        export_rate_trend_csv(records, out / "rate_trend.csv", prov)
        print(f"exact: ball rates for {len(records)} level(s) written")
        print(f"exact: {sum(r.rate_is_bound for r in records)} of {len(records)} ball rate(s) "
              f"are lower bounds (rate_is_bound)")
    return 0


def cmd_rate(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "rate", T=args.T, dv=args.dv)
    T = _read(sect, "rate", "T", float, 14.0)
    J = _read(sect, "rate", "J", int, None)
    dv = _read(sect, "rate", "dv", bool, False)
    points = _list(sect, "rate", "points", [float])
    mesh_step = _read(sect, "rate", "mesh_step", float, None)
    if points is not None:
        points = [np.asarray(p) for p in points]
    elif mesh_step is not None:
        points = simplex_mesh(A.d, mesh_step)
    else:
        raise ConfigError("rate config needs 'points' or 'mesh_step'")
    seed = _resolve_seed(args, doc)
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
    brackets = rate_profile(A, points, T=T, J=J)
    dv_rates = [solve_dv_rate(m, A) for m in points] if dv else None
    header = [f"m_{x}" for x in range(1, A.d + 1)] + ["lower", "upper"]
    if dv:
        header.append("dv_rate")
    header += ["iterations", "gap", "converged", "boundary_flag"]

    def _rows():
        for i, (m, br) in enumerate(zip(eff["points"], brackets)):
            diag = br.diagnostics
            rec = m + [br.lower, br.upper]
            if dv:
                rec.append(dv_rates[i])
            rec += [diag.iterations, diag.gap, int(diag.converged), int(diag.boundary_lifted)]
            yield rec

    write_csv(out / "rate_profile.csv", header, _rows(), prov)
    for m, br in zip(eff["points"], brackets):
        at = " ".join(f"{v:.6f}" for v in m)
        if not br.diagnostics.converged:
            print(f"rate: solve did not converge at m={at} (gap bound {br.diagnostics.gap:.3e})")
        if br.diagnostics.binding:
            print(f"rate: feasibility cap binding at m={at}")
    print(f"rate: {len(brackets)} point(s) written to rate_profile.csv")
    return 0


def cmd_lowerbound(args) -> int:
    doc = _load_config(args.config)
    A = _kernel_from_config(doc)
    sect = _section(doc, "lowerbound")
    m = _read(sect, "lowerbound", "m", [float])
    seed = _resolve_seed(args, doc)
    T = _read(sect, "lowerbound", "T", float, 2.0)
    J = _read(sect, "lowerbound", "J", int, None)
    include_schedule = _read(sect, "lowerbound", "include_schedule", bool, False)
    slack = _read(sect, "lowerbound", "slack", float, DEFAULT_SLACK)
    eps0 = _read(sect, "lowerbound", "eps0", float, 0.3)
    # read the experiment settings before the plan, so a bad one costs no plan work
    n_list = _list(sect, "lowerbound", "n_list", int)
    trend_seeds = _count(sect, "lowerbound", "n_seeds", 20)
    runs_sect = _read(sect, "lowerbound", "runs", dict, None)
    if runs_sect is not None:
        n_run = _count(runs_sect, "lowerbound.runs", "n")
        run_seeds = _count(runs_sect, "lowerbound.runs", "n_seeds", 10)
    # eps0 and each horizon's room for the schedule, by the check the runs make
    for n in (n_list or []) + ([n_run] if runs_sect is not None else []):
        _plan_horizon(T, n, eps0, "lowerbound")
    eff = {
        "command": "lowerbound",
        "kernel": A.matrix.tolist(),
        "m": m,
        "T": T,
        "J": J,
        "slack": slack,
        # the retired kappa1, kappa2 and eps_target settings, hashed at the
        # values every config that set none of them always hashed
        "kappas": [None, None],
        "eps_target": EPS_TARGET,
        "eps0": eps0,
        "n_list": n_list,
        "n_seeds": trend_seeds,
        "runs": {"n": n_run, "n_seeds": run_seeds} if runs_sect is not None else None,
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    plan = build_plan(m, A, T=T, J=J, slack=slack)
    plan_doc = json.loads(plan_to_json(plan, include_schedule=include_schedule))
    plan_doc["provenance"] = prov
    (out / "plan.json").write_text(json.dumps(plan_doc, indent=2) + "\n")
    print(f"lowerbound: schedule of {plan.Jc} pieces, "
          f"cost_schedule_quad {plan.bounds.cost_schedule_quad:.6f}, target gap {plan.bounds.target_gap:.3e}")
    if n_list is not None:
        report = check_cost_convergence(plan, A, n_list, trend_seeds, eps0, seed=seed)
        export_cost_report_csv(out / "cost_trend.csv", report, prov)
        print(f"lowerbound: cost trend over n={n_list} written (quad {report.quad_cost:.6f}, "
              f"allowance {report.allowance:.6f})")
    if runs_sect is not None:
        hits = 0

        def runs():
            # one run at a time, streamed through blocks of steps: its row is written as it ends
            nonlocal hits
            for run in _plan_runs(plan, A, n_run, eps0, range(seed, seed + run_seeds), 1, "lowerbound"):
                hits += run.an_occurred
                yield run

        export_runs_csv(out / "runs.csv", runs(), prov)
        print(f"lowerbound: {run_seeds} run(s) at n={n_run}; fallback taken {hits} time(s)")
    return 0


def cmd_validate(args) -> int:
    doc = _load_config(args.config)
    sect = _section(doc, "validate", scale=args.scale, include=args.include)
    scale = _read(sect, "validate", "scale", float, 1.0)
    include = _read(sect, "validate", "include", [str], None)
    seed = _resolve_seed(args, doc)
    eff = {
        "command": "validate",
        "scale": scale,
        "include": include if include is not None else "all",
    }
    prov = _provenance(eff, seed)
    out = _out_dir(args)
    results = run_acceptance(scale=scale, seed=seed, include=include)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first :func:`main` call of a process
    and kept: each parse fills a new namespace, so calls share no state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--seed", type=int, default=None, help="base RNG seed")
    common.add_argument("--threads", type=int, default=None, help="accepted and ignored; every solve runs in-process")
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
    p.add_argument("--dv", action="store_true", default=None,
                   help="also solve the pair-measure rate per point")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("lowerbound", parents=[common],
                       help="build a reversed plan and run scheduled experiments")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("validate", parents=[common], help="run the acceptance battery")
    p.add_argument("--scale", type=float, default=None,
                   help="sample-count multiplier (tolerances unchanged)")
    p.add_argument("--include", type=lambda s: [c for c in s.split(",") if c], default=None,
                   help="comma-separated criterion ids")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PositivityViolation, SimplexViolation, DimensionMismatch, PolicyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitExceeded as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
