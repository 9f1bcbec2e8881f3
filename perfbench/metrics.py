"""Metric names, units and how the per-layer ones are computed.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the self-test
checks that they agree).  End-to-end metrics come from untraced passes;
per-layer metrics come from traced passes, through :func:`layer_metrics`
and the counter hooks below.
"""
from __future__ import annotations

import math
import os

END_TO_END = {
    "cpu_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed for every workload, but not gated: raw wall times move too much
# with the vCPU's speed (see speed.py), failed_frac is 0 at the seed, and
# rate_excess exists only on one workload
REPORTED = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "vcpu_speed": "ratio",
    "failed_frac": "ratio",
    "rate_excess": "nats",
}

PER_LAYER = {
    "ratesolver.solve_rate.calls": "count",
    "ratesolver.solve_rate.self_s": "s",
    "ratesolver.project_control.calls": "count",
    "ratesolver.project_control.self_s": "s",
    "ratesolver.solve_dv_rate.self_s": "s",
    "ratesolver.iterations": "count",
    "ratesolver.converged_frac": "ratio",
    "ratesolver.rate_excess": "nats",
    "exact.exact_law_levels.self_s": "s",
    "exact.event_probability.self_s": "s",
    "exact.export_law_csv.self_s": "s",
    "exact.atom_steps": "count",
    "exact.ns_per_atom_step": "ns",
    "chains.simulate_chain_batch.self_s": "s",
    "chains.simulate_chain.self_s": "s",
    "chains.path_rng.calls": "count",
    "chains.path_rng.self_s": "s",
    "chains.ns_per_batch_path_step": "ns",
    "chains.ns_per_long_path_step": "ns",
    "chains.export_path_csv.self_s": "s",
    "chains.export_path_csv.bytes": "bytes",
    "chains.verify_chain_rule_identity.self_s": "s",
    "lowerbound.build_plan.self_s": "s",
    "lowerbound.reversed_cost.calls": "count",
    "lowerbound.reversed_cost.self_s": "s",
    "lowerbound.integrate_reversed.self_s": "s",
    "lowerbound.run_plan.calls": "count",
    "lowerbound.run_plan.self_s": "s",
    "lowerbound.schedule_rows": "count",
    "lowerbound.quad_nodes": "count",
    "lowerbound.fallback_frac": "ratio",
    "cli.simulate.self_s": "s",
    "cli.exact.self_s": "s",
    "cli.rate.self_s": "s",
    "cli.lowerbound.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
# computed from sizes, not measured: labelled as such in the report
COMPUTED = ("exact.atom_steps", "lowerbound.quad_nodes")


# ---------------------------------------------------------------------------
# counter hooks: (counters, bound arguments, result) -> None


def _solve_rate(c, args, out):
    c["ratesolver.iterations"] += out.diagnostics.iterations
    c["ratesolver.converged"] += bool(out.diagnostics.converged)


def _exact_law_levels(c, args, out):
    # the DP expands every atom of levels 1..n_max-1; with the start state
    # pinned, level k has C(k+d-2, d-1) compositions, which sum to C(n_max+d-2, d)
    d = args["A"].d
    n_max = max(int(n) for n in args["n_list"])
    c["exact.atom_steps"] += math.comb(n_max + d - 2, d)


def _simulate_chain_batch(c, args, out):
    c["chains.batch_path_steps"] += int(args["n_paths"]) * (int(args["n"]) - 1)


def _simulate_chain(c, args, out):
    c["chains.long_path_steps"] += int(args["n"]) - 1


def _export_path_csv(c, args, out):
    c["chains.export_path_csv.bytes"] += os.path.getsize(args["file"])


def _build_plan(c, args, out):
    c["lowerbound.schedule_rows"] += out.Jc
    # the schedule's own quadrature plus the forward one over the solver grid
    c["lowerbound.quad_pieces"] += out.Jc + len(out.control_reversed.breaks) - 1


def _reversed_cost(c, args, out):
    c["lowerbound.quad_pieces"] += len(args["path"].breaks) - 1


def _run_plan(c, args, out):
    c["lowerbound.fallbacks"] += bool(out.an_occurred)


HOOKS = {
    "ratesolver.solve_rate": _solve_rate,
    "exact.exact_law_levels": _exact_law_levels,
    "chains.simulate_chain_batch": _simulate_chain_batch,
    "chains.simulate_chain": _simulate_chain,
    "chains.export_path_csv": _export_path_csv,
    "lowerbound.build_plan": _build_plan,
    "lowerbound.reversed_cost": _reversed_cost,
    "lowerbound.run_plan": _run_plan,
}


def layer_metrics(stats: dict, counters: dict, wall_s: float, top_level_s: float,
                  nodes_per_piece: int) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.overhead_s`` is left to the caller,
    which also sees the untraced passes)."""

    def get(span, key):
        return float(stats.get(span, {}).get(key, 0.0))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        head, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and not head.startswith("cli."):
            out[name] = get(head, key)
    for cmd in ("simulate", "exact", "rate", "lowerbound"):
        out[f"cli.{cmd}.self_s"] = get(f"cli.cmd_{cmd}", "self_s")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    solves = get("ratesolver.solve_rate", "calls")
    out["ratesolver.iterations"] = counters.get("ratesolver.iterations", 0.0)
    out["ratesolver.converged_frac"] = ratio(counters.get("ratesolver.converged", 0.0), solves)
    atom_steps = counters.get("exact.atom_steps", 0.0)
    out["exact.atom_steps"] = atom_steps
    out["exact.ns_per_atom_step"] = ratio(get("exact.exact_law_levels", "self_s"), atom_steps, 1e9)
    out["chains.ns_per_batch_path_step"] = ratio(
        get("chains.simulate_chain_batch", "incl_s"), counters.get("chains.batch_path_steps", 0.0), 1e9)
    out["chains.ns_per_long_path_step"] = ratio(
        get("chains.simulate_chain", "incl_s"), counters.get("chains.long_path_steps", 0.0), 1e9)
    out["chains.export_path_csv.bytes"] = counters.get("chains.export_path_csv.bytes", 0.0)
    out["lowerbound.schedule_rows"] = counters.get("lowerbound.schedule_rows", 0.0)
    out["lowerbound.quad_nodes"] = counters.get("lowerbound.quad_pieces", 0.0) * nodes_per_piece
    out["lowerbound.fallback_frac"] = ratio(counters.get("lowerbound.fallbacks", 0.0),
                                            get("lowerbound.run_plan", "calls"))
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - top_level_s
    return out
