"""Output checks.  Each check reads what a pass produced and returns ops.

An op is ``(name, ok, detail)``: one operation of the workload together
with the verdict on its output.  A failed op counts in ``failed`` and makes
the benchmark exit non-zero.  The checks take artifacts and reference
values as arguments, so the self-tests can feed them perturbed copies.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RATE_REF_TOL = 1e-6         # solver value may sit this far below the reference optimum
ALLOWANCE_TOL = 1e-12       # |(upper - lower) - e^{-T} log(1/delta0)|
GOLDEN_RTOL = 1e-9          # ball probabilities against the golden DP values
RATE_FORMULA_RTOL = 1e-12   # rate == -log(p) / n
CHAIN_RULE_RTOL = 1e-9      # cost_occupation against cost_stepsum
BOUND_TOL = 1e-12           # slack allowed in each link of the PlanBounds chain
TIME_CHANGE_RTOL = 1e-6     # cost_reversed_quad against cost_mixed_quad


def read_csv(path) -> list[dict[str, str]]:
    """Rows of a package CSV as dicts, skipping the provenance comment."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# rate


def check_rate(profile_csv, points, T: float, delta0: float, reference: list[dict]):
    """Rows of ``rate_profile.csv``; returns ``(ops, excess)``.

    ``excess`` is the largest ``lower - ref`` over the reference points found
    in the profile (``None`` when there are none).
    """
    rows = read_csv(profile_csv)
    allowance = math.exp(-T) * math.log(1.0 / delta0)
    refs = {tuple(p["m"]): p["value"] for p in reference}
    ops = []
    excess = None
    if len(rows) != len(points):
        ops.append(("rate.rows", False, f"{len(rows)} rows for {len(points)} points"))
    for row, m in zip(rows, points):
        d = len(m)
        got_m = tuple(float(row[f"m_{i}"]) for i in range(1, d + 1))
        lower, upper = float(row["lower"]), float(row["upper"])
        numeric = [lower, upper] + ([float(row["dv_rate"])] if "dv_rate" in row else [])
        problems = []
        if got_m != tuple(m):
            problems.append(f"point {got_m} != {tuple(m)}")
        if not all(math.isfinite(v) for v in numeric):
            problems.append("non-finite value")
        if not lower >= 0.0:
            problems.append(f"lower {lower!r} < 0")
        if not abs((upper - lower) - allowance) <= ALLOWANCE_TOL:
            problems.append(f"upper-lower {upper - lower!r} != allowance {allowance!r}")
        ref = refs.get(tuple(m))
        if ref is not None:
            excess = lower - ref if excess is None else max(excess, lower - ref)
            if not lower >= ref - RATE_REF_TOL:
                problems.append(f"lower {lower!r} below reference {ref!r} by more than {RATE_REF_TOL}")
        ops.append((f"rate.solve{list(m)}", not problems, "; ".join(problems)))
    return ops, excess


# ---------------------------------------------------------------------------
# exact


def check_exact(trend_csv, golden: dict[int, float]):
    """Rows of ``rate_trend.csv`` against golden probabilities keyed by n."""
    rows = read_csv(trend_csv)
    ops = []
    seen = []
    for row in rows:
        n = int(row["n"])
        seen.append(n)
        p, rate = float(row["probability"]), float(row["rate"])
        problems = []
        g = golden.get(n)
        if g is None:
            problems.append(f"no golden value for n={n}")
        elif not _close(p, g, GOLDEN_RTOL):
            problems.append(f"probability {p!r} != golden {g!r}")
        if row["infinite"] != "false" or not p > 0.0:
            problems.append("infinite rate")
        elif not _close(rate, -math.log(p) / n, RATE_FORMULA_RTOL):
            problems.append(f"rate {rate!r} != -log(p)/n {-math.log(p) / n!r}")
        ops.append((f"exact.level[{n}]", not problems, "; ".join(problems)))
    if sorted(seen) != sorted(golden):
        ops.append(("exact.levels", False, f"levels {seen} != {sorted(golden)}"))
    return ops


# ---------------------------------------------------------------------------
# plan


def check_plan_bounds(plan_json) -> list:
    b = json.loads(Path(plan_json).read_text())["bounds"]
    problems = []
    if not all(math.isfinite(float(v)) for v in b.values()):
        problems.append("non-finite bound")
    if not b["cost_mollified_quad"] <= b["cost_reversed_quad"] + b["bound_mollify"] + BOUND_TOL:
        problems.append("cost_mollified_quad > cost_reversed_quad + bound_mollify")
    if not b["cost_schedule_quad"] <= b["cost_mollified_quad"] + b["bound_discretize"] + BOUND_TOL:
        problems.append("cost_schedule_quad > cost_mollified_quad + bound_discretize")
    if not _close(b["cost_reversed_quad"], b["cost_mixed_quad"], TIME_CHANGE_RTOL, 1e-15):
        problems.append("cost_reversed_quad != cost_mixed_quad")
    return [("plan.bounds", not problems, "; ".join(problems))]


def check_plan_runs(runs_csv, expected: int) -> list:
    rows = read_csv(runs_csv)
    ops = []
    if len(rows) != expected:
        ops.append(("plan.runs", False, f"{len(rows)} runs, expected {expected}"))
    for row in rows:
        occ, step = float(row["cost_occupation"]), float(row["cost_stepsum"])
        ok = math.isfinite(occ) and _close(occ, step, CHAIN_RULE_RTOL, 1e-15)
        ops.append((f"plan.run[seed={row['seed']}]", ok,
                    "" if ok else f"cost_occupation {occ!r} != cost_stepsum {step!r}"))
    return ops


def check_cost_trend(trend_csv, margin: float) -> list:
    """The last row's Monte Carlo mean lies in the band of criterion C10."""
    rows = read_csv(trend_csv)
    if not rows:
        return [("plan.cost_trend", False, "empty cost trend")]
    last = rows[-1]
    mean, quad, allowance = (float(last[k]) for k in ("mc_mean", "quad_cost", "allowance"))
    lo, hi = quad - margin, quad + allowance + margin
    ok = lo <= mean <= hi
    return [("plan.cost_trend", ok, "" if ok else f"mc_mean {mean!r} outside [{lo!r}, {hi!r}]")]


# ---------------------------------------------------------------------------
# simulate


def check_simulate_paths(out_dir, seed: int, paths: int, n: int) -> list:
    """Each path CSV has ``n`` rows ending where the summary says it ends."""
    out_dir = Path(out_dir)
    summary = read_csv(out_dir / "simulate_summary.csv")
    ops = []
    for i in range(paths):
        rows = read_csv(out_dir / f"path_{seed + i}.csv")
        problems = []
        if len(rows) != n:
            problems.append(f"{len(rows)} rows, expected {n}")
        keys = [k for k in rows[-1] if k.startswith("L_")] if rows else []
        final = [float(rows[-1][k]) for k in keys] if rows else []
        if not _close(math.fsum(final), 1.0, 0.0, 1e-12):
            problems.append("final measure does not sum to 1")
        if i >= len(summary) or [float(summary[i][k]) for k in keys] != final:
            problems.append("summary row differs from the path's last row")
        ops.append((f"simulate.path[{seed + i}]", not problems, "; ".join(problems)))
    return ops


def check_batch(batch_counts, path0_counts, law: dict[tuple, float], tv_limit: float) -> list:
    """Batch path 0 reproduces the single path; the batch histogram is
    within ``tv_limit`` of the exact law in total variation."""
    first = [int(v) for v in batch_counts[0]]
    ok0 = first == [int(v) for v in path0_counts]
    ops = [("simulate.batch_path0", ok0, "" if ok0 else f"batch path 0 {first} != single path {list(path0_counts)}")]
    hist: dict[tuple, int] = {}
    for row in batch_counts:
        key = tuple(int(v) for v in row)
        hist[key] = hist.get(key, 0) + 1
    total = len(batch_counts)
    keys = set(hist) | set(law)
    tv = 0.5 * math.fsum(abs(hist.get(k, 0) / total - law.get(k, 0.0)) for k in keys)
    ok = tv <= tv_limit
    ops.append(("simulate.batch_tv", ok, f"TV {tv:.5f}" + ("" if ok else f" > {tv_limit}")))
    return ops


# ---------------------------------------------------------------------------
# determinism across passes


def check_identical(first: dict[str, str], other: dict[str, str], label: str) -> list:
    """Artifact digests of a later pass against the first pass of the run."""
    diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return [(f"artifacts.identical[{label}]", not diff, "" if not diff else "differ: " + ", ".join(diff))]
