"""Acceptance lab: the packaged battery of end-to-end validation checks.

Each criterion exercises one guarantee of the library end to end, from
closed-form benchmarks (product kernels, stationary points, exact count
laws) through solver self-consistency (node-space gradients, convexity) to
the scheduled-chain experiments.  ``run_acceptance`` executes a chosen
subset at a given scale; the scale shrinks sample counts for smoke runs
while leaving tolerances and contract constants untouched.

Criterion values, thresholds, and pass flags go to the report CSV;
runtimes are reported on stdout only so reruns stay byte-identical.
"""
from __future__ import annotations

import functools
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._format import write_csv
from .chains import TimeGrid, path_rng, simulate_chain_batch, simulate_controlled, verify_chain_rule_identity
from .errors import ConfigError
from .exact import exact_law, finite_n_rate
from .lowerbound import build_plan, check_cost_convergence, run_plan
from .measures import Kernel, ProbVec, relative_entropy, stationary_distribution
from .ratesolver import (
    PiecewiseControl,
    _newton_parts,
    _node_controls,
    _weights_vector,
    discounted_cost,
    integrate_forward,
    rate_profile,
    solve_dv_rate,
    solve_rate,
)

REPORT_FILENAME = "acceptance_report.csv"

_BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
_SANOV_P = np.array([0.7, 0.3])
_BENCH_TARGET = np.array([0.3, 0.7])


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    value: float
    threshold: float
    passed: bool
    runtime_s: float
    detail: str = ""


def _count(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _random_kernel(rng: np.random.Generator, d: int) -> Kernel:
    rows = rng.dirichlet(np.full(d, 2.0), size=d)
    return Kernel(0.7 * rows + 0.3 / d)


def _interior_point(rng: np.random.Generator, d: int) -> np.ndarray:
    return 0.7 * rng.dirichlet(np.ones(d)) + 0.3 / d


# ---------------------------------------------------------------------------
# criteria


def _c1_sanov(scale, seed, threads):
    """Product kernels reduce the rate to a single relative entropy."""
    A = Kernel(np.tile(_SANOV_P, (2, 1)))
    n_pts = _count(20, scale, 3)
    firsts = np.linspace(0.05, 0.95, n_pts)
    points = [np.array([v, 1.0 - v]) for v in firsts]
    rows = rate_profile(A, points, T=14.0, J=280, dv=False, threads=threads)
    worst = max(
        abs(row.lower - relative_entropy(np.asarray(row.m), _SANOV_P)) for row in rows
    )
    return worst, 1e-3, worst <= 1e-3, f"{n_pts} query points"


def _c2_stationary(scale, seed, threads):
    """The rate vanishes at the stationary measure."""
    n_kernels = _count(5, scale, 1)
    rng = path_rng(seed, 0)
    worst = 0.0
    for _ in range(n_kernels):
        d = int(rng.integers(2, 4))
        A = _random_kernel(rng, d)
        mstar = stationary_distribution(A)
        bracket = solve_rate(mstar, A, T=14.0, J=280)
        worst = max(worst, bracket.lower)
    return worst, 1e-6, worst <= 1e-6, f"{n_kernels} random kernels"


def _c3_law_vs_mc(scale, seed, threads):
    """Exact count law against a Monte Carlo histogram at n = 20."""
    n = 20
    law = exact_law(_BENCH, x0=1, n=n)
    n_paths = _count(100_000, scale, 2000)
    finals = simulate_chain_batch(_BENCH, 1, n, n_paths, seed)
    mc = np.bincount(finals[:, 0], minlength=n + 1) / n_paths
    exact_vec = np.zeros(n + 1)
    for key, p in law.atoms.items():
        exact_vec[key[0]] = p
    tv = 0.5 * float(np.abs(exact_vec - mc).sum())
    return tv, 0.015, tv <= 0.015, f"{n_paths} paths"


def _c4_rate_trend(scale, seed, threads):
    """Finite-n ball rates move toward the solver bracket."""
    radius = 0.05
    n_list = (50, 100, 200)
    bracket = solve_rate(_BENCH_TARGET, _BENCH, T=14.0, J=280)
    records = finite_n_rate(_BENCH, 1, _BENCH_TARGET, radius, n_list)
    dists = [
        max(bracket.lower - r.rate, r.rate - bracket.upper, 0.0) for r in records
    ]
    monotone = all(dists[i + 1] <= dists[i] + 1e-12 for i in range(len(dists) - 1))
    ok = monotone and dists[-1] <= 0.15
    detail = "distances " + " ".join(f"{v:.4f}" for v in dists)
    return dists[-1], 0.15, ok, detail


def _c5_chain_rule(scale, seed, threads):
    """Occupation-measure entropy equals the per-step cost average."""
    n_policies = _count(100, scale, 5)
    n = 100
    rng = path_rng(seed, 0)
    worst = 0.0
    for i in range(n_policies):
        d = int(rng.integers(2, 4))
        A = _random_kernel(rng, d)
        rows = 0.8 * rng.dirichlet(np.ones(d), size=n) + 0.2 / d

        def policy(k, Lbar, rows=rows):
            return rows[k - 1]

        path = simulate_controlled(A, 1, policy, n, seed + 7919 * i + 13)
        lhs, rhs = verify_chain_rule_identity(path, A)
        worst = max(worst, abs(lhs - rhs))
    return worst, 1e-8, worst <= 1e-8, f"{n_policies} random policies"


def _c6_grid(scale, seed, threads):
    """Grid index and step weight track the exponential clock."""
    n = max(20_000, int(round(100_000 * scale)))
    g = TimeGrid(n)
    t = g.times
    t_n = g.horizon
    worst = 0.0
    for s in (0.0, 0.5, 1.0, 2.0):
        worst = max(worst, abs(g.index_of(t_n - s) / n - math.exp(-s)))
    k_min = int(g.index_of(t_n - 2.0))
    ks = np.arange(k_min, n)
    left = np.maximum(t_n - t[ks + 1], 0.0)
    right = np.minimum(t_n - t[ks], 2.0)
    ok = left <= right
    vals = (ks + 2) / n
    err = np.maximum(np.abs(vals - np.exp(-left)), np.abs(vals - np.exp(-right)))
    sup_err = float(err[ok].max())
    sup_err = max(sup_err, (n + 2) / n - 1.0)
    value = max(worst, sup_err)
    return value, 0.01, value <= 0.01, f"n={n}"


def _feasible_control(rng, m, T, J, d):
    # forward flow expands, so arbitrary simplex controls can leave the
    # simplex; perturb around the always-feasible constant control, less
    # after each miss (near the boundary, long horizons need small moves)
    reach = 0.4
    for _ in range(500):
        targets = 0.7 * rng.dirichlet(np.ones(d), size=J) + 0.3 / d
        lam = rng.uniform(0.0, reach, size=(J, 1))
        eta = (1.0 - lam) * m + lam * targets
        ctrl = PiecewiseControl(T=T, J=J, eta=eta)
        grid = integrate_forward(m, ctrl)
        if grid.all_feasible and grid.M.min() > 1e-5:
            return ctrl
        reach *= 0.9
    raise ConfigError("could not sample a feasible control")


def _c7_gradient(scale, seed, threads):
    """Node-space gradient of the solver objective against central differences."""
    d, T, J, h = 2, 1.5, 30, 1e-6
    n_controls = _count(50, scale, 5)
    A = _BENCH
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)
    rng = path_rng(seed, 0)
    worst = 0.0

    def cost_at(m, M):
        return discounted_cost(m, PiecewiseControl(T, J, _node_controls(M, e_delta)), A)

    for _ in range(n_controls):
        m = _interior_point(rng, d)
        M = integrate_forward(m, _feasible_control(rng, m, T, J, d)).M
        g, _ = _newton_parts(M, A.matrix, w, e_delta, 1.0, barrier=False)
        for j in range(J):
            for x in range(d - 1):
                # the free coordinate x of node j+1 moves against the last one
                bump = np.zeros_like(M)
                bump[j + 1, x], bump[j + 1, -1] = h, -h
                fd = (cost_at(m, M + bump) - cost_at(m, M - bump)) / (2.0 * h)
                worst = max(worst, abs(g[j, x] - fd) / max(1.0, abs(fd)))
    return worst, 1e-5, worst <= 1e-5, f"{n_controls} trajectories of {J}x{d - 1} free coordinates"


def _c8_convexity(scale, seed, threads):
    """Midpoint cost never exceeds the average cost (joint convexity)."""
    n_pairs = _count(100, scale, 10)
    T, J, d = 2.0, 40, 2
    A = _BENCH
    rng = path_rng(seed, 0)
    worst = -math.inf
    for _ in range(n_pairs):
        m1 = _interior_point(rng, d)
        m2 = _interior_point(rng, d)
        ctrl1 = _feasible_control(rng, m1, T, J, d)
        ctrl2 = _feasible_control(rng, m2, T, J, d)
        c1 = discounted_cost(m1, ctrl1, A)
        c2 = discounted_cost(m2, ctrl2, A)
        cm = discounted_cost(
            0.5 * (m1 + m2), PiecewiseControl(T, J, 0.5 * (ctrl1.eta + ctrl2.eta)), A
        )
        worst = max(worst, cm - 0.5 * (c1 + c2))
    return worst, 1e-10, worst <= 1e-10, f"{2 * n_pairs} feasible pairs"


@functools.lru_cache(maxsize=1)
def _bench_plan():
    # tight budgets (slack 1) keep the schedule length moderate
    return build_plan(tuple(_BENCH_TARGET), _BENCH, T=2.0, slack=1.0)


_PLAN_EPS0 = 0.3


def _c9_terminal(scale, seed, threads):
    """Scheduled chains land near the reversed trajectory endpoint."""
    plan = _bench_plan()
    n_seeds = _count(200, scale, 10)
    n_list = (1000, 3000, 10000)
    means = []
    for block, n in enumerate(n_list):
        errs = np.empty(n_seeds)
        for i in range(n_seeds):
            run = run_plan(plan, _BENCH, n, _PLAN_EPS0, seed + block * n_seeds + i)
            errs[i] = run.terminal_error
        means.append(float(errs.mean()))
    decreasing = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    ok = decreasing and means[-1] <= 0.05
    detail = "mean errors " + " ".join(f"{v:.4f}" for v in means)
    return means[-1], 0.05, ok, detail


def _c10_cost_band(scale, seed, threads):
    """Monte Carlo occupation cost stays inside the certified band."""
    plan = _bench_plan()
    n_seeds = _count(40, scale, 8)
    report = check_cost_convergence(
        plan, _BENCH, (1000, 2000, 4000, 8000, 10000), n_seeds, _PLAN_EPS0, seed
    )
    last = report.rows[-1]
    lo = report.quad_cost - 0.05
    hi = report.quad_cost + report.allowance + 0.05
    in_band = lo <= last.mc_mean <= hi
    improving = report.rows[0].gap_to_limit >= last.gap_to_limit - 1e-12
    detail = (
        f"band [{lo:.4f} {hi:.4f}] gaps {report.rows[0].gap_to_limit:.4f}"
        f"->{last.gap_to_limit:.4f}"
    )
    return last.mc_mean, hi, in_band and improving, detail


def _c11_dv(scale, seed, threads):
    """Pair-measure rates match point-mass, stationary, and product forms."""
    worst_tight = 0.0
    rng = path_rng(seed, 0)
    for A in (_BENCH, _random_kernel(rng, 3)):
        for x in range(A.d):
            dv = solve_dv_rate(ProbVec.point_mass(x + 1, A.d), A)
            worst_tight = max(worst_tight, abs(dv + math.log(A.matrix[x, x])))
        worst_tight = max(worst_tight, abs(solve_dv_rate(stationary_distribution(A), A)))
    p3 = np.array([0.5, 0.3, 0.2])
    A1 = Kernel(np.tile(p3, (3, 1)))
    worst_loose = 0.0
    for _ in range(3):
        th = rng.dirichlet(np.ones(3))
        worst_loose = max(
            worst_loose, abs(solve_dv_rate(th, A1) - relative_entropy(th, p3))
        )
    value = max(worst_tight / 1e-8, worst_loose / 1e-6)
    detail = f"tight {worst_tight:.2e} loose {worst_loose:.2e}"
    return value, 1.0, value <= 1.0, detail


def _c12_determinism(scale, seed, threads):
    """Two identical validate invocations write identical report bytes."""
    inner = ",".join(c for c in CRITERIA if c != "C12")
    # the child must import this same package, installed or not
    src_root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    blobs = []
    for _ in range(2):
        outdir = tempfile.mkdtemp(prefix="ldp-determinism-")
        try:
            cmd = [
                sys.executable, "-m", "reinforced_ldp.cli", "validate",
                "--scale", "0.02", "--seed", str(seed),
                "--out", outdir, "--include", inner,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800, env=env)
            if proc.returncode not in (0, 1):
                raise ConfigError(
                    f"inner validate exited {proc.returncode}: {proc.stderr[-400:]}"
                )
            blobs.append((Path(outdir) / REPORT_FILENAME).read_bytes())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    mismatch = 0.0 if blobs[0] == blobs[1] else 1.0
    return mismatch, 0.5, mismatch < 0.5, f"{len(blobs[0])} report bytes"


_RUNTIME_LIMITS = {"C1": 60.0, "C2": 30.0, "C3": 30.0, "C4": 120.0}

_REGISTRY = {
    "C1": ("product-kernel rates match the relative-entropy formula", _c1_sanov),
    "C2": ("rate vanishes at the stationary measure of random kernels", _c2_stationary),
    "C3": ("exact count law agrees with Monte Carlo at n=20", _c3_law_vs_mc),
    "C4": ("finite-n ball rates approach the solver bracket", _c4_rate_trend),
    "C5": ("occupation-measure cost identity holds pathwise", _c5_chain_rule),
    "C6": ("grid index and step weights track the exponential clock", _c6_grid),
    "C7": ("node-space gradient matches central differences", _c7_gradient),
    "C8": ("discretized cost is jointly convex", _c8_convexity),
    "C9": ("scheduled runs land near the reversed endpoint", _c9_terminal),
    "C10": ("Monte Carlo cost stays inside the certified band", _c10_cost_band),
    "C11": ("pair-measure rate solver reproduces closed forms", _c11_dv),
    "C12": ("validation reruns are byte-identical", _c12_determinism),
}

CRITERIA = tuple(_REGISTRY)


def run_acceptance(
    scale: float = 1.0,
    seed: int = 0,
    threads: int = 1,
    include=None,
) -> list[CriterionResult]:
    """Run the acceptance criteria and collect one result per criterion.

    A criterion that raises is recorded as failed with the exception in
    ``detail`` rather than aborting the battery.
    """
    if not scale > 0.0:
        raise ConfigError(f"run_acceptance: scale must be positive, got {scale!r}")
    if include is None:
        chosen = list(CRITERIA)
    else:
        chosen = [str(c).strip().upper() for c in include]
        unknown = [c for c in chosen if c not in _REGISTRY]
        if unknown:
            raise ConfigError(f"run_acceptance: unknown criteria {unknown}")
    results = []
    for cid in chosen:
        description, fn = _REGISTRY[cid]
        start = time.perf_counter()
        try:
            value, threshold, passed, detail = fn(scale, seed, threads)
        except Exception as exc:  # noqa: BLE001 - report, do not abort the battery
            value, threshold, passed = math.nan, math.nan, False
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        limit = _RUNTIME_LIMITS.get(cid)
        if limit is not None and elapsed > limit:
            passed = False
            detail = (detail + "; " if detail else "") + f"runtime {elapsed:.1f}s > {limit:.0f}s"
        results.append(
            CriterionResult(
                cid=cid,
                description=description,
                value=float(value),
                threshold=float(threshold),
                passed=bool(passed),
                runtime_s=elapsed,
                detail=detail,
            )
        )
    return results


def write_report_csv(file, results, provenance: str | None = None) -> None:
    header = ["criterion", "description", "value", "threshold", "passed"]
    rows = (
        [r.cid, r.description, r.value, r.threshold, int(r.passed)] for r in results
    )
    write_csv(file, header, rows, provenance)


def format_report_lines(results) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"{r.cid:>4} {status}  value={r.value:.6g} threshold={r.threshold:.6g}"
            f"  [{r.runtime_s:.2f}s] {r.description}"
        )
        if r.detail:
            line += f" ({r.detail})"
        lines.append(line)
    return lines
