"""Tests for the reversed-schedule construction and its simulation harness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reinforced_ldp.errors import PreconditionViolation, ResourceLimitExceeded
from reinforced_ldp.lowerbound import (
    DEFAULT_EPS_TARGET,
    DEFAULT_MAX_INTERVALS,
    DEFAULT_SLACK,
    PiecewiseConstantPath,
    build_plan,
    an_frequency,
    check_cost_convergence,
    discretize_control,
    estimate_lln_threshold,
    export_cost_report_csv,
    export_runs_csv,
    integrate_reversed,
    mix_with_stationary,
    mollify_control,
    plan_to_json,
    reverse_control,
    run_plan,
    verify_chain_rule_identity,
)
from reinforced_ldp.measures import Kernel, ProbVec, stationary_distribution
from reinforced_ldp.ratesolver import PiecewiseControl, integrate_forward

BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
BENCH_TARGET = (0.3, 0.7)
LIGHT_TARGET = (0.6, 0.4)


@pytest.fixture(scope="module")
def bench_plan():
    # boundary-hugging target: every stage of the construction is active;
    # tight budgets (slack 1) keep the schedule length moderate
    return build_plan(BENCH_TARGET, BENCH, T=2.0, slack=1.0)


@pytest.fixture(scope="module")
def light_plan():
    return build_plan(LIGHT_TARGET, BENCH, T=1.0, slack=1.0)


def _toy_control():
    """Small non-equilibrium control whose forward trajectory stays interior."""
    eta = np.array([[0.6, 0.4], [0.7, 0.3], [0.65, 0.35], [2.0 / 3.0, 1.0 / 3.0]])
    ctrl = PiecewiseControl(T=1.0, J=4, eta=eta)
    grid = integrate_forward(np.array([0.5, 0.5]), ctrl)
    return ctrl, grid


def test_bounds_chain(bench_plan):
    """Each certified stage cost exceeds the previous by at most its bound."""
    b = bench_plan.bounds
    assert 0.0 < b.cost_mixed <= b.cost_solver + 1e-12
    # quadrature proxy tracks the exact mixed cost
    assert abs(b.cost_mixed - b.cost_mixed_quad) < 1e-4
    # time reversal leaves the cost integral unchanged
    assert abs(b.cost_mixed_quad - b.cost_reversed_quad) < 5e-9
    assert b.cost_mollified_quad <= b.cost_reversed_quad + b.bound_mollify + 1e-10
    assert b.cost_schedule_quad <= b.cost_mollified_quad + b.bound_discretize + 1e-10
    assert b.bound_mollify >= 0.0 and b.bound_discretize >= 0.0


def test_terminal_gap(bench_plan):
    b = bench_plan.bounds
    gap = np.abs(bench_plan.M_hat.M[-1] - bench_plan.m.weights).sum()
    assert b.target_gap == pytest.approx(gap, abs=1e-12)
    assert b.target_gap <= b.dev_mix + b.dev_mollify + b.dev_discretize + 1e-12


def test_schedule_rows(bench_plan):
    rows = bench_plan.schedule_rows
    assert rows.shape == (bench_plan.Jc + 1, 2)
    assert not rows.flags.writeable
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
    # mixing guarantees the floor on every coordinate of the schedule
    assert rows.min() >= bench_plan.delta - 1e-12


def test_mixing_exactness():
    ctrl, grid = _toy_control()
    m_star = stationary_distribution(BENCH).weights
    kappa = 0.4
    ctrl1, grid1, delta = mix_with_stationary(ctrl, grid, BENCH, kappa)
    assert np.allclose(ctrl1.eta, (1 - kappa) * ctrl.eta + kappa * m_star, atol=1e-15)
    assert np.allclose(grid1.M, (1 - kappa) * grid.M + kappa * m_star, atol=1e-12)
    assert delta == pytest.approx(kappa * m_star.min(), rel=1e-15)
    assert grid1.all_feasible


@pytest.mark.parametrize("kappa", [0.0, -0.1, 1.2])
def test_mixing_rejects_bad_weight(kappa):
    ctrl, grid = _toy_control()
    with pytest.raises(PreconditionViolation):
        mix_with_stationary(ctrl, grid, BENCH, kappa)


def test_reversal_mapping():
    ctrl, grid = _toy_control()
    ctrl1, grid1, _ = mix_with_stationary(ctrl, grid, BENCH, 0.5)
    rev = reverse_control(ctrl1)
    assert np.array_equal(rev.breaks, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(rev.vals, ctrl1.eta[::-1])
    # the extension row freezes the last reversed value
    assert np.array_equal(rev.extend, ctrl1.eta[0])


def test_piecewise_constant_path_semantics():
    p = PiecewiseConstantPath(
        np.array([0.0, 0.05, 0.1]),
        np.array([[1.0, 0.0], [0.3, 0.7]]),
        np.array([0.3, 0.7]),
    )
    assert np.array_equal(p.value(0.0), [1.0, 0.0])
    assert np.array_equal(p.value(0.05), [0.3, 0.7])
    assert np.array_equal(p.value(0.2), [0.3, 0.7])
    assert np.allclose(p.integral(0.075), [0.0575, 0.0175], atol=1e-15)


def test_mollify_is_window_average():
    p = PiecewiseConstantPath(
        np.array([0.0, 0.05, 0.1]),
        np.array([[1.0, 0.0], [0.3, 0.7]]),
        np.array([0.3, 0.7]),
    )
    kappa2 = 0.01
    res = mollify_control(p, kappa2, 0.5, 0.1)
    for s in np.linspace(0.0, 0.1, 23):
        avg = (p.integral(s + kappa2) - p.integral(s)) / kappa2
        assert np.allclose(res.path.value(s), avg, atol=1e-12)
    # steepest slope is the single jump smeared over one window
    assert res.lipschitz_l1 == pytest.approx(1.4 / kappa2, rel=1e-12)
    assert res.cost_increase >= 0.0 and res.deviation >= 0.0


def test_mollify_window_too_wide():
    p = PiecewiseConstantPath(
        np.array([0.0, 0.1]), np.array([[0.5, 0.5]]), np.array([0.5, 0.5])
    )
    with pytest.raises(PreconditionViolation):
        mollify_control(p, 0.05, 0.1, 0.1)


def test_discretize_left_sampling():
    p = PiecewiseConstantPath(
        np.array([0.0, 0.05, 0.1]),
        np.array([[1.0, 0.0], [0.3, 0.7]]),
        np.array([0.3, 0.7]),
    )
    res = mollify_control(p, 0.01, 0.5, 0.1)
    disc = discretize_control(res.path, 0.004, 0.5, 0.1, lipschitz_l1=res.lipschitz_l1)
    assert disc.Jc == 25 and disc.c == pytest.approx(0.1 / 25, rel=1e-15)
    grid_pts = np.arange(disc.Jc + 1) * disc.c
    manual = np.array([res.path.value(s) for s in grid_pts])
    assert np.array_equal(disc.eta, manual)


def test_discretize_limits():
    p = PiecewiseConstantPath(
        np.array([0.0, 0.05, 0.1]),
        np.array([[1.0, 0.0], [0.3, 0.7]]),
        np.array([0.3, 0.7]),
    )
    res = mollify_control(p, 0.01, 0.5, 0.1)
    with pytest.raises(ResourceLimitExceeded):
        discretize_control(
            res.path, 1e-7, 0.5, 0.1, lipschitz_l1=res.lipschitz_l1, max_intervals=50
        )
    with pytest.raises(PreconditionViolation):
        discretize_control(res.path, 0.09, 0.5, 0.1, lipschitz_l1=1e9)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), min_size=1, max_size=8
    ),
    qraw=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    c=st.floats(0.01, 0.5),
)
def test_integrate_reversed_stays_on_simplex(rows, qraw, c):
    """Reversed dynamics are convex combinations, so the simplex is invariant."""
    eta = np.array(rows)
    eta /= eta.sum(axis=1, keepdims=True)
    q = ProbVec(np.array(qraw) / np.sum(qraw))
    grid = integrate_reversed(q, eta, c)
    assert grid.all_feasible
    assert np.abs(grid.M.sum(axis=1) - 1.0).max() < 1e-9
    assert grid.M.min() >= -1e-12
    # one contraction step toward the current schedule row per interval
    M = q.weights.copy()
    for j in range(len(rows)):
        M = eta[j] + np.exp(-c) * (M - eta[j])
        assert np.abs(grid.M[j + 1] - M).max() < 1e-12


def test_run_plan_deterministic(bench_plan):
    r1 = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    r2 = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    assert np.array_equal(r1.path.states, r2.path.states)
    assert r1.terminal_error == r2.terminal_error
    assert r1.cost_occupation == r2.cost_occupation


def test_run_plan_tracks_schedule(bench_plan):
    run = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    assert not run.an_occurred
    assert run.terminal_error < 0.05
    err = np.abs(run.terminal.weights - bench_plan.M_hat.M[-1]).sum()
    assert run.terminal_error == pytest.approx(err, abs=1e-15)
    lhs, rhs = verify_chain_rule_identity(run.path, BENCH)
    assert abs(lhs - rhs) < 1e-8
    # the two cost quadratures are the same sum in different order
    assert abs(run.cost_occupation - run.cost_stepsum) < 1e-10
    assert 1 <= run.a0 < 10_000


def test_run_plan_fallback_on_early_exit(bench_plan):
    # an eps0 this small is exceeded immediately, triggering the fallback
    run = run_plan(bench_plan, BENCH, 2_000, 1e-12, seed=3)
    assert run.an_occurred
    assert np.isfinite(run.terminal_error)
    assert np.abs(run.path.mu.sum(axis=1) - 1.0).max() < 1e-9
    assert run.path.mu.min() >= 0.0


def test_run_plan_alternate_start(bench_plan):
    run = run_plan(bench_plan, BENCH, 5_000, 0.3, seed=1, x0=2)
    assert run.path.states[0] == 2
    assert np.isfinite(run.terminal_error)


def test_an_frequency_monotone_in_tolerance(light_plan):
    freqs = [
        an_frequency(light_plan.q, 1, 512, eps0, 1_000, seed=0)
        for eps0 in (0.3, 0.1, 0.02)
    ]
    assert all(0.0 <= f <= 1.0 for f in freqs)
    # same sample paths, shrinking tolerance: the early-exit event grows
    assert freqs[0] <= freqs[1] <= freqs[2]


def test_estimate_lln_threshold(light_plan):
    a0, freq = estimate_lln_threshold(
        light_plan.q, 1, 0.3, 0.01, seed=0, n_samples=2_000
    )
    assert isinstance(a0, int) and a0 >= 8
    assert freq <= 0.01


def test_check_cost_convergence_structure(light_plan):
    rep = check_cost_convergence(light_plan, BENCH, (500, 1000), 3, 0.3, seed=0)
    assert rep.eps0 == 0.3
    assert np.isfinite(rep.quad_cost) and np.isfinite(rep.limit_total)
    assert rep.allowance >= 0.0
    assert [r.n for r in rep.rows] == [500, 1000]
    for row in rep.rows:
        assert row.n_seeds == 3
        assert row.mc_mean >= 0.0 and row.mc_std >= 0.0
        assert 0.0 <= row.an_rate <= 1.0
        assert np.isfinite(row.gap_to_limit)


def test_plan_json_roundtrip(light_plan):
    base = json.loads(plan_to_json(light_plan))
    assert set(base) == {"Jc", "T", "bounds", "c", "delta", "delta0", "kappas", "m", "q"}
    assert base["Jc"] == light_plan.Jc
    assert np.allclose(base["m"], light_plan.m.weights)
    assert np.allclose(base["q"], light_plan.q.weights)
    full = json.loads(plan_to_json(light_plan, include_schedule=True))
    assert len(full["schedule"]) == light_plan.Jc
    assert len(full["schedule_overflow"]) == 2


def test_kappa_overrides_pass_through():
    plan = build_plan(
        LIGHT_TARGET, BENCH, T=1.0, slack=1.0, kappa1=0.3, kappa2=0.006, kappa3=0.01
    )
    k = plan.kappas
    assert (k.kappa1, k.kappa2, k.kappa3) == (0.3, 0.006, 0.01)
    assert plan.Jc == 100


def test_default_budgets():
    assert DEFAULT_SLACK == 10.0
    assert DEFAULT_EPS_TARGET == 0.05
    assert DEFAULT_MAX_INTERVALS == 2_000_000


def test_export_csvs(light_plan, tmp_path):
    runs = [run_plan(light_plan, BENCH, 1_000, 0.3, seed=s) for s in range(2)]
    runs_file = tmp_path / "runs.csv"
    export_runs_csv(runs_file, runs, provenance="config_sha256=x seed=0")
    lines = runs_file.read_text().splitlines()
    assert lines[0] == "# config_sha256=x seed=0"
    assert lines[1] == "n,seed,An_flag,terminal_error,cost_occupation,cost_stepsum"
    assert len(lines) == 4

    rep = check_cost_convergence(light_plan, BENCH, (500,), 2, 0.3, seed=0)
    rep_file = tmp_path / "trend.csv"
    export_cost_report_csv(rep_file, rep)
    header = rep_file.read_text().splitlines()[0]
    assert header == (
        "n,n_seeds,mc_mean,mc_std,an_rate,quad_cost,allowance,limit_total,gap_to_limit"
    )
