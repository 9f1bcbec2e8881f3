"""Tests for the reversed-schedule construction and its simulation harness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from reinforced_ldp.errors import PreconditionViolation
from reinforced_ldp.lowerbound import (
    DEFAULT_EPS_TARGET,
    DEFAULT_SLACK,
    PiecewiseLinearPath,
    build_plan,
    check_cost_convergence,
    discretize_control,
    export_cost_report_csv,
    export_runs_csv,
    integrate_reversed,
    mix_with_stationary,
    mollify_control,
    plan_to_json,
    reverse_control,
    reversed_cost,
    reversed_flow_nodes,
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


def _step_path(after=0.3):
    """Step function 1 -> ``after`` at s = 0.05 on [0, 0.1], as zero-slope pieces."""
    start = np.array([[1.0, 0.0], [after, 1.0 - after]])
    return PiecewiseLinearPath(np.array([0.0, 0.05, 0.1]), start, np.zeros_like(start))


def _sup_deviation(q, lin, eta, c, Jc):
    """Sup over [0, T] of the l1 gap between the flows of ``lin`` and of the
    left-sampled schedule ``eta`` of mesh ``c``, from DOP853 solves on every
    piece of the joint break set, sampled at 4 points per piece."""
    d = q.size
    nodes = np.arange(Jc + 1) * c
    nodes[-1] = lin.horizon
    y, worst = np.concatenate([q, q]), 0.0
    b = np.union1d(lin.breaks, nodes)
    for lo, hi in zip(b[:-1], b[1:]):
        mid = 0.5 * (lo + hi)
        row = eta[int(np.searchsorted(nodes, mid, side="right")) - 1]
        v, beta = lin.value(mid), lin.slope[np.searchsorted(lin.breaks, mid, side="right") - 1]
        sol = solve_ivp(
            lambda s, z: np.concatenate([v + beta * (s - mid) - z[:d], row - z[d:]]),
            (lo, hi), y, method="DOP853", rtol=1e-11, atol=1e-14, t_eval=np.linspace(lo, hi, 4),
        )
        worst = max(worst, float(np.abs(sol.y[:d] - sol.y[d:]).sum(axis=0).max()))
        y = sol.y[:, -1]
    return worst


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
    rows = bench_plan.schedule
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
    assert np.array_equal(rev.start, ctrl1.eta[::-1])
    assert not rev.slope.any()
    # past the horizon the path freezes the last reversed value
    assert np.array_equal(rev.value(1.5), ctrl1.eta[0])


def test_reversed_flow_nodes_match_grid_integrator():
    """Closed-form nodes of a step path agree with the uniform-grid integrator."""
    ctrl, grid = _toy_control()
    rev = reverse_control(ctrl)
    q = grid.M[-1]
    nodes = reversed_flow_nodes(q, rev)
    assert np.abs(nodes - integrate_reversed(q, rev.start, ctrl.T / ctrl.J).M).max() < 1e-12


def test_reversed_flow_nodes_solve_the_ode_on_linear_pieces():
    """Closed-form nodes under nonzero slopes agree with a numerical ODE solve."""
    breaks = np.array([0.0, 0.3, 0.45, 1.0])
    start = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    slope = np.array([[0.5, -0.5], [-2.0, 2.0], [0.25, -0.25]])
    path = PiecewiseLinearPath(breaks, start, slope)
    q = np.array([0.35, 0.65])
    nodes = reversed_flow_nodes(q, path)
    M = q
    for i in range(3):
        sol = solve_ivp(
            lambda s, y, i=i: start[i] + slope[i] * (s - breaks[i]) - y,
            (breaks[i], breaks[i + 1]), M, method="DOP853", rtol=1e-12, atol=1e-14,
        )
        M = sol.y[:, -1]
        assert np.abs(nodes[i + 1] - M).max() < 1e-10


def test_piecewise_constant_path_semantics():
    p = _step_path()
    assert np.array_equal(p.value(0.0), [1.0, 0.0])
    assert np.array_equal(p.value(0.05), [0.3, 0.7])
    assert np.array_equal(p.value(0.2), [0.3, 0.7])
    assert np.allclose(p.integral(0.075), [0.0575, 0.0175], atol=1e-15)
    assert p.lipschitz_l1() == 0.0


def test_linear_path_integral_closed_form():
    """Integral of nonzero-slope pieces, inside pieces, at breaks and past the horizon."""
    breaks = np.array([0.0, 0.5, 1.25, 2.0])
    start = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    slope = np.array([[2.0, 4.0], [-1.5, 0.5], [3.0, -2.0]])
    p = PiecewiseLinearPath(breaks, start, slope)

    def exact(s):
        # sum over pieces of int_{b_i}^{min(s, b_{i+1})} start_i + slope_i (u - b_i) du,
        # the last piece running on past the horizon
        total = np.zeros(2)
        for i in range(3):
            hi = s if i == 2 else min(s, breaks[i + 1])
            w = max(hi - breaks[i], 0.0)
            total += start[i] * w + 0.5 * slope[i] * w * w
        return total

    times = np.array([0.0, 0.2, 0.5, 0.9, 1.25, 1.7, 2.0, 2.6, 4.0])
    got = p.integral(times)
    for s, row in zip(times, got):
        assert np.allclose(row, exact(s), atol=1e-13, rtol=0.0)
        assert np.allclose(p.integral(s), exact(s), atol=1e-13, rtol=0.0)
    assert np.allclose(p.value(2.6), start[2] + slope[2] * (2.6 - 1.25), atol=1e-15)
    assert p.lipschitz_l1() == 6.0


def test_mollify_is_window_average():
    p = _step_path()
    kappa2 = 0.01
    res = mollify_control(p, kappa2, 0.5, 0.1)
    for s in np.linspace(0.0, 0.1, 23):
        avg = (p.integral(s + kappa2) - p.integral(s)) / kappa2
        assert np.allclose(res.path.value(s), avg, atol=1e-12)
    # steepest slope is the single jump smeared over one window
    assert res.path.lipschitz_l1() == pytest.approx(1.4 / kappa2, rel=1e-12)
    assert res.cost_increase >= 0.0 and res.deviation >= 0.0


def test_mollify_window_too_wide():
    p = PiecewiseLinearPath(np.array([0.0, 0.1]), np.array([[0.5, 0.5]]), np.zeros((1, 2)))
    with pytest.raises(PreconditionViolation):
        mollify_control(p, 0.05, 0.1, 0.1)


def test_discretize_left_sampling():
    res = mollify_control(_step_path(), 0.01, 0.5, 0.1)
    q = np.array([0.5, 0.5])
    disc = discretize_control(res.path, q, BENCH, 2, 0.5, reversed_cost(q, res.path, BENCH))
    assert disc.c == pytest.approx(0.1 / disc.Jc, rel=1e-15)
    grid_pts = np.arange(disc.Jc + 1) * disc.c
    manual = np.array([res.path.value(s) for s in grid_pts])
    assert np.array_equal(disc.eta, manual)
    assert np.array_equal(disc.M_hat.M, integrate_reversed(q, manual[:-1], disc.c).M)


@pytest.mark.parametrize("J,delta", [(0, 0.5), (2, 0.0)])
def test_discretize_rejects_empty_grid_or_floor(J, delta):
    res = mollify_control(_step_path(), 0.01, 0.5, 0.1)
    with pytest.raises(PreconditionViolation):
        discretize_control(res.path, np.array([0.5, 0.5]), BENCH, J, delta, 1.0)


def test_discretize_certificate_needs_doubling():
    """C1 = 140: the in-piece term C1 c^2 / 2 alone rejects the first two grids.

    The jump is small, so the node deviation and the cost change already pass
    on the first grid; only the in-piece term forces grids 2 -> 4 -> 8.
    """
    lin = mollify_control(_step_path(0.93), 0.001, 0.5, 0.1).path
    assert lin.lipschitz_l1() == pytest.approx(140.0, rel=1e-12)
    q = np.array([0.5, 0.5])
    cost = reversed_cost(q, lin, BENCH)
    disc = discretize_control(lin, q, BENCH, 2, 0.1, cost)
    assert disc.Jc == 8
    assert 0.5 * 140.0 * (0.1 / 4) ** 2 > 0.1 / 4 >= disc.deviation
    assert abs(disc.cost - cost) <= 1e-2 * cost
    sup = _sup_deviation(q, lin, disc.eta, disc.c, disc.Jc)
    assert sup <= disc.deviation <= sup + 0.5 * lin.lipschitz_l1() * disc.c**2 + 1e-9


def test_bench_plan_schedule_mesh(bench_plan):
    """The measured certificate keeps the bench schedule short and tight."""
    b = bench_plan.bounds
    assert bench_plan.Jc <= 8192
    assert b.dev_discretize <= bench_plan.delta / 4
    assert abs(b.cost_schedule_quad - b.cost_mollified_quad) <= 1e-2 * b.cost_mollified_quad
    # the discretization budget is the paper's formula at the certified deviation
    c, d0 = bench_plan.c, bench_plan.delta0
    logs = abs(np.log(d0)) + abs(np.log(bench_plan.delta)) + 1.0
    assert b.bound_discretize == pytest.approx(b.lipschitz_l1 * c * logs + b.dev_discretize / d0, rel=1e-12)


@pytest.mark.parametrize("T,slack", [(2.0, DEFAULT_SLACK), (4.0, 1.0)])
def test_huge_apriori_mesh_gets_a_short_grid(T, slack):
    """Plans whose slack-scaled a-priori mesh has over 2e6 rows get a short grid."""
    plan = build_plan(BENCH_TARGET, BENCH, T=T, slack=slack)
    b = plan.bounds
    apriori = 4.0 * b.lipschitz_l1 * T * T * np.exp(T) / plan.delta
    assert apriori * slack > 2_000_000
    assert plan.Jc <= 1024 and plan.Jc <= np.ceil(apriori)
    assert b.dev_discretize <= plan.delta / 4


def test_bench_certificate_bounds_the_ode_deviation(bench_plan):
    """Independent cross-check: DOP853 solves of both controls on the bench plan."""
    p = bench_plan
    lin = mollify_control(p.control_reversed, p.kappas.kappa2, p.delta, p.delta0).path
    sup = _sup_deviation(p.q.weights, lin, p.schedule, p.c, p.Jc)
    in_piece = 0.5 * p.bounds.lipschitz_l1 * p.c**2
    assert sup <= p.bounds.dev_discretize <= sup + in_piece + 1e-9


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
    plan = build_plan(LIGHT_TARGET, BENCH, T=1.0, slack=1.0, kappa1=0.3, kappa2=0.006)
    k = plan.kappas
    assert (k.kappa1, k.kappa2) == (0.3, 0.006)


def test_default_budgets():
    assert DEFAULT_SLACK == 10.0
    assert DEFAULT_EPS_TARGET == 0.05


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
