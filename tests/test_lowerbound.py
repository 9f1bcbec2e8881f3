"""Tests for the reversed-schedule construction and its simulation harness."""

import json
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import rel_entr

from reinforced_ldp import chains, lowerbound
from reinforced_ldp.chains import (
    ControlledPath,
    _time_grid,
    path_rng,
    simulate_controlled,
    verify_chain_rule_identity,
)
from reinforced_ldp.errors import PreconditionViolation
from reinforced_ldp.lowerbound import (
    DEFAULT_SLACK,
    EPS_TARGET,
    build_plan,
    check_cost_convergence,
    export_cost_report_csv,
    export_runs_csv,
    plan_to_json,
    reversed_cost,
    run_plan,
)
from reinforced_ldp.measures import Kernel, ProbVec, stationary_distribution
from reinforced_ldp.ratesolver import PiecewiseLinearPath, flow_cost, flow_nodes, solve_rate

BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
BENCH_TARGET = (0.3, 0.7)
LIGHT_TARGET = (0.6, 0.4)


@pytest.fixture(scope="module")
def bench_plan():
    # boundary-hugging target: every stage of the construction is active;
    # slack 1 is the plan acceptance criteria C9/C10 and the perfbench plan
    # workload were calibrated on (79 schedule pieces, 2J - 1 at J = 40)
    return build_plan(BENCH_TARGET, BENCH, T=2.0, slack=1.0)


@pytest.fixture(scope="module")
def light_plan():
    return build_plan(LIGHT_TARGET, BENCH, T=1.0, slack=1.0)


def _toy_control():
    """Small non-equilibrium control whose forward trajectory stays interior."""
    eta = np.array([[0.6, 0.4], [0.7, 0.3], [0.65, 0.35], [2.0 / 3.0, 1.0 / 3.0]])
    ctrl = PiecewiseLinearPath.steps(1.0, eta)
    return ctrl, flow_nodes(np.array([0.5, 0.5]), ctrl)


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
    assert bench_plan.solve.converged and bench_plan.solve.gap <= 1e-10


def test_mixed_cost_is_clamped_at_zero():
    """On this d=3 plan the solver's cost is 0 and the mixed pair's left-endpoint
    sum rounds to about -1.5e-17; plan.json prints no negative relative entropy."""
    A = Kernel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])
    plan = build_plan([0.2, 0.3, 0.5], A, T=1.0, slack=1.0)
    b = plan.bounds
    assert b.cost_solver == 0.0
    assert b.cost_mixed == 0.0
    assert abs(b.cost_mixed - b.cost_mixed_quad) < 1e-4
    costs = {k: v for k, v in json.loads(plan_to_json(plan))["bounds"].items() if k.startswith("cost_")}
    assert costs["cost_mixed"] == 0.0 and min(costs.values()) >= 0.0


def test_terminal_gap(bench_plan):
    b = bench_plan.bounds
    gap = np.abs(bench_plan.M_hat[-1] - bench_plan.m.weights).sum()
    assert b.target_gap == pytest.approx(gap, abs=1e-12)
    assert b.target_gap <= b.dev_mix + b.dev_mollify + b.dev_discretize + 1e-12


def test_schedule_rows(bench_plan):
    rows = bench_plan.schedule
    assert rows.shape == (bench_plan.Jc + 1, 2)
    assert not rows.flags.writeable
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
    # mixing guarantees the floor on every coordinate of the schedule
    assert rows.min() >= bench_plan.delta - 1e-12


def test_mixing_exactness(bench_plan):
    """The reversed control is the solver's control mixed with the stationary
    measure, backwards, and ``q`` the last mixed node, bit for bit."""
    p = bench_plan
    bracket = solve_rate(np.asarray(BENCH_TARGET), BENCH, T=2.0)
    m_star = stationary_distribution(BENCH).weights
    kappa = p.kappas.kappa1
    assert 0.0 < kappa < 1.0
    eta1 = (1 - kappa) * bracket.eta_opt.start + kappa * m_star
    assert np.array_equal(p.control_reversed.start[::-1], eta1)
    assert np.array_equal(p.q.weights, (1 - kappa) * bracket.M_opt[-1] + kappa * m_star)
    assert p.delta == kappa * m_star.min()
    assert eta1.min() >= p.delta - 1e-12 and p.q.weights.min() >= p.delta - 1e-12


def test_reversal_mapping(bench_plan):
    rev = bench_plan.control_reversed
    J = len(rev.start)
    assert np.array_equal(rev.breaks, np.linspace(0.0, bench_plan.T, J + 1))
    assert not rev.slope.any()
    # past the horizon the schedule freezes the first mixed row
    assert np.array_equal(bench_plan.schedule[-1], rev.start[-1])


def _grid_flow(q, eta, c):
    """Nodes of ``M' = eta_j - M`` on a uniform grid of mesh ``c``, one
    contraction ``M <- eta_j + e^{-c} (M - eta_j)`` per interval."""
    M = [np.asarray(q, dtype=float)]
    for row in eta:
        M.append(row + np.exp(-c) * (M[-1] - row))
    return np.array(M)


def _uniform_step_path(eta, c):
    return PiecewiseLinearPath(np.arange(len(eta) + 1) * c, eta, np.zeros_like(eta))


def test_reversed_flow_nodes_match_grid_integrator():
    """Closed-form nodes of a step path agree with the uniform-grid integrator."""
    ctrl, M = _toy_control()
    rows = ctrl.start[::-1]
    rev = PiecewiseLinearPath.steps(ctrl.horizon, rows)
    q = M[-1]
    nodes = flow_nodes(q, rev, forward=False)
    assert np.abs(nodes - _grid_flow(q, rows, ctrl.horizon / len(rows))).max() < 1e-12


# sloped pieces whose values, and whose flow from Q in either direction, stay
# inside the simplex, so the running cost is finite throughout
SLOPED = PiecewiseLinearPath(
    np.array([0.0, 0.3, 0.45, 1.0]),
    np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]]),
    np.array([[0.5, -0.5], [-1.0, 1.0], [0.25, -0.25]]),
)
Q = np.array([0.35, 0.65])


def _ode_flow(path, q, forward):
    """Dense solutions of ``M' = sign (M - eta(s))`` by DOP853, one per piece."""
    sign = 1.0 if forward else -1.0
    b, v, beta = path.breaks, path.start, path.slope
    sols, M = [], q
    for i in range(len(v)):
        sol = solve_ivp(
            lambda s, y, i=i: sign * (y - v[i] - beta[i] * (s - b[i])),
            (b[i], b[i + 1]), M, method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        sols.append(sol)
        M = sol.y[:, -1]
    return sols


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "reversed"])
def test_flow_nodes_solve_the_ode_on_linear_pieces(forward):
    """Closed-form nodes under nonzero slopes agree with a numerical ODE solve."""
    nodes = flow_nodes(Q, SLOPED, forward=forward)
    for i, sol in enumerate(_ode_flow(SLOPED, Q, forward)):
        assert np.abs(nodes[i + 1] - sol.y[:, -1]).max() < 1e-10


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "reversed"])
def test_flow_cost_matches_adaptive_quadrature_of_the_ode_flow(forward):
    """The Gauss-Legendre cost on sloped pieces against ``scipy.integrate.quad``
    of the running cost along the ODE-integrated flow, weighted by ``e^{-s}``
    forward and ``e^{s - T}`` reversed."""
    A = BENCH
    b, v, beta, T = SLOPED.breaks, SLOPED.start, SLOPED.slope, SLOPED.horizon
    want = 0.0
    for i, sol in enumerate(_ode_flow(SLOPED, Q, forward)):
        def running(s, i=i, sol=sol):
            eta = v[i] + beta[i] * (s - b[i])
            weight = np.exp(-s) if forward else np.exp(s - T)
            return weight * rel_entr(eta, sol.sol(s) @ A.matrix).sum()

        want += quad(running, b[i], b[i + 1], epsabs=1e-14, epsrel=1e-12)[0]
    got = flow_cost(SLOPED, flow_nodes(Q, SLOPED, forward=forward), A, forward=forward)
    assert want > 1e-3
    assert abs(got - want) <= 1e-12


def _steep_ramp_path(n_ramps=40, width=1e-4):
    """Flat pieces joined by ramps ``width`` wide, slopes up to ~1e4.  Rows are
    dyadic pairs ``(a, 1 - a)`` and slopes ``(s, -s)``, so the exact flow stays
    on sum 1 and re-centring moves no node."""
    rng = np.random.default_rng(1)
    breaks = np.concatenate([[0.0], np.cumsum(np.tile([1.0 / n_ramps - width, width], n_ramps))])
    a = rng.integers(0, 65, size=n_ramps + 1) / 64.0
    start = np.zeros((2 * n_ramps, 2))
    slope = np.zeros((2 * n_ramps, 2))
    start[:, 0] = np.repeat(a[:-1], 2)
    slope[1::2, 0] = (a[1:] - a[:-1]) / width
    start[:, 1] = 1.0 - start[:, 0]
    slope[:, 1] = -slope[:, 0]
    return PiecewiseLinearPath(breaks, start, slope)


def test_reversed_flow_nodes_match_a_decimal_reference_on_steep_ramps():
    """40-digit reference of ``M(h) = v + beta h + e^{-h} (M(0) - v) + beta (e^{-h} - 1)``.

    The form ``-beta + e^{-h} (M(0) - v + beta)`` cancels on these ramps and
    is off by about 1e-12.
    """
    path = _steep_ramp_path()
    q = np.array([0.25, 0.75])
    got = flow_nodes(q, path, forward=False)
    b, v, beta = path.breaks, path.start, path.slope
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        M = [Decimal(x) for x in q]
        for i in range(len(b) - 1):
            h = Decimal(b[i + 1]) - Decimal(b[i])
            e = (-h).exp()
            M = [
                Decimal(v[i, k]) + Decimal(beta[i, k]) * h + e * (M[k] - Decimal(v[i, k]))
                + Decimal(beta[i, k]) * (e - 1)
                for k in range(2)
            ]
            worst = max(worst, *(abs(float(Decimal(got[i + 1, k]) - M[k])) for k in range(2)))
    assert np.abs(path.slope).max() > 5e3
    assert worst <= 1e-15


@pytest.mark.parametrize("field,at,value", [
    ("breaks", 1, np.nan),
    ("breaks", 3, np.inf),
    ("start", (1, 0), np.nan),
    ("slope", (2, 1), -np.inf),
], ids=["nan-break", "inf-last-break", "nan-row", "inf-slope"])
def test_path_rejects_non_finite_input(field, at, value):
    """A NaN or infinite break, row or slope is refused before any flow or
    cost reads it; ``reversed_cost`` would return NaN."""
    args = {"breaks": np.arange(4.0), "start": np.full((3, 2), 0.5), "slope": np.zeros((3, 2))}
    args[field][at] = value
    with pytest.raises(PreconditionViolation, match="must be finite"):
        PiecewiseLinearPath(**args)


def _window_average(p, s, kappa2):
    """``(1/kappa2) int_s^{s+kappa2}`` of a step path, as the sum of each row
    times the overlap of the window with its piece (the last piece without end)."""
    ends = np.append(p.breaks[1:-1], np.inf)
    overlap = np.maximum(np.minimum(ends, s + kappa2) - np.maximum(p.breaks[:-1], s), 0.0)
    return overlap @ p.start / kappa2


def test_mollify_is_window_average(bench_plan):
    """The schedule, read as ``run_plan`` reads it, is the moving average of
    the reversed step control over the window ``kappa2``, on the bench plan
    and on a plan whose window is capped at half the solver mesh."""
    short = build_plan((0.55, 0.45), Kernel([[0.6, 0.4], [0.4, 0.6]]), T=0.2, slack=1.0)
    for p in (bench_plan, short):
        kappa2, rev = p.kappas.kappa2, p.control_reversed
        for s in np.linspace(0.0, 1.25 * p.T, 401):
            read = [np.interp(s, p.knots, p.schedule[:, x]) for x in range(2)]
            assert np.allclose(read, _window_average(rev, s, kappa2), atol=1e-12, rtol=0.0)
        # steepest slope is the largest jump between reversed rows smeared over one window
        jump = np.abs(np.diff(rev.start, axis=0)).sum(axis=1).max()
        assert p.bounds.lipschitz_l1 == pytest.approx(jump / kappa2, rel=1e-9)
        assert p.bounds.bound_mollify >= 0.0 and p.bounds.dev_mollify >= 0.0


@pytest.mark.parametrize("T", [2.0, 4.0])
def test_mollified_nodes_are_the_reversed_rows(T):
    """At its kinks the schedule takes each reversed mixed row twice, bit for
    bit, so its nodes sum to 1 as the solver's rows do; the flat pieces have
    exactly zero slope."""
    p = build_plan(BENCH_TARGET, BENCH, T=T, slack=1.0)
    rev = p.control_reversed
    assert np.array_equal(p.schedule, np.repeat(rev.start, 2, axis=0))
    for x in range(2):
        assert np.array_equal(np.interp(p.knots, p.knots, p.schedule[:, x]), p.schedule[:, x])
    assert not _mollified_path(p).slope[::2].any()
    assert np.array_equal(p.knots[::2], rev.breaks[:-1])


def test_mollify_window_too_wide():
    # the derived window at slack 0.5 breaks 3 kappa2 e^T <= delta / 2
    with pytest.raises(PreconditionViolation, match="build_plan: window .* too wide"):
        build_plan(BENCH_TARGET, BENCH, T=2.0, slack=0.5)


def test_kappa2_cap_binds_on_a_short_horizon():
    """At T = 0.2 near a uniform stationary measure the derived window would be
    wider than half the solver mesh T / J; the cap keeps the window inside
    every piece, and the plan builds with its certified budgets holding."""
    A = Kernel([[0.6, 0.4], [0.4, 0.6]])
    T, slack = 0.2, 1.0
    p = build_plan((0.55, 0.45), A, T=T, slack=slack)
    J = len(p.control_reversed.start)
    assert p.delta / (6.0 * np.exp(T)) / slack > 0.5 * T / J
    assert p.kappas.kappa2 == 0.5 * T / J
    b = p.bounds
    assert b.lipschitz_l1 > 0.0
    assert b.cost_mollified_quad <= b.cost_reversed_quad + b.bound_mollify
    assert b.cost_schedule_quad <= b.cost_mollified_quad + b.bound_discretize
    assert b.dev_discretize <= p.delta / 4
    assert b.target_gap <= b.dev_mix + b.dev_mollify + b.dev_discretize
    assert np.abs(p.schedule.sum(axis=1) - 1.0).max() < 1e-12 and p.schedule.min() >= p.delta


def _mollified_path(plan):
    """The schedule as a path: linear between its knots."""
    slope = np.diff(plan.schedule, axis=0) / np.diff(plan.knots)[:, None]
    return PiecewiseLinearPath(plan.knots, plan.schedule[:-1], slope)


def test_bench_plan_schedule_mesh(bench_plan):
    """The bench schedule is the mollified control: its knots are the mollified
    path's kinks, its rows the path's values there (each reversed row twice),
    and its flow and cost are the mollified ones, bit for bit."""
    p, b = bench_plan, bench_plan.bounds
    lin = _mollified_path(p)
    assert np.array_equal(p.knots, lin.breaks)
    assert np.array_equal(p.schedule, np.repeat(p.control_reversed.start, 2, axis=0))
    assert p.Jc == 2 * len(p.control_reversed.start) - 1 == 79
    assert np.array_equal(p.M_hat, flow_nodes(p.q, lin, forward=False))
    assert b.cost_schedule_quad == b.cost_mollified_quad
    assert b.bound_discretize == b.dev_discretize == 0.0


@pytest.mark.parametrize("kernel,m,T", [
    (BENCH.matrix.tolist(), LIGHT_TARGET, 1.0),
    ([[0.6, 0.4], [0.4, 0.6]], (0.55, 0.45), 0.2),
], ids=["light", "short"])
def test_schedule_cost_is_the_mollified_cost(kernel, m, T):
    """On short horizons, where a few constant rows would cost 32% and 376%
    more than the mollified control, the schedule read linearly between its
    knots is that control, and its reversed cost is the mollified cost."""
    A = Kernel(kernel)
    p = build_plan(m, A, T=T, slack=1.0)
    read = _mollified_path(p)
    assert p.bounds.lipschitz_l1 == np.abs(read.slope).sum(axis=1).max()
    assert reversed_cost(p.q, read, A) == p.bounds.cost_schedule_quad == p.bounds.cost_mollified_quad


@pytest.mark.parametrize("slack", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_slack_is_rejected_before_the_solve(monkeypatch, slack):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_rate called")

    monkeypatch.setattr(lowerbound, "solve_rate", no_solve)
    with pytest.raises(PreconditionViolation, match="slack must be positive and finite"):
        build_plan(BENCH_TARGET, BENCH, T=2.0, slack=slack)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), min_size=1, max_size=8
    ),
    qraw=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    c=st.floats(0.01, 0.5),
)
def test_reversed_flow_nodes_stay_on_simplex(rows, qraw, c):
    """Reversed dynamics are convex combinations, so the simplex is invariant."""
    eta = np.array(rows)
    eta /= eta.sum(axis=1, keepdims=True)
    q = ProbVec(np.array(qraw) / np.sum(qraw))
    M = flow_nodes(q, _uniform_step_path(eta, c), forward=False)
    assert np.abs(M.sum(axis=1) - 1.0).max() < 1e-9
    assert M.min() >= -1e-12
    # one contraction step toward the current control row per interval
    assert np.abs(M - _grid_flow(q.weights, eta, c)).max() < 1e-12


def test_run_plan_deterministic(bench_plan):
    r1 = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    r2 = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    assert np.array_equal(r1.path.states, r2.path.states)
    assert r1.terminal_error == r2.terminal_error
    assert r1.cost_stepsum == r2.cost_stepsum


def test_run_plan_tracks_schedule(bench_plan):
    run = run_plan(bench_plan, BENCH, 10_000, 0.3, seed=3)
    assert not run.an_occurred
    assert run.terminal_error < 0.05
    err = np.abs(run.terminal.weights - bench_plan.M_hat[-1]).sum()
    assert run.terminal_error == pytest.approx(err, abs=1e-15)
    lhs, rhs = verify_chain_rule_identity(run.path, BENCH)
    assert abs(lhs - rhs) < 1e-8
    # the run's cost is the step side; the occupation side sums the same terms in another order
    assert run.cost_stepsum == rhs
    assert abs(lhs - run.cost_stepsum) < 1e-10
    assert 1 <= run.a0 < 10_000


def test_run_plan_fallback_on_early_exit(bench_plan):
    # an eps0 this small is exceeded immediately, triggering the fallback
    run = run_plan(bench_plan, BENCH, 2_000, 1e-12, seed=3)
    assert run.an_occurred
    assert np.isfinite(run.terminal_error)
    assert np.abs(run.path.mu.sum(axis=1) - 1.0).max() < 1e-9
    assert run.path.mu.min() >= 0.0


def _inverse_cdf_rows(prob_rows, u):
    """Smallest index x with u <= CDF(x), one draw per row (0-based), by
    counting all ``d`` CDF values below ``u`` and clamping: the draw oracle."""
    cdf = np.cumsum(prob_rows, axis=1)
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def _reference_terms(mu, rho):
    """The step terms ``mu log(mu / rho)`` as the runs form them,
    ``mu log1p(max((mu - rho) / rho, -1 + 2**-52))``, in fresh arrays."""
    return mu * np.log1p(np.maximum((mu - rho) / rho, -1.0 + 2.0**-52))


def _reference_step_cost(path, A):
    """The step side ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)``: the sums of
    :func:`_reference_terms` over blocks of 8192 steps, added in order by a
    plain loop (the builtin ``sum`` compensates), divided by ``n``: the
    cost oracle."""
    n = path.n
    total = 0.0
    for lo in range(0, n, 8192):
        hi = min(lo + 8192, n)
        total += float(_reference_terms(path.mu[lo:hi], path.Lbar[lo:hi] @ A.matrix).sum())
    return total / n


def _two_product_chain_rule(path, A):
    """Both sides of the chain-rule identity, the left as the relative entropy
    of the two discounted occupation measures, atoms ``mu / n`` and ``rho / n``
    in reversed-time order, the right by :func:`_reference_step_cost`."""
    n = path.n
    rho = path.Lbar[:n] @ A.matrix
    lhs = float(rel_entr(path.mu[::-1] / n, rho[::-1] / n).sum())
    return lhs, _reference_step_cost(path, A)


def _path_value(path, s):
    """Rows ``start[i] + slope[i] (s - breaks[i])`` of the pieces holding the
    times ``s``, the last piece continuing past the horizon."""
    i = np.minimum(np.searchsorted(path.breaks, s, side="right") - 1, len(path.start) - 1)
    return path.start[i] + path.slope[i] * (s - path.breaks[i])[:, None]


def _reference_run(plan, A, n, eps0, seed, x0=1):
    """``run_plan`` with the mollified path's values at the clock, a fallback
    of one numpy dispatch per step and a one-hot ``Lbar``: the run oracle."""
    d = A.d
    times = _time_grid(n)
    n1 = int(np.searchsorted(times, times[-1] - plan.T, side="right"))  # a0 + 1
    q = plan.q.weights
    u = path_rng(seed).random(n)
    states = np.empty(n, dtype=np.int64)
    mu = np.empty((n, d))
    x1 = _inverse_cdf_rows(np.broadcast_to(q, (n1, d)), u[:n1])
    states[:n1] = x1 + 1
    mu[:n1] = q
    e0 = np.zeros(d)
    e0[x0 - 1] = 1.0
    cnt = np.bincount(x1, minlength=d).astype(float)
    an = bool(np.abs((e0 + cnt) / (n1 + 1.0) - q).sum() >= eps0)
    if an:
        for k in range(n1 + 1, n + 1):
            cdf = np.cumsum(((e0 + cnt) / k) @ A.matrix)
            x = min(int(np.searchsorted(cdf, u[k - 1], side="left")), d - 1)
            states[k - 1] = x + 1
            cnt[x] += 1.0
    else:
        clock = times[n1 + 1 : n + 1] - times[n1]
        mu[n1:] = _path_value(_mollified_path(plan), clock)
        states[n1:] = _inverse_cdf_rows(mu[n1:], u[n1:]) + 1
    one_hot = np.zeros((n, d))
    one_hot[np.arange(n), states - 1] = 1.0
    Lbar = np.empty((n + 1, d))
    Lbar[0] = e0
    Lbar[1:] = (e0 + np.cumsum(one_hot, axis=0)) / np.arange(2, n + 2, dtype=float)[:, None]
    if an:
        # as run_plan forms them: one product, whose rows can differ in the
        # last bit from per-step row products (they do at d = 4)
        mu[n1:] = Lbar[n1:n] @ A.matrix
    path = ControlledPath(n=n, d=d, x0=x0, seed=seed, states=states, mu=mu, Lbar=Lbar)
    return path, _two_product_chain_rule(path, A)


def test_run_plan_fallback_matches_reference_loop(bench_plan):
    run = run_plan(bench_plan, BENCH, 2_000, 1e-12, seed=3)
    path, (_, rhs) = _reference_run(bench_plan, BENCH, 2_000, 1e-12, 3)
    assert run.an_occurred
    for name in ("states", "mu", "Lbar"):
        assert np.array_equal(getattr(run.path, name), getattr(path, name)), name
    assert run.cost_stepsum == rhs


D3 = Kernel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])
D4 = Kernel([[0.4, 0.3, 0.2, 0.1], [0.1, 0.5, 0.2, 0.2], [0.2, 0.2, 0.4, 0.2], [0.25, 0.25, 0.25, 0.25]])


@pytest.fixture(scope="module")
def plans_by_dimension(bench_plan):
    return {
        2: (BENCH, bench_plan),
        3: (D3, build_plan((0.2, 0.3, 0.5), D3, T=1.0, slack=1.0)),
        4: (D4, build_plan((0.1, 0.2, 0.3, 0.4), D4, T=1.0, slack=1.0)),
    }


# eps0 = 3 exceeds every l1 distance between measures; eps0 = 1e-12 is exceeded at once
@pytest.mark.parametrize("eps0", [3.0, 1e-12], ids=["scheduled", "fallback"])
@pytest.mark.parametrize("start", ["first", "last"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_run_plan_matches_the_one_hot_reference(plans_by_dimension, d, start, eps0):
    A, plan = plans_by_dimension[d]
    x0 = 1 if start == "first" else d
    run = run_plan(plan, A, 3_000, eps0, seed=5, x0=x0)
    path, (_, rhs) = _reference_run(plan, A, 3_000, eps0, 5, x0)
    assert run.an_occurred == (eps0 < 1.0)
    # the states come in the compact dtype, with the int64 reference's values
    assert run.path.states.dtype == np.min_scalar_type(d) == np.uint8
    for name in ("states", "mu", "Lbar"):
        assert np.array_equal(getattr(run.path, name), getattr(path, name)), name
    assert run.cost_stepsum == rhs


def test_one_state_plan_runs_stay_at_the_state_at_no_cost():
    """At d = 1 the scans are given no CDF column: every state is 1, every
    control row and measure is 1, and the cost is 0.  The head's measure
    is ``q`` itself, so even ``eps0 = 1e-12`` keeps every seed on the schedule."""
    A = Kernel([[1.0]])
    plan = build_plan([1.0], A, T=1.0, slack=1.0)
    for keep in (False, True):
        runs = list(lowerbound._plan_runs(plan, A, 2_000, 1e-12, range(3), 1, "test", keep=keep))
        assert len(runs) == 3
        for run in runs:
            assert not run.an_occurred
            assert (run.cost_stepsum, run.terminal_error) == (0.0, 0.0)
            if keep:
                assert np.all(run.path.states == 1)
                assert np.all(run.path.mu == 1.0) and np.all(run.path.Lbar == 1.0)
            else:
                assert run.path is None


@pytest.mark.parametrize("eps0", [3.0, 1e-12], ids=["scheduled", "fallback"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_cost_trend_is_the_occupation_cost_of_run_plan(plans_by_dimension, d, eps0):
    """The trend's costs have the bits of ``run_plan``'s ``cost_stepsum``
    over the same seeds, the relative entropy of the occupation measures
    by the chain rule."""
    A, plan = plans_by_dimension[d]
    n_list, n_seeds, seed = (1_500, 3_000), 3, 4
    report = check_cost_convergence(plan, A, n_list, n_seeds, eps0, seed=seed)
    assert [r.n for r in report.rows] == list(n_list)
    for block, (n, row) in enumerate(zip(n_list, report.rows)):
        runs = [run_plan(plan, A, n, eps0, seed + block * n_seeds + i) for i in range(n_seeds)]
        costs = np.array([r.cost_stepsum for r in runs])
        assert (row.mc_mean, row.mc_std) == (float(costs.mean()), float(costs.std()))
        assert row.an_rate == sum(r.an_occurred for r in runs) / n_seeds == (eps0 < 1.0)


def test_interleaved_plans_and_horizons_draw_as_the_reference(bench_plan):
    """Runs of two plans on one horizon T, at two n, interleaved: each draws as
    the one-hot reference does, and its scheduled control rows are read-only."""
    other = build_plan(LIGHT_TARGET, BENCH, T=2.0, slack=1.0)
    keys = [(bench_plan, 2_000), (other, 2_000), (bench_plan, 3_000), (other, 3_000)]
    for seed, (plan, n) in enumerate(keys * 2):
        run = run_plan(plan, BENCH, n, 3.0, seed)
        path, _ = _reference_run(plan, BENCH, n, 3.0, seed)
        assert not run.an_occurred
        for name in ("states", "mu"):
            assert np.array_equal(getattr(run.path, name), getattr(path, name)), (seed, name)
        rows = run.path.mu[run.a0 + 1 :]
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.5


def test_a_finished_cost_trend_keeps_no_schedule():
    """Once the cost trend returns, its horizon's schedule rows and CDF are
    gone: what stays traced is below two ``n``-row float columns (the cached
    clock ``t_0..t_n`` is one).  The plan is built afresh, so no earlier run
    of it has built anything."""
    n = 200_000
    plan = build_plan(BENCH_TARGET, BENCH, T=2.0, slack=1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_cost_convergence(plan, BENCH, [n], 2, 3.0)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 16 * n


@pytest.mark.parametrize("source", ["simulate_controlled", "run_plan_scheduled", "run_plan_fallback"])
def test_chain_rule_check_matches_the_two_product_formula(bench_plan, source):
    if source == "simulate_controlled":
        def policy(k, Lbar):
            return 0.6 * (Lbar @ BENCH.matrix) + 0.4 * np.array([0.3, 0.7])

        path = simulate_controlled(BENCH, 1, policy, 5_000, 11)
    else:
        path = run_plan(bench_plan, BENCH, 10_000, 1e-12 if source.endswith("fallback") else 3.0, seed=11).path
    lhs, rhs = verify_chain_rule_identity(path, BENCH)
    assert (lhs, rhs) == _two_product_chain_rule(path, BENCH)


# eps0 = 0.02 sends some of seeds 0..7 to the fallback (F) and keeps the others on the
# schedule (s), so the mixed seeds cover both kinds of run on one horizon
MIXED_FLAGS = {(2, "first"): "FssssssF", (2, "last"): "sssssssF", (3, "first"): "ssFssFFF", (3, "last"): "ssFssFFF"}


@pytest.mark.parametrize("eps0", [3.0, 1e-12, 0.02], ids=["scheduled", "fallback", "mixed"])
@pytest.mark.parametrize("start", ["first", "last"])
@pytest.mark.parametrize("d", [2, 3])
def test_runs_on_shared_buffers_equal_run_plan_seed_by_seed(plans_by_dimension, d, start, eps0):
    """Every run of a horizon streamed through block buffers, as the CLI draws
    its runs, has the ``runs.csv`` row and terminal measure of ``run_plan`` on
    arrays of its own, bit for bit, and keeps no path; ``run_plan``'s path
    is read-only."""
    A, plan = plans_by_dimension[d]
    x0 = 1 if start == "first" else d
    flags = []
    for run in lowerbound._plan_runs(plan, A, 3_000, eps0, range(8), x0, "test"):
        alone = run_plan(plan, A, 3_000, eps0, run.seed, x0)
        assert run.path is None
        for name in ("states", "mu", "Lbar"):
            assert not getattr(alone.path, name).flags.writeable, (run.seed, name)
        assert np.array_equal(run.terminal.weights, alone.path.Lbar[-1]), run.seed
        row = (run.n, run.a0, run.an_occurred, run.terminal_error, run.cost_stepsum)
        assert row == (alone.n, alone.a0, alone.an_occurred, alone.terminal_error, alone.cost_stepsum), run.seed
        flags.append(run.an_occurred)
    assert len(flags) == 8
    assert set(flags) == ({False, True} if eps0 == 0.02 else {eps0 < 1.0})
    if eps0 == 0.02:
        assert "".join("F" if an else "s" for an in flags) == MIXED_FLAGS[d, start]


# at n = 20,000 (T = 1, head 7,357 steps) eps0 = 0.01 sends seeds 0 and 3 to the
# fallback and keeps seeds 1 and 2 on the schedule, at d = 3 and at d = 4
@pytest.mark.parametrize("eps0", [3.0, 1e-12, 0.01], ids=["scheduled", "fallback", "mixed"])
@pytest.mark.parametrize("d", [3, 4])
def test_runs_across_block_edges_match_the_one_hot_reference(plans_by_dimension, d, eps0):
    """At n = 20,000 a run spans three blocks of ``chains._BLOCK_CAP`` steps
    and the head ends inside the first: every streamed run, and
    ``run_plan``'s path, equals the one-hot reference, and its cost the
    reference's block-summed step cost, bit for bit."""
    A, plan = plans_by_dimension[d]
    n = 20_000
    flags = ""
    for run in lowerbound._plan_runs(plan, A, n, eps0, range(4), d, "test"):
        path, (lhs, rhs) = _reference_run(plan, A, n, eps0, run.seed, d)
        assert run.cost_stepsum == rhs, run.seed
        assert np.array_equal(run.terminal.weights, path.Lbar[n]), run.seed
        flags += "F" if run.an_occurred else "s"
        if run.seed == 0:
            alone = run_plan(plan, A, n, eps0, run.seed, d)
            for name in ("states", "mu", "Lbar"):
                assert np.array_equal(getattr(alone.path, name), getattr(path, name)), name
            assert verify_chain_rule_identity(alone.path, A) == (lhs, rhs)
    assert flags == {3.0: "ssss", 1e-12: "FFFF", 0.01: "FssF"}[eps0]


# an eps0 at which seeds 0..3, started at state d, split between the fallback and the schedule
MIXED_EPS0 = {
    (2, 1_000): 0.006, (2, 8_192): 0.006, (2, 8_193): 0.006, (2, 20_000): 0.006,
    (3, 1_000): 0.02, (3, 8_192): 0.006, (3, 8_193): 0.006, (3, 20_000): 0.006,
    (4, 1_000): 0.03, (4, 8_192): 0.02, (4, 8_193): 0.02, (4, 20_000): 0.006,
}


@pytest.mark.parametrize("kind", ["scheduled", "fallback", "mixed"])
@pytest.mark.parametrize("n", [1_000, 8_192, 8_193, 20_000])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_run_cost_is_the_block_summed_step_cost(plans_by_dimension, d, n, kind):
    """Around one block of ``chains._BLOCK_CAP`` steps and across three,
    each run's cost is the reference's 8192-step block sums of
    ``rel_entr(mu, Lbar A)``, added in order and divided by ``n``, and the
    step side of ``verify_chain_rule_identity``, bit for bit; the
    occupation side is the same number to 1e-12, relative."""
    A, plan = plans_by_dimension[d]
    eps0 = {"scheduled": 3.0, "fallback": 1e-12, "mixed": MIXED_EPS0[d, n]}[kind]
    flags = set()
    for run in lowerbound._plan_runs(plan, A, n, eps0, range(4), d, "test", keep=True):
        lhs, rhs = verify_chain_rule_identity(run.path, A)
        assert run.cost_stepsum == _reference_step_cost(run.path, A) == rhs, run.seed
        assert abs(lhs - rhs) <= 1e-12 * rhs, run.seed
        flags.add(run.an_occurred)
    assert flags == {"scheduled": {False}, "fallback": {True}, "mixed": {False, True}}[kind]


@pytest.mark.parametrize("kind", ["scheduled", "fallback", "mixed"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_run_cost_agrees_with_the_scipy_summed_cost(plans_by_dimension, d, kind):
    """Across three blocks, each run's cost, from numpy ``log1p`` terms, is
    within 1e-13, relative, of the same block sums of scipy's ``rel_entr``,
    the term oracle."""
    A, plan = plans_by_dimension[d]
    n = 20_000
    eps0 = {"scheduled": 3.0, "fallback": 1e-12, "mixed": MIXED_EPS0[d, n]}[kind]
    flags = set()
    for run in lowerbound._plan_runs(plan, A, n, eps0, range(4), d, "test", keep=True):
        mu, rho = run.path.mu, run.path.Lbar[:n] @ A.matrix
        blocks = [rel_entr(mu[lo : lo + 8192], rho[lo : lo + 8192]).sum() for lo in range(0, n, 8192)]
        scipy_cost = sum(map(float, blocks)) / n
        assert abs(run.cost_stepsum - scipy_cost) <= 1e-13 * scipy_cost, run.seed
        flags.add(run.an_occurred)
    assert flags == {"scheduled": {False}, "fallback": {True}, "mixed": {False, True}}[kind]


@pytest.mark.parametrize("eps0", [3.0, 1e-12], ids=["scheduled", "fallback"])
def test_plan_runs_call_no_scipy_rel_entr(bench_plan, monkeypatch, eps0):
    """The runs form their terms in numpy: with ``chains.rel_entr`` made to
    raise, scheduled and fallback seeds run and cost as before, while the
    occupation side of ``verify_chain_rule_identity`` still calls scipy."""
    want = [run.cost_stepsum for run in lowerbound._plan_seeds(bench_plan, BENCH, 10_000, eps0, range(3), 1, "test")]

    def refuse(*args, **kwargs):
        raise AssertionError("scipy rel_entr called")

    monkeypatch.setattr(chains, "rel_entr", refuse)
    runs = list(lowerbound._plan_seeds(bench_plan, BENCH, 10_000, eps0, range(3), 1, "test", keep=True))
    assert [run.cost_stepsum for run in runs] == want
    assert all(run.an == (eps0 < 1.0) for run in runs)
    with pytest.raises(AssertionError, match="scipy rel_entr called"):
        verify_chain_rule_identity(runs[0].path, BENCH)


@pytest.mark.parametrize("eps0", [3.0, 1e-12], ids=["scheduled", "fallback"])
def test_later_seeds_of_a_horizon_allocate_no_n_row_array(bench_plan, eps0):
    """After a horizon's first seed, drawing a path and its cost
    allocates less than one ``n``-row float column: every array of a seed
    is a block's.  The fallback's block draws hold a few arrays of at most
    8192 steps, about 0.7 MB at d = 2, whatever ``n``."""
    n = 200_000
    runs = lowerbound._plan_seeds(bench_plan, BENCH, n, eps0, range(4), 1, "test")
    next(runs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for run in runs:
            assert run.an == (eps0 < 1.0)
            assert run.path is None and run.cost_stepsum is not None
        growth = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert growth < 8 * n


@pytest.mark.parametrize("eps0", [3.0, 1e-12], ids=["scheduled", "fallback"])
def test_one_horizon_keeps_one_copy_of_the_scheduled_rows(bench_plan, eps0):
    """Building a horizon, drawing its first seed and its cost peaks below
    24 bytes a step at d = 2 with the clock already cached: the horizon's
    control rows, 16 bytes a scheduled step and a block's head rows, and
    arrays of at most ``chains._BLOCK_CAP`` steps, plus the fallback's block
    draws.  ``C_0`` is a view of the scheduled rows.  With a second cost
    side staged over a subtree of numpy's pairwise sum it took 21.4 n; with
    the path, its divisors and the cost arrays held over the horizon 74 n;
    with int64 states, a copy of ``C_0`` and a horizon-sized clock and
    column in the fill 93.9 n; with a second copy of the rows, their
    ``C_1`` and a clock held over the seeds 121.5 n."""
    n = 200_000
    _time_grid(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runs = lowerbound._plan_seeds(bench_plan, BENCH, n, eps0, range(2), 1, "test")
        run = next(runs)
        assert run.an == (eps0 < 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 24 * n


def test_library_run_errors_name_their_caller(bench_plan, light_plan):
    with pytest.raises(PreconditionViolation, match="^check_cost_convergence: eps0 must be positive"):
        check_cost_convergence(light_plan, BENCH, [1000], 2, 0.0)
    with pytest.raises(PreconditionViolation, match="^check_cost_convergence: need t_n > T"):
        check_cost_convergence(light_plan, BENCH, [1000, 2], 2, 0.3)
    with pytest.raises(PreconditionViolation, match="^run_plan: horizon n=10 leaves no room"):
        run_plan(bench_plan, BENCH, 10, 0.3, seed=0)


def test_run_plan_step_count_must_be_an_integer(bench_plan):
    with pytest.raises(PreconditionViolation, match="must be an integer"):
        run_plan(bench_plan, BENCH, 10_000.0, 0.3, seed=3)
    run = run_plan(bench_plan, BENCH, np.int64(5_000), 0.3, seed=3)
    assert type(run.n) is int and type(run.path.n) is int
    assert np.array_equal(run.path.Lbar, run_plan(bench_plan, BENCH, 5_000, 0.3, seed=3).path.Lbar)


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


def test_check_cost_convergence_counts_must_be_integers(light_plan):
    with pytest.raises(PreconditionViolation, match="n must be an integer"):
        check_cost_convergence(light_plan, BENCH, [1000.7], 2, 0.3)
    with pytest.raises(PreconditionViolation, match="n_seeds must be an integer"):
        check_cost_convergence(light_plan, BENCH, [500], 2.0, 0.3)
    rep = check_cost_convergence(light_plan, BENCH, [np.int64(500)], np.int64(2), 0.3)
    assert [(type(r.n), type(r.n_seeds)) for r in rep.rows] == [(int, int)]


def test_plan_json_roundtrip(light_plan):
    base = json.loads(plan_to_json(light_plan))
    assert set(base) == {"Jc", "T", "bounds", "delta", "delta0", "kappas", "m", "q", "solve"}
    assert base["solve"] == {
        "iterations": light_plan.solve.iterations,
        "gap": light_plan.solve.gap,
        "converged": light_plan.solve.converged,
    }
    assert base["Jc"] == light_plan.Jc
    assert np.allclose(base["m"], light_plan.m.weights)
    assert np.allclose(base["q"], light_plan.q.weights)
    full = json.loads(plan_to_json(light_plan, include_schedule=True))
    assert set(full) == set(base) | {"knots", "schedule"}
    assert np.array_equal(full["knots"], light_plan.knots)
    assert np.array_equal(full["schedule"], light_plan.schedule)


def test_default_budgets():
    assert DEFAULT_SLACK == 10.0
    assert EPS_TARGET == 0.05


def test_export_csvs(light_plan, tmp_path):
    runs = [run_plan(light_plan, BENCH, 1_000, 0.3, seed=s) for s in range(2)]
    runs_file = tmp_path / "runs.csv"
    export_runs_csv(runs_file, runs, provenance="config_sha256=x seed=0")
    lines = runs_file.read_text().splitlines()
    assert lines[0] == "# config_sha256=x seed=0"
    assert lines[1] == "n,seed,An_flag,terminal_error,cost_occupation,cost_stepsum"
    assert len(lines) == 4
    # the runs have one cost: the occupation cell repeats it
    for line, run in zip(lines[2:], runs):
        cells = line.split(",")
        assert cells[4] == cells[5] and float(cells[5]) == run.cost_stepsum

    rep = check_cost_convergence(light_plan, BENCH, (500,), 2, 0.3, seed=0)
    rep_file = tmp_path / "trend.csv"
    export_cost_report_csv(rep_file, rep)
    header = rep_file.read_text().splitlines()[0]
    assert header == (
        "n,n_seeds,mc_mean,mc_std,an_rate,quad_cost,allowance,limit_total,gap_to_limit"
    )
