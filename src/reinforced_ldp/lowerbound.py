"""Feasible-plan pipeline for finite-horizon lower-bound experiments.

Starting from a near-optimal control for the discounted cost at a target
measure ``m``, :func:`build_plan` builds an explicit simulation schedule in
two steps, each in closed form:

1. mix the control and its trajectory toward the stationary measure of
   the kernel; this floors every coordinate at a computable ``delta > 0``
   and, by joint convexity of relative entropy, can only shrink the cost;
2. reverse time and mollify the reversed control with a short moving
   average, making it Lipschitz in time; on a step control the average is
   each row, held flat, then a linear ramp to the next row over the
   window before each break, so the mollified path's values at its kinks
   are the solver's own rows, bit for bit.

The mollified path is the schedule: a run reads it at the chain's own
clock by linear interpolation between its kinks, so no second time grid
is laid over the chain's.  Every control of the pipeline, the solver's
step control, its reversal and the mollified path, is the package's one
control type, :class:`~reinforced_ldp.ratesolver.PiecewiseLinearPath`: a
start value and a slope per piece, with zero slopes for a step control.

Each step carries an explicit bound on the cost increase and on the
trajectory deviation it can introduce, recorded in :class:`PlanBounds`, so
the scheduled cost stays within a certified distance of the solver's
value.  The reversed-time dynamics ``M' = eta - M`` coincide with the
drift of the empirical-measure recursion, so a controlled chain run
forward under the schedule tracks the reversed trajectory and its
empirical measure lands near ``m``.  The flow in both directions and its
cost quadrature are :func:`~reinforced_ldp.ratesolver.flow_nodes` and
:func:`~reinforced_ldp.ratesolver.flow_cost`; :func:`reversed_cost` is
the reversed pair of them.

:func:`run_plan` executes the schedule: an i.i.d. warm-up drives the
empirical measure toward the reversed starting point ``q``, a one-shot
distance check decides whether to follow the schedule or to fall back to
the zero-cost reference policy, and the remaining steps read the schedule
at the chain's clock.  The runs of one horizon, in the cost trend of
:func:`check_cost_convergence`, the CLI's runs and the acceptance checks,
come from one generator, ``_plan_seeds``, which checks the horizon once,
interpolates the schedule into its control rows once, in blocks of steps,
scans the rows' first column as their ``C_0``, and streams every seed
through blocks of ``chains._BLOCK_CAP`` steps: each block is drawn,
measured and costed before the next, with one-byte states up to 255
states, so no array of ``n`` rows is held but the control rows and no
draw or measure differs from a path formed whole.  A run's cost is the
paper's running cost ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)``, one
``np.sum`` per block, added in step order.  :func:`run_plan` is its
one-seed case, which keeps its path.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._format import write_csv
from .chains import (
    _BLOCK_CAP,
    ControlledPath,
    _StepCost,
    _column_scan,
    _reinforced_draws,
    _running_measure,
    _time_grid,
    _validate_x0,
    path_rng,
)
from .errors import DimensionMismatch, PreconditionViolation
from .measures import (
    Kernel,
    ProbVec,
    _as_count,
    _as_real,
    _weights_of,
    kernel_apply,
    relative_entropy,
    stationary_distribution,
)
from .ratesolver import (  # noqa: F401  (_GL_X sizes perfbench's quad_nodes counter)
    _GL_X,
    PiecewiseLinearPath,
    SolveDiagnostics,
    _cost_value,
    _weights_vector,
    flow_cost,
    flow_nodes,
    solve_rate,
)

DEFAULT_SLACK = 10.0
EPS_TARGET = 0.05            # total-variation deviation the mixing step may add


# ---------------------------------------------------------------------------
# reversed-time flow M' = eta - M and its cost


def reversed_cost(q, path: PiecewiseLinearPath, A: Kernel) -> float:
    """``e^{-T} int_0^T e^s R(eta(s) || M(s) A) ds`` along the reversed flow from ``q``.

    By the substitution ``s -> T - s`` this equals the forward discounted
    cost of the un-reversed pair, which is what the plan's bounds control.
    """
    return flow_cost(path, flow_nodes(q, path, forward=False), A, forward=False)


# ---------------------------------------------------------------------------
# assembled plans


@dataclass(frozen=True)
class KappaSchedule:
    kappa1: float
    kappa2: float
    slack: float
    eps_target: float


@dataclass(frozen=True)
class PlanBounds:
    """Measured costs and certified budgets of the two steps of :func:`build_plan`.

    The quadrature values are continuous-time integrals; ``cost_mixed``
    is the solver's left-endpoint sum for the mixed pair, clamped at 0 like
    ``cost_solver``, and comparable to it only.  The chain of guarantees is
    ``cost_mollified_quad <= cost_reversed_quad + bound_mollify``, with
    ``cost_reversed_quad == cost_mixed_quad`` by the time change.  The
    schedule is the mollified control itself, so ``cost_schedule_quad``
    is ``cost_mollified_quad`` and ``bound_discretize`` and
    ``dev_discretize`` are 0 by construction; the other deviations are
    a-priori bounds: ``dev_mix = kappa1 |m - m*|_1`` and ``dev_mollify =
    3 kappa2 e^T``.  ``lipschitz_l1`` is the largest l1 slope of the
    mollified path, a jump between reversed rows spread over one window.
    """

    cost_solver: float
    cost_mixed: float
    cost_mixed_quad: float
    cost_reversed_quad: float
    cost_mollified_quad: float
    cost_schedule_quad: float
    bound_mollify: float
    bound_discretize: float
    dev_mix: float
    dev_mollify: float
    dev_discretize: float
    target_gap: float
    lipschitz_l1: float


@dataclass(frozen=True, eq=False)
class ReversedPlan:
    """A mollified reversed control ready to drive a chain.

    ``knots`` are the kinks of the mollified path and ``schedule`` a
    read-only ``(Jc + 1, d)`` array of its values there: the schedule is
    linear between knots, and its last row holds past ``T``.  ``M_hat`` is
    the read-only ``(Jc + 1, d)`` reversed trajectory at the knots; its
    final node sits within ``bounds.target_gap`` of the original target in
    total variation.  ``solve`` holds the diagnostics of the rate solve the
    plan was built from.
    """

    T: float
    q: ProbVec
    m: ProbVec
    delta: float
    delta0: float
    knots: np.ndarray
    schedule: np.ndarray
    M_hat: np.ndarray
    solve: SolveDiagnostics
    kappas: KappaSchedule
    bounds: PlanBounds
    control_reversed: PiecewiseLinearPath

    @property
    def Jc(self) -> int:
        return len(self.knots) - 1


def build_plan(m, A: Kernel, T: float = 2.0, J: int | None = None, slack: float = DEFAULT_SLACK) -> ReversedPlan:
    """Solve the rate bracket at ``m`` on horizon ``T`` and build its reversed plan.

    Mixing with the stationary measure ``m*`` takes weight ``kappa1``,
    which targets a deviation of ``EPS_TARGET`` in total variation (capped
    at 1): the mixed nodes are the flow of the mixed control, since ``m*``
    is a fixed point of the affine flow map, and every entry is at least
    ``delta = kappa1 min(m*)``.  The reversed mixed control is a step
    function whose last row holds past ``T``; its moving average over the
    window ``kappa2`` has kinks ``0, b_1 - kappa2, b_1, ..., b_{J-1} -
    kappa2, b_{J-1}, T`` and takes each reversed row twice there.  The
    window is ``1/slack`` of the largest value with ``3 kappa2 e^T <= delta
    / 2``, capped at half the solver mesh ``T / J`` so that it stays inside
    every piece; where the cap does not bind, ``slack < 1`` breaks that
    inequality and raises :class:`PreconditionViolation`.  The mollified
    path is the schedule.
    """
    slack = _as_real(slack, "build_plan: slack")
    if not 0.0 < slack < math.inf:
        raise PreconditionViolation("build_plan: slack must be positive and finite")
    m_arr = ProbVec(_weights_of(m)).weights
    bracket = solve_rate(m_arr, A, T=_as_real(T, "build_plan: T"), J=J)
    T_val, J_val = bracket.eta_opt.horizon, len(bracket.eta_opt.start)
    mstar = stationary_distribution(A).weights
    gap_star = float(np.abs(m_arr - mstar).sum())
    kappa1 = 1.0 if gap_star <= EPS_TARGET else EPS_TARGET / gap_star
    eta1 = (1.0 - kappa1) * bracket.eta_opt.start + kappa1 * mstar
    M1 = (1.0 - kappa1) * bracket.M_opt + kappa1 * mstar
    delta = float(kappa1 * mstar.min())
    # a relative-entropy sum: rounding can leave it a few ulps below zero, as in rate_profile
    cost_mixed = max(_cost_value(eta1, M1, A.matrix, _weights_vector(T_val, J_val)), 0.0)
    cost_mixed_quad = flow_cost(PiecewiseLinearPath.steps(T_val, eta1), M1, A)
    q = ProbVec(M1[-1])
    rev = PiecewiseLinearPath.steps(T_val, eta1[::-1])
    cost_reversed_quad = reversed_cost(q, rev, A)
    eT = math.exp(T_val)
    k2 = min(delta / (6.0 * eT) / slack, 0.5 * T_val / J_val)
    dev = 3.0 * k2 * eT
    if dev > 0.5 * delta * (1.0 + 1e-9):
        raise PreconditionViolation(
            f"build_plan: window {k2!r} too wide for floor {delta!r}; need 3 kappa2 e^T <= delta / 2"
        )
    inner = rev.breaks[1:-1]
    knots = np.concatenate([[0.0], np.column_stack([inner - k2, inner]).ravel(), [rev.horizon]])
    schedule = np.repeat(rev.start, 2, axis=0)
    slope = np.diff(schedule, axis=0) / np.diff(knots)[:, None]
    moll = PiecewiseLinearPath(knots, schedule[:-1], slope)
    schedule.flags.writeable = False
    cost_mollified_quad = reversed_cost(q, moll, A)
    M_hat = flow_nodes(q, moll, forward=False)
    bounds = PlanBounds(
        cost_solver=bracket.lower,
        cost_mixed=cost_mixed,
        cost_mixed_quad=cost_mixed_quad,
        cost_reversed_quad=cost_reversed_quad,
        cost_mollified_quad=cost_mollified_quad,
        cost_schedule_quad=cost_mollified_quad,
        bound_mollify=k2 * math.exp(k2) * abs(math.log(A.delta0)) + (dev + 2.0 * k2) / A.delta0,
        bound_discretize=0.0,
        dev_mix=kappa1 * gap_star,
        dev_mollify=dev,
        dev_discretize=0.0,
        target_gap=float(np.abs(M_hat[-1] - m_arr).sum()),
        lipschitz_l1=float(np.abs(slope).sum(axis=1).max()),
    )
    return ReversedPlan(
        T=T_val,
        q=q,
        m=ProbVec(m_arr),
        delta=delta,
        delta0=A.delta0,
        knots=moll.breaks,
        schedule=schedule,
        M_hat=M_hat,
        solve=bracket.diagnostics,
        kappas=KappaSchedule(kappa1=float(kappa1), kappa2=k2, slack=float(slack), eps_target=EPS_TARGET),
        bounds=bounds,
        control_reversed=rev,
    )


def plan_to_json(plan: ReversedPlan, include_schedule: bool = False) -> str:
    doc = {
        "T": plan.T,
        "Jc": plan.Jc,
        "solve": {
            "iterations": plan.solve.iterations,
            "gap": plan.solve.gap,
            "converged": plan.solve.converged,
        },
        "delta": plan.delta,
        "delta0": plan.delta0,
        "q": [float(v) for v in plan.q.weights],
        "m": [float(v) for v in plan.m.weights],
        "kappas": asdict(plan.kappas),
        "bounds": asdict(plan.bounds),
    }
    if include_schedule:
        doc["knots"] = plan.knots.tolist()
        doc["schedule"] = plan.schedule.tolist()
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# running a plan on the controlled chain


@dataclass(frozen=True, eq=False)
class PlanRun:
    """One controlled-chain execution of a reversed plan.

    ``cost_stepsum`` is the paper's running cost of the path, the per-step
    average ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)``; by the chain rule it
    is also the relative entropy between the path's two discounted
    occupation measures, which
    :func:`~reinforced_ldp.chains.verify_chain_rule_identity` computes as
    its other side.  ``path`` is the run's path from :func:`run_plan`, and
    None for the CLI's runs, which keep only their ``runs.csv`` row.  The
    cost trend of :func:`check_cost_convergence` builds no ``PlanRun``; its
    costs have the bits of ``cost_stepsum``.
    """

    n: int
    a0: int
    eps0: float
    an_occurred: bool
    path: ControlledPath | None
    terminal: ProbVec
    terminal_error: float
    cost_stepsum: float
    seed: int


def _plan_horizon(T: float, n, eps0, caller: str) -> tuple[int, int]:
    """``(n, a0)`` for a plan run of ``n`` steps on horizon ``T``, or a
    :class:`PreconditionViolation` naming ``caller``.

    ``T`` must be finite and positive, ``eps0`` positive and ``n`` an
    integer with ``t_n > T``; ``a0`` is the grid index of ``t_n - T``, and
    the schedule needs ``1 <= a0`` and ``a0 + 1 < n``.  The runs check this
    once per horizon, and the CLI before it builds the plan.
    """
    if not 0.0 < T < math.inf:
        raise PreconditionViolation(f"{caller}: need a finite T > 0, got {T!r}")
    if not _as_real(eps0, f"{caller}: eps0") > 0.0:
        raise PreconditionViolation(f"{caller}: eps0 must be positive")
    n = _as_count(n, f"{caller}: n")
    times = _time_grid(n)
    t_n = float(times[-1])
    if t_n <= T:
        raise PreconditionViolation(f"{caller}: need t_n > T, got t_n={t_n!r} at n={n} for T={T!r}")
    a0 = int(np.searchsorted(times, t_n - T, side="right")) - 1
    if a0 < 1 or a0 + 1 >= n:
        raise PreconditionViolation(f"{caller}: horizon n={n} leaves no room for the schedule")
    return n, a0


class _SeedRun(NamedTuple):
    """What :func:`_plan_seeds` yields for a seed; the cost when it was not
    asked for, and the path unless kept, are None."""

    seed: int
    n: int
    a0: int
    an: bool
    terminal: np.ndarray
    cost_stepsum: float | None
    path: ControlledPath | None


def _plan_seeds(plan: ReversedPlan, A: Kernel, n, eps0: float, seeds, x0: int, caller: str,
                cost: bool = True, keep: bool = False):
    """The runs of :func:`run_plan` at each of ``seeds``, all of ``n`` steps,
    drawn, measured and costed ``chains._BLOCK_CAP`` steps at a time: one
    :class:`_SeedRun` per seed.

    The dimensions, ``x0`` and the horizon (:func:`_plan_horizon`) are
    checked once.  The one array kept across the seeds is the horizon's
    control rows ``rows``, filled before the first seed: the schedule
    interpolated at the clock into the scheduled rows, a block of steps at
    a time, so the clock and the interpolated column are temporaries of one
    block, and ``q`` in the head rows of the block that holds step ``n1``,
    which also serve every head block before it.  The scan reads ``C_0`` as
    the scheduled rows' first column, a view, and ``C_1..C_{d-2}`` from
    sums of the rows built once with them.

    A seed runs in blocks of steps that start at multiples of
    ``_BLOCK_CAP``.  Each block draws its uniforms from the seed's stream,
    its head states by a scan of ``q``'s CDF and, after the distance check
    at step ``n1`` has chosen, its other states by a scan of the scheduled
    rows' CDF or by the fallback's block draws from the exact counts; it
    forms its rows of ``Lbar`` from the counts carried in (one-byte states,
    in the smallest unsigned dtype that holds ``d``), the fallback's rows
    ``Lbar_{k-1} A`` by one product into a block of its own, and, with
    ``cost``, adds its rows to the run's cost (``chains._StepCost``).
    So a horizon of at most ``_BLOCK_CAP`` steps is one block, whose
    products are those of the whole path, and a seed holds only block-sized
    arrays; its path is None.  With ``keep`` each block's states, control
    rows and ``Lbar`` rows are also copied into ``n``-row arrays of the
    seed's own, and its path is their read-only views.
    """
    d = A.d
    if plan.q.d != d:
        raise DimensionMismatch(f"{caller}: plan and kernel dimensions differ")
    n, a0 = _plan_horizon(plan.T, n, eps0, caller)
    x0 = _validate_x0(x0, d)
    n1 = a0 + 1
    q = plan.q.weights
    Amat = A.matrix
    head_cdf = np.cumsum(q)[:-1]
    e0 = np.zeros(d)
    e0[x0 - 1] = 1.0
    cap = min(n, _BLOCK_CAP)
    state_dtype = np.min_scalar_type(d)
    # rows[0] holds step s: a block that holds step n1 starts at or after it
    s = max(n1 - cap, 0)
    rows = np.empty((n - s, d))
    # q up to step n1, then the schedule at the clock t_k - t_{n1}, in blocks of steps
    rows[: n1 - s] = q
    times = _time_grid(n)
    for lo in range(n1, n, _BLOCK_CAP):
        hi = min(lo + _BLOCK_CAP, n)
        clock = times[lo + 1 : hi + 1] - times[n1]
        for x in range(d):
            rows[lo - s : hi - s, x] = np.interp(clock, plan.knots, plan.schedule[:, x])
    # the scanned CDF of the scheduled rows (none at d = 1): C_0 is their
    # first column, and C_1..C_{d-2} add the next columns one at a time
    sched = rows[n1 - s :]
    cdf = [sched[:, 0], *np.empty((max(d - 2, 0), n - n1))][: d - 1]
    for x in range(1, d - 1):
        np.add(cdf[x - 1], sched[:, x], out=cdf[x])

    states = np.empty(cap, dtype=state_dtype)
    Lbar = np.empty((cap + 1, d))
    fallback = np.empty((cap, d))
    step_cost = _StepCost(n, d) if cost else None
    divisors = np.arange(2.0, cap + 2.0)
    steps = np.empty(cap)
    counts = np.empty(cap)
    u = np.empty(cap)
    for seed in seeds:
        if keep:
            path_states = np.empty(n, dtype=state_dtype)
            path_mu = np.empty((n, d))
            path_Lbar = np.empty((n + 1, d))
            path_Lbar[0] = e0
        if step_cost is not None:
            step_cost.start()
        rng = path_rng(seed)
        carry = e0.copy()
        Lbar[0] = e0
        an = False
        for lo in range(0, n, cap):
            hi = min(lo + cap, n)
            B = hi - lo
            h = min(max(n1 - lo, 0), B)  # the block's head steps
            ub = u[:B]
            rng.random(out=ub)
            st = states[:B]
            Lb = Lbar[: B + 1]
            if h:
                _column_scan(head_cdf, ub[:h], out=st[:h])
            if h < B:
                k = lo + h
                cnt = carry
                if k == n1:
                    cnt = carry + np.bincount(st[:h], minlength=d)
                    an = bool(np.abs(cnt / (n1 + 1.0) - q).sum() >= eps0)
                if an:
                    # the zero-cost reference policy, a reinforced chain from the counts
                    _reinforced_draws(Amat, cnt, k + 1, ub[h:], out=st[h:])
                else:
                    _column_scan([c[k - n1 : hi - n1] for c in cdf], ub[h:], out=st[h:])
            np.add(divisors[:B], lo, out=steps[:B])
            _running_measure(st, carry, Lb[1:], steps[:B], counts[:B])
            a = max(lo - s, 0)
            mu = rows[a : a + B]
            if an:
                mu = fallback[:B]
                mu[:h] = q
                # update k of the fallback reads Lbar[k-1] A
                np.matmul(Lb[h:B], Amat, out=mu[h:])
            if step_cost is not None:
                step_cost.add(Lb[:B], mu, Amat)
            if keep:
                path_states[lo:hi] = st
                path_mu[lo:hi] = mu
                path_Lbar[lo + 1 : hi + 1] = Lb[1:]
            Lb[0] = Lb[B]
        terminal = Lbar[0].copy()
        cost_stepsum = None if step_cost is None else step_cost.value()
        path = None
        if keep:
            path_states += 1
            for arr in (path_states, path_mu, path_Lbar):
                arr.flags.writeable = False
            path = ControlledPath(n=n, d=d, x0=x0, seed=int(seed), states=path_states, mu=path_mu, Lbar=path_Lbar)
        yield _SeedRun(int(seed), n, a0, an, terminal, cost_stepsum, path)


def _plan_runs(plan: ReversedPlan, A: Kernel, n, eps0: float, seeds, x0: int, caller: str, keep: bool = False):
    """The :class:`PlanRun` of each of ``seeds``, from :func:`_plan_seeds`
    with its cost: its path is None, or with ``keep`` its own."""
    for run in _plan_seeds(plan, A, n, eps0, seeds, x0, caller, keep=keep):
        yield PlanRun(
            n=run.n,
            a0=run.a0,
            eps0=float(eps0),
            an_occurred=run.an,
            path=run.path,
            terminal=ProbVec(run.terminal),
            terminal_error=float(np.abs(run.terminal - plan.M_hat[-1]).sum()),
            cost_stepsum=run.cost_stepsum,
            seed=run.seed,
        )


def run_plan(plan: ReversedPlan, A: Kernel, n: int, eps0: float, seed: int, x0: int = 1) -> PlanRun:
    """Drive the controlled chain with a reversed plan for ``n`` steps.

    Steps ``1..a0+1`` draw i.i.d. from ``q`` with ``a0`` the grid index of
    ``t_n - T``; if the empirical measure then sits within ``eps0`` of
    ``q`` the remaining steps read the schedule at the chain's clock,
    otherwise the run falls back to the zero-cost reference policy.  The
    head draws by one column scan of ``q``'s CDF.  The scheduled phase's
    control rows are the schedule interpolated linearly between its knots
    at the clock of each step, and it draws by one column scan of their
    CDF: ``C_0`` is the rows' first column and each further column is added
    one at a time.  The fallback is the reinforced chain
    continued from the head's counts, drawn by the block draws of a single
    path in :mod:`~reinforced_ldp.chains`, with control rows ``mu_k =
    Lbar_{k-1} A``.  The empirical measure comes from the one builder every
    controlled path uses, ``chains._running_measure``: ``Lbar[k, x] =
    (e0[x] + #{i <= k : X_i = x}) / (k+1)`` from the running count of ``x``
    in exact integers.  The cost is the per-step side of the chain-rule
    identity, bit for bit that of
    :func:`~reinforced_ldp.chains.verify_chain_rule_identity`.

    This is the one-seed case of the runs of a horizon (``_plan_seeds``),
    which the cost trend, the CLI's runs and the acceptance checks stream
    through blocks of steps, with one schedule build per horizon; here the
    run also copies each block into ``n``-row arrays of its own, its
    read-only path, and a loop over ``run_plan`` builds the schedule every
    call.
    """
    return next(_plan_runs(plan, A, n, eps0, (seed,), x0, "run_plan", keep=True))


# ---------------------------------------------------------------------------
# experiments on top of plans


@dataclass(frozen=True)
class CostTrendRow:
    n: int
    n_seeds: int
    mc_mean: float
    mc_std: float
    an_rate: float
    gap_to_limit: float


@dataclass(frozen=True, eq=False)
class CostConvergenceReport:
    """Monte Carlo running costs against the plan's certified value.

    ``quad_cost`` is the scheduled-phase integral; the i.i.d. head
    contributes ``iid_limit = e^{-T} R(q || q A)`` in the long-horizon
    limit, so the Monte Carlo means should approach ``limit_total`` and
    stay inside ``[quad_cost, quad_cost + allowance]`` up to sampling
    noise, where ``allowance = e^{-T} log(1/delta0)`` bounds any
    admissible head.
    """

    quad_cost: float
    allowance: float
    iid_limit: float
    limit_total: float
    eps0: float
    rows: tuple[CostTrendRow, ...]


def check_cost_convergence(
    plan: ReversedPlan,
    A: Kernel,
    n_list,
    n_seeds: int,
    eps0: float,
    seed: int = 0,
) -> CostConvergenceReport:
    """Run the plan across horizons and compare mean costs to the quadrature.

    Each run is the path of :func:`run_plan` from state 1 at seed ``seed +
    block * n_seeds + i``, and its cost equals ``run_plan(...).cost_stepsum``
    bit for bit.
    The seeds of one horizon share its scheduled control rows, filled once
    per horizon in blocks of steps, and the CDF sums the scan reads besides
    their first column; each seed is streamed through blocks of steps
    (``_plan_seeds``).  At d = 2 a horizon peaks at about 18 traced bytes a
    step (n = 2e5, the clock cached), 16 of them the control rows.
    """
    n_seeds = _as_count(n_seeds, "check_cost_convergence: n_seeds")
    if n_seeds < 1:
        raise PreconditionViolation("check_cost_convergence: n_seeds must be >= 1")
    quad = plan.bounds.cost_schedule_quad
    allowance = math.exp(-plan.T) * math.log(1.0 / A.delta0)
    iid_limit = math.exp(-plan.T) * relative_entropy(plan.q, kernel_apply(plan.q, A))
    limit_total = quad + iid_limit
    rows = []
    for block, n in enumerate(n_list):
        n = _as_count(n, "check_cost_convergence: n")
        seeds = (seed + block * n_seeds + i for i in range(n_seeds))
        costs = np.empty(n_seeds)
        an_count = 0
        runs = _plan_seeds(plan, A, n, eps0, seeds, 1, "check_cost_convergence")
        for i, run in enumerate(runs):
            costs[i] = run.cost_stepsum
            an_count += int(run.an)
        mean = float(costs.mean())
        rows.append(
            CostTrendRow(
                n=n,
                n_seeds=n_seeds,
                mc_mean=mean,
                mc_std=float(costs.std()),
                an_rate=an_count / n_seeds,
                gap_to_limit=abs(mean - limit_total),
            )
        )
    return CostConvergenceReport(
        quad_cost=quad,
        allowance=allowance,
        iid_limit=iid_limit,
        limit_total=limit_total,
        eps0=float(eps0),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# CSV export


def export_runs_csv(file, runs, provenance: str | None = None) -> None:
    """Write one row per run: ``n, seed, An_flag, terminal_error,
    cost_occupation, cost_stepsum``.

    A run has one cost, ``cost_stepsum``.  The ``cost_occupation`` column
    repeats it: by the chain rule the two sides are one number, and the
    header is kept for the benchmark's runs check, which so compares a
    number with itself until that check and the column go together.
    """
    header = ["n", "seed", "An_flag", "terminal_error", "cost_occupation", "cost_stepsum"]
    rows = (
        [r.n, r.seed, int(r.an_occurred), r.terminal_error, r.cost_stepsum, r.cost_stepsum]
        for r in runs
    )
    write_csv(file, header, rows, provenance)


def export_cost_report_csv(file, report: CostConvergenceReport, provenance: str | None = None) -> None:
    header = [
        "n", "n_seeds", "mc_mean", "mc_std", "an_rate",
        "quad_cost", "allowance", "limit_total", "gap_to_limit",
    ]
    rows = (
        [
            r.n, r.n_seeds, r.mc_mean, r.mc_std, r.an_rate,
            report.quad_cost, report.allowance, report.limit_total, r.gap_to_limit,
        ]
        for r in report.rows
    )
    write_csv(file, header, rows, provenance)
