"""Feasible-plan pipeline for finite-horizon lower-bound experiments.

Starting from a near-optimal control for the discounted cost at a target
measure ``m``, build an explicit simulation schedule in three steps:

1. mix the control and its trajectory toward the stationary measure of
   the kernel; this floors every coordinate at a computable ``delta > 0``
   and, by joint convexity of relative entropy, can only shrink the cost;
2. reverse time and mollify the reversed control with a short moving
   average, making it Lipschitz in time;
3. sample the mollified control at the left endpoints of a uniform grid,
   doubling the solver's grid until a measured certificate bounds the flow
   deviation by ``delta / 4`` and the scheduled cost is within 1% of the
   mollified one, or until the paper's a-priori mesh is reached.

Both controls in reversed time, the step function of step 2 and its
mollified version, are one type, :class:`PiecewiseLinearPath`: a start
value and a slope per piece, with zero slopes for the step function.

Each step carries an explicit bound on the cost increase and on the
trajectory deviation it can introduce, so the scheduled cost stays within
a certified distance of the solver's value.  The reversed-time dynamics
``M' = eta - M`` coincide with the drift of the empirical-measure
recursion, so a controlled chain run forward under the schedule tracks
the reversed trajectory and its empirical measure lands near ``m``.

:func:`run_plan` executes the schedule: an i.i.d. warm-up drives the
empirical measure toward the reversed starting point ``q``, a one-shot
distance check decides whether to follow the schedule or to fall back to
the zero-cost reference policy, and the remaining steps consume the
schedule by grid time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from ._format import write_csv
from .chains import (
    ControlledPath,
    _cached_grid,
    _inverse_cdf_rows,
    _validate_x0,
    path_rng,
    verify_chain_rule_identity,
)
from .errors import DimensionMismatch, PreconditionViolation
from .measures import Kernel, ProbVec, kernel_apply, relative_entropy, stationary_distribution
from .ratesolver import (
    PiecewiseControl,
    RateBracket,
    TrajectoryGrid,
    _as_grid,
    _cost_value,
    _flow_nodes,
    _weights_vector,
    solve_rate,
)

DEFAULT_SLACK = 10.0
DEFAULT_EPS_TARGET = 0.05
_KINK_MERGE = 1e-12          # relative gap below which adjacent kinks merge
_QUAD_CHUNK = 65536          # pieces per quadrature block
_COST_RTOL = 1e-2            # relative change in reversed cost a schedule grid may leave

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _unwrap(v) -> np.ndarray:
    return v.weights if isinstance(v, ProbVec) else np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# piecewise paths in reversed time


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Piecewise-linear path on ``[0, inf)``, possibly discontinuous at breaks.

    On piece ``i``, ``[breaks[i], breaks[i+1])``, the value is
    ``start[i] + slope[i] (s - breaks[i])``; the last piece continues past
    ``breaks[-1]``.  A step function has zero slopes.  The cumulative
    integral is exact on every piece.
    """

    breaks: np.ndarray
    start: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.start, dtype=float)
        beta = np.asarray(self.slope, dtype=float)
        if b.ndim != 1 or b.size < 2 or v.ndim != 2 or v.shape[0] != b.size - 1 or beta.shape != v.shape:
            raise DimensionMismatch(
                f"PiecewiseLinearPath: breaks {b.shape}, start {v.shape} and slope {beta.shape} disagree"
            )
        if b[0] != 0.0 or np.any(np.diff(b) <= 0.0):
            raise PreconditionViolation("PiecewiseLinearPath: breaks must increase from 0")
        h = np.diff(b)[:, None]
        F = np.zeros((b.size, v.shape[1]))
        np.cumsum(v * h + 0.5 * beta * h * h, axis=0, out=F[1:])
        for arr in (b, v, beta, F):
            arr.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "start", v)
        object.__setattr__(self, "slope", beta)
        object.__setattr__(self, "_F", F)

    @property
    def d(self) -> int:
        return int(self.start.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def _locate(self, s):
        """Times as a 1-d array, with the index of the piece holding each."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0):
            raise PreconditionViolation("path time must be >= 0")
        ss = np.atleast_1d(s_arr)
        return s_arr.ndim, ss, np.searchsorted(self.breaks, ss, side="right") - 1

    def value(self, s):
        ndim, ss, idx = self._locate(s)
        p = np.minimum(idx, self.start.shape[0] - 1)
        out = self.start[p] + self.slope[p] * (ss - self.breaks[p])[:, None]
        return out if ndim else out[0]

    def integral(self, s):
        """Componentwise ``int_0^s`` of the path, vectorized in ``s``.

        Past the last break the integral continues from the node at
        ``breaks[-1]`` with the last piece's end value there.
        """
        ndim, ss, idx = self._locate(s)
        K = self.start.shape[0]
        p, node = np.minimum(idx, K - 1), np.minimum(idx, K)
        v_node = self.start[p] + self.slope[p] * (self.breaks[node] - self.breaks[p])[:, None]
        ds = (ss - self.breaks[node])[:, None]
        out = self._F[node] + (v_node + 0.5 * self.slope[p] * ds) * ds
        return out if ndim else out[0]

    def lipschitz_l1(self) -> float:
        return float(np.abs(self.slope).sum(axis=1).max())

    def refined(self, points) -> PiecewiseLinearPath:
        """The same path with extra breaks at ``points`` inside ``[0, horizon]``."""
        b = np.union1d(self.breaks, points)
        piece = np.searchsorted(self.breaks, b[:-1], side="right") - 1
        return PiecewiseLinearPath(b, self.value(b[:-1]), self.slope[piece])


# ---------------------------------------------------------------------------
# reversed-time flow M' = eta - M and cost quadratures


def reversed_flow_nodes(q, path: PiecewiseLinearPath) -> np.ndarray:
    """Values of ``M' = eta - M``, ``M(0) = q`` at the path's breaks.

    On a piece of width ``h`` with control ``v + beta s`` the flow is
    ``M(h) = v + beta h - beta + e^{-h} (M(0) - v + beta)``, so the nodes
    are exact up to one rounding per piece.
    """
    q_arr = _unwrap(q)
    b, v, beta = path.breaks, path.start, path.slope
    K = b.size - 1
    end = v + beta * np.diff(b)[:, None]
    M = np.empty((K + 1, q_arr.size))
    M[0] = q_arr
    for i in range(K):
        f = math.exp(-(b[i + 1] - b[i]))
        M[i + 1] = end[i] - beta[i] + f * (M[i] - v[i] + beta[i])
    return M


def integrate_reversed(q, eta: np.ndarray, c: float) -> TrajectoryGrid:
    """Nodes of ``M' = eta - M`` on the uniform grid of mesh ``c``.

    Same integrator as the forward flow, with contraction factor ``e^{-c}``
    in place of ``e^delta``.
    """
    q_arr = _unwrap(q)
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 2 or eta.shape[1] != q_arr.size:
        raise DimensionMismatch("integrate_reversed: eta and q dimensions disagree")
    if not c > 0.0:
        raise PreconditionViolation("integrate_reversed: mesh must be positive")
    return _as_grid(_flow_nodes(q_arr, eta, math.exp(-c)))


def _flow_quad(Amat, lo, hi, v_lo, slope, M_lo, forward: bool, T: float = 0.0) -> float:
    """``int w(s) R(eta(s) || M(s) A) ds`` over linear pieces of the control.

    On ``[lo, hi]`` the control is ``eta(s) = v_lo + slope (s - lo)`` (a
    constant piece has slope 0) and ``M_lo`` is the flow at ``lo``.  The
    forward flow ``M' = M - eta`` is weighted by ``w(s) = e^{-s}``, the
    reversed flow ``M' = eta - M`` by ``w(s) = e^{s - T}``; both are
    integrated in closed form inside each piece.
    """
    sign = 1.0 if forward else -1.0
    total = 0.0
    for a in range(0, lo.size, _QUAD_CHUNK):
        b = min(a + _QUAD_CHUNK, lo.size)
        l, h = lo[a:b], hi[a:b]
        vl, bt, Ml = v_lo[a:b], slope[a:b], M_lo[a:b]
        half = 0.5 * (h - l)
        s = 0.5 * (h + l)[:, None] + half[:, None] * _GL_X[None, :]
        ds = s - l[:, None]
        eta_s = vl[:, None, :] + bt[:, None, :] * ds[..., None]
        M = eta_s + sign * bt[:, None, :] + np.exp(sign * ds)[..., None] * (Ml - vl - sign * bt)[:, None, :]
        r = rel_entr(eta_s, M @ Amat).sum(axis=2)
        weight = np.exp(-s) if forward else np.exp(s - T)
        total += float(((weight * r * _GL_W[None, :]).sum(axis=1) * half).sum())
    return total


def forward_cost_continuous(ctrl: PiecewiseControl, grid: TrajectoryGrid, A: Kernel) -> float:
    """Continuous-time discounted cost of a piecewise-constant control.

    Unlike the solver objective this integrates the exact in-piece flow,
    so it differs from the left-endpoint sum by ``O(T/J)``.
    """
    edges = np.linspace(0.0, ctrl.T, ctrl.J + 1)
    eta = np.asarray(ctrl.eta, dtype=float)
    return _flow_quad(A.matrix, edges[:-1], edges[1:], eta, np.zeros_like(eta), grid.M[:-1], forward=True)


def reversed_cost(q, path: PiecewiseLinearPath, A: Kernel) -> float:
    """``e^{-T} int_0^T e^s R(eta(s) || M(s) A) ds`` along the reversed flow.

    By the substitution ``s -> T - s`` this equals the forward discounted
    cost of the un-reversed pair, which is what the step bounds control.
    """
    Mn = reversed_flow_nodes(q, path)
    b = path.breaks
    return _flow_quad(A.matrix, b[:-1], b[1:], path.start, path.slope, Mn[:-1], forward=False, T=path.horizon)


# ---------------------------------------------------------------------------
# the three plan-building steps


def mix_with_stationary(
    ctrl: PiecewiseControl, grid: TrajectoryGrid, A: Kernel, kappa1: float
) -> tuple[PiecewiseControl, TrajectoryGrid, float]:
    """Convex-combine a control/trajectory pair with the stationary measure.

    The flow map is affine and the stationary measure is one of its fixed
    points, so the mixed trajectory is exactly the flow of the mixed
    control.  Every entry of the result is at least
    ``delta = kappa1 * min(stationary)``, and by joint convexity the
    discounted cost does not increase.
    """
    if not 0.0 < kappa1 <= 1.0:
        raise PreconditionViolation(f"mix_with_stationary: kappa1={kappa1!r} outside (0, 1]")
    mstar = stationary_distribution(A).weights
    eta1 = (1.0 - kappa1) * np.asarray(ctrl.eta, dtype=float) + kappa1 * mstar
    M1 = (1.0 - kappa1) * grid.M + kappa1 * mstar
    delta = float(kappa1 * mstar.min())
    return PiecewiseControl(T=ctrl.T, J=ctrl.J, eta=eta1), _as_grid(M1), delta


def reverse_control(ctrl: PiecewiseControl) -> PiecewiseLinearPath:
    """View a forward piecewise-constant control backwards from time T.

    The result has zero slopes, and its last reversed piece continues past
    ``T``, so the path is defined on all of ``[0, inf)`` as the mollifier
    window requires.
    """
    breaks = np.linspace(0.0, ctrl.T, ctrl.J + 1)
    vals = np.asarray(ctrl.eta, dtype=float)[::-1]
    return PiecewiseLinearPath(breaks=breaks, start=vals, slope=np.zeros_like(vals))


@dataclass(frozen=True)
class MollifyResult:
    path: PiecewiseLinearPath
    cost_increase: float
    deviation: float


def mollify_control(
    rev: PiecewiseLinearPath, kappa2: float, delta: float, delta0: float
) -> MollifyResult:
    """Forward moving average of width ``kappa2`` over the reversed control.

    The result is exactly piecewise linear with kinks at the original
    breaks and at each break shifted left by the window width, evaluated
    through the cumulative integral.  Requires
    ``3 kappa2 e^T <= delta / 2`` so the flow deviation keeps the control
    floored; ``cost_increase`` and ``deviation`` are the certified
    budgets for this step.
    """
    T = rev.horizon
    if not kappa2 > 0.0:
        raise PreconditionViolation("mollify_control: window must be positive")
    eT = math.exp(T)
    dev = 3.0 * kappa2 * eT
    if dev > 0.5 * delta * (1.0 + 1e-9):
        raise PreconditionViolation(
            f"mollify_control: window {kappa2!r} too wide for floor {delta!r}; "
            "need 3 kappa2 e^T <= delta / 2"
        )
    kinks = np.concatenate([rev.breaks, rev.breaks - kappa2, [0.0, T]])
    kinks = np.unique(np.clip(kinks, 0.0, T))
    keep = np.concatenate([[True], np.diff(kinks) > _KINK_MERGE * max(T, 1.0)])
    kinks = kinks[keep]
    if kinks.size < 2:
        kinks = np.array([0.0, T])
    else:
        kinks[-1] = T
    nodes = (rev.integral(kinks + kappa2) - rev.integral(kinks)) / kappa2
    slope = np.diff(nodes, axis=0) / np.diff(kinks)[:, None]
    path = PiecewiseLinearPath(breaks=kinks, start=nodes[:-1], slope=slope)
    b2 = kappa2 * math.exp(kappa2) * abs(math.log(delta0)) + (dev + 2.0 * kappa2) / delta0
    return MollifyResult(path=path, cost_increase=b2, deviation=dev)


@dataclass(frozen=True, eq=False)
class DiscretizeResult:
    eta: np.ndarray
    c: float
    Jc: int
    M_hat: TrajectoryGrid
    cost: float
    cost_increase: float
    deviation: float


def discretize_control(
    lin: PiecewiseLinearPath, q, A: Kernel, J: int, delta: float, cost_mollified: float
) -> DiscretizeResult:
    """Sample a Lipschitz control at the left endpoints of the coarsest adequate grid.

    Grids of ``Jc = J, 2J, 4J, ...`` pieces of mesh ``c = T / Jc`` are tried
    in turn.  On each, the schedule's flow from ``q`` is compared with the
    exact flow of ``lin`` at the grid nodes.  Inside piece ``j`` their
    difference obeys ``e' = (eta(s) - eta(jc)) - e``, so its sup is at most
    the largest node gap plus ``C1 c^2 / 2`` (``C1`` the Lipschitz constant
    in total variation); the paper's ``C1 c T e^T`` bounds it too, and the
    smaller is the certified ``deviation``.  The first grid with deviation
    at most ``delta / 4`` and scheduled cost within ``_COST_RTOL`` of
    ``cost_mollified`` is kept, and the doubling stops at the a-priori mesh,
    where ``C1 c T e^T <= delta / 4``.  ``eta`` (read-only) has ``Jc + 1``
    rows, the last being the value at ``T``; ``M_hat`` and ``cost`` are the
    schedule's flow nodes and reversed cost.
    """
    if J < 1 or not delta > 0.0:
        raise PreconditionViolation("discretize_control: need J >= 1 and delta > 0")
    q_arr = _unwrap(q)
    T = lin.horizon
    C1 = lin.lipschitz_l1()
    eT = math.exp(T)
    Jc_max = max(1, math.ceil(4.0 * C1 * T * T * eT / delta))
    Jc = min(J, Jc_max)
    while True:
        c = T / Jc
        nodes = np.arange(Jc + 1) * c
        nodes[-1] = T
        eta = lin.value(nodes)
        sched = integrate_reversed(q_arr, eta[:Jc], c)
        fine = lin.refined(nodes)
        exact = reversed_flow_nodes(q_arr, fine)[np.searchsorted(fine.breaks, nodes)]
        node_dev = float(np.abs(sched.M - exact).sum(axis=1).max())
        dev = min(node_dev + 0.5 * C1 * c * c, C1 * c * T * eT)
        zero = np.zeros((Jc, eta.shape[1]))
        cost = _flow_quad(A.matrix, nodes[:-1], nodes[1:], eta[:Jc], zero, sched.M[:-1], forward=False, T=T)
        close = abs(cost - cost_mollified) <= _COST_RTOL * cost_mollified + 1e-15
        if Jc >= Jc_max or (dev <= 0.25 * delta and close):
            break
        Jc = min(2 * Jc, Jc_max)
    eta.flags.writeable = False
    b3 = C1 * c * (abs(math.log(A.delta0)) + abs(math.log(delta)) + 1.0) + dev / A.delta0
    return DiscretizeResult(eta=eta, c=c, Jc=Jc, M_hat=sched, cost=cost, cost_increase=b3, deviation=dev)


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
    """Measured costs and certified budgets along the pipeline.

    The quadrature values are continuous-time integrals; ``cost_mixed``
    is the solver's left-endpoint sum for the mixed pair, comparable to
    ``cost_solver`` only.  The chain of guarantees is
    ``cost_mollified_quad <= cost_reversed_quad + bound_mollify`` and
    ``cost_schedule_quad <= cost_mollified_quad + bound_discretize``,
    with ``cost_reversed_quad == cost_mixed_quad`` by the time change.
    ``dev_discretize`` is measured on the chosen grid (see
    :func:`discretize_control`); the other deviations are a-priori bounds.
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
    """A fully discretized reversed control ready to drive a chain.

    ``schedule`` is a read-only ``(Jc + 1, d)`` array: row ``j < Jc`` holds
    on ``[j c, (j+1) c)``, and the last row is the value at ``T`` for the
    (measure-zero, float-edge) case of a step clock reaching the horizon.
    ``M_hat`` is the reversed trajectory; its final node sits within
    ``bounds.target_gap`` of the original target in total variation.
    """

    T: float
    q: ProbVec
    m: ProbVec
    delta: float
    delta0: float
    c: float
    Jc: int
    schedule: np.ndarray
    M_hat: TrajectoryGrid
    kappas: KappaSchedule
    bounds: PlanBounds
    control_reversed: PiecewiseLinearPath

    @property
    def certified_cost(self) -> float:
        return self.bounds.cost_schedule_quad


def build_plan(
    m,
    A: Kernel,
    bracket: RateBracket | None = None,
    T: float | None = None,
    J: int | None = None,
    kappa1: float | None = None,
    kappa2: float | None = None,
    eps_target: float = DEFAULT_EPS_TARGET,
    slack: float = DEFAULT_SLACK,
) -> ReversedPlan:
    """Solve (or accept) a rate bracket at ``m`` and discretize its control.

    Default tuning: ``kappa1`` targets a mixing deviation of
    ``eps_target`` in total variation (capped at 1), and each window
    takes ``1/slack`` of the largest value its precondition allows.  The
    schedule grid is chosen by :func:`discretize_control`.
    """
    m_arr = ProbVec(_unwrap(m)).weights
    if bracket is None:
        horizon = 2.0 if T is None else float(T)
        bracket = solve_rate(m_arr, A, T=horizon, J=J)
    T_val = float(bracket.eta_opt.T)
    if not 0.0 < slack:
        raise PreconditionViolation("build_plan: slack must be positive")
    mstar = stationary_distribution(A).weights
    gap_star = float(np.abs(m_arr - mstar).sum())
    if kappa1 is None:
        kappa1 = 1.0 if gap_star <= eps_target else min(1.0, eps_target / gap_star)
    ctrl1, grid1, delta = mix_with_stationary(bracket.eta_opt, bracket.M_opt, A, kappa1)
    w = _weights_vector(ctrl1.T, ctrl1.J)
    cost_mixed = _cost_value(np.asarray(ctrl1.eta, dtype=float), grid1.M, A.matrix, w)
    cost_mixed_quad = forward_cost_continuous(ctrl1, grid1, A)
    q = ProbVec(grid1.M[-1])
    rev = reverse_control(ctrl1)
    cost_reversed_quad = reversed_cost(q, rev, A)
    eT = math.exp(T_val)
    k2 = delta / (6.0 * eT) / slack if kappa2 is None else float(kappa2)
    moll = mollify_control(rev, k2, delta, A.delta0)
    cost_mollified_quad = reversed_cost(q, moll.path, A)
    disc = discretize_control(moll.path, q, A, ctrl1.J, delta, cost_mollified_quad)
    bounds = PlanBounds(
        cost_solver=bracket.lower,
        cost_mixed=cost_mixed,
        cost_mixed_quad=cost_mixed_quad,
        cost_reversed_quad=cost_reversed_quad,
        cost_mollified_quad=cost_mollified_quad,
        cost_schedule_quad=disc.cost,
        bound_mollify=moll.cost_increase,
        bound_discretize=disc.cost_increase,
        dev_mix=kappa1 * gap_star,
        dev_mollify=moll.deviation,
        dev_discretize=disc.deviation,
        target_gap=float(np.abs(disc.M_hat.M[-1] - m_arr).sum()),
        lipschitz_l1=moll.path.lipschitz_l1(),
    )
    return ReversedPlan(
        T=T_val,
        q=q,
        m=ProbVec(m_arr),
        delta=delta,
        delta0=A.delta0,
        c=disc.c,
        Jc=disc.Jc,
        schedule=disc.eta,
        M_hat=disc.M_hat,
        kappas=KappaSchedule(
            kappa1=float(kappa1), kappa2=k2, slack=float(slack),
            eps_target=float(eps_target),
        ),
        bounds=bounds,
        control_reversed=rev,
    )


def plan_to_json(plan: ReversedPlan, include_schedule: bool = False) -> str:
    doc = {
        "T": plan.T,
        "Jc": plan.Jc,
        "c": plan.c,
        "delta": plan.delta,
        "delta0": plan.delta0,
        "q": [float(v) for v in plan.q.weights],
        "m": [float(v) for v in plan.m.weights],
        "kappas": {
            "kappa1": plan.kappas.kappa1,
            "kappa2": plan.kappas.kappa2,
            "slack": plan.kappas.slack,
            "eps_target": plan.kappas.eps_target,
        },
        "bounds": {
            k: float(getattr(plan.bounds, k))
            for k in (
                "cost_solver", "cost_mixed", "cost_mixed_quad", "cost_reversed_quad",
                "cost_mollified_quad", "cost_schedule_quad", "bound_mollify",
                "bound_discretize", "dev_mix", "dev_mollify", "dev_discretize",
                "target_gap", "lipschitz_l1",
            )
        },
    }
    if include_schedule:
        doc["schedule"] = [[float(v) for v in row] for row in plan.schedule[:-1]]
        doc["schedule_overflow"] = [float(v) for v in plan.schedule[-1]]
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# running a plan on the controlled chain


@dataclass(frozen=True, eq=False)
class PlanRun:
    """One controlled-chain execution of a reversed plan.

    ``cost_occupation`` is the relative entropy between the discounted
    occupation measures of the path; ``cost_stepsum`` the per-step
    average.  The two agree to rounding (chain rule); both are kept so
    experiments can report either side.
    """

    n: int
    a0: int
    eps0: float
    an_occurred: bool
    path: ControlledPath
    terminal: ProbVec
    terminal_error: float
    cost_occupation: float
    cost_stepsum: float
    seed: int


def run_plan(plan: ReversedPlan, A: Kernel, n: int, eps0: float, seed: int, x0: int = 1) -> PlanRun:
    """Drive the controlled chain with a reversed plan for ``n`` steps.

    Steps ``1..a0+1`` draw i.i.d. from ``q`` with ``a0`` the grid index of
    ``t_n - T``; if the empirical measure then sits within ``eps0`` of
    ``q`` the remaining steps read the schedule by grid clock, otherwise
    the run falls back to the zero-cost reference policy.  The empirical
    measure is assembled in closed counts form, which is exact in exact
    arithmetic and agrees with the sequential update to rounding.
    """
    d = A.d
    if plan.q.d != d:
        raise DimensionMismatch("run_plan: plan and kernel dimensions differ")
    if not eps0 > 0.0:
        raise PreconditionViolation("run_plan: eps0 must be positive")
    x0 = _validate_x0(x0, d)
    grid = _cached_grid(int(n))
    t_n = grid.horizon
    if t_n <= plan.T:
        raise PreconditionViolation(
            f"run_plan: need t_n > T, got t_n={t_n!r} at n={n} for T={plan.T!r}"
        )
    a0 = int(grid.index_of(t_n - plan.T))
    n1 = a0 + 1
    if a0 < 1 or n1 >= n:
        raise PreconditionViolation(f"run_plan: horizon n={n} leaves no room for the schedule")
    q = plan.q.weights
    rng = path_rng(seed, 0)
    u = rng.random(n)

    states = np.empty(n, dtype=np.int64)
    mu = np.empty((n, d))
    x1 = _inverse_cdf_rows(np.broadcast_to(q, (n1, d)), u[:n1])
    states[:n1] = x1 + 1
    mu[:n1] = q

    e0 = np.zeros(d)
    e0[x0 - 1] = 1.0
    head_counts = np.bincount(x1, minlength=d).astype(float)
    L_head = (e0 + head_counts) / (n1 + 1.0)
    an = bool(np.abs(L_head - q).sum() >= eps0)

    if an:
        # fallback: zero-cost reference policy, sequential by necessity
        Amat = A.matrix
        cnt = head_counts.copy()
        for k in range(n1 + 1, n + 1):
            Lb = (e0 + cnt) / k
            wrow = Lb @ Amat
            mu[k - 1] = wrow
            x = int(np.searchsorted(np.cumsum(wrow), u[k - 1], side="left"))
            x = min(x, d - 1)
            states[k - 1] = x + 1
            cnt[x] += 1.0
    else:
        sigma = grid.times[n1]
        clock = grid.times[n1 + 1 : n + 1] - sigma
        j = np.clip((clock / plan.c).astype(np.int64), 0, plan.Jc)
        mu[n1:] = plan.schedule[j]
        x2 = _inverse_cdf_rows(mu[n1:], u[n1:])
        states[n1:] = x2 + 1

    one_hot = np.zeros((n, d))
    one_hot[np.arange(n), states - 1] = 1.0
    Lbar = np.empty((n + 1, d))
    Lbar[0] = e0
    Lbar[1:] = (e0 + np.cumsum(one_hot, axis=0)) / np.arange(2, n + 2, dtype=float)[:, None]
    for arr in (states, mu, Lbar):
        arr.flags.writeable = False
    path = ControlledPath(n=n, d=d, x0=x0, seed=int(seed), states=states, mu=mu, Lbar=Lbar)
    lhs, rhs = verify_chain_rule_identity(path, A)
    terminal = Lbar[n]
    terminal_error = float(np.abs(terminal - plan.M_hat.M[-1]).sum())
    return PlanRun(
        n=int(n),
        a0=a0,
        eps0=float(eps0),
        an_occurred=an,
        path=path,
        terminal=ProbVec(terminal),
        terminal_error=terminal_error,
        cost_occupation=lhs,
        cost_stepsum=rhs,
        seed=int(seed),
    )


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
    """Monte Carlo occupation costs against the plan's certified value.

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
    x0: int = 1,
) -> CostConvergenceReport:
    """Run the plan across horizons and compare mean costs to the quadrature."""
    if n_seeds < 1:
        raise PreconditionViolation("check_cost_convergence: n_seeds must be >= 1")
    quad = plan.bounds.cost_schedule_quad
    allowance = math.exp(-plan.T) * math.log(1.0 / A.delta0)
    iid_limit = math.exp(-plan.T) * relative_entropy(plan.q, kernel_apply(plan.q, A))
    limit_total = quad + iid_limit
    rows = []
    for block, n in enumerate(n_list):
        costs = np.empty(n_seeds)
        an_count = 0
        for i in range(n_seeds):
            run = run_plan(plan, A, int(n), eps0, seed + block * n_seeds + i, x0)
            costs[i] = run.cost_occupation
            an_count += int(run.an_occurred)
        mean = float(costs.mean())
        rows.append(
            CostTrendRow(
                n=int(n),
                n_seeds=int(n_seeds),
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
    header = ["n", "seed", "An_flag", "terminal_error", "cost_occupation", "cost_stepsum"]
    rows = (
        [r.n, r.seed, int(r.an_occurred), r.terminal_error, r.cost_occupation, r.cost_stepsum]
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
