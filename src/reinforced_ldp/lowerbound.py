"""Feasible-plan pipeline for finite-horizon lower-bound experiments.

Starting from a near-optimal control for the discounted cost at a target
measure ``m``, build an explicit simulation schedule in three steps:

1. mix the control and its trajectory toward the stationary measure of
   the kernel; this floors every coordinate at a computable ``delta > 0``
   and, by joint convexity of relative entropy, can only shrink the cost;
2. reverse time and mollify the reversed control with a short moving
   average, making it Lipschitz in time;
3. sample the mollified control on a uniform grid of mesh ``c``.

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

import functools
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
from .errors import (
    ConvergenceError,
    DimensionMismatch,
    PreconditionViolation,
    ResourceLimitExceeded,
)
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
DEFAULT_MAX_INTERVALS = 2_000_000
_KINK_MERGE = 1e-12          # relative gap below which adjacent kinks merge
_QUAD_CHUNK = 65536          # pieces per quadrature block

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _unwrap(v) -> np.ndarray:
    return v.weights if isinstance(v, ProbVec) else np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# piecewise paths in reversed time


@dataclass(frozen=True, eq=False)
class PiecewiseConstantPath:
    """Right-continuous step function, constant after the last break.

    ``vals[i]`` holds on ``[breaks[i], breaks[i+1])`` and ``extend`` on
    ``[breaks[-1], inf)``; the cumulative integral is exact per segment.
    """

    breaks: np.ndarray
    vals: np.ndarray
    extend: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.vals, dtype=float)
        e = np.asarray(self.extend, dtype=float)
        if b.ndim != 1 or b.size < 2 or v.ndim != 2 or v.shape[0] != b.size - 1:
            raise DimensionMismatch(
                f"PiecewiseConstantPath: breaks {b.shape} and vals {v.shape} disagree"
            )
        if e.shape != (v.shape[1],):
            raise DimensionMismatch("PiecewiseConstantPath: extension dimension mismatch")
        if b[0] != 0.0 or np.any(np.diff(b) <= 0.0):
            raise PreconditionViolation("PiecewiseConstantPath: breaks must increase from 0")
        F = np.zeros((b.size, v.shape[1]))
        np.cumsum(v * np.diff(b)[:, None], axis=0, out=F[1:])
        for arr in (b, v, e, F):
            arr.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "vals", v)
        object.__setattr__(self, "extend", e)
        object.__setattr__(self, "_F", F)

    @property
    def d(self) -> int:
        return int(self.vals.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def value(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0):
            raise PreconditionViolation("path time must be >= 0")
        ss = np.atleast_1d(s_arr)
        K = self.vals.shape[0]
        idx = np.searchsorted(self.breaks, ss, side="right") - 1
        out = np.where(
            (idx >= K)[:, None], self.extend, self.vals[np.minimum(idx, K - 1)]
        )
        return out if s_arr.ndim else out[0]

    def integral(self, s):
        """Componentwise ``int_0^s`` of the path, vectorized in ``s``."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0):
            raise PreconditionViolation("path time must be >= 0")
        ss = np.atleast_1d(s_arr)
        K = self.vals.shape[0]
        idx = np.searchsorted(self.breaks, ss, side="right") - 1
        node = np.minimum(idx, K)
        slope = np.where((idx >= K)[:, None], self.extend, self.vals[np.minimum(idx, K - 1)])
        out = self._F[node] + slope * (ss - self.breaks[node])[:, None]
        return out if s_arr.ndim else out[0]


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Continuous piecewise-linear function on ``[0, T]`` given by node values."""

    breaks: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.nodes, dtype=float)
        if b.ndim != 1 or b.size < 2 or v.ndim != 2 or v.shape[0] != b.size:
            raise DimensionMismatch(
                f"PiecewiseLinearPath: breaks {b.shape} and nodes {v.shape} disagree"
            )
        if b[0] != 0.0 or np.any(np.diff(b) <= 0.0):
            raise PreconditionViolation("PiecewiseLinearPath: breaks must increase from 0")
        slopes = np.diff(v, axis=0) / np.diff(b)[:, None]
        for arr in (b, v, slopes):
            arr.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "nodes", v)
        object.__setattr__(self, "slopes", slopes)

    @property
    def d(self) -> int:
        return int(self.nodes.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def value(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0):
            raise PreconditionViolation("path time must be >= 0")
        ss = np.atleast_1d(s_arr)
        K = self.slopes.shape[0]
        idx = np.clip(np.searchsorted(self.breaks, ss, side="right") - 1, 0, K - 1)
        out = self.nodes[idx] + self.slopes[idx] * (ss - self.breaks[idx])[:, None]
        return out if s_arr.ndim else out[0]

    def lipschitz_l1(self) -> float:
        if self.slopes.shape[0] == 0:
            return 0.0
        return float(np.abs(self.slopes).sum(axis=1).max())


# ---------------------------------------------------------------------------
# reversed-time flow M' = eta - M and cost quadratures


def reversed_flow_nodes(q, path) -> np.ndarray:
    """Values of ``M' = eta - M``, ``M(0) = q`` at the path's breaks.

    Uses the closed form on each segment, so the nodes are exact up to
    one rounding per segment.
    """
    q_arr = _unwrap(q)
    b = path.breaks
    K = b.size - 1
    M = np.empty((K + 1, q_arr.size))
    M[0] = q_arr
    if isinstance(path, PiecewiseConstantPath):
        for i in range(K):
            f = math.exp(-(b[i + 1] - b[i]))
            v = path.vals[i]
            M[i + 1] = v + f * (M[i] - v)
    else:
        for i in range(K):
            f = math.exp(-(b[i + 1] - b[i]))
            beta = path.slopes[i]
            v = path.nodes[i]
            M[i + 1] = path.nodes[i + 1] - beta + f * (M[i] - v + beta)
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


def reversed_cost(q, path, A: Kernel) -> float:
    """``e^{-T} int_0^T e^s R(eta(s) || M(s) A) ds`` along the reversed flow.

    By the substitution ``s -> T - s`` this equals the forward discounted
    cost of the un-reversed pair, which is what the step bounds control.
    """
    T = path.horizon
    Mn = reversed_flow_nodes(q, path)
    lo, hi = path.breaks[:-1], path.breaks[1:]
    if isinstance(path, PiecewiseConstantPath):
        v_lo, slope = path.vals, np.zeros_like(path.vals)
    else:
        v_lo, slope = path.nodes[:-1], path.slopes
    return _flow_quad(A.matrix, lo, hi, v_lo, slope, Mn[:-1], forward=False, T=T)


def _scheduled_cost(Amat, T, c, eta_rows, M_nodes) -> float:
    """Reversed cost of a uniform-grid schedule with known flow nodes."""
    K = eta_rows.shape[0]
    edges = np.arange(K + 1) * c
    edges[-1] = T
    return _flow_quad(
        Amat, edges[:-1], edges[1:], eta_rows, np.zeros_like(eta_rows), M_nodes[:-1], forward=False, T=T
    )


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


def reverse_control(ctrl: PiecewiseControl) -> PiecewiseConstantPath:
    """View a forward piecewise-constant control backwards from time T.

    The extension value repeats the last reversed piece, so the path is
    defined on all of ``[0, inf)`` as the mollifier window requires.
    """
    breaks = np.linspace(0.0, ctrl.T, ctrl.J + 1)
    vals = np.asarray(ctrl.eta, dtype=float)[::-1]
    return PiecewiseConstantPath(breaks=breaks, vals=vals, extend=vals[-1].copy())


@dataclass(frozen=True)
class MollifyResult:
    path: PiecewiseLinearPath
    lipschitz_l1: float
    cost_increase: float
    deviation: float


def mollify_control(
    rev: PiecewiseConstantPath, kappa2: float, delta: float, delta0: float
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
    path = PiecewiseLinearPath(breaks=kinks, nodes=nodes)
    b2 = kappa2 * math.exp(kappa2) * abs(math.log(delta0)) + (dev + 2.0 * kappa2) / delta0
    return MollifyResult(
        path=path, lipschitz_l1=path.lipschitz_l1(), cost_increase=b2, deviation=dev
    )


@dataclass(frozen=True)
class DiscretizeResult:
    eta: np.ndarray
    c: float
    Jc: int
    cost_increase: float
    deviation: float


def discretize_control(
    lin: PiecewiseLinearPath,
    kappa3: float,
    delta: float,
    delta0: float,
    lipschitz_l1: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> DiscretizeResult:
    """Sample a Lipschitz control at the left endpoints of a uniform grid.

    The requested mesh ``kappa3`` is snapped to ``c = T / ceil(T / kappa3)``
    so the grid tiles ``[0, T]`` exactly; ``eta`` has ``Jc + 1`` rows, the
    last being the value at ``T`` for a step whose clock reaches the
    horizon.  Requires ``C1 c T e^T <= delta / 4`` with ``C1`` the
    Lipschitz constant in total variation.
    """
    if not kappa3 > 0.0:
        raise PreconditionViolation("discretize_control: mesh must be positive")
    T = lin.horizon
    C1 = lin.lipschitz_l1() if lipschitz_l1 is None else float(lipschitz_l1)
    Jc = max(1, math.ceil(T / kappa3))
    if Jc + 1 > max_intervals:
        raise ResourceLimitExceeded(
            f"discretize_control: {Jc + 1} schedule rows exceed the cap {max_intervals}; "
            "widen the mesh or raise max_intervals"
        )
    c = T / Jc
    eT = math.exp(T)
    dev = C1 * c * T * eT
    if dev > 0.25 * delta * (1.0 + 1e-9):
        raise PreconditionViolation(
            f"discretize_control: mesh {c!r} too coarse for floor {delta!r}; "
            "need C1 c T e^T <= delta / 4"
        )
    eta = lin.value(np.arange(Jc + 1) * c)
    b3 = C1 * c * (abs(math.log(delta0)) + abs(math.log(delta)) + 1.0) + dev / delta0
    return DiscretizeResult(eta=eta, c=c, Jc=Jc, cost_increase=b3, deviation=dev)


# ---------------------------------------------------------------------------
# assembled plans


@dataclass(frozen=True)
class KappaSchedule:
    kappa1: float
    kappa2: float
    kappa3: float
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

    ``eta_hat`` holds rows ``0..Jc-1`` of the schedule on ``[0, T)`` and
    ``eta_overflow`` the value at ``T`` for the (measure-zero, float-edge)
    case of a step clock reaching the horizon.  ``M_hat`` is the reversed
    trajectory; its final node sits within ``bounds.target_gap`` of the
    original target in total variation.
    """

    T: float
    q: ProbVec
    m: ProbVec
    delta: float
    delta0: float
    c: float
    Jc: int
    eta_hat: PiecewiseControl
    eta_overflow: np.ndarray
    M_hat: TrajectoryGrid
    kappas: KappaSchedule
    bounds: PlanBounds
    control_reversed: PiecewiseConstantPath
    control_mollified: PiecewiseLinearPath

    @property
    def certified_cost(self) -> float:
        return self.bounds.cost_schedule_quad

    @functools.cached_property
    def schedule_rows(self) -> np.ndarray:
        """All ``Jc + 1`` schedule rows as one read-only array."""
        rows = np.vstack([self.eta_hat.eta, self.eta_overflow[None, :]])
        rows.flags.writeable = False
        return rows


def build_plan(
    m,
    A: Kernel,
    bracket: RateBracket | None = None,
    T: float | None = None,
    J: int | None = None,
    kappa1: float | None = None,
    kappa2: float | None = None,
    kappa3: float | None = None,
    eps_target: float = DEFAULT_EPS_TARGET,
    slack: float = DEFAULT_SLACK,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> ReversedPlan:
    """Solve (or accept) a rate bracket at ``m`` and discretize its control.

    Default tuning: ``kappa1`` targets a mixing deviation of
    ``eps_target`` in total variation (capped at 1), and each window
    takes ``1/slack`` of the largest value its precondition allows.
    ``slack`` trades certified budgets against schedule length: the grid
    size grows roughly like ``slack**2``, so tight-budget plans at long
    horizons can exceed ``max_intervals``.
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
    C1 = moll.lipschitz_l1
    if kappa3 is not None:
        k3 = float(kappa3)
    elif C1 > 0.0:
        k3 = delta / (4.0 * C1 * T_val * eT) / slack
    else:
        k3 = T_val / 40.0
    disc = discretize_control(
        moll.path, k3, delta, A.delta0, lipschitz_l1=C1, max_intervals=max_intervals
    )
    sched = integrate_reversed(q.weights, disc.eta[: disc.Jc], disc.c)
    cost_schedule_quad = _scheduled_cost(A.matrix, T_val, disc.c, disc.eta[: disc.Jc], sched.M)
    target_gap = float(np.abs(sched.M[-1] - m_arr).sum())
    bounds = PlanBounds(
        cost_solver=bracket.lower,
        cost_mixed=cost_mixed,
        cost_mixed_quad=cost_mixed_quad,
        cost_reversed_quad=cost_reversed_quad,
        cost_mollified_quad=cost_mollified_quad,
        cost_schedule_quad=cost_schedule_quad,
        bound_mollify=moll.cost_increase,
        bound_discretize=disc.cost_increase,
        dev_mix=kappa1 * gap_star,
        dev_mollify=moll.deviation,
        dev_discretize=disc.deviation,
        target_gap=target_gap,
        lipschitz_l1=C1,
    )
    overflow = disc.eta[disc.Jc].copy()
    overflow.flags.writeable = False
    return ReversedPlan(
        T=T_val,
        q=q,
        m=ProbVec(m_arr),
        delta=delta,
        delta0=A.delta0,
        c=disc.c,
        Jc=disc.Jc,
        eta_hat=PiecewiseControl(T=T_val, J=disc.Jc, eta=disc.eta[: disc.Jc]),
        eta_overflow=overflow,
        M_hat=sched,
        kappas=KappaSchedule(
            kappa1=float(kappa1), kappa2=k2, kappa3=k3, slack=float(slack),
            eps_target=float(eps_target),
        ),
        bounds=bounds,
        control_reversed=rev,
        control_mollified=moll.path,
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
            "kappa3": plan.kappas.kappa3,
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
        doc["schedule"] = [[float(v) for v in row] for row in plan.eta_hat.eta]
        doc["schedule_overflow"] = [float(v) for v in plan.eta_overflow]
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
        mu[n1:] = plan.schedule_rows[j]
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


def an_frequency(q, x0: int, a0: int, eps0: float, n_samples: int, seed: int) -> float:
    """Estimate the chance that the i.i.d. head misses its ``eps0`` ball.

    The head measure is exactly a shifted multinomial, so this samples
    count vectors directly instead of whole paths.
    """
    qv = _unwrap(q)
    qv = qv / qv.sum()
    d = qv.size
    x0 = _validate_x0(x0, d)
    if a0 < 1 or n_samples < 1:
        raise PreconditionViolation("an_frequency: a0 and n_samples must be >= 1")
    rng = path_rng(seed, 0)
    counts = rng.multinomial(a0 + 1, qv, size=int(n_samples)).astype(float)
    counts[:, x0 - 1] += 1.0
    L = counts / (a0 + 2.0)
    return float((np.abs(L - qv).sum(axis=1) >= eps0).mean())


def estimate_lln_threshold(
    q,
    x0: int,
    eps0: float,
    target_freq: float,
    seed: int,
    n_samples: int = 20000,
    a0_start: int = 8,
    a0_cap: int = 1 << 22,
) -> tuple[int, float]:
    """Smallest power-of-two head length whose miss frequency is acceptable.

    Doubles ``a0`` until :func:`an_frequency` drops to ``target_freq``;
    the concentration is exponential in ``a0`` so the loop is short.
    """
    a0 = int(a0_start)
    while a0 <= a0_cap:
        freq = an_frequency(q, x0, a0, eps0, n_samples, seed)
        if freq <= target_freq:
            return a0, freq
        a0 *= 2
    raise ConvergenceError(
        f"estimate_lln_threshold: frequency stayed above {target_freq!r} up to a0={a0_cap}"
    )


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
