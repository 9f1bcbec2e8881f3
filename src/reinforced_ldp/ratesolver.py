"""Rate computation for empirical-measure deviations of the reinforced chain.

The rate at a simplex point ``m`` is approximated by a finite-horizon,
discretized version of a discounted control problem on ``J`` intervals
of width ``delta = T/J``.  A piecewise constant control
``eta_0..eta_{J-1}`` moves the state by the exact exponential update

    M_{j+1} = eta_j + e^delta (M_j - eta_j),        M_0 = m,

at running cost ``sum_j w_j R(eta_j || M_j A)`` with discount weights
``w_j = e^{-j delta} - e^{-(j+1) delta}``.

:func:`solve_rate` minimizes over the nodes ``M_1..M_J`` instead of the
controls: each control is recovered as
``eta_j = (e^delta M_j - M_{j+1}) / (e^delta - 1)``, so the feasible set
is the polytope ``M_j >= 0, eta_j >= 0`` (node sums are fixed at 1 by
dropping each node's last coordinate), every constraint is local, and
the Hessian of the objective is block-tridiagonal.  A log-barrier
method centres with damped Newton steps, each one banded Cholesky solve,
and stops when the barrier's duality-gap bound ``2dJ/t`` is below
``1e-10``.

The value at the returned point is reported as ``lower``; adding the
discounted tail allowance ``e^{-T} log(1/delta0)`` (the cost of freezing
the trajectory after ``T``) gives ``upper``.  A separate
occupation-measure formulation, ``solve_dv_rate``, computes the
pair-measure rate by iterative proportional fitting and is exposed for
cross-checks.

The linear flow ``M' = sigma (M - eta)`` is integrated here for both signs
(``sigma = -1`` is the plan pipeline's reversed flow) by one piece map: under
a control ``v + beta s`` the gap ``G = M - eta`` is ``e^{sigma s} G(0) -
sigma beta expm1(sigma s)``, free of cancellation on steep pieces.  Nodes
carry the gap in difference form, exact at equilibria, and are re-centred
onto sum 1 (else rounding grows like ``e^T`` forward); the quadrature reuses
the map.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.special import rel_entr

from .errors import (
    ConvergenceError,
    DimensionMismatch,
    InfeasibleTrajectory,
    PreconditionViolation,
)
from .measures import Kernel, ProbVec, _weights_of

FEASIBILITY_ATOL = 1e-9      # node entries below -this mark the node infeasible
BOUNDARY_LIFT = 1e-9         # queried m entries below this are lifted
BINDING_ATOL = 1e-8          # node entries below this report a binding cap

# barrier-Newton schedule
_T_INIT = 1.0                # barrier weight of the first centring
_T_GROWTH = 20.0             # factor between successive centrings
_GAP_TOL = 1e-10             # stop once the gap bound 2dJ/t is this small
_FULL_STEP_LAM2 = 0.25       # squared Newton decrement below which steps are full
_ARMIJO = 0.25               # sufficient-decrease fraction of damped steps
_CENTRED_LAM2 = 1e-12        # squared Newton decrement that ends a centring
_MAX_NEWTON = 1000           # Newton steps over all centrings

# pair-measure (iterative proportional fitting) solve
_DV_TOL = 1e-12              # l1 error of the column marginal that ends the fit
_DV_MAX_SWEEPS = 100000      # row-and-column sweeps before giving up

_QUAD_CHUNK = 65536          # pieces per quadrature block
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True, eq=False)
class PiecewiseControl:
    """A control that is constant on each of ``J`` intervals of ``[0, T]``."""

    T: float
    J: int
    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 2 or eta.shape[0] != self.J:
            raise DimensionMismatch(f"PiecewiseControl: eta shape {eta.shape} does not match J={self.J}")
        if not (self.T > 0 and self.J >= 1):
            raise PreconditionViolation("PiecewiseControl: need T > 0 and J >= 1")

    @property
    def delta(self) -> float:
        return self.T / self.J

    @property
    def d(self) -> int:
        return int(self.eta.shape[1])


@dataclass(frozen=True, eq=False)
class TrajectoryGrid:
    """Node values ``M_0..M_J`` of the controlled flow, with feasibility flags."""

    M: np.ndarray
    feasible: np.ndarray

    @property
    def all_feasible(self) -> bool:
        return bool(self.feasible.all())


@dataclass(frozen=True)
class SolveDiagnostics:
    """``gap`` bounds the returned value's distance above the discretized
    minimum; ``binding`` flags a node coordinate at 0, where the cap
    ``eta_j <= e^delta / (e^delta - 1) * M_j`` holds with equality."""

    iterations: int
    gap: float
    converged: bool
    binding: bool
    boundary_lifted: bool


@dataclass(frozen=True, eq=False)
class RateBracket:
    lower: float
    upper: float
    eta_opt: PiecewiseControl
    M_opt: TrajectoryGrid
    diagnostics: SolveDiagnostics


def _as_grid(M: np.ndarray) -> TrajectoryGrid:
    feasible = M.min(axis=1) >= -FEASIBILITY_ATOL
    M.flags.writeable = False
    feasible.flags.writeable = False
    return TrajectoryGrid(M=M, feasible=feasible)


# ---------------------------------------------------------------------------
# flow and cost


def _flow_gap(gap, slope, ds, sign: float):
    """``M - eta`` at offset ``ds`` into a piece of ``M' = sign (M - eta)``
    with control ``v + slope s`` and start gap ``gap``.  Scalar ``ds`` (node
    recursion) uses libm's exponentials, bit-pinned to a linear-filter
    reference by tests; arrays (quadrature) use numpy's, 1 ulp off at times."""
    x = sign * ds
    if isinstance(x, float):
        e, em = math.exp(x), math.expm1(x)
    else:
        e, em = np.exp(x), np.expm1(x)
    return e * gap - sign * em * slope


def _flow_nodes(start, widths, v, slope, sign: float) -> np.ndarray:
    """Nodes of ``M' = sign (M - eta)`` from ``start`` over linear control
    pieces ``v_i + slope_i s`` of the given widths, re-centred to sum 1.
    The recursion runs on Python floats: O(d) a step, rounded as in numpy."""
    end = v + slope * widths[:, None]
    lead = (end[:-1] - v[1:]).tolist()
    D = (start - v[0]).tolist()
    gaps = []
    for i, (h, beta) in enumerate(zip(widths.tolist(), slope.tolist())):
        gaps.append([_flow_gap(g, b, h, sign) for g, b in zip(D, beta)])
        if i < len(lead):
            D = [x + g for x, g in zip(lead[i], gaps[-1])]
    M = np.vstack([start, end + np.array(gaps)])
    M[1:] -= ((M[1:].sum(axis=1) - 1.0) / M.shape[1])[:, None]
    return M


def integrate_forward(m, ctrl: PiecewiseControl) -> TrajectoryGrid:
    """Evolve ``m`` under ``ctrl``; flags mark nodes pushed out of the simplex."""
    m_arr = _weights_of(m)
    if m_arr.size != ctrl.d:
        raise DimensionMismatch("integrate_forward: dimension mismatch between m and control")
    eta = np.asarray(ctrl.eta, dtype=float)
    return _as_grid(_flow_nodes(m_arr, np.full(ctrl.J, ctrl.delta), eta, np.zeros_like(eta), 1.0))


def _flow_quad(Amat, lo, hi, v_lo, slope, M_lo, forward: bool, T: float = 0.0) -> float:
    """``int w(s) R(eta(s) || M(s) A) ds`` over linear pieces of the control.

    On ``[lo, hi]`` the control is ``eta(s) = v_lo + slope (s - lo)`` (a
    constant piece has slope 0) and ``M_lo`` is the flow at ``lo``.  The
    forward flow ``M' = M - eta`` is weighted by ``w(s) = e^{-s}``, the
    reversed flow ``M' = eta - M`` by ``w(s) = e^{s - T}``; the in-piece flow
    is :func:`_flow_gap`, the rule 16-point Gauss-Legendre.
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
        M = eta_s + _flow_gap((Ml - vl)[:, None, :], bt[:, None, :], ds[..., None], sign)
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


def _weights_vector(T: float, J: int) -> np.ndarray:
    delta = T / J
    return np.exp(-delta * np.arange(J)) * (-np.expm1(-delta))


def _cost_value(eta: np.ndarray, M: np.ndarray, Amat: np.ndarray, w: np.ndarray) -> float:
    K = M[:-1] @ Amat
    return float(w @ rel_entr(eta, K).sum(axis=1))


def discounted_cost(m, ctrl: PiecewiseControl, A: Kernel) -> float:
    """Discounted running cost of a feasible control."""
    grid = integrate_forward(m, ctrl)
    if not grid.all_feasible:
        bad = int(np.argmin(grid.feasible))
        raise InfeasibleTrajectory(f"discounted_cost: node {bad} leaves the simplex")
    w = _weights_vector(ctrl.T, ctrl.J)
    val = _cost_value(np.asarray(ctrl.eta, dtype=float), grid.M, A.matrix, w)
    if not np.isfinite(val):
        raise InfeasibleTrajectory("discounted_cost: non-finite cost")
    return val


# ---------------------------------------------------------------------------
# the solver: log-barrier Newton over the trajectory nodes


def _node_controls(M: np.ndarray, e_delta: float) -> np.ndarray:
    """Controls ``eta_0..eta_{J-1}`` that move the nodes ``M_0..M_J``."""
    return (e_delta * M[:-1] - M[1:]) / (e_delta - 1.0)


def _newton_parts(M, Amat, w, e_delta: float, t: float, barrier: bool = True):
    """Gradient and Hessian of ``t * cost (- log barrier)`` in the free node
    coordinates ``M_j[:d-1]``, ``j = 1..J`` (``M_j[d-1] = 1 - sum``).

    Returns the gradient as a ``(J, d-1)`` array and the Hessian in the
    lower banded form of :func:`scipy.linalg.solveh_banded`; the barrier
    covers the ``2dJ`` constraints ``M_j >= 0`` and ``eta_j >= 0``.
    """
    J, d = M.shape[0] - 1, M.shape[1]
    b = d - 1
    c = 1.0 / (e_delta - 1.0)
    ce = c * e_delta
    eta = _node_controls(M, e_delta)
    K = M[:-1] @ Amat
    tw = t * w[:, None]
    # partial derivatives of the running cost in (eta_j, K_j = M_j A)
    g_eta = tw * (np.log(eta / K) + 1.0)
    g_K = -tw * eta / K
    h_eta = tw / eta
    h_cross = -tw / K
    h_K = tw * eta / K**2
    if barrier:
        g_eta -= 1.0 / eta
        h_eta += 1.0 / eta**2
    # full gradient wrt M_1..M_J: node j+1 is the "next" node of interval j
    # and the "current" node of interval j+1
    G = -c * g_eta
    G[:-1] += ce * g_eta[1:] + g_K[1:] @ Amat.T
    # Hessian blocks of interval j: H_cur (M_j, M_j), H_cn (M_j, M_{j+1}) and
    # H_next (M_{j+1}, M_{j+1}); node j+1 collects H_next of interval j and
    # H_cur of interval j+1
    AhA = np.einsum("xy,jy,zy->jxz", Amat, h_K, Amat)
    cross = h_cross[:, :, None] * Amat.T[None] + Amat[None] * h_cross[:, None, :]
    H_cur = ce * ce * _diag(h_eta) + ce * cross + AhA
    H_cn = -c * ce * _diag(h_eta) - c * Amat[None] * h_cross[:, None, :]
    diag = c * c * _diag(h_eta)          # H_next
    diag[:-1] += H_cur[1:]
    if barrier:
        G -= 1.0 / M[1:]
        diag += _diag(1.0 / M[1:] ** 2)
    # reduce to the free coordinates: P = [I; -1^T] on each block
    grad = G[:, :b] - G[:, b:]
    diag = _reduce(diag, b)
    off = _reduce(H_cn[1:], b)
    band = np.zeros((2 * b, J * b))
    for r in range(2 * b):
        for p in range(b):
            q = p + r
            if q < b:
                band[r, p::b] = diag[:, q, p]
            elif q < 2 * b:
                band[r, p::b][: J - 1] = off[:, p, q - b]
    return grad, band


def _diag(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape + (v.shape[-1],))
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out


def _reduce(B: np.ndarray, b: int) -> np.ndarray:
    return B[..., :b, :b] - B[..., :b, b:] - B[..., b:, :b] + B[..., b:, b:]


def _strictly_feasible(M: np.ndarray, e_delta: float) -> bool:
    return bool(M[1:].min() > 0.0 and _node_controls(M, e_delta).min() > 0.0)


def _barrier_value(M, Amat, w, e_delta: float, t: float) -> float:
    """``t * cost - sum log M_j - sum log eta_j``; ``inf`` outside the open polytope."""
    if not _strictly_feasible(M, e_delta):
        return math.inf
    eta = _node_controls(M, e_delta)
    return t * _cost_value(eta, M, Amat, w) - float(np.log(M[1:]).sum() + np.log(eta).sum())


def _centre(M, Amat, w, e_delta: float, t: float, max_steps: int):
    """Damped Newton steps towards the barrier minimizer at weight ``t``.

    While the squared Newton decrement ``lambda^2`` is at least 1/4, steps
    backtrack from 1 until the barrier function falls by a quarter of the
    predicted decrease; below that, steps are full (halved only if rounding
    would leave the open polytope).  Returns ``(M, steps, centred)``.
    """
    J, d = M.shape[0] - 1, M.shape[1]
    for steps in range(max_steps):
        grad, band = _newton_parts(M, Amat, w, e_delta, t)
        try:
            step = solveh_banded(band, -grad.ravel(), lower=True, check_finite=False)
        except LinAlgError as exc:
            raise ConvergenceError(f"solve_rate: Newton system not positive definite at t={t:.3g}") from exc
        lam2 = -float(grad.ravel() @ step)
        if not np.isfinite(lam2):
            raise ConvergenceError(f"solve_rate: non-finite Newton decrement at t={t:.3g}")
        if lam2 <= _CENTRED_LAM2:
            return M, steps, True
        step = step.reshape(J, d - 1)
        dM = np.hstack([step, -step.sum(axis=1, keepdims=True)])
        damped = lam2 >= _FULL_STEP_LAM2
        phi = _barrier_value(M, Amat, w, e_delta, t) if damped else 0.0
        s = 1.0
        while True:
            trial = M.copy()
            trial[1:] += s * dM
            if damped:
                if _barrier_value(trial, Amat, w, e_delta, t) <= phi - _ARMIJO * s * lam2:
                    break
            elif _strictly_feasible(trial, e_delta):
                break
            s *= 0.5
        M = trial
    return M, max_steps, False


def solve_rate(m, A: Kernel, T: float = 14.0, J: int | None = None) -> RateBracket:
    """Minimize the discretized discounted cost from ``m`` by a log-barrier
    Newton method over the trajectory nodes.

    Returns the bracket ``[lower, lower + e^{-T} log(1/delta0)]`` along with
    the optimal control and trajectory and solve diagnostics.  ``m`` must be
    a :class:`ProbVec` or within ``1e-9`` of the simplex.  Points on (or
    numerically at) the simplex boundary are lifted inward by ``1e-9`` and
    renormalized, recorded in ``diagnostics.boundary_lifted``.
    """
    if J is None:
        J = max(1, int(round(20 * T)))
    if not (T > 0 and J >= 1):
        raise PreconditionViolation("solve_rate: need T > 0 and J >= 1")
    m_arr = ProbVec(_weights_of(m)).weights
    lifted = bool(m_arr.min() < BOUNDARY_LIFT)
    if lifted:
        m_arr = np.maximum(m_arr, BOUNDARY_LIFT)
        m_arr = m_arr / m_arr.sum()
    d = m_arr.size
    if d != A.d:
        raise DimensionMismatch("solve_rate: m and A dimensions differ")
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)
    Amat = A.matrix
    n_constraints = 2 * d * J
    M = np.tile(m_arr, (J + 1, 1))
    t = _T_INIT
    iterations = 0
    converged = d == 1           # a single state leaves nothing to optimize
    while not converged:
        M, steps, centred = _centre(M, Amat, w, e_delta, t, _MAX_NEWTON - iterations)
        iterations += steps
        if not centred:
            break
        if n_constraints / t <= _GAP_TOL:
            converged = True
        else:
            t *= _T_GROWTH
    eta = _node_controls(M, e_delta)
    cost = _cost_value(eta, M, Amat, w)
    if not np.isfinite(cost):
        raise ConvergenceError("solve_rate: non-finite cost at the returned point")
    lower = max(cost, 0.0)
    upper = lower + math.exp(-T) * math.log(1.0 / A.delta0)
    diag = SolveDiagnostics(
        iterations=iterations,
        gap=n_constraints / t,
        converged=converged,
        binding=bool(M[1:].min() <= BINDING_ATOL),
        boundary_lifted=lifted,
    )
    return RateBracket(
        lower=lower,
        upper=upper,
        eta_opt=PiecewiseControl(T=T, J=J, eta=eta),
        M_opt=_as_grid(M),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# pair-measure (occupation) rate


def solve_dv_rate(theta, A: Kernel) -> float:
    """Rate of the stationary-pair formulation at ``theta``.

    Minimizes ``R(gamma || theta (x) A)`` over pair measures whose two
    marginals both equal ``theta``, by iterative proportional fitting
    restricted to the support of ``theta``.
    """
    th = _weights_of(theta)
    if th.size != A.d:
        raise DimensionMismatch("solve_dv_rate: theta and A dimensions differ")
    support = th > 0.0
    sub = th[support]
    ref = sub[:, None] * A.matrix[np.ix_(support, support)]
    gamma = ref.copy()
    for _ in range(_DV_MAX_SWEEPS):
        gamma *= (sub / gamma.sum(axis=1))[:, None]
        col = gamma.sum(axis=0)
        err = float(np.abs(col - sub).sum())
        if err <= _DV_TOL:
            break
        gamma *= (sub / col)[None, :]
    else:
        raise ConvergenceError(f"solve_dv_rate: marginal error {err:.3e} > {_DV_TOL} after {_DV_MAX_SWEEPS} sweeps")
    return float(rel_entr(gamma, ref).sum())


# ---------------------------------------------------------------------------
# profiles over many query points


@dataclass(frozen=True)
class RateProfileRow:
    m: tuple
    lower: float
    upper: float
    dv_rate: float
    iterations: int
    gap: float
    converged: bool
    boundary_lifted: bool
    binding: bool


def _profile_one(task) -> RateProfileRow:
    A, m, T, J, dv = task
    bracket = solve_rate(m, A, T=T, J=J)
    dv_rate = solve_dv_rate(m, A) if dv else math.nan
    return RateProfileRow(
        m=tuple(float(v) for v in np.asarray(m, dtype=float)),
        lower=bracket.lower,
        upper=bracket.upper,
        dv_rate=dv_rate,
        iterations=bracket.diagnostics.iterations,
        gap=bracket.diagnostics.gap,
        converged=bracket.diagnostics.converged,
        boundary_lifted=bracket.diagnostics.boundary_lifted,
        binding=bracket.diagnostics.binding,
    )


def rate_profile(
    A: Kernel,
    ms,
    T: float = 14.0,
    J: int | None = None,
    dv: bool = True,
    threads: int = 1,
) -> list[RateProfileRow]:
    """Solve many query points; results are ordered like the input
    regardless of the worker pool size."""
    tasks = [(A, _weights_of(m), T, J, dv) for m in ms]
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_profile_one, tasks, chunksize=1))
    return [_profile_one(t) for t in tasks]


def simplex_mesh(d: int, step: float) -> list[np.ndarray]:
    """Lattice points of the simplex with spacing ``step`` (1/step integer),
    boundary included, in lexicographic order."""
    K = int(round(1.0 / step)) if step > 0.0 else 0
    if K < 1 or abs(K * step - 1.0) > 1e-9:
        raise PreconditionViolation(f"simplex_mesh: need step > 0 with 1/step an integer, got step={step!r}")

    out: list[np.ndarray] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(np.array(prefix + [remaining], dtype=float) / K)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], K, d)
    return out
