"""Rate computation for empirical-measure deviations of the reinforced chain.

The rate at a simplex point ``m`` is approximated by a finite-horizon,
discretized version of a discounted control problem on ``J`` intervals
of width ``delta = T/J``.  A piecewise constant control
``eta_0..eta_{J-1}`` moves the state by the exact exponential update

    M_{j+1} = eta_j + e^delta (M_j - eta_j),        M_0 = m,

at running cost ``sum_j w_j R(eta_j || M_j A)`` with discount weights
``w_j = e^{-j delta} - e^{-(j+1) delta}``.  One function evaluates it,
``_cost_value``; the acceptance checks of its gradient (C7) and of its
joint convexity (C8) evaluate that same function.

:func:`solve_rate` minimizes over the nodes ``M_1..M_J`` instead of the
controls: each control is recovered as
``eta_j = (e^delta M_j - M_{j+1}) / (e^delta - 1)``, so the feasible set
is the polytope ``M_j >= 0, eta_j >= 0`` (node sums are fixed at 1 by
dropping each node's last coordinate), every constraint is local, and
the Hessian of the objective is block-tridiagonal.  A log-barrier
method centres with damped Newton steps, each one banded Cholesky solve
(LAPACK ``dptsv``/``dpbsv``), and stops when the barrier's duality-gap bound
``2dJ/t`` is below ``1e-10``.  The bound holds at an exactly centred point,
so only that last centring runs until the squared Newton decrement is at
most ``1e-12``, or until a full step fails to halve it, the sign of a
rounding floor (the solve then reports that it did not converge); each
earlier one ends at the first decrement below ``1/4``, where steps become
full, and the barrier weight ``t`` grows by 20 without taking that step.
All query points of a call advance as one lock-step batch; arithmetic is
elementwise and reductions are per point, so a point's result has the
same bits alone or in any batch.

The value at the returned point is reported as ``lower``; adding the
discounted tail allowance ``e^{-T} log(1/delta0)`` (the cost of freezing
the trajectory after ``T``) gives ``upper``.  A separate
occupation-measure formulation, ``solve_dv_rate``, computes the
pair-measure rate by iterative proportional fitting and is exposed for
cross-checks.

Every control is one type, :class:`PiecewiseLinearPath`: breaks, and a start
value and a slope per piece; the solver's controls are its step paths
(:meth:`PiecewiseLinearPath.steps`).  The linear flow ``M' = sigma (M -
eta)`` is integrated here for both signs (``sigma = -1`` is the plan
pipeline's reversed flow) by one piece map: under a control ``v + beta s``
the gap ``G = M - eta`` is ``e^{sigma s} G(0) - sigma beta expm1(sigma s)``,
free of cancellation on steep pieces.  :func:`flow_nodes` carries the gap in
difference form, exact at equilibria, and re-centres the nodes onto sum 1
(else rounding grows like ``e^T`` forward); :func:`flow_cost`, the
quadrature of the discounted cost, reuses the map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbsv, dptsv
from scipy.special import rel_entr

from .errors import ConvergenceError, DimensionMismatch, PreconditionViolation
from .measures import Kernel, ProbVec, _as_count, _as_real, _weights_of

BOUNDARY_LIFT = 1e-9         # queried m entries below this are lifted
BINDING_ATOL = 1e-8          # node entries below this report a binding cap
_RELABEL_BELOW = 1e-3        # d > 2: a queried m whose last entry is below this is relabelled

# barrier-Newton schedule
_T_INIT = 1.0                # barrier weight of the first centring
_T_GROWTH = 20.0             # factor between successive centrings
_GAP_TOL = 1e-10             # stop once the gap bound 2dJ/t is this small
_FULL_STEP_LAM2 = 0.25       # squared Newton decrement below which steps are full;
                             # it ends every centring but the last
_ARMIJO = 0.25               # sufficient-decrease fraction of damped steps
_CENTRED_LAM2 = 1e-12        # squared Newton decrement that ends the last centring,
                             # the one whose t has 2dJ/t <= _GAP_TOL
_MAX_NEWTON = 1000           # Newton steps over all centrings

# pair-measure (iterative proportional fitting) solve
_DV_TOL = 1e-12              # l1 error of the column marginal that ends the fit
_DV_MAX_SWEEPS = 100000      # row-and-column sweeps before giving up

_QUAD_CHUNK = 65536          # pieces per quadrature block
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Piecewise-linear control on ``[0, inf)``, possibly discontinuous at breaks.

    On piece ``i``, ``[breaks[i], breaks[i+1])``, the value is
    ``start[i] + slope[i] (s - breaks[i])``; the last piece continues past
    ``breaks[-1]``.  A step control has zero slopes (:meth:`steps`).  The
    path stores read-only float copies of the arrays it is given.
    """

    breaks: np.ndarray
    start: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        b = np.array(self.breaks, dtype=float)
        v = np.array(self.start, dtype=float)
        beta = np.array(self.slope, dtype=float)
        if b.ndim != 1 or b.size < 2 or v.ndim != 2 or v.shape[0] != b.size - 1 or beta.shape != v.shape:
            raise DimensionMismatch(
                f"PiecewiseLinearPath: breaks {b.shape}, start {v.shape} and slope {beta.shape} disagree"
            )
        if not all(np.isfinite(arr).all() for arr in (b, v, beta)):
            raise PreconditionViolation("PiecewiseLinearPath: breaks, start and slope must be finite")
        if b[0] != 0.0 or np.any(np.diff(b) <= 0.0):
            raise PreconditionViolation("PiecewiseLinearPath: breaks must increase from 0")
        for arr in (b, v, beta):
            arr.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "start", v)
        object.__setattr__(self, "slope", beta)

    @classmethod
    def steps(cls, T: float, eta) -> "PiecewiseLinearPath":
        """The step control ``eta_j`` on the ``J = len(eta)`` pieces of
        ``linspace(0, T, J + 1)``."""
        T = _as_real(T, "PiecewiseLinearPath.steps: T")
        if not 0.0 < T < math.inf:
            raise PreconditionViolation(f"PiecewiseLinearPath.steps: need a finite T > 0, got {T!r}")
        eta = np.asarray(eta, dtype=float)
        return cls(np.linspace(0.0, T, len(eta) + 1 if eta.ndim else 0), eta, np.zeros_like(eta))

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])


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
    """The bracket ``[lower, upper]`` at one query point, with the optimal
    control and its read-only ``(J+1, d)`` nodes ``M_opt``."""

    lower: float
    upper: float
    eta_opt: PiecewiseLinearPath
    M_opt: np.ndarray
    diagnostics: SolveDiagnostics


# ---------------------------------------------------------------------------
# flow and cost


def _flow_gap(gap, slope, e, em, sign: float):
    """``M - eta`` at offset ``ds`` into a piece of ``M' = sign (M - eta)``
    with control ``v + slope s`` and start gap ``gap``, given ``e = exp(sign
    ds)`` and ``em = expm1(sign ds)``.  The node recursion passes libm's
    exponentials, bit-pinned to a linear-filter reference by tests; the
    quadrature passes numpy's, 1 ulp off at times."""
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
        e, em = math.exp(sign * h), math.expm1(sign * h)
        gaps.append([_flow_gap(g, b, e, em, sign) for g, b in zip(D, beta)])
        if i < len(lead):
            D = [x + g for x, g in zip(lead[i], gaps[-1])]
    M = np.vstack([start, end + np.array(gaps)])
    M[1:] -= ((M[1:].sum(axis=1) - 1.0) / M.shape[1])[:, None]
    return M


def flow_nodes(m, path: PiecewiseLinearPath, forward: bool = True) -> np.ndarray:
    """Nodes of ``M' = M - eta`` (``forward``) or ``M' = eta - M`` from ``M(0) = m``
    at the path's breaks: a read-only ``(J+1, d)`` array, re-centred to sum 1,
    which the forward flow may carry off the simplex."""
    m_arr = _weights_of(m)
    if m_arr.size != path.start.shape[1]:
        raise DimensionMismatch("flow_nodes: dimension mismatch between m and control")
    M = _flow_nodes(m_arr, np.diff(path.breaks), path.start, path.slope, 1.0 if forward else -1.0)
    M.flags.writeable = False
    return M


def flow_cost(path: PiecewiseLinearPath, M: np.ndarray, A: Kernel, forward: bool = True) -> float:
    """``int w(s) R(eta(s) || M(s) A) ds`` over the path's pieces, given its
    nodes ``M`` (:func:`flow_nodes`).

    The forward flow is weighted by ``w(s) = e^{-s}``, the reversed one by
    ``w(s) = e^{s - T}`` with ``T`` the path's horizon.  In each piece the
    flow is :func:`_flow_gap` from the piece's node and the rule 16-point
    Gauss-Legendre; unlike the solver's left-endpoint sum this integrates the
    exact in-piece flow, so on a step control the two differ by ``O(T/J)``.
    """
    sign = 1.0 if forward else -1.0
    lo, hi, T = path.breaks[:-1], path.breaks[1:], path.horizon
    total = 0.0
    for a in range(0, lo.size, _QUAD_CHUNK):
        b = min(a + _QUAD_CHUNK, lo.size)
        l, h = lo[a:b], hi[a:b]
        vl, bt, Ml = path.start[a:b], path.slope[a:b], M[a:b]
        half = 0.5 * (h - l)
        s = 0.5 * (h + l)[:, None] + half[:, None] * _GL_X[None, :]
        ds = s - l[:, None]
        eta_s = vl[:, None, :] + bt[:, None, :] * ds[..., None]
        x = (sign * ds)[..., None]
        Ms = eta_s + _flow_gap((Ml - vl)[:, None, :], bt[:, None, :], np.exp(x), np.expm1(x), sign)
        r = rel_entr(eta_s, Ms @ A.matrix).sum(axis=2)
        weight = np.exp(-s) if forward else np.exp(s - T)
        total += float(((weight * r * _GL_W[None, :]).sum(axis=1) * half).sum())
    return total


def _weights_vector(T: float, J: int) -> np.ndarray:
    delta = T / J
    return np.exp(-delta * np.arange(J)) * (-np.expm1(-delta))


def _cost_value(eta: np.ndarray, M: np.ndarray, Amat: np.ndarray, w: np.ndarray) -> float:
    K = M[:-1] @ Amat
    return float(w @ rel_entr(eta, K).sum(axis=1))


# ---------------------------------------------------------------------------
# the solver: log-barrier Newton over the trajectory nodes


def _node_controls(M: np.ndarray, e_delta: float) -> np.ndarray:
    """Controls ``eta_0..eta_{J-1}`` that move the nodes ``M_0..M_J`` (last two axes)."""
    return (e_delta * M[..., :-1, :] - M[..., 1:, :]) / (e_delta - 1.0)


def _newton_parts(M, Amat, w, e_delta: float, t, barrier: bool = True):
    """Gradients and Hessians of ``t[p] * cost (- log barrier)`` at the
    trajectories ``M[p]``, in the free node coordinates ``M_j[:d-1]``,
    ``j = 1..J`` (``M_j[d-1] = 1 - sum``).

    ``M`` has shape ``(P, J+1, d)`` and ``t`` shape ``(P,)``.  Returns the
    gradients as a ``(P, J, d-1)`` array and the Hessians in LAPACK's lower
    band storage, ``(P, 2(d-1), J(d-1))``; the barrier covers the ``2dJ``
    constraints ``M_j >= 0`` and ``eta_j >= 0``.
    """
    P, J, d = M.shape[0], M.shape[1] - 1, M.shape[2]
    b = d - 1
    c = 1.0 / (e_delta - 1.0)
    ce = c * e_delta
    eta = _node_controls(M, e_delta)
    K = M[:, :-1] @ Amat
    tw = np.repeat((t[:, None] * w)[:, :, None], d, axis=2)
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
    G[:, :-1] += ce * g_eta[:, 1:] + g_K[:, 1:] @ Amat.T
    # Hessian blocks of interval j: H_cur (M_j, M_j), H_cn (M_j, M_{j+1}) and
    # H_next (M_{j+1}, M_{j+1}); node j+1 collects H_next of interval j and
    # H_cur of interval j+1.  Blocks are stored entry-major, B[x, z] a (P, J)
    # array, and A diag(h_K) A^T is summed in y order.  h_K and h_cross are
    # copied entry-major once, so the block broadcasts read contiguous planes.
    A4 = Amat[:, :, None, None]
    hK, hc = (np.ascontiguousarray(h.transpose(2, 0, 1)) for h in (h_K, h_cross))
    AhA = 0.0
    for y in range(d):
        AhA = AhA + (A4[:, y] * hK[y])[:, None] * A4[:, y]
    cross = hc[:, None] * A4.transpose(1, 0, 2, 3) + A4 * hc
    D_eta = np.zeros((d, d, P, J))
    _diagonal(D_eta)[:] = h_eta.transpose(2, 0, 1)
    H_cur = ce * ce * D_eta + ce * cross + AhA
    H_cn = -c * ce * D_eta - c * A4 * hc
    diag = c * c * D_eta                 # H_next
    diag[..., :-1] += H_cur[..., 1:]
    if barrier:
        G -= 1.0 / M[:, 1:]
        _diagonal(diag)[:] += (1.0 / M[:, 1:] ** 2).transpose(2, 0, 1)
    # reduce to the free coordinates: P = [I; -1^T] on each block
    grad = G[..., :b] - G[..., b:]
    diag = _reduce(diag, b)
    off = _reduce(H_cn[..., 1:], b)
    band = np.zeros((P, 2 * b, J * b))
    for r in range(2 * b):
        for p in range(b):
            q = p + r
            if q < b:
                band[:, r, p::b] = diag[q, p]
            elif q < 2 * b:
                band[:, r, p::b][:, : J - 1] = off[p, q - b]
    return grad, band


def _diagonal(B: np.ndarray) -> np.ndarray:
    """View of the entries ``B[x, x]`` of entry-major blocks."""
    return B.reshape((-1,) + B.shape[2:])[:: B.shape[0] + 1]


def _reduce(B: np.ndarray, b: int) -> np.ndarray:
    return B[:b, :b] - B[:b, b:] - B[b:, :b] + B[b:, b:]


def _barrier_values(M, eta, Amat, w, t) -> np.ndarray:
    """``t[p] * cost - sum log M_j - sum log eta_j`` of each interior trajectory
    ``M[p]`` with controls ``eta[p]``, reduced per point as for a lone one."""
    P = M.shape[0]
    r = rel_entr(eta, M[:, :-1] @ Amat).sum(axis=2)
    cost = np.array([w @ row for row in r])
    logs = np.log(M[:, 1:]).reshape(P, -1).sum(axis=1) + np.log(eta).reshape(P, -1).sum(axis=1)
    return t * cost - logs


def _newton_steps(grad, band, ms, t):
    """Solve each point's system ``H step = -grad`` (``dptsv`` for a
    tridiagonal ``H``, else ``dpbsv``); returns the steps in all ``d`` node
    coordinates and the squared Newton decrements ``-grad . step``."""
    P, J, b = grad.shape
    dM = np.empty((P, J, b + 1))
    lam2 = []
    for k in range(P):
        g = grad[k].ravel()
        if b == 1:
            # LAPACK ignores the off-diagonal of a 1x1 system, but scipy wants one entry
            e = band[k, 1, : max(J - 1, 1)]
            x, info = dptsv(band[k, 0], e, -g, overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
        else:
            _, x, info = dpbsv(band[k], -g, lower=1, overwrite_b=1)
        if info < 0:
            raise ConvergenceError(f"solve_rate: illegal value in argument {-info} of the LAPACK band solve")
        if info > 0:
            raise ConvergenceError(f"solve_rate: Newton system not positive definite at m={tuple(ms[k].tolist())}, t={t[k]:.3g}")
        lam2.append(-float(g @ x))
        if not math.isfinite(lam2[-1]):
            raise ConvergenceError(f"solve_rate: non-finite Newton decrement at m={tuple(ms[k].tolist())}, t={t[k]:.3g}")
        dM[k, :, :b] = x.reshape(J, b)
    dM[:, :, b] = -dM[:, :, :b].sum(axis=2)
    return dM, lam2


def _line_search(M, dM, lam2, t, Amat, w, e_delta: float) -> np.ndarray:
    """Next nodes of each point along its Newton direction ``dM``.

    Points with ``lambda^2`` at least 1/4 backtrack from 1 until the barrier
    function falls by a quarter of the predicted decrease; the others take
    full steps, halved only while rounding would leave the open polytope.
    Each point halves its own step; an accepted one keeps its trial.
    """
    damped = [v >= _FULL_STEP_LAM2 for v in lam2]
    at = [k for k, v in enumerate(damped) if v]
    phi = dict(zip(at, _barrier_values(M[at], _node_controls(M[at], e_delta), Amat, w, t[at]).tolist())) if at else {}
    s = [1.0] * M.shape[0]
    pending = range(M.shape[0])
    while True:
        trial = M.copy()
        trial[:, 1:] += np.array(s)[:, None, None] * dM
        eta = _node_controls(trial, e_delta)
        inside = (np.minimum.reduce(np.minimum(trial[:, 1:], eta), axis=(1, 2)) > 0.0).tolist()
        test = [k for k in pending if inside[k] and damped[k]]
        if test:
            value = _barrier_values(trial[test], eta[test], Amat, w, t[test]).tolist()
            for k, v in zip(test, value):
                inside[k] = v <= phi[k] - _ARMIJO * s[k] * lam2[k]
        pending = [k for k in pending if not inside[k]]
        if not pending:
            return trial
        for k in pending:
            s[k] *= 0.5


def rate_profile(A: Kernel, ms, T: float = 14.0, J: int | None = None) -> list[RateBracket]:
    """:func:`solve_rate` for every point of ``ms``, one bracket per point in
    input order.  The points run in lock-step: each tick builds the Newton
    parts of all running points at once, and a point leaves the batch when
    it converges, stalls in its last centring or runs out of steps, so each
    bracket has the bits of a lone solve.

    The free coordinates drop each node's last entry, whose barrier curvature
    ``1/M^2`` enters every entry of the reduced Hessian block; near 0 it swamps
    the other terms in rounding.  So for ``d > 2`` a point whose last entry is
    below ``_RELABEL_BELOW`` is solved in a second batch, with its largest
    state swapped into the last place (the kernel relabelled alike) and
    swapped back after; the other points keep the bits of a plain solve.
    """
    T = _as_real(T, "solve_rate: T")
    if not 0.0 < T < math.inf:
        raise PreconditionViolation(f"solve_rate: need a finite T > 0, got {T!r}")
    J = max(1, int(round(20 * T))) if J is None else _as_count(J, "solve_rate: J")
    if J < 1:
        raise PreconditionViolation("solve_rate: need J >= 1")
    queries, starts, lifted = [], [], []
    for m in ms:
        m_arr = ProbVec(_weights_of(m)).weights
        queries.append(m_arr)
        lift = bool(m_arr.min() < BOUNDARY_LIFT)
        if lift:
            m_arr = np.maximum(m_arr, BOUNDARY_LIFT)
            m_arr = m_arr / m_arr.sum()
        if m_arr.size != A.d:
            raise DimensionMismatch("solve_rate: m and A dimensions differ")
        starts.append(m_arr)
        lifted.append(lift)
    P, d = len(starts), A.d
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)
    n_constraints = 2 * d * J
    swap = [int(np.argmax(m)) if d > 2 and m[-1] < _RELABEL_BELOW else d - 1 for m in queries]
    final = [None] * P

    def retire(done: dict):
        nonlocal ids, M, t, steps, prev
        for k, converged in done.items():
            final[ids[k]] = (M[k][:, perm], t[k], steps[k], converged)
        keep = [k for k in range(len(ids)) if k not in done]
        ids, M = [ids[k] for k in keep], M[keep]
        t, steps, prev = [t[k] for k in keep], [steps[k] for k in keep], [prev[k] for k in keep]

    for x in sorted(set(swap)):
        perm = np.arange(d)
        perm[[x, -1]] = perm[[-1, x]]
        Amat = A.matrix[np.ix_(perm, perm)]
        # the running points: input positions, nodes, barrier weights, Newton steps,
        # and lambda^2 at the previous tick of the last centring (inf before it)
        ids = [k for k in range(P) if swap[k] == x]
        M = np.repeat(np.reshape([starts[k][perm] for k in ids], (len(ids), 1, d)), J + 1, axis=1)
        t = [_T_INIT] * len(ids)
        steps = [0] * len(ids)
        prev = [math.inf] * len(ids)
        if d == 1:
            # one state leaves nothing to optimize
            retire(dict.fromkeys(range(len(ids)), True))
        while ids:
            t_arr = np.array(t)
            grad, band = _newton_parts(M, Amat, w, e_delta, t_arr)
            dM, lam2 = _newton_steps(grad, band, [queries[i] for i in ids], t)
            # a centring ends once a point's step would be full, except the last
            # one (its gap bound meets _GAP_TOL), which is centred exactly
            last = [n_constraints / tk <= _GAP_TOL for tk in t]
            # full steps shrink lambda^2 quadratically, so one that did not halve it
            # has met the rounding floor, which can lie above _CENTRED_LAM2: stop there
            stalled = [lk and p < _FULL_STEP_LAM2 and v > max(_CENTRED_LAM2, 0.5 * p)
                       for lk, p, v in zip(last, prev, lam2)]
            prev = [v if lk else math.inf for lk, v in zip(last, lam2)]
            go = [k for k, v in enumerate(lam2)
                  if not stalled[k] and v > (_CENTRED_LAM2 if last[k] else _FULL_STEP_LAM2)]
            if go:
                M[go] = _line_search(M[go], dM[go], [lam2[k] for k in go], t_arr[go], Amat, w, e_delta)
            done = {}
            for k in range(len(ids)):
                if stalled[k]:
                    done[k] = False
                elif k in go:
                    steps[k] += 1
                    if steps[k] >= _MAX_NEWTON:
                        done[k] = False
                elif last[k]:
                    done[k] = True
                else:
                    t[k] *= _T_GROWTH
            if done:
                retire(done)

    brackets = []
    for m_arr, lift, (M, t, iterations, converged) in zip(queries, lifted, final):
        M.flags.writeable = False
        eta = _node_controls(M, e_delta)
        cost = _cost_value(eta, M, A.matrix, w)
        if not np.isfinite(cost):
            raise ConvergenceError(f"solve_rate: non-finite cost at the returned point for m={tuple(m_arr.tolist())}")
        lower = max(cost, 0.0)
        diag = SolveDiagnostics(iterations=iterations, gap=n_constraints / t, converged=converged,
                                binding=bool(M[1:].min() <= BINDING_ATOL), boundary_lifted=lift)
        brackets.append(RateBracket(lower=lower, upper=lower + math.exp(-T) * math.log(1.0 / A.delta0),
                                    eta_opt=PiecewiseLinearPath.steps(T, eta), M_opt=M, diagnostics=diag))
    return brackets


def solve_rate(m, A: Kernel, T: float = 14.0, J: int | None = None) -> RateBracket:
    """Minimize the discretized discounted cost from ``m`` by a log-barrier
    Newton method over the trajectory nodes.

    Returns the bracket ``[lower, lower + e^{-T} log(1/delta0)]`` along with
    the optimal control and trajectory and solve diagnostics.  ``m`` must be
    a :class:`ProbVec` or within ``1e-9`` of the simplex.  Points on (or
    numerically at) the simplex boundary are lifted inward by ``1e-9`` and
    renormalized, recorded in ``diagnostics.boundary_lifted``.
    """
    return rate_profile(A, [m], T, J)[0]


# ---------------------------------------------------------------------------
# pair-measure (occupation) rate


def solve_dv_rate(theta, A: Kernel) -> float:
    """Rate of the stationary-pair formulation at ``theta``.

    Minimizes ``R(gamma || theta (x) A)`` over pair measures whose two
    marginals both equal ``theta``, by iterative proportional fitting
    restricted to the support of ``theta``.
    """
    th = ProbVec(_weights_of(theta)).weights
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
# query meshes


def simplex_mesh(d: int, step: float) -> list[np.ndarray]:
    """Lattice points of the simplex with spacing ``step`` (1/step integer),
    boundary included, in lexicographic order."""
    d = _as_count(d, "simplex_mesh: d")
    if d < 1:
        raise PreconditionViolation(f"simplex_mesh: need d >= 1, got {d}")
    step = _as_real(step, "simplex_mesh: step")
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
