import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.signal import lfilter
from scipy.special import rel_entr

from reinforced_ldp import ratesolver
from reinforced_ldp.errors import (
    ConvergenceError,
    DimensionMismatch,
    PreconditionViolation,
    SimplexViolation,
)
from reinforced_ldp.lowerbound import build_plan
from reinforced_ldp.measures import (
    Kernel,
    ProbVec,
    relative_entropy,
    stationary_distribution,
)
from reinforced_ldp.ratesolver import (
    PiecewiseLinearPath,
    _barrier_values,
    _cost_value,
    _newton_parts,
    _node_controls,
    _weights_vector,
    flow_nodes,
    rate_profile,
    simplex_mesh,
    solve_dv_rate,
    solve_rate,
)

BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
RANK1_P = np.array([0.7, 0.3])
RANK1 = Kernel(np.tile(RANK1_P, (2, 1)))
D3 = Kernel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])


def _tile_control(m, T, J):
    return PiecewiseLinearPath.steps(T, np.tile(np.asarray(m, float), (J, 1)))


def _random_nodes(rng, m, T, J):
    """Strictly feasible nodes ``M_0..M_J``: each step moves toward a random
    simplex point by at most ``(e^delta - 1) min M_j``, so every recovered
    control stays positive."""
    e_delta = math.exp(T / J)
    M = [np.asarray(m, float)]
    for _ in range(J):
        lam = rng.uniform(0.1, 0.9) * (e_delta - 1.0) * M[-1].min()
        M.append((1.0 - lam) * M[-1] + lam * rng.dirichlet(np.ones(len(m))))
    return np.array(M)


def _random_control(rng, m, T, J):
    return PiecewiseLinearPath.steps(T, _node_controls(_random_nodes(rng, m, T, J), math.exp(T / J)))


def _slsqp_rate(m1, A, T, J):
    """Independent d=2 solve in the node variables ``x_j = M_j[0]``; restarts
    from the last point until the objective stops falling."""
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)

    def cost(x):
        first = np.concatenate([[m1], x])
        M = np.column_stack([first, 1.0 - first])
        eta = np.maximum((e_delta * M[:-1] - M[1:]) / (e_delta - 1.0), 0.0)
        return float(w @ rel_entr(eta, M[:-1] @ A.matrix).sum(axis=1))

    # eta_j >= 0 in both coordinates: e x_j - x_{j+1} >= 0 and
    # (e - 1) - e x_j + x_{j+1} >= 0, with x_0 = m1 fixed
    def slack(x):
        prev = np.concatenate([[m1], x[:-1]])
        return np.concatenate([e_delta * prev - x, (e_delta - 1.0) - e_delta * prev + x])

    x, best = np.full(J, m1), cost(np.full(J, m1))
    for _ in range(20):
        res = minimize(cost, x, method="SLSQP", bounds=[(0.0, 1.0)] * J,
                       constraints=[{"type": "ineq", "fun": slack}],
                       options={"ftol": 1e-16, "maxiter": 2000})
        val = cost(res.x)
        if not val < best:
            break
        x, best = res.x, val
    return best


def test_equilibrium_trajectory_is_bit_exact():
    """eta == m keeps every node at m, with no float drift over 280 steps."""
    m = np.array([0.3, 0.7])
    M = flow_nodes(m, _tile_control(m, 14.0, 280))
    assert np.array_equal(M, np.tile(m, (281, 1)))
    assert not M.flags.writeable


def _lfilter_flow_nodes(start, eta, factor):
    """Reference for constant pieces of equal width: ``M_{j+1} = eta_j + factor (M_j - eta_j)``
    as the linear filter ``D_{j+1} = (eta_j - eta_{j+1}) + factor D_j``, re-centred to sum 1."""
    K, d = eta.shape
    D0 = start - eta[0]
    if K > 1:
        D_rest = lfilter([1.0], [1.0, -factor], eta[:-1] - eta[1:], axis=0, zi=(factor * D0)[None, :])[0]
        D = np.vstack([D0[None, :], D_rest])
    else:
        D = D0[None, :]
    M = np.empty((K + 1, d))
    M[0] = start
    M[1:] = eta + factor * D
    M[1:] -= ((M[1:].sum(axis=1) - 1.0) / d)[:, None]
    return M


def test_uniform_integrators_match_the_lfilter_reference_bitwise():
    """Zero slopes reduce the piece map to the filter's ``x + f D``, in both
    directions.  The pin is on the integrator at exact widths ``T/K``:
    :func:`flow_nodes` reads its widths from the breaks, ``np.diff`` of a
    linspace, which can differ from ``T/K`` in the last bit."""
    rng = np.random.default_rng(11)
    for trial, K in enumerate([1, 2, 400, *rng.integers(1, 401, size=57).tolist()]):
        d = 2 + trial % 3
        start = rng.dirichlet(np.ones(d))
        eta = rng.dirichlet(np.ones(d), size=K)
        T = float(rng.uniform(0.05, 6.0))
        c = T / K
        fwd = ratesolver._flow_nodes(start, np.full(K, c), eta, np.zeros_like(eta), 1.0)
        assert np.array_equal(fwd, _lfilter_flow_nodes(start, eta, math.exp(c)))
        rev = ratesolver._flow_nodes(start, np.full(K, c), eta, np.zeros_like(eta), -1.0)
        assert np.array_equal(rev, _lfilter_flow_nodes(start, eta, math.exp(-c)))


def test_trajectory_rows_sum_to_one():
    rng = np.random.default_rng(0)
    m = np.array([0.25, 0.35, 0.4])
    M = flow_nodes(m, _random_control(rng, m, 8.0, 160))
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12


def _step_cost(m, ctrl):
    """The objective solve_rate minimizes, at the step control ``ctrl`` from ``m``."""
    return _cost_value(ctrl.start, flow_nodes(m, ctrl), BENCH.matrix, _weights_vector(ctrl.horizon, len(ctrl.start)))


def test_discounted_cost_at_equilibrium_is_plain_entropy():
    # stationary trajectory: cost is (1 - e^{-T}) R(m || m A)
    m = np.array([0.3, 0.7])
    got = _step_cost(m, _tile_control(m, 14.0, 280))
    expect = -math.expm1(-14.0) * relative_entropy(m, m @ BENCH.matrix)
    assert got == pytest.approx(expect, rel=1e-12)


def test_solve_rate_sanov_reduction():
    """Rank-one kernels collapse the rate to R(m || p)."""
    for m1 in (0.2, 0.5, 0.9):
        m = np.array([m1, 1.0 - m1])
        br = solve_rate(m, RANK1, T=14.0, J=280)
        assert abs(br.lower - relative_entropy(m, RANK1_P)) <= 1e-3


def test_solve_rate_zero_at_stationary():
    mstar = stationary_distribution(BENCH)
    br = solve_rate(mstar, BENCH, T=14.0, J=280)
    assert 0.0 <= br.lower <= 1e-6
    assert br.diagnostics.converged


def test_bracket_width_identity():
    br = solve_rate(np.array([0.3, 0.7]), BENCH, T=6.0, J=120)
    assert br.upper - br.lower == pytest.approx(
        math.exp(-6.0) * math.log(1.0 / BENCH.delta0), rel=1e-12
    )
    assert br.lower >= 0.0


def test_solve_rate_monotone_in_horizon_when_converged():
    """With the mesh width fixed, longer horizons only add nonnegative cost."""
    m = np.array([0.3, 0.7])
    vals = [solve_rate(m, RANK1, T=T, J=int(T / 0.05)).lower for T in (2.0, 6.0, 10.0)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    brs = [solve_rate(m, BENCH, T=T, J=int(T / 0.05)) for T in (2.0, 6.0, 10.0)]
    assert all(br.diagnostics.converged for br in brs)
    assert brs[0].lower <= brs[1].lower + 1e-9
    assert brs[1].lower <= brs[2].lower + 1e-9


@pytest.mark.parametrize("m1,T,J", [(0.3, 2.0, 40), (0.45, 4.0, 80)])
def test_solve_rate_reaches_slsqp_optimum(m1, T, J):
    br = solve_rate(np.array([m1, 1.0 - m1]), BENCH, T=T, J=J)
    assert br.diagnostics.converged
    assert br.diagnostics.gap <= 1e-9
    assert abs(br.lower - _slsqp_rate(m1, BENCH, T, J)) <= 1e-8
    # the returned control drives the returned nodes
    assert np.abs(flow_nodes(br.M_opt[0], br.eta_opt) - br.M_opt).max() <= 1e-9


@pytest.mark.parametrize("m1,T,J", [(0.3, 2.0, 1), (0.8, 0.01, None)], ids=["J1", "default-J"])
def test_one_interval_d2_solve_matches_a_bounded_scalar_minimum(m1, T, J):
    """At J=1 (the default J at T=0.01) the d=2 Newton system has one
    unknown, ``x = M_1[0]``; the solve reaches the minimum of the same
    objective over the interval where ``M_1`` and ``eta_0`` stay
    nonnegative."""
    m = np.array([m1, 1.0 - m1])
    br = solve_rate(m, BENCH, T=T, J=J)
    assert len(br.eta_opt.start) == 1 and br.diagnostics.converged
    e_delta = math.exp(T)
    w = _weights_vector(T, 1)

    def cost(x):
        M = np.array([m, [x, 1.0 - x]])
        return float(w @ rel_entr(_node_controls(M, e_delta), M[:-1] @ BENCH.matrix).sum(axis=1))

    lo, hi = max(0.0, 1.0 - e_delta * m[1]), min(1.0, e_delta * m[0])
    best = minimize_scalar(cost, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    assert abs(br.lower - best.fun) <= br.diagnostics.gap + 1e-9


def test_newton_parts_match_finite_differences():
    """Barrier gradients against central differences of the barrier values,
    and each banded Hessian times a random vector against central
    differences of the gradients, in the free node coordinates, for a batch
    of two trajectories at different barrier weights."""
    rng = np.random.default_rng(5)
    T, J, h = 1.0, 12, 1e-6
    t = np.array([3.0, 60.0])
    M = np.stack([_random_nodes(rng, np.array(m), T, J) for m in ([0.2, 0.3, 0.5], [0.5, 0.35, 0.15])])
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)
    A = D3.matrix
    grad, band = _newton_parts(M, A, w, e_delta, t)

    def shifted(v):
        out = M.copy()
        out[:, 1:, :2] += v
        out[:, 1:, 2] -= v.sum(axis=2)
        return out

    def barrier(X):
        return _barrier_values(X, _node_controls(X, e_delta), A, w, t)

    for j, x in [(0, 0), (5, 1), (J - 1, 0)]:
        bump = np.zeros((2, J, 2))
        bump[:, j, x] = h
        fd = (barrier(shifted(bump)) - barrier(shifted(-bump))) / (2 * h)
        assert np.all(np.abs(grad[:, j, x] - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))
    n = 2 * J
    v = rng.normal(size=(2, J, 2))
    g_up, _ = _newton_parts(shifted(h * v), A, w, e_delta, t)
    g_dn, _ = _newton_parts(shifted(-h * v), A, w, e_delta, t)
    for p in range(2):
        H = np.zeros((n, n))
        for r in range(band.shape[1]):
            i = np.arange(n - r)
            H[i + r, i] = H[i, i + r] = band[p, r, : n - r]
        fd = ((g_up[p] - g_dn[p]) / (2 * h)).ravel()
        assert np.abs(H @ v[p].ravel() - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def _bracket_bits(br):
    diag = br.diagnostics
    return (br.lower, br.upper, br.eta_opt.start.tobytes(), br.M_opt.tobytes(), diag.iterations,
            diag.gap, diag.converged, diag.binding, diag.boundary_lifted)


# (kernel, T, J, points, Newton budget); at T=4, J=80 the points take 35, 7, 26
# and 33 steps alone, so the budget of 30 stops (0.3, 0.7) and (0.8, 0.2) while
# (0.5, 0.5) and the lifted (0, 1) converge
BATCH_CASES = {
    "d2": (BENCH, 4.0, 80, [[0.3, 0.7], [0.5, 0.5], [0.0, 1.0], [0.8, 0.2]], None),
    "d3": (D3, 4.0, 40, [[0.2, 0.2, 0.6], [0.0, 0.5, 0.5], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2]], None),
    "budget": (BENCH, 4.0, 80, [[0.3, 0.7], [0.5, 0.5], [0.0, 1.0], [0.8, 0.2]], 30),
    # two points solved relabelled, each with another state swapped last
    "relabel": (D3, 4.0, 40, [[0.2, 0.2, 0.6], [0.5, 0.5, 0.0], [0.4, 0.4, 0.2], [0.0, 0.9995, 0.0005]], None),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_results_do_not_depend_on_batch_make_up(monkeypatch, case):
    """A point's bracket is the same bits alone, in input order and shuffled."""
    A, T, J, pts, budget = BATCH_CASES[case]
    if budget is not None:
        monkeypatch.setattr(ratesolver, "_MAX_NEWTON", budget)
    points = [np.array(p) for p in pts]
    alone = [solve_rate(p, A, T=T, J=J) for p in points]
    assert any(br.diagnostics.boundary_lifted for br in alone)
    if budget is not None:
        assert {br.diagnostics.converged for br in alone} == {True, False}
        assert max(br.diagnostics.iterations for br in alone) == budget
    order = [2, 0, 3, 1]
    shuffled = [points[i] for i in order]
    expect = [_bracket_bits(br) for br in alone]
    assert [_bracket_bits(br) for br in rate_profile(A, points, T=T, J=J)] == expect
    assert [_bracket_bits(br) for br in rate_profile(A, shuffled, T=T, J=J)] == [expect[i] for i in order]


@pytest.mark.parametrize("case", ["d2", "d3"])
def test_only_the_last_centring_is_exact(monkeypatch, case):
    """Each centring but the last raises t right after a point's first
    decrement at or below ``_FULL_STEP_LAM2`` at that t; the last one, at
    the final t, ends at the first decrement at or below ``_CENTRED_LAM2``."""
    A, T, J, pts, _ = BATCH_CASES[case]
    seen = {}
    newton_steps = ratesolver._newton_steps

    def spy(grad, band, ms, t):
        dM, lam2 = newton_steps(grad, band, ms, t)
        for m, tk, v in zip(ms, t, lam2):
            seen.setdefault(tuple(m.tolist()), []).append((tk, v))
        return dM, lam2

    monkeypatch.setattr(ratesolver, "_newton_steps", spy)
    brs = rate_profile(A, [np.array(p, dtype=float) for p in pts], T=T, J=J)
    n_constraints = 2 * A.d * J
    for p, br in zip(pts, brs):
        trace = seen[tuple(np.array(p, dtype=float).tolist())]
        final_t = trace[-1][0]
        assert br.diagnostics.converged and br.diagnostics.gap == n_constraints / final_t
        assert n_constraints / final_t <= ratesolver._GAP_TOL < n_constraints / (final_t / ratesolver._T_GROWTH)
        assert len(trace) == br.diagnostics.iterations + len({tk for tk, _ in trace})
        for i, (tk, v) in enumerate(trace):
            last = i + 1 == len(trace)
            tol = ratesolver._CENTRED_LAM2 if tk == final_t else ratesolver._FULL_STEP_LAM2
            # a tick ends its centring exactly when its decrement is within tol
            assert (v <= tol) == (last or trace[i + 1][0] > tk)


def test_a_stalled_last_centring_ends_unconverged():
    """At this d=3 point the last centring (t = 1.024e13) meets a rounding
    floor: lambda^2 stays near 2.29e-9, above ``_CENTRED_LAM2``.  The first
    full step that fails to halve it ends the solve, unconverged, long
    before ``_MAX_NEWTON`` (1000 steps)."""
    A = Kernel([[0.6076, 0.2938, 0.0986], [0.6716, 0.0512, 0.2772], [0.9182, 0.0745, 0.0073]])
    br = solve_rate((0.00367, 0.01257, 0.98376), A, T=6.0, J=60)
    assert br.diagnostics.iterations < 100
    assert not br.diagnostics.converged
    assert br.diagnostics.gap <= ratesolver._GAP_TOL


def test_failed_newton_system_names_the_point(monkeypatch):
    """A LAPACK failure for one point of a batch names that point and its t."""
    real = ratesolver.dptsv
    calls = []

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        return out[:3] + (1,) if len(calls) == 2 else out

    monkeypatch.setattr(ratesolver, "dptsv", failing)
    points = [np.array(p) for p in ([0.3, 0.7], [0.55, 0.45], [0.8, 0.2])]
    with pytest.raises(ConvergenceError, match=r"not positive definite at m=\(0\.55, 0\.45\), t=1\b"):
        rate_profile(BENCH, points, T=2.0, J=40)


def test_boundary_query_is_lifted():
    br = solve_rate(np.array([0.0, 1.0]), BENCH, T=4.0, J=80)
    assert br.diagnostics.boundary_lifted
    assert np.isfinite(br.lower)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_solve_rate_needs_a_finite_positive_horizon(T):
    with pytest.raises(PreconditionViolation, match="finite T > 0"):
        solve_rate(np.array([0.3, 0.7]), BENCH, T=T)


@pytest.mark.parametrize("solve", [
    lambda: solve_rate(np.array([0.3, 0.7]), BENCH, T=2.0, J=2.5),
    lambda: rate_profile(BENCH, [np.array([0.3, 0.7])], T=2.0, J=2.5),
    lambda: build_plan(np.array([0.3, 0.7]), BENCH, T=2.0, J=2.5),
], ids=["solve_rate", "rate_profile", "build_plan"])
def test_fractional_J_is_rejected(solve):
    with pytest.raises(PreconditionViolation, match="J must be an integer"):
        solve()


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_steps_needs_a_finite_positive_T(T):
    with pytest.raises(PreconditionViolation, match="PiecewiseLinearPath.steps: need a finite T > 0"):
        PiecewiseLinearPath.steps(T, np.full((2, 2), 0.5))


@pytest.mark.parametrize("eta", [np.zeros((0, 2)), np.float64(0.5), np.full(2, 0.5)], ids=["no-rows", "scalar", "1-d"])
def test_steps_needs_a_matrix_of_at_least_one_row(eta):
    with pytest.raises(DimensionMismatch, match="PiecewiseLinearPath: "):
        PiecewiseLinearPath.steps(1.0, eta)


def test_steps_lays_the_rows_on_an_even_grid_with_zero_slopes():
    eta = np.array([[0.5, 0.5], [0.25, 0.75]])
    ctrl = PiecewiseLinearPath.steps(np.int64(1), eta)
    assert ctrl.breaks.tolist() == [0.0, 0.5, 1.0] and ctrl.horizon == 1.0
    assert np.array_equal(ctrl.start, eta) and not ctrl.slope.any()
    assert not ctrl.start.flags.writeable


def test_a_path_leaves_the_callers_arrays_writable_and_unshared():
    """The path's arrays are read-only copies: building one neither freezes
    the caller's float arrays nor moves with later writes to them."""
    eta = np.array([[0.5, 0.5]])
    ctrl = PiecewiseLinearPath.steps(1.0, eta)
    breaks, start, slope = np.array([0.0, 1.0, 2.0]), np.full((2, 2), 0.5), np.zeros((2, 2))
    path = PiecewiseLinearPath(breaks, start, slope)
    for given, kept in ((eta, ctrl.start), (breaks, path.breaks), (start, path.start), (slope, path.slope)):
        assert given.flags.writeable and not kept.flags.writeable
        given[0] = 0.25
        assert not np.shares_memory(given, kept) and kept[0].tolist() != given[0].tolist()


def test_solve_rate_dimension_check():
    with pytest.raises(DimensionMismatch):
        solve_rate(np.array([0.2, 0.3, 0.5]), BENCH, T=2.0, J=40)


def test_cost_is_jointly_convex_along_segments():
    rng = np.random.default_rng(4)
    m = np.array([0.3, 0.7])
    T, J = 2.0, 40
    a = _random_control(rng, m, T, J).start
    b = _random_control(rng, m, T, J).start
    ca = _step_cost(m, PiecewiseLinearPath.steps(T, a))
    cb = _step_cost(m, PiecewiseLinearPath.steps(T, b))
    mid = _step_cost(m, PiecewiseLinearPath.steps(T, 0.5 * (a + b)))
    assert mid <= 0.5 * ca + 0.5 * cb + 1e-10


def test_dv_rate_closed_forms():
    # point mass: the pair measure is pinned to the diagonal atom
    assert solve_dv_rate(ProbVec.point_mass(1, 2), BENCH) == pytest.approx(
        -math.log(BENCH.matrix[0, 0]), abs=1e-8
    )
    assert solve_dv_rate(stationary_distribution(BENCH), BENCH) <= 1e-8
    theta = np.array([0.35, 0.65])
    assert solve_dv_rate(theta, RANK1) == pytest.approx(
        relative_entropy(theta, RANK1_P), abs=1e-6
    )


def test_dv_rate_positive_away_from_stationary():
    mstar = stationary_distribution(BENCH).weights
    theta = mstar + np.array([0.05, -0.05])
    assert solve_dv_rate(theta, BENCH) >= 1e-5


def test_dv_rate_dimension_check():
    with pytest.raises(DimensionMismatch):
        solve_dv_rate(np.array([0.2, 0.3, 0.5]), BENCH)


def test_dv_rate_rejects_a_non_finite_point():
    with pytest.raises(SimplexViolation):
        solve_dv_rate(np.array([math.nan, 1.0]), BENCH)


def test_rate_profile_ordering_and_minimum_near_stationary():
    mesh = simplex_mesh(2, 0.25)
    brackets = rate_profile(BENCH, mesh, T=14.0, J=280)
    # each trajectory starts at its own query point, lifted by at most 1e-9
    assert all(np.abs(br.M_opt[0] - p).max() <= 1e-8 for p, br in zip(mesh, brackets, strict=True))
    lowers = np.array([br.lower for br in brackets])
    # m_* = (2/3, 1/3): the mesh minimizer sits one lattice point away
    best = mesh[int(np.argmin(lowers))]
    assert abs(best[0] - 2.0 / 3.0) <= 0.25
    flags = [br.diagnostics.boundary_lifted for br in brackets]
    assert flags[0] and flags[-1] and not any(flags[1:-1])


def test_rate_profile_rank_one_matches_dv():
    mesh = simplex_mesh(2, 0.25)
    brackets = rate_profile(RANK1, mesh, T=14.0, J=280)
    worst = max(abs(br.lower - solve_dv_rate(m, RANK1))
                for m, br in zip(mesh, brackets) if not br.diagnostics.boundary_lifted)
    assert worst <= 2e-3


def test_rate_profile_generic_kernel_differs_from_dv():
    """Recorded observation: the two rates separate on the test kernel."""
    m = np.array([0.25, 0.75])
    (br,) = rate_profile(BENCH, [m], T=14.0, J=280)
    assert abs(br.lower - solve_dv_rate(m, BENCH)) > 5e-3


def test_simplex_mesh_counts_and_validation():
    assert len(simplex_mesh(2, 0.25)) == 5
    assert len(simplex_mesh(3, 0.5)) == 6
    for p in simplex_mesh(3, 0.5):
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionViolation):
        simplex_mesh(2, 0.3)


@pytest.mark.parametrize("d", [0, -1, 2.5])
def test_simplex_mesh_rejects_a_bad_dimension(d):
    with pytest.raises(PreconditionViolation, match="simplex_mesh: "):
        simplex_mesh(d, 0.5)


def test_d3_solves_run_and_bracket_holds():
    m = np.array([0.2, 0.3, 0.5])
    br = solve_rate(m, D3, T=8.0, J=160)
    assert br.lower >= 0.0
    assert br.upper == pytest.approx(br.lower + math.exp(-8.0) * math.log(1 / D3.delta0))
    mstar = stationary_distribution(D3)
    assert solve_rate(mstar, D3, T=8.0, J=160).lower <= 1e-6


# a random positive d=4 kernel
D4 = Kernel(0.9 * np.random.default_rng(0).dirichlet(np.ones(4), size=4) + 0.025)


@pytest.mark.parametrize("A,step", [(D3, 0.1), (D4, 0.25)], ids=["d3", "d4"])
def test_mesh_points_with_last_entry_zero_converge(A, step):
    """Every mesh point solves, those whose last entry is 0 included: their
    barrier curvature once swamped the reduced Newton system."""
    mesh = simplex_mesh(A.d, step)
    brackets = rate_profile(A, mesh, T=8.0, J=80)
    assert sum(p[-1] == 0.0 for p in mesh) >= 10
    assert all(br.diagnostics.converged for br in brackets)


def test_tiny_last_entry_converges():
    br = solve_rate((0.5, 0.5 - 1e-7, 1e-7), D3, T=8.0, J=80)
    assert br.diagnostics.converged and not br.diagnostics.boundary_lifted


def test_relabelled_solve_matches_the_plain_solve():
    """A point with a small last entry, solved relabelled, agrees with the
    same point with its states reordered so that no relabelling is needed."""
    m = np.array([0.5, 0.5 - 1e-4, 1e-4])
    perm = [2, 0, 1]
    br = solve_rate(m, D3, T=8.0, J=80)
    plain = solve_rate(m[perm], Kernel(D3.matrix[np.ix_(perm, perm)]), T=8.0, J=80)
    assert br.diagnostics.converged and plain.diagnostics.converged
    assert abs(br.lower - plain.lower) <= 1e-12
    assert np.abs(br.M_opt[:, perm] - plain.M_opt).max() <= 1e-8
