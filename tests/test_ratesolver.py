import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import rel_entr

from reinforced_ldp.errors import (
    DimensionMismatch,
    InfeasibleTrajectory,
    PreconditionViolation,
)
from reinforced_ldp.measures import (
    Kernel,
    ProbVec,
    relative_entropy,
    stationary_distribution,
)
from reinforced_ldp.ratesolver import (
    PiecewiseControl,
    _barrier_value,
    _newton_parts,
    _node_controls,
    _weights_vector,
    discounted_cost,
    integrate_forward,
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
    return PiecewiseControl(T=T, J=J, eta=np.tile(np.asarray(m, float), (J, 1)))


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
    return PiecewiseControl(T=T, J=J, eta=_node_controls(_random_nodes(rng, m, T, J), math.exp(T / J)))


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
    grid = integrate_forward(m, _tile_control(m, 14.0, 280))
    assert np.array_equal(grid.M, np.tile(m, (281, 1)))
    assert grid.all_feasible


def test_trajectory_rows_sum_to_one():
    rng = np.random.default_rng(0)
    m = np.array([0.25, 0.35, 0.4])
    grid = integrate_forward(m, _random_control(rng, m, 8.0, 160))
    assert np.abs(grid.M.sum(axis=1) - 1.0).max() <= 1e-12


def test_discounted_cost_at_equilibrium_is_plain_entropy():
    # stationary trajectory: cost is (1 - e^{-T}) R(m || m A)
    m = np.array([0.3, 0.7])
    got = discounted_cost(m, _tile_control(m, 14.0, 280), BENCH)
    expect = -math.expm1(-14.0) * relative_entropy(m, m @ BENCH.matrix)
    assert got == pytest.approx(expect, rel=1e-12)


def test_discounted_cost_rejects_infeasible():
    eta = np.tile(np.array([0.0, 1.0]), (40, 1))
    ctrl = PiecewiseControl(T=2.0, J=40, eta=eta)
    with pytest.raises(InfeasibleTrajectory):
        discounted_cost(np.array([0.9, 0.1]), ctrl, BENCH)


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
    assert np.abs(integrate_forward(br.M_opt.M[0], br.eta_opt).M - br.M_opt.M).max() <= 1e-9


def test_newton_parts_match_finite_differences():
    """Barrier gradient against central differences of the barrier value,
    and the banded Hessian times a random vector against central
    differences of the gradient, in the free node coordinates."""
    rng = np.random.default_rng(5)
    T, J, t, h = 1.0, 12, 3.0, 1e-6
    M = _random_nodes(rng, np.array([0.2, 0.3, 0.5]), T, J)
    e_delta = math.exp(T / J)
    w = _weights_vector(T, J)
    A = D3.matrix
    grad, band = _newton_parts(M, A, w, e_delta, t)

    def shifted(v):
        out = M.copy()
        out[1:, :2] += v
        out[1:, 2] -= v.sum(axis=1)
        return out

    for idx in [(0, 0), (5, 1), (J - 1, 0)]:
        bump = np.zeros((J, 2))
        bump[idx] = h
        fd = (_barrier_value(shifted(bump), A, w, e_delta, t)
              - _barrier_value(shifted(-bump), A, w, e_delta, t)) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd))
    n = 2 * J
    H = np.zeros((n, n))
    for r in range(band.shape[0]):
        i = np.arange(n - r)
        H[i + r, i] = H[i, i + r] = band[r, : n - r]
    v = rng.normal(size=(J, 2))
    g_up, _ = _newton_parts(shifted(h * v), A, w, e_delta, t)
    g_dn, _ = _newton_parts(shifted(-h * v), A, w, e_delta, t)
    fd = ((g_up - g_dn) / (2 * h)).ravel()
    assert np.abs(H @ v.ravel() - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_boundary_query_is_lifted():
    br = solve_rate(np.array([0.0, 1.0]), BENCH, T=4.0, J=80)
    assert br.diagnostics.boundary_lifted
    assert np.isfinite(br.lower)


def test_solve_rate_dimension_check():
    with pytest.raises(DimensionMismatch):
        solve_rate(np.array([0.2, 0.3, 0.5]), BENCH, T=2.0, J=40)


def test_cost_is_jointly_convex_along_segments():
    rng = np.random.default_rng(4)
    m = np.array([0.3, 0.7])
    T, J = 2.0, 40
    a = _random_control(rng, m, T, J).eta
    b = _random_control(rng, m, T, J).eta
    ca = discounted_cost(m, PiecewiseControl(T=T, J=J, eta=a), BENCH)
    cb = discounted_cost(m, PiecewiseControl(T=T, J=J, eta=b), BENCH)
    mid = discounted_cost(m, PiecewiseControl(T=T, J=J, eta=0.5 * (a + b)), BENCH)
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


def test_rate_profile_ordering_and_minimum_near_stationary():
    mesh = simplex_mesh(2, 0.25)
    rows = rate_profile(BENCH, mesh, T=14.0, J=280, dv=True, threads=1)
    assert [tuple(r.m) for r in rows] == [tuple(p) for p in mesh]
    lowers = np.array([r.lower for r in rows])
    # m_* = (2/3, 1/3): the mesh minimizer sits one lattice point away
    best = rows[int(np.argmin(lowers))]
    assert abs(best.m[0] - 2.0 / 3.0) <= 0.25
    flags = [r.boundary_lifted for r in rows]
    assert flags[0] and flags[-1] and not any(flags[1:-1])


def test_rate_profile_rank_one_matches_dv():
    mesh = simplex_mesh(2, 0.25)
    rows = rate_profile(RANK1, mesh, T=14.0, J=280, dv=True, threads=1)
    worst = max(abs(r.lower - r.dv_rate) for r in rows if not r.boundary_lifted)
    assert worst <= 2e-3


def test_rate_profile_generic_kernel_differs_from_dv():
    """Recorded observation: the two rates separate on the test kernel."""
    rows = rate_profile(BENCH, [np.array([0.25, 0.75])], T=14.0, J=280, dv=True)
    assert abs(rows[0].lower - rows[0].dv_rate) > 5e-3


def test_simplex_mesh_counts_and_validation():
    assert len(simplex_mesh(2, 0.25)) == 5
    assert len(simplex_mesh(3, 0.5)) == 6
    for p in simplex_mesh(3, 0.5):
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionViolation):
        simplex_mesh(2, 0.3)


def test_d3_solves_run_and_bracket_holds():
    m = np.array([0.2, 0.3, 0.5])
    br = solve_rate(m, D3, T=8.0, J=160)
    assert br.lower >= 0.0
    assert br.upper == pytest.approx(br.lower + math.exp(-8.0) * math.log(1 / D3.delta0))
    mstar = stationary_distribution(D3)
    assert solve_rate(mstar, D3, T=8.0, J=160).lower <= 1e-6
