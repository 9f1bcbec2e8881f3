import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinforced_ldp.errors import (
    DimensionMismatch,
    PositivityViolation,
    PreconditionViolation,
    SimplexViolation,
)
from reinforced_ldp.measures import (
    Kernel,
    ProbVec,
    build_kernel_mixture,
    build_kernel_qsd,
    kernel_apply,
    relative_entropy,
    stationary_distribution,
)

BENCH = [[0.9, 0.1], [0.2, 0.8]]
RE_HALF_VS_73 = 0.08717669357238894  # 0.5 log(0.5/0.7) + 0.5 log(0.5/0.3)

weights_lists = st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5)


def _normalize(raw):
    v = np.asarray(raw, dtype=float)
    return v / v.sum()


def test_relative_entropy_oracle():
    got = relative_entropy(np.array([0.5, 0.5]), np.array([0.7, 0.3]))
    assert got == pytest.approx(RE_HALF_VS_73, abs=1e-15)


def test_relative_entropy_zero_on_equal_inputs():
    v = _normalize([3.0, 1.0, 2.0])
    assert relative_entropy(v, v) == 0.0


def test_relative_entropy_handles_zero_mass_in_nu():
    # 0 log 0 = 0 by convention
    val = relative_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert val == pytest.approx(math.log(2.0))


def test_relative_entropy_is_not_negative_within_rounding_of_mu():
    # the two terms of this nu round to a sum of -1.1e-16
    nu = _normalize([0.010000000000000002, 0.01])
    assert relative_entropy(nu, np.array([0.5, 0.5])) == 0.0


def test_relative_entropy_keeps_nan():
    assert math.isnan(relative_entropy(np.array([math.nan, 1.0]), np.array([0.5, 0.5])))


def test_relative_entropy_infinite_off_support():
    assert relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


@given(weights_lists, weights_lists)
@settings(max_examples=50, deadline=None)
def test_relative_entropy_nonnegative(a, b):
    if len(a) != len(b):
        return
    assert relative_entropy(_normalize(a), _normalize(b)) >= 0.0


@given(
    st.lists(st.floats(0.05, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(0.05, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(0.05, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(0.05, 10.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_relative_entropy_jointly_convex(a1, b1, a2, b2, lam):
    nu1, mu1 = _normalize(a1), _normalize(b1)
    nu2, mu2 = _normalize(a2), _normalize(b2)
    mixed = relative_entropy(
        lam * nu1 + (1 - lam) * nu2, lam * mu1 + (1 - lam) * mu2
    )
    split = lam * relative_entropy(nu1, mu1) + (1 - lam) * relative_entropy(nu2, mu2)
    assert mixed <= split + 1e-10


def test_kernel_rejects_zero_entry():
    with pytest.raises(PositivityViolation):
        Kernel([[1.0, 0.0], [0.2, 0.8]])


def test_kernel_rejects_bad_row_sum():
    with pytest.raises(SimplexViolation):
        Kernel([[0.6, 0.6], [0.2, 0.8]])


def test_kernel_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        Kernel([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]])


@pytest.mark.parametrize("matrix", [[[0.5, 0.5], [1.0]], [["a", "b"], ["c", "d"]]], ids=["ragged", "text"])
def test_kernel_rejects_ragged_or_non_numeric(matrix):
    with pytest.raises(DimensionMismatch, match="regular array of numbers"):
        Kernel(matrix)


@pytest.mark.parametrize("weights", ["abc", [0.5, [0.5]], [0.5, "x"]])
def test_weights_reject_ragged_or_non_numeric(weights):
    with pytest.raises(SimplexViolation, match="regular array of numbers"):
        ProbVec(weights)
    with pytest.raises(SimplexViolation, match="regular array of numbers"):
        build_kernel_qsd(weights)


def test_kernel_delta0_is_min_entry():
    A = Kernel(BENCH)
    assert A.delta0 == 0.1
    assert A.d == 2


def test_kernel_matrix_read_only():
    A = Kernel(BENCH)
    with pytest.raises(ValueError):
        A.matrix[0, 0] = 0.5


def test_kernel_apply_respects_positivity_floor():
    """Every row mixes all rows of A, so (mA)(y) >= delta0 for any m."""
    A = Kernel(BENCH)
    for m in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
        out = kernel_apply(np.array(m), A)
        assert out.weights.min() >= A.delta0 - 1e-15
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_distribution_bench_oracle():
    # pi = pi A solved by hand: pi_1 (0.1) = pi_2 (0.2)
    mstar = stationary_distribution(Kernel(BENCH))
    assert np.allclose(mstar.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_stationary_distribution_is_fixed_point():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        rows = rng.dirichlet(np.ones(d), size=d) * 0.7 + 0.3 / d
        A = Kernel(rows)
        mstar = stationary_distribution(A)
        assert np.allclose(mstar.weights @ A.matrix, mstar.weights, atol=1e-12)


def test_build_kernel_qsd_oracles():
    A = build_kernel_qsd([0.2, 0.4, 0.4])
    assert np.allclose(A.matrix, [[0.6, 0.4], [0.4, 0.6]])
    B = build_kernel_qsd([1.0 / 3.0] * 3)
    assert np.allclose(B.matrix, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])


def test_build_kernel_qsd_stationary_matches_conditional():
    """The stationary law of the built kernel is q conditioned on survival."""
    q = np.array([0.2, 0.4, 0.4])
    A = build_kernel_qsd(q)
    mstar = stationary_distribution(A)
    assert np.allclose(mstar.weights, q[1:] / q[1:].sum(), atol=1e-12)


def test_build_kernel_mixture_oracle():
    A = build_kernel_mixture(0.5, [0.5, 0.5], np.eye(2))
    assert np.allclose(A.matrix, [[0.75, 0.25], [0.25, 0.75]])


def test_build_kernel_mixture_needs_positive_alpha():
    with pytest.raises(PositivityViolation):
        build_kernel_mixture(0.0, [0.5, 0.5], np.eye(2))


def test_probvec_constructors():
    pm = ProbVec.point_mass(2, 3)
    assert pm.weights.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(DimensionMismatch):
        ProbVec.point_mass(4, 3)


@pytest.mark.parametrize("state, d", [(1.5, 2), (2.0, 3), ("1", 2), (1, 2.0), (True, 2), (1, True)])
def test_point_mass_rejects_a_state_or_dimension_that_is_not_an_integer(state, d):
    with pytest.raises(PreconditionViolation, match="point_mass: (state|d) must be an integer"):
        ProbVec.point_mass(state, d)
    assert ProbVec.point_mass(np.int64(2), np.int64(3)).weights.tolist() == [0.0, 1.0, 0.0]


def test_probvec_rejects_negative_and_bad_sum():
    with pytest.raises(SimplexViolation):
        ProbVec([0.5, -0.1, 0.6])
    with pytest.raises(SimplexViolation):
        ProbVec([0.5, 0.2])
