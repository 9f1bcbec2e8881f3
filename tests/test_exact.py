import itertools
import math

import numpy as np
import pytest

from reinforced_ldp.chains import simulate_chain_batch
from reinforced_ldp.errors import (
    ConvergenceError,
    DimensionMismatch,
    PreconditionViolation,
    ResourceLimitExceeded,
)
from reinforced_ldp.exact import (
    MASS_CHECK_ATOL,
    ball_rate,
    event_probability,
    exact_law,
    exact_law_levels,
    export_law_csv,
    export_rate_trend_csv,
    finite_n_rate,
)
from reinforced_ldp.measures import Kernel

BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
UNIFORM = Kernel([[0.5, 0.5], [0.5, 0.5]])
D3 = Kernel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])
D4 = Kernel(0.8 * np.random.default_rng(40).dirichlet(np.ones(4), size=4) + 0.05)
MSTAR_BENCH = np.array([2.0 / 3.0, 1.0 / 3.0])


def test_law_n2_hand_enumerated():
    """x0 = 1 is the first of the n states; X_2 ~ row 1 of the kernel."""
    law = exact_law(BENCH, 1, 2)
    assert set(law.atoms) == {(2, 0), (1, 1)}
    assert law.atoms[(2, 0)] == pytest.approx(0.9, abs=1e-15)
    assert law.atoms[(1, 1)] == pytest.approx(0.1, abs=1e-15)


def test_law_n3_hand_enumerated():
    # branch (1,1,*): 0.81 / 0.09; branch (1,2,*): measure (1/2,1/2) -> (0.55,0.45)
    law = exact_law(BENCH, 1, 3)
    assert law.atoms[(3, 0)] == pytest.approx(0.81, abs=1e-15)
    assert law.atoms[(2, 1)] == pytest.approx(0.145, abs=1e-15)
    assert law.atoms[(1, 2)] == pytest.approx(0.045, abs=1e-15)


def _assert_law_matches_path_enumeration(A, x0, n):
    """Sum over all d^(n-1) paths, stepping with the running mean of ``A[x_j, :]``."""
    d, expect = A.d, {}
    for tail in itertools.product(range(d), repeat=n - 1):
        path = (x0 - 1,) + tail
        p = math.prod(A.matrix[list(path[:k]), path[k]].mean() for k in range(1, n))
        key = tuple(path.count(x) for x in range(d))
        expect[key] = expect.get(key, 0.0) + p
    law = exact_law(A, x0, n)
    assert set(law.atoms) == set(expect)
    for key, p in expect.items():
        assert law.atoms[key] == pytest.approx(p, rel=0, abs=1e-15)


@pytest.mark.parametrize("x0", [1, 2, 3])
def test_law_d3_matches_path_enumeration(x0):
    _assert_law_matches_path_enumeration(D3, x0, 6)


@pytest.mark.parametrize("x0", [1, 2, 3, 4])
def test_law_d4_matches_path_enumeration(x0):
    """Each step slices a three-axis box of the lattice counts."""
    _assert_law_matches_path_enumeration(D4, x0, 6)


def test_law_uniform_kernel_symmetric():
    law = exact_law(UNIFORM, 1, 3)
    assert law.atoms[(3, 0)] == pytest.approx(0.25, abs=1e-15)
    assert law.atoms[(2, 1)] == pytest.approx(0.5, abs=1e-15)
    assert law.atoms[(1, 2)] == pytest.approx(0.25, abs=1e-15)


def test_law_total_mass_and_start_count():
    law = exact_law(BENCH, 2, 30)
    total = sum(law.atoms.values())
    assert total + law.dropped_mass == pytest.approx(1.0, abs=1e-12)
    # the start state is part of every path
    assert all(key[1] >= 1 for key in law.atoms)
    assert all(sum(key) == 30 for key in law.atoms)


def test_levels_agree_with_single_calls():
    levels = exact_law_levels(BENCH, 1, [4, 9])
    assert set(levels) == {4, 9}
    for n in (4, 9):
        single = exact_law(BENCH, 1, n)
        assert levels[n].atoms == single.atoms


def test_law_rejects_bad_inputs():
    with pytest.raises(PreconditionViolation):
        exact_law(BENCH, 1, 0)
    with pytest.raises(DimensionMismatch):
        exact_law(BENCH, 5, 10)


def test_law_rejects_non_integer_level_and_start():
    with pytest.raises(PreconditionViolation, match="must be an integer"):
        exact_law(BENCH, 1, 20.5)
    with pytest.raises(PreconditionViolation, match="must be an integer"):
        exact_law_levels(BENCH, 1, [5, 7.0])
    with pytest.raises(PreconditionViolation, match="x0 must be an integer"):
        exact_law(BENCH, 1.7, 5)
    law = exact_law(BENCH, np.int64(2), np.int64(5))
    assert type(law.x0) is int and law.atoms == exact_law(BENCH, 2, 5).atoms


def test_law_matches_monte_carlo():
    n, n_paths = 12, 20_000
    law = exact_law(BENCH, 1, n)
    finals = simulate_chain_batch(BENCH, 1, n, n_paths, seed=0)
    seen = {}
    for row in finals:
        seen[tuple(row)] = seen.get(tuple(row), 0) + 1
    tv = 0.5 * sum(
        abs(law.atoms.get(k, 0.0) - seen.get(k, 0) / n_paths)
        for k in set(law.atoms) | set(seen)
    )
    assert tv <= 0.02


def test_event_probability_ball_geometry():
    """The event is a closed l1 ball around the target in counts / n."""
    law = exact_law(BENCH, 1, 3)
    # (2,1)/3 sits exactly on the target
    p = event_probability(law, MSTAR_BENCH, 0.0)
    assert p == pytest.approx(law.atoms[(2, 1)], abs=1e-15)
    # radius 2 covers the whole simplex
    assert event_probability(law, MSTAR_BENCH, 2.0) == pytest.approx(1.0, abs=1e-12)
    for radius in (-0.1, math.nan):
        with pytest.raises(PreconditionViolation):
            event_probability(law, MSTAR_BENCH, radius)
    with pytest.raises(DimensionMismatch):
        event_probability(law, np.array([0.2, 0.3, 0.5]), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ball_target_must_be_finite(bad):
    """A non-finite target entry would make the ball empty and the rate infinite."""
    law = exact_law(BENCH, 1, 3)
    with pytest.raises(PreconditionViolation, match="must be finite"):
        event_probability(law, [bad, 1.0], 0.1)


def test_one_state_law_is_the_single_atom():
    laws = exact_law_levels(Kernel([[1.0]]), 1, [1, 5])
    for n, law in laws.items():
        assert law.counts.tolist() == [[n]] and law.probs.tolist() == [1.0]
        assert law.dropped_mass == 0.0 and law.atoms == {(n,): 1.0}
        assert not law.counts.flags.writeable and not law.probs.flags.writeable
    assert event_probability(laws[5], [1.0], 0.0) == 1.0


def test_finite_n_rate_trend_and_infinite_flag():
    records = finite_n_rate(BENCH, 1, np.array([0.3, 0.7]), 0.05, [5, 50])
    by_n = {r.n: r for r in records}
    # the count lattice at n=5 misses the radius-0.05 ball entirely
    assert by_n[5].infinite and by_n[5].probability == 0.0 and math.isinf(by_n[5].rate)
    assert not by_n[5].rate_is_bound
    r50 = by_n[50]
    assert not r50.infinite and not r50.rate_is_bound and r50.probability > 0.0
    assert r50.rate == pytest.approx(-math.log(r50.probability) / 50, abs=1e-15)


def _log_space_ball_rate(A, n, target, radius):
    """``-(1/n) log P`` of the ball for a d=2 chain from x0 = 1, by a DP on
    the log-probabilities of the first count (``np.logaddexp``), which never
    underflows: the far-ball oracle."""
    logA = np.log(A.matrix)
    logp = np.array([-np.inf, 0.0])  # level 1: the count of state 1 is 1
    for k in range(1, n):
        c1 = np.arange(k + 1.0)
        with np.errstate(divide="ignore"):  # log 0 = -inf at the lattice ends
            log_to = [np.logaddexp(np.log(c1 / k) + logA[0, y], np.log((k - c1) / k) + logA[1, y])
                      for y in (0, 1)]
        nxt = np.full(k + 2, -np.inf)
        nxt[:-1] = logp + log_to[1]
        nxt[1:] = np.logaddexp(nxt[1:], logp + log_to[0])
        logp = nxt
    c1 = np.arange(n + 1)
    inside = np.abs(c1 / n - target[0]) + np.abs((n - c1) / n - target[1]) <= radius
    return -np.logaddexp.reduce(logp[inside]) / n


def test_ball_past_the_drop_threshold_reports_a_rate_bound():
    """Every atom of this far ball falls below DROP_THRESHOLD at n = 300: the
    law gives no probability, only the bound ``P <= dropped_mass``, so the
    rate is reported as ``-log(dropped_mass) / n`` and flagged as a bound,
    and it lies below the true rate from a log-space DP."""
    A, n, target, radius = Kernel([[0.99, 0.01], [0.98, 0.02]]), 300, (0.05, 0.95), 0.05
    law = exact_law(A, 1, n)
    r = ball_rate(law, target, radius)
    assert 0.0 < law.dropped_mass < 1e-298
    assert r.rate_is_bound and not r.infinite and r.probability == 0.0
    assert r.rate == -math.log(law.dropped_mass) / n
    exact = _log_space_ball_rate(A, n, target, radius)
    assert r.rate <= exact
    assert exact == pytest.approx(3.4193, abs=1e-4)
    # the oracle agrees with the law on a ball whose atoms are all kept (P = 1.7e-162)
    kept = ball_rate(law, (0.5, 0.5), 0.1)
    assert not kept.rate_is_bound
    assert _log_space_ball_rate(A, n, (0.5, 0.5), 0.1) == pytest.approx(kept.rate, rel=1e-12)


def test_ball_with_kept_and_dropped_atoms_reports_a_rate_bound():
    """This ball keeps atoms (sum 3.9e-294) and holds cells dropped below
    DROP_THRESHOLD, so its probability lies in ``[p, p + dropped_mass]``: the
    rate is read from the upper end and flagged as a bound, and it lies below
    the true rate from a log-space DP, which lies below the kept sum's rate."""
    A, n, radius = Kernel([[0.99, 0.01], [0.98, 0.02]]), 300, 0.02
    target = (87.5 / n, 1.0 - 87.5 / n)
    law = exact_law(A, 1, n)
    r = ball_rate(law, target, radius)
    assert 3.8e-294 < r.probability < 3.9e-294 and 2.5e-299 < law.dropped_mass < 2.6e-299
    assert r.rate_is_bound and not r.infinite
    assert r.rate == -math.log(r.probability + law.dropped_mass) / n
    assert r.rate <= _log_space_ball_rate(A, n, target, radius) <= -math.log(r.probability) / n


@pytest.mark.parametrize("A,n,target,radius", [
    (Kernel([[1.0]]), 5, [1.0], 0.0),
    (BENCH, 50, MSTAR_BENCH, 2.0),
], ids=["one_state", "whole_simplex"])
def test_sure_ball_has_rate_exactly_zero(A, n, target, radius):
    """A ball of probability 1 has rate +0.0, never -0.0 or below 0, even
    where the law's rounded atoms sum above 1 (1.0000000000000018 on the
    bench kernel at n=50)."""
    r = ball_rate(exact_law(A, 1, n), target, radius)
    assert r.probability == 1.0 and not r.infinite
    assert r.rate == 0.0 and math.copysign(1.0, r.rate) == 1.0


def test_mem_cap_enforced():
    with pytest.raises(ResourceLimitExceeded):
        exact_law(D3, 1, 3000, mem_cap_bytes=2**20)


# rows sum to 1 exactly under fsum, and rounding alone drifts past
# MASS_CHECK_ATOL at level 9014 from x0 = 1
DEEP_D2 = Kernel(0.8 * np.random.default_rng(1).dirichlet(np.ones(2), size=2) + 0.1)
# a row 9e-13 above 1, inside the Kernel invariant: past MASS_CHECK_ATOL at level 3
LEAKY_ROW = Kernel([[0.5, 0.5 + 9e-13], [0.3, 0.7]])


@pytest.mark.parametrize("A,n", [(DEEP_D2, 9100), (LEAKY_ROW, 3), (LEAKY_ROW, 2000)],
                         ids=["deep", "row-3", "row-2000"])
def test_mass_check_allows_the_kernel_and_rounding_drift(A, n):
    law = exact_law(A, 1, n)
    drift = abs(float(law.probs.sum()) + law.dropped_mass - 1.0)
    assert MASS_CHECK_ATOL < drift < n * 1e-12


class _LeakyMatrix(np.ndarray):
    """A kernel matrix whose products lose 1e-9 of their mass while its
    entries still sum to 1."""

    def __rmatmul__(self, other):
        return (other @ self.view(np.ndarray)) * (1.0 - 1e-9)


def test_mass_check_refuses_a_leak_per_level():
    A = Kernel(BENCH.matrix)
    object.__setattr__(A, "matrix", A.matrix.view(_LeakyMatrix))
    with pytest.raises(ConvergenceError, match="drifted from 1 at level 2$"):
        exact_law(A, 1, 50)


def test_export_csvs(tmp_path):
    law = exact_law(BENCH, 1, 3)
    out = tmp_path / "law.csv"
    export_law_csv(law, out, "config_sha256=0 seed=0")
    lines = out.read_text().splitlines()
    assert lines[1] == "c_1,c_2,probability"
    assert len(lines) == 2 + len(law.atoms)

    records = finite_n_rate(BENCH, 1, MSTAR_BENCH, 0.05, [3])
    trend = tmp_path / "trend.csv"
    export_rate_trend_csv(records, trend, "config_sha256=0 seed=0")
    header = trend.read_text().splitlines()[1]
    assert header == "n,probability,rate,infinite,rate_is_bound"


# ---------------------------------------------------------------------------
# the array-backed law against the dict-of-atoms law it replaced


def _dict_laws(A, x0, n_list):
    """The DP with its former snapshot and drop step: per level, the dict of
    atoms built from the lattice array and the dropped mass."""
    d, wanted = A.d, sorted(set(n_list))
    P = np.zeros((2,) * (d - 1))
    P[tuple(int(x == x0) for x in range(1, d))] = 1.0
    dropped, out = 0.0, {}

    def snapshot(level):
        cells = np.argwhere(P)
        keys = np.column_stack([cells, level - cells.sum(axis=1)]).tolist()
        return dict(zip(map(tuple, keys), P[P != 0.0].tolist())), dropped

    if 1 in wanted:
        out[1] = snapshot(1)
    for k in range(1, wanted[-1]):
        grid = np.indices(P.shape).reshape(d - 1, P.size).T
        counts = np.column_stack([grid, k - grid.sum(axis=1)])
        trans = ((counts / float(k)) @ A.matrix).reshape(*P.shape, d)
        nxt = np.zeros((k + 2,) * (d - 1))
        for y in range(d):
            cell = [slice(0, k + 1)] * (d - 1)
            if y < d - 1:
                cell[y] = slice(1, k + 2)
            nxt[tuple(cell)] += P * trans[..., y]
        small = nxt < 1e-300
        dropped += math.fsum(nxt[small].tolist())
        nxt[small] = 0.0
        P = nxt
        if k + 1 in wanted:
            out[k + 1] = snapshot(k + 1)
    return out


def _dict_event_probability(atoms, n, target, radius):
    items = sorted(atoms.items())
    counts = np.array([key for key, _ in items], dtype=np.int64)
    probs = [p for _, p in items]
    dist = np.abs(counts / float(n) - np.asarray(target)[None, :]).sum(axis=1)
    return math.fsum(p for p, h in zip(probs, dist <= radius) if h)


NEAR_ABSORBING = Kernel([[0.999, 0.001], [0.998, 0.002]])


@pytest.mark.parametrize("A,x0,n_list", [(BENCH, 1, [1, 7, 60]), (D3, 2, [5, 30]), (D4, 3, [12]),
                                        (NEAR_ABSORBING, 1, [100, 200, 400])])
def test_arrays_are_the_former_atoms(A, x0, n_list):
    laws, former = exact_law_levels(A, x0, n_list), _dict_laws(A, x0, n_list)
    for n in n_list:
        law, (atoms, dropped) = laws[n], former[n]
        assert law.counts.dtype == np.int64 and law.probs.dtype == np.float64
        assert law.counts.shape == (len(atoms), A.d) and law.probs.shape == (len(atoms),)
        assert not law.counts.flags.writeable and not law.probs.flags.writeable
        with pytest.raises(ValueError):
            law.probs[0] = 0.5
        rows = law.counts.tolist()
        assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
        assert list(law.atoms.items()) == list(atoms.items())
        assert law.dropped_mass == dropped
    if A is NEAR_ABSORBING:
        assert laws[400].dropped_mass > 0.0 and laws[400].probs.min() < 1e-99


@pytest.mark.parametrize("A,n", [(BENCH, 200), (D3, 40), (D4, 16)])
def test_event_probability_equals_the_dict_sum(A, n):
    law = exact_law(A, 1, n)
    rng = np.random.default_rng(A.d)
    for _ in range(40):
        target = rng.dirichlet(np.ones(A.d))
        radius = float(rng.uniform(0.0, 0.6))
        expect = _dict_event_probability(law.atoms, n, target, radius)
        assert event_probability(law, target, radius) == expect
