import math

import numpy as np
import pytest

from reinforced_ldp import chains
from reinforced_ldp.chains import (
    _column_scan,
    _reinforced_draws,
    _time_grid,
    path_rng,
    simulate_chain,
    simulate_chain_batch,
    simulate_controlled,
    verify_chain_rule_identity,
    export_path_csv,
)
from reinforced_ldp.errors import DimensionMismatch, PolicyError, PreconditionViolation, ResourceLimitExceeded
from reinforced_ldp.measures import Kernel

BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
D3 = Kernel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])
D12 = Kernel(0.9 * np.random.default_rng(12).dirichlet(np.ones(12), size=12) + 0.1 / 12)
EPS = 2.0**-53
EULER_GAMMA = 0.5772156649015329
N_STEPS = 200
SEED = 42


def feedback(k, Lbar):
    """The zero-cost policy: the current measure fed back through the kernel."""
    return Lbar @ BENCH.matrix


def _grid_index(times, t):
    """The grid index of ``t`` as the clock's readers take it."""
    return np.searchsorted(times, t, side="right") - 1


def test_grid_spacing_and_lookup():
    times = _time_grid(10)
    assert times[0] == 0.0 and times.shape == (11,)
    assert not times.flags.writeable
    assert np.allclose(np.diff(times), 1.0 / np.arange(2, 12))
    assert _grid_index(times, 0.0) == 0
    assert _grid_index(times, times[-1] + 5.0) == 10


def test_grid_horizon_tracks_log_n():
    """t_n - log(n+1) is sandwiched by the harmonic-sum bracket."""
    for n in (10, 100, 10_000):
        centered = _time_grid(n)[-1] - math.log(n + 1) - (EULER_GAMMA - 1.0)
        assert 1.0 / (2 * (n + 2)) < centered < 1.0 / (2 * n)


def test_grid_index_vectorized_matches_scalar():
    """The vectorized lookup is the largest k with t_k <= t, at the nodes too."""
    times = _time_grid(50)
    ts = np.concatenate([np.linspace(0.0, times[-1], 23), times])
    expect = [max(k for k in range(51) if times[k] <= t) for t in ts]
    assert _grid_index(times, ts).tolist() == expect


@pytest.mark.parametrize("n", [2.7, 2.0, 0, -3])
def test_grid_rejects_a_bad_length(n):
    """A length that is not an integer (a float, even an integral one) or
    below 1 raises, however the cache was filled."""
    _time_grid(2)
    with pytest.raises(PreconditionViolation, match="time grid: n"):
        _time_grid(n)


CLOCK_N = 200_000


def _compensated_clock(n):
    """``t_k = sum_{j=1..k} fl(1/(j+1))`` by a scalar compensated (Kahan) running sum."""
    t = np.empty(n + 1)
    t[0] = total = carry = 0.0
    for k in range(1, n + 1):
        y = 1.0 / (k + 1.0) - carry
        s = total + y
        carry = (s - total) - y
        total = s
        t[k] = total
    return t


@pytest.fixture(scope="module")
def compensated_clock():
    return _compensated_clock(CLOCK_N)


@pytest.mark.parametrize("n", [1, 2, 3, CLOCK_N])
def test_grid_is_the_compensated_sum_bit_for_bit(compensated_clock, n):
    """Every ``t_k``, ``k <= 200,000``, equals the scalar compensated sum."""
    assert _time_grid(n).tobytes() == compensated_clock[: n + 1].tobytes()


def test_grid_bit_test_sees_a_dropped_limb_and_a_plain_cumsum(compensated_clock):
    """The bit test above has teeth: the high limb alone, and numpy's plain
    running sum of the same terms, each miss most of the reference clock."""
    x = 1.0 / np.arange(2.0, CLOCK_N + 2.0)
    high_limb = np.cumsum(np.floor(x * 2.0**48)) * 2.0**-48
    for near in (high_limb, np.cumsum(x)):
        assert np.count_nonzero(near != compensated_clock[1:]) > CLOCK_N // 2


class _Allocation(Exception):
    pass


class _NoNumpy:
    """Stands in for numpy: any use of it raises, so nothing is allocated."""

    def __getattr__(self, name):
        raise _Allocation(name)


@pytest.mark.parametrize("n", [2**28, 2**28 + 1, 10**12])
def test_grid_rejects_a_clock_whose_limbs_could_overflow(monkeypatch, n):
    """From ``n = 2**28`` the low limb's prefix sum could pass 2**63: the
    size check raises before numpy is touched, while ``2**28 - 1`` passes
    it and reaches the first allocation."""
    monkeypatch.setattr(chains, "np", _NoNumpy())
    with pytest.raises(ResourceLimitExceeded, match=r"time grid: n must be below 2\*\*28"):
        _time_grid(n)
    with pytest.raises(_Allocation):
        _time_grid(2**28 - 1)


def test_simulate_chain_reproducible():
    a = simulate_chain(BENCH, 1, N_STEPS, SEED)
    b = simulate_chain(BENCH, 1, N_STEPS, SEED)
    c = simulate_chain(BENCH, 1, N_STEPS, SEED + 1)
    assert np.array_equal(a.states, b.states)
    assert (a.states != c.states).any()


def _defined_cdf(q, rows):
    """The scanned CDF values ``C_0..C_{d-2}`` of the reinforced draw from the
    measure ``q``, in Python floats: ``m_y = q_0 A_0y + ... + q_{d-1}
    A_{d-1,y}`` and ``C_i = m_0 + ... + m_i``, each summed in index order."""
    cdf, c = [], 0.0
    for y in range(len(rows) - 1):
        m = q[0] * rows[0][y]
        for i in range(1, len(rows)):
            m += q[i] * rows[i][y]
        c += m
        cdf.append(c)
    return cdf


def _defined_draw(q, rows, u):
    """``x = sum_{i<d-1} [u > C_i]`` over :func:`_defined_cdf`: the draw oracle."""
    return sum(u > c for c in _defined_cdf(q, rows))


def _reference_chain(A, x0, n, seed):
    """``simulate_chain`` as one Python step at a time, driven by
    ``path_rng(seed)``: the path oracle."""
    d = A.d
    uniforms = path_rng(seed).random(n - 1) if n > 1 else np.empty(0)
    states = np.empty(n, dtype=np.int64)
    counts = np.zeros((n, d), dtype=np.int64)
    L = np.empty((n, d))
    count = np.zeros(d, dtype=np.int64)
    states[0] = x0
    count[x0 - 1] = 1
    counts[0] = count
    L[0] = count / 1.0
    for k in range(1, n):
        x = _defined_draw(L[k - 1].tolist(), A.matrix.tolist(), uniforms[k - 1])
        states[k] = x + 1
        count[x] += 1
        counts[k] = count
        L[k] = count / float(k + 1)
    return states, counts, L


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("A, x0", [(BENCH, 1), (D3, 2), (D12, 7)], ids=["d2", "d3", "d12"])
def test_simulate_chain_matches_reference_loop(A, x0, seed):
    path = simulate_chain(A, x0, 10_000, seed)
    states, counts, L = _reference_chain(A, x0, 10_000, seed)
    assert np.array_equal(path.states, states)
    assert np.array_equal(path.counts, counts)
    assert np.array_equal(path.L, L)
    assert (path.states.dtype, path.counts.dtype, path.L.dtype) == (states.dtype, counts.dtype, L.dtype)


@pytest.mark.parametrize("n", [1, 2])
def test_simulate_chain_shortest_paths(n):
    path = simulate_chain(D3, 3, n, SEED)
    states, counts, L = _reference_chain(D3, 3, n, SEED)
    assert np.array_equal(path.states, states) and np.array_equal(path.L, L)


def _edge_uniforms(A, count, k, steps, seed):
    """Uniforms between numpy's 1-D CDFs and the defined ones, with the
    defined draws.

    Step ``t`` draws from the defined CDF of ``count / k``.  Where numpy's
    ``cumsum((count / k) @ A)`` differs from it at scanned edges, one of them
    (cycling with ``t``) gets ``u`` equal to the larger of the two values, so
    the two CDFs draw on two sides of that edge.  Returns the uniforms, the
    draws and the number of crafted steps.
    """
    rows = A.matrix.tolist()
    count = [float(c) for c in count]
    u = path_rng(seed).random(steps)
    draws = np.empty(steps, dtype=np.int64)
    crafted = 0
    for t in range(steps):
        q = [c / (k + t) for c in count]
        cdf = _defined_cdf(q, rows)
        row = np.cumsum(np.array(q) @ A.matrix)
        edges = [i for i in range(A.d - 1) if row[i] != cdf[i]]
        if edges:
            i = edges[t % len(edges)]
            u[t] = max(row[i], cdf[i])
            crafted += 1
        x = draws[t] = sum(u[t] > c for c in cdf)
        count[x] += 1.0
    return u, draws, crafted


def _random_kernel(d, seed):
    return Kernel(0.9 * np.random.default_rng(seed).dirichlet(np.ones(d), size=d) + 0.1 / d)


# random kernels at d = 2..5, a sticky one and a nearly cyclic one
ORACLE_KERNELS = {
    **{f"d{d}": _random_kernel(d, d) for d in (2, 3, 4, 5)},
    "sticky": Kernel([[0.999, 0.001], [0.001, 0.999]]),
    "cyclic": Kernel([[0.01, 0.98, 0.01], [0.01, 0.01, 0.98], [0.98, 0.01, 0.01]]),
}

EDGE_STARTS = {
    "d2": (BENCH, [66_667, 33_333]),
    "d3": (D3, [30_000, 40_000, 30_001]),
    "d4": (ORACLE_KERNELS["d4"], [30_000, 25_000, 20_001, 25_000]),
    "d5": (ORACLE_KERNELS["d5"], [20_000, 25_000, 15_001, 20_000, 20_000]),
}


@pytest.mark.parametrize("name", list(EDGE_STARTS))
def test_reinforced_draws_on_cdf_edges(name):
    """Uniforms between numpy's 1-D CDF edges and the defined ones, at k >=
    1e5, draw the defined states.

    At each crafted step a scan of numpy's row draws another state than the
    defined CDF; the block draws keep the defined one.
    """
    A, count = EDGE_STARTS[name]
    k = sum(count)
    u, expect, crafted = _edge_uniforms(A, count, k, 2000, SEED)
    assert crafted >= 100
    assert np.array_equal(_scalar_draws(A.matrix, count, k, u), expect)
    assert np.array_equal(_reinforced_draws(A.matrix, np.array(count), k, u), expect)


def _scalar_draws(Amat, count, k, u):
    """The single-path draws one Python step at a time, each by
    :func:`_defined_draw` of ``count / k``: the block-draw oracle."""
    rows = Amat.tolist()
    cnt = [float(c) for c in count]
    out = []
    for t, ut in enumerate(u.tolist()):
        x = _defined_draw([c / (k + t) for c in cnt], rows, ut)
        out.append(x)
        cnt[x] += 1.0
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 5000])
@pytest.mark.parametrize("name", list(ORACLE_KERNELS))
def test_block_draws_match_the_scalar_loop_from_the_first_step(name, n):
    """Lengths around the first block of 64 steps, and 5000 steps across
    about 30 blocks, equal the scalar loop draw for draw."""
    A = ORACLE_KERNELS[name]
    count = np.zeros(A.d, dtype=np.int64)
    count[-1] = 1
    u = path_rng(SEED + n).random(n)
    assert np.array_equal(_reinforced_draws(A.matrix, count, 1, u), _scalar_draws(A.matrix, count, 1, u))


@pytest.mark.parametrize("name", list(ORACLE_KERNELS))
def test_block_draws_match_the_scalar_loop_from_a_large_count(monkeypatch, name):
    """A start from float counts at k = 120,000, as in run_plan's fallback:
    three blocks at the cap, then about 30 blocks at a cap of 700."""
    A = ORACLE_KERNELS[name]
    k = 120_000
    count = np.random.default_rng(A.d).multinomial(k, np.ones(A.d) / A.d).astype(float)
    u = np.random.Generator(np.random.Philox(key=SEED | (A.d << 64))).random(20_000)
    expect = _scalar_draws(A.matrix, count, k, u)
    assert np.array_equal(_reinforced_draws(A.matrix, count, k, u), expect)
    monkeypatch.setattr(chains, "_BLOCK_CAP", 700)
    assert np.array_equal(_reinforced_draws(A.matrix, count, k, u), expect)


@pytest.mark.parametrize("name", list(ORACLE_KERNELS))
def test_block_draws_in_calls_of_the_block_cap_take_no_more_passes_than_one_call(monkeypatch, name):
    """A fallback from step 13,001 drawn in calls that end at multiples of
    ``_BLOCK_CAP`` steps, as the plan runs draw it, gives the one call's
    draws and forms no more CDFs (one per block and one per pass): the end
    of each call leaves no short block."""
    A = ORACLE_KERNELS[name]
    k0, n = 13_000, 60_000
    count = np.random.default_rng(A.d).multinomial(k0 + 1, np.ones(A.d) / A.d)
    u = path_rng(SEED).random(n - k0)
    formed = [0]
    cdf = chains._reinforced_cdf

    def counted(q, Amat):
        formed[0] += 1
        return cdf(q, Amat)

    monkeypatch.setattr(chains, "_reinforced_cdf", counted)
    whole = _reinforced_draws(A.matrix, count, k0 + 1, u)
    one_call, formed[0] = formed[0], 0
    cnt, lo = count.copy(), k0
    while lo < n:
        hi = min((lo // chains._BLOCK_CAP + 1) * chains._BLOCK_CAP, n)
        part = _reinforced_draws(A.matrix, cnt, lo + 1, u[lo - k0 : hi - k0])
        assert np.array_equal(part, whole[lo - k0 : hi - k0]), lo
        cnt = cnt + np.bincount(part, minlength=A.d)
        lo = hi
    assert formed[0] <= one_call


def test_block_draws_on_block_cdf_edges():
    """At d=4, uniforms between a BLAS block CDF and the defined CDF draw the
    defined states.

    A block CDF ``cumsum(A.T @ (C / steps))`` differs from the defined one by
    an ulp or two on about half of the rows at d=4.  Each crafted ``u`` is the
    larger value at an edge of the step's defined draw, on the side where
    the block CDF draws another state; it keeps the defined draw, so the
    counts and the block CDF stay those of the uncrafted path.
    """
    A, d = ORACLE_KERNELS["d4"].matrix, 4
    rows = A.tolist()
    count = np.array([30_000, 25_000, 20_001, 25_000])
    k, steps = int(count.sum()), 2000
    u = path_rng(SEED).random(steps)
    expect = _scalar_draws(A, count, k, u)
    C = np.empty((d, steps))
    C[:, 0] = count
    C[:, 1:] = count[:, None] + np.cumsum(np.eye(d)[:, expect[:-1]], axis=1)
    kk = np.arange(k, k + steps, dtype=float)
    block = np.cumsum(A.T @ (C / kk), axis=0)
    crafted = 0
    for t, x in enumerate(expect):
        cdf = _defined_cdf((C[:, t] / kk[t]).tolist(), rows)
        if x < d - 1 and block[x, t] < cdf[x]:
            u[t] = cdf[x]
        elif x > 0 and block[x - 1, t] > cdf[x - 1]:
            u[t] = block[x - 1, t]
        else:
            continue
        crafted += 1
    assert crafted >= 100
    assert np.array_equal(_scalar_draws(A, count, k, u), expect)
    assert np.array_equal(_reinforced_draws(A, count, k, u), expect)


def test_simulate_chain_counts_accumulate():
    path = simulate_chain(BENCH, 2, N_STEPS, SEED)
    assert path.states[0] == 2
    onehot = np.zeros((N_STEPS, 2), dtype=np.int64)
    onehot[np.arange(N_STEPS), path.states - 1] = 1
    assert np.array_equal(path.counts, np.cumsum(onehot, axis=0))
    ks = np.arange(1, N_STEPS + 1)[:, None]
    assert np.allclose(path.L, path.counts / ks)
    assert path.L[-1].sum() == pytest.approx(1.0, abs=1e-12)


def test_simulate_chain_batch_stream_zero_matches_single():
    single = simulate_chain(BENCH, 1, 60, SEED)
    batch = simulate_chain_batch(BENCH, 1, 60, 4, SEED)
    assert np.array_equal(batch[0], single.counts[-1])
    assert np.all(batch.sum(axis=1) == 60)


def _inverse_cdf_rows(prob_rows, u):
    """Smallest index x with u <= CDF(x), one draw per row (0-based), by
    counting all ``d`` CDF values below ``u`` and clamping: the draw oracle."""
    cdf = np.cumsum(prob_rows, axis=1)
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


# (row, u, draw): u equal to a CDF value, a zero-probability column (two equal
# CDF values), and u above a row total below 1, which only the clamp keeps at d-1
CRAFTED_DRAWS = [
    ([0.25, 0.25, 0.5], 0.25, 0),
    ([0.25, 0.25, 0.5], 0.5, 1),
    ([0.25, 0.25, 0.5], 0.5000000000000001, 2),
    ([0.25, 0.0, 0.75], 0.25, 0),
    ([0.25, 0.0, 0.75], 0.25000000000000006, 2),
    ([0.0, 0.5, 0.5], 0.0, 0),
    ([0.0, 0.5, 0.5], 1e-300, 1),
    ([0.3, 0.3, 0.3], 0.95, 2),
    ([0.6, 0.3], 0.95, 1),
    ([0.2, 0.2, 0.2, 0.2], 0.9, 3),
]


@pytest.mark.parametrize("row, u, draw", CRAFTED_DRAWS)
def test_column_scan_matches_the_clamped_count_on_crafted_rows(row, u, draw):
    rows = np.array([row])
    # the scan is given C_0..C_{d-2} along the first axis: the clamp stands in for C_{d-1}
    cdf = np.cumsum(rows, axis=1)[:, :-1].T
    expect = _inverse_cdf_rows(rows, np.array([u]))
    assert expect.tolist() == [draw]
    # one value per draw, and one value for every draw
    assert _column_scan(cdf, np.array([u])).tolist() == [draw]
    assert _column_scan(cdf[:, 0], np.full(3, u)).tolist() == [draw] * 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_column_scan_reads_a_strided_first_column(d):
    """Given ``C_0`` as a strided column of the rows and ``C_1..C_{d-2}`` as
    their running sums, as the plan runs give them, the scan draws as the
    clamped count over the whole CDF, into a compact integer ``out`` too;
    a quarter of the uniforms sit on a CDF value."""
    rng = np.random.default_rng(d)
    rows = rng.dirichlet(np.ones(d), size=2_000)
    rows[::7, rng.integers(d)] = 0.0  # zero-probability columns: equal CDF values
    u = rng.random(len(rows))
    on = rng.random(len(rows)) < 0.25
    full = np.cumsum(rows, axis=1)
    u[on] = full[on, rng.integers(d - 1)]
    sums = np.empty((d - 2, len(rows)))
    cdf = [rows[:, 0], *sums]
    for x in range(1, d - 1):
        np.add(cdf[x - 1], rows[:, x], out=cdf[x])
    assert not cdf[0].flags.c_contiguous
    expect = _inverse_cdf_rows(rows, u)
    assert np.array_equal(_column_scan(cdf, u), expect)
    out = np.empty(len(rows), dtype=np.min_scalar_type(d))
    assert _column_scan(cdf, u, out=out) is out
    assert np.array_equal(out, expect)


def _searchsorted_draw(cdf, u):
    """``min(searchsorted(cdf, u, "left"), d-1)``: the single-draw oracle."""
    return min(int(np.searchsorted(cdf, u, side="left")), len(cdf) - 1)


class _FixedUniforms:
    """A generator whose draws are the given uniforms, in order: ``random``
    takes a count or a shape and returns the next draws in that shape."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float).ravel()
        self.used = 0

    def random(self, size):
        count = math.prod(np.atleast_1d(size))
        out = self.u[self.used : self.used + count].reshape(size)
        self.used += count
        return out.copy()


def _segments(seed, n, n_paths):
    """Stream 0 of ``seed`` cut into ``n_paths`` consecutive segments of ``n - 1``
    draws, one row per batch path."""
    return path_rng(seed).random(n_paths * (n - 1)).reshape(n_paths, n - 1)


def test_controlled_draws_match_searchsorted_on_crafted_rows(monkeypatch):
    """Each update draws from its control's CDF as searchsorted-and-clamp does,
    with uniforms on CDF values and past zero-probability columns."""
    crafted = [case for case in CRAFTED_DRAWS if len(case[0]) == 3 and sum(case[0]) == 1.0]
    assert len(crafted) == 7
    monkeypatch.setattr(chains, "path_rng", lambda seed: _FixedUniforms([u for _, u, _ in crafted]))
    path = simulate_controlled(D3, 1, lambda k, Lbar: crafted[k - 1][0], len(crafted), SEED)
    expect = [_searchsorted_draw(np.cumsum(row), u) + 1 for row, u, _ in crafted]
    assert path.states.tolist() == expect == [draw + 1 for _, _, draw in crafted]


def _reference_batch(A, x0, segments):
    """``simulate_chain_batch`` drawing path ``p`` by :func:`_scalar_draws` on
    row ``p`` of ``segments``: the batch oracle."""
    out = np.zeros((len(segments), A.d), dtype=np.int64)
    out[:, x0 - 1] = 1
    start = out[0].copy()
    for p, up in enumerate(segments):
        out[p] += np.bincount(_scalar_draws(A.matrix, start, 1, up), minlength=A.d)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_simulate_chain_batch_matches_the_count_and_clamp_loop(monkeypatch, d):
    monkeypatch.setattr(chains, "_BATCH_CHUNK", 128)
    A = Kernel(0.9 * np.random.default_rng(d).dirichlet(np.ones(d), size=d) + 0.1 / d)
    for x0 in (1, d):
        got = simulate_chain_batch(A, x0, 40, 300, SEED + d)
        assert np.array_equal(got, _reference_batch(A, x0, _segments(SEED + d, 40, 300)))


@pytest.mark.parametrize("chunk", [3, 128, None])
@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("d", [2, 3])
def test_simulate_chain_batch_blocks_on_both_sides_of_the_size_rule(monkeypatch, d, n, chunk):
    """A block with at least as many paths as the indices its final counts
    can take (``cells``) draws one CDF column per count vector, a smaller
    one one column per path, and both draw as the reference does.

    Below the default chunk, a batch of full blocks and a last block of
    ``cells - 1`` paths takes both sides in one call when ``cells`` fits a
    chunk; with the default, one block of ``cells - 1`` and one of ``cells``.
    """
    chunk = chunk or chains._BATCH_CHUNK
    A = {2: BENCH, 3: D3}[d]
    cells = n * sum((n + 1) ** i for i in range(d - 1)) + 1
    if chunk == chains._BATCH_CHUNK:
        sizes = [s for s in (cells - 1, cells) if s]
    else:
        sizes = [chunk + cells - 1 if cells <= chunk else 2 * chunk + 1]
    sides = []

    def recorded(name):
        steps = getattr(chains, name)

        def record(Amat, x0, u):
            sides.append((name, len(u)))
            return steps(Amat, x0, u)
        return record

    for name in ("_level_steps", "_count_steps"):
        monkeypatch.setattr(chains, name, recorded(name))
    monkeypatch.setattr(chains, "_BATCH_CHUNK", chunk)
    for n_paths in sizes:
        for x0 in (1, d):
            got = simulate_chain_batch(A, x0, n, n_paths, SEED + n_paths)
            expect = _reference_batch(A, x0, _segments(SEED + n_paths, n, n_paths))
            assert np.array_equal(got, expect), (n_paths, x0)
    assert all((name == "_level_steps") == (paths >= cells) for name, paths in sides)
    both = {"_level_steps", "_count_steps"}
    assert {name for name, _ in sides} == ({"_count_steps"} if cells > chunk else both)


def test_simulate_chain_batch_on_a_wide_kernel_keeps_its_start():
    """At d = 70 the digit weights of a level index would pass 2**63, so
    even a one-step batch forms its counts per path and keeps ``x0``."""
    A = Kernel(np.full((70, 70), 1 / 70))
    for x0 in (1, 35, 70):
        assert np.array_equal(simulate_chain_batch(A, x0, 1, 3, SEED), np.tile(np.eye(70, dtype=np.int64)[x0 - 1], (3, 1)))


# row 1 of each kernel, the step-1 measure from x0 = 1: the d=3 row's float
# total is 1 - 10 * 2**-53, so a uniform can lie above it, and the d=4 row's
# C_2 = (0.1 + 0.2) + 0.3 is one ulp above 0.1 + (0.2 + 0.3) and (0.3 + 0.2) + 0.1
TIE_ROWS = {3: [0.3, 0.35, 0.349999999999999], 4: [0.1, 0.2, 0.3, 0.4]}


@pytest.mark.parametrize("d", [3, 4])
def test_simulate_chain_batch_step_one_ties(monkeypatch, d):
    """Step-1 uniforms on each scanned CDF value ``C_i``, one ulp either side of
    it, and above the row total draw as the count-and-clamp oracle does."""
    rest = 0.9 * np.random.default_rng(d).dirichlet(np.ones(d), size=d - 1) + 0.1 / d
    A = Kernel(np.vstack([TIE_ROWS[d], rest]))
    cdf = np.cumsum(A.matrix[0])
    ties = [0.0]
    draws = [0]
    for i, c in enumerate(cdf[:-1]):
        ties += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
        draws += [i, i, i + 1]
    if d == 3:
        assert cdf[-1] < np.nextafter(cdf[-1], 1.0) < 1.0 - EPS
        ties += [np.nextafter(cdf[-1], 1.0), 1.0 - EPS]
        draws += [d - 1, d - 1]

    n_paths = len(ties) + 5
    for n in (2, 12):
        u = _segments(SEED, n, n_paths)
        u[: len(ties), 0] = ties
        monkeypatch.setattr(chains, "path_rng", lambda seed: _FixedUniforms(u))
        got = simulate_chain_batch(A, 1, n, n_paths, SEED)
        assert np.array_equal(got, _reference_batch(A, 1, u))
        if n == 2:
            assert np.argmax(got[: len(ties)] - np.eye(d, dtype=np.int64)[0], axis=1).tolist() == draws


def test_non_integer_step_count_is_precondition_error():
    calls = (
        lambda n: simulate_chain(BENCH, 1, n, SEED),
        lambda n: simulate_chain_batch(BENCH, 1, n, 3, SEED),
        lambda n: simulate_chain_batch(BENCH, 1, 20, n, SEED),
        lambda n: simulate_controlled(BENCH, 1, feedback, n, SEED),
    )
    for call in calls:
        with pytest.raises(PreconditionViolation, match="must be an integer"):
            call(20.0)
    path = simulate_chain(BENCH, 1, np.int64(20), SEED)
    assert type(path.n) is int and path.n == 20
    assert type(simulate_controlled(BENCH, 1, feedback, np.int64(20), SEED).n) is int
    assert np.array_equal(simulate_chain_batch(BENCH, 1, np.int64(20), np.int64(3), SEED),
                          simulate_chain_batch(BENCH, 1, 20, 3, SEED))


@pytest.mark.parametrize("n", [1, 2, 30])
def test_simulate_chain_batch_rows_match_per_path_streams(monkeypatch, n):
    """Batch path ``p`` equals ``simulate_chain`` driven by segment ``p`` of
    the seed's stream, in one chunk and in chunks of 3, where rows 3 and 6 open a new one."""
    segments = _segments(SEED, n, 7)
    single = []
    for row in segments:
        monkeypatch.setattr(chains, "path_rng", lambda seed: _FixedUniforms(row))
        single.append(simulate_chain(D3, 2, n, SEED).counts[-1])
    monkeypatch.undo()
    for chunk in (chains._BATCH_CHUNK, 3):
        monkeypatch.setattr(chains, "_BATCH_CHUNK", chunk)
        assert np.array_equal(simulate_chain_batch(D3, 2, n, 7, SEED), single), chunk


def _blas_edge_uniforms(A, n, n_paths, seed):
    """Batch segments with each path's first uniform between its BLAS batch
    row and its numpy 1-D row set to the largest of those and the defined
    CDF value.

    On the uncrafted paths, step ``k`` forms the rows ``cumsum((counts / k)
    @ A)`` of all paths in one matrix product, and path ``p``'s 1-D row
    ``cumsum((counts[p] / k) @ A)``.  At the first step where the two differ
    at a scanned edge, the path's uniform is set to the largest of the
    three values there, so the two rows draw on two sides of it; the path's
    later uniforms stay.  Returns the uniforms and the crafted step of each
    path (-1 for none).
    """
    u = _segments(seed, n, n_paths)
    rows = A.matrix.tolist()
    counts = np.zeros((n_paths, A.d))
    counts[:, 0] = 1.0
    crafted = np.full(n_paths, -1)
    for k in range(1, n):
        q = counts / float(k)
        batch = np.cumsum(q @ A.matrix, axis=1)
        for p in range(n_paths):
            cdf = _defined_cdf(q[p].tolist(), rows)
            if crafted[p] < 0:
                one = np.cumsum(q[p] @ A.matrix)
                edges = np.flatnonzero(batch[p, :-1] != one[:-1])
                if edges.size:
                    i = edges[0]
                    u[p, k - 1] = max(batch[p, i], one[i], cdf[i])
                    crafted[p] = k
            counts[p, sum(u[p, k - 1] > c for c in cdf)] += 1.0
    return u, crafted


@pytest.mark.parametrize("d", [4, 5])
def test_simulate_chain_batch_rows_equal_their_streams_on_blas_edges(monkeypatch, d):
    """Batch path ``i`` equals ``simulate_chain`` on segment ``i`` where a
    matrix product's row and numpy's 1-D row of its measure draw apart.

    Each path gets one uniform on the first edge where its row of the
    batch's matrix product and its 1-D row differ; both draws are the
    defined one.
    """
    A, n, n_paths, seed = _random_kernel(d, d), 40, 512, 7
    u, crafted = _blas_edge_uniforms(A, n, n_paths, seed)
    assert (crafted > 0).sum() >= 50 and crafted[0] > 0
    monkeypatch.setattr(chains, "path_rng", lambda seed: _FixedUniforms(u))
    batch = simulate_chain_batch(A, 1, n, n_paths, seed)
    for i in range(n_paths):
        monkeypatch.setattr(chains, "path_rng", lambda seed, row=u[i]: _FixedUniforms(row))
        assert np.array_equal(batch[i], simulate_chain(A, 1, n, seed).counts[-1]), i
    assert np.array_equal(batch, _reference_batch(A, 1, u))


def test_non_integer_seed_or_stream_is_precondition_error():
    calls = (
        lambda s: simulate_chain(BENCH, 1, 10, s),
        lambda s: simulate_chain_batch(BENCH, 1, 10, 3, s),
        lambda s: simulate_controlled(BENCH, 1, feedback, 10, s),
        path_rng,
    )
    for call in calls:
        for bad in (1.5, 2.0, "3"):
            with pytest.raises(PreconditionViolation, match="must be an integer"):
                call(bad)
    # negative seeds are reduced mod 2**64
    assert np.array_equal(simulate_chain(BENCH, 1, 30, -1).states, simulate_chain(BENCH, 1, 30, 2**64 - 1).states)
    assert np.array_equal(path_rng(-2).random(5), path_rng(2**64 - 2).random(5))


def test_x0_validation():
    with pytest.raises(DimensionMismatch):
        simulate_chain(BENCH, 3, 10, SEED)
    with pytest.raises(DimensionMismatch):
        simulate_chain(BENCH, 0, 10, SEED)


def test_non_integer_start_state_is_precondition_error():
    calls = (
        lambda x0: simulate_chain(BENCH, x0, 10, SEED),
        lambda x0: simulate_chain_batch(BENCH, x0, 10, 3, SEED),
        lambda x0: simulate_controlled(BENCH, x0, feedback, 10, SEED),
    )
    for call in calls:
        for x0 in (1.7, 2.0):
            with pytest.raises(PreconditionViolation, match="x0 must be an integer"):
                call(x0)
    path = simulate_chain(BENCH, np.int64(2), 10, SEED)
    assert type(path.x0) is int and np.array_equal(path.states, simulate_chain(BENCH, 2, 10, SEED).states)


def test_controlled_reference_policy_has_zero_cost():
    """Feeding Lbar A back as the control makes both occupation measures equal."""
    path = simulate_controlled(BENCH, 1, feedback, N_STEPS, SEED)
    rho = path.Lbar[:-1] @ BENCH.matrix
    # policy rows are renormalized on ingestion, so equality is up to one ulp
    assert np.allclose(path.mu, rho, atol=1e-15, rtol=0.0)
    lhs, rhs = verify_chain_rule_identity(path, BENCH)
    assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12


@pytest.mark.parametrize("A, x0", [(BENCH, 1), (D3, 3)], ids=["d2", "d3"])
def test_controlled_counts_form(A, x0):
    """``Lbar[k] = (e_x0 + counts_k) / (k+1)``, with the counts of the first k states."""
    n = 300
    path = simulate_controlled(A, x0, lambda k, Lbar: Lbar @ A.matrix, n, SEED)
    e0 = np.zeros(A.d)
    e0[x0 - 1] = 1.0
    assert np.array_equal(path.Lbar[0], e0)
    counts = np.zeros(A.d)
    for k in range(1, n + 1):
        counts[path.states[k - 1] - 1] += 1
        assert np.array_equal(path.Lbar[k], (e0 + counts) / (k + 1)), k


def _running_measure_by_state(states, x0, d):
    """``Lbar`` with one running count per state, each divided by ``k+1``."""
    n = states.size
    Lbar = np.empty((n + 1, d))
    Lbar[0] = 0.0
    Lbar[0, x0 - 1] = 1.0
    steps = np.arange(2, n + 2, dtype=float)
    for x in range(d):
        Lbar[1:, x] = (np.cumsum(states == x, dtype=float) + Lbar[0, x]) / steps
    return Lbar


@pytest.mark.parametrize("d", [2, 3, 4])
def test_running_measure_takes_the_last_count_as_the_remainder(d):
    """The last column from ``(k+1)`` minus the other numerators keeps every
    byte, whole or in blocks that carry the exact counts, and every entry of
    a reused buffer is written."""
    rng = np.random.default_rng(d)
    for x0 in range(1, d + 1):
        for n in (1, 2, 37, 5000):
            states = rng.choice(d, size=n, p=rng.dirichlet(np.ones(d)))
            want = _running_measure_by_state(states, x0, d)
            for block in (n, 1, 700):
                got = np.full((n + 1, d), np.nan)
                got[0] = want[0]
                carry = want[0].copy()
                for lo in range(0, n, block):
                    hi = min(lo + block, n)
                    steps = np.arange(lo + 2.0, hi + 2.0)
                    chains._running_measure(states[lo:hi], carry, got[lo + 1 : hi + 1], steps, np.full(hi - lo, np.nan))
                    assert np.array_equal(carry, want[0] + np.bincount(states[:hi], minlength=d)), (x0, n, block, hi)
                assert got.tobytes() == want.tobytes(), (x0, n, block)


def test_policy_sees_the_stored_measure():
    seen = []

    def recording(k, Lbar):
        seen.append(np.array(Lbar))
        return 0.5 * (Lbar @ D3.matrix) + 0.5 * np.array([0.2, 0.5, 0.3])

    path = simulate_controlled(D3, 2, recording, 200, SEED)
    assert len(seen) == 200
    for k, row in enumerate(seen, start=1):
        assert np.array_equal(row, path.Lbar[k - 1]), k


def test_chain_rule_identity_random_policies():
    rng = np.random.default_rng(7)
    for trial in range(5):
        mix = rng.uniform(0.2, 0.8)
        target = rng.dirichlet(np.ones(2))

        def policy(k, Lbar, mix=mix, target=target):
            return mix * (Lbar @ BENCH.matrix) + (1 - mix) * target

        path = simulate_controlled(BENCH, 1, policy, 100, SEED + trial)
        lhs, rhs = verify_chain_rule_identity(path, BENCH)
        assert abs(lhs - rhs) <= 1e-8
        assert lhs >= 0.0


def test_policy_outside_kernel_support_raises():
    bad = Kernel([[0.9, 0.1], [0.2, 0.8]])

    def policy(k, Lbar):
        return np.array([1.0, 0.0])

    path = simulate_controlled(bad, 2, policy, 30, SEED)
    # control mass on state 1 is fine here; cost stays finite
    lhs, rhs = verify_chain_rule_identity(path, bad)
    assert math.isfinite(lhs) and math.isfinite(rhs)


def test_export_path_csv_shape(tmp_path):
    path = simulate_chain(BENCH, 1, 5, SEED)
    out = tmp_path / "path.csv"
    export_path_csv(path, out, "config_sha256=deadbeef seed=42")
    lines = out.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef seed=42"
    assert lines[1] == "step,state,L_1,L_2"
    assert len(lines) == 2 + 5
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "1"
