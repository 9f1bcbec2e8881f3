"""Reinforced-chain simulation, controlled companions, and the chain-rule check.

The reinforced chain on ``{1..d}`` starts at ``x0`` and, given the running
empirical measure ``L^k = (count vector after k steps) / k``, draws its next
state from ``L^k A``.  The controlled companion replaces ``L^k A`` with an
arbitrary history-dependent distribution and is the basis of the
lower-bound experiments.

A deterministic time grid ``t_k = sum_{j=1..k} 1/(j+1)`` (harmonic tail)
turns step indices into continuous time.  :func:`_time_grid` builds it
without a Python loop as the correctly rounded sum of the doubles
``fl(1/(j+1))``: one exact int64 prefix sum of two limbs per term, for
``n < 2**28``.  The pair of discounted occupation measures built from a controlled
path on that grid satisfies the chain-rule identity checked by
:func:`verify_chain_rule_identity`.

Randomness: a counter-based Philox generator keyed by ``(seed, stream)``,
one independent stream per path, so batched and per-path simulations are
bitwise reproducible regardless of scheduling.  Single paths draw from a
numpy ``Generator`` over ``np.random.Philox``; a batch draws all its
uniforms at once from :func:`philox_uniforms`, a vectorized Philox4x64-10
(Salmon, Moraes, Dror & Shaw, SC'11) that reproduces numpy's Philox
streams bit for bit.  Its rounds run in place on uint64 arrays allocated
once per call, and it stores the uniforms word-major, so a batch step
reads its column of uniforms contiguously.  Block ``b`` starts from the
counter ``(b+1, 0, 0, 0)`` and the key ``(seed, stream)``, so three of its
twenty products are the same for every stream and are Python-int
products: round 0's ``M0 (b+1)`` and ``M1 0``, and round 1's ``M0 seed``.

Every state is drawn by one rule, the column scan
``x = sum_{i<d-1} [u > C_i]`` over a CDF ``C``: the smallest ``x`` with
``u <= C_x``, clamped to ``d-1``.  Controlled steps and
:func:`~reinforced_ldp.lowerbound.run_plan` scan the CDFs they are given
(:func:`_column_scan`): ``C_0..C_{d-2}`` only, along the first axis, as
one array or as a sequence of arrays, so a plan run scans the first
column of its control rows as ``C_0`` without a copy and writes its draws
into one-byte states.  A reinforced step draws from ``L^k A``, whose CDF
is defined, for the measure ``q = count / k``, as the plain IEEE sums
``m_y = q_0 A_0y + ... + q_{d-1} A_{d-1,y}`` and ``C_i = m_0 + ... + m_i``
in index order.  One function forms and scans it, :func:`_reinforced_scan`,
one numpy ufunc per product and add, so a value does not depend on how
many draws are formed at once or on the BLAS.  A batch step scans the
counts of all its paths at once, and a single path, and the fallback of
``run_plan``, draw in blocks (:func:`_reinforced_draws`): each pass over a
block scans the measures of all its steps from a guess of their draws,
and the draws a pass leaves unchanged are the sequential ones.  So every
draw of a batch path equals the single path's on its stream.  Every
controlled path's ``Lbar`` comes from one builder, :func:`_running_measure`,
and both sides of the chain-rule identity from :func:`_chain_rule_sides`.
Like the column scans and the block draws, both write into arrays their
caller gives, so the plan runs of one horizon draw all their seeds on one
set of buffers.

:func:`export_path_csv` writes ``L^k`` one row per step through
:func:`~reinforced_ldp._format.write_array_csv`, which formats blocks of
rows in numpy: integer digits by a vectorized floor divide, and the 17 ``%.17g``
digits of ``0`` and of every value in ``[1e-39, 1)`` in integer arithmetic,
from 128-bit products (:func:`~reinforced_ldp._format.mulhilo64`, which the
Philox rounds share).  Other values (``1``) go through ``f17``, so the
bytes equal a row-by-row ``%.17g``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from ._format import mulhilo64, write_array_csv
from .errors import DimensionMismatch, PolicyError, PreconditionViolation, ResourceLimitExceeded
from .measures import Kernel, _as_count

_MASK64 = (1 << 64) - 1
# most steps per block of _reinforced_draws, which holds a few (steps, d) arrays at once
_BLOCK_CAP = 8192
# paths per block of simulate_chain_batch, which holds the block's uniforms at once
_BATCH_CHUNK = 8192
_INFINITE_COST = "infinite running cost: control mass escaped the kernel support"

# Philox4x64-10 constants: round multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_SHIFT11 = np.uint64(11)


def _stream_key(seed: int, streams) -> tuple[int, np.ndarray]:
    """Philox key words ``(seed, stream)``, each reduced mod 2**64.

    ``streams`` is one stream or an array of them; the stream words come
    back as a uint64 array of that shape.  The seed and every stream must
    be integers; a negative one is reduced like any other.
    """
    if isinstance(streams, np.ndarray) and streams.dtype.kind in "iu":
        words = streams.astype(np.uint64)  # the cast wraps mod 2**64
    else:
        obj = np.asarray(streams, dtype=object)
        words = [_as_count(w, "stream") & _MASK64 for w in obj.flat]
        words = np.array(words, dtype=np.uint64).reshape(obj.shape)
    return _as_count(seed, "seed") & _MASK64, words


def path_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for stream ``stream`` of seed ``seed``."""
    k0, k1 = _stream_key(seed, stream)
    return np.random.Generator(np.random.Philox(key=k0 | (int(k1) << 64)))


def philox_uniforms(seed: int, streams, count: int) -> np.ndarray:
    """Uniforms of shape ``(len(streams), count)``, row i equal bit for bit
    to ``path_rng(seed, streams[i]).random(count)``.

    The Philox4x64-10 rounds run on uint64 arrays with one element per
    stream, allocated once per call and reused by every round of every
    block: the counter words, the products of :func:`mulhilo64` and its
    scratch, and the key word ``stream``, advanced in place.  The key word
    ``seed`` is the same for every stream and stays a Python int.  As in
    numpy, block ``b`` is the image of counter ``(b+1, 0, 0, 0)`` under key
    ``(seed, stream)``, its four words are used in order, and word ``w``
    becomes the double ``(w >> 11) * 2**-53``.  The result is the transpose
    of a C-ordered ``(count, len(streams))`` array, so the uniforms of one
    draw index across all streams are contiguous.

    Three of a block's twenty products take the same value for every
    stream, and each is one Python-int product.  Round 0 multiplies the
    counter words ``b+1`` and ``0``: ``M1 * 0 = 0``, so with ``p = M0 (b+1)``
    it leaves ``(seed, 0, hi(p) ^ stream, lo(p))``.  Round 1 multiplies that
    first word, the key word ``seed`` before its Weyl step, by ``M0``.  Only
    its other product and the eight rounds after it run on arrays.
    """
    count = _as_count(count, "philox_uniforms: count")
    if count < 0:
        raise PreconditionViolation(f"philox_uniforms: count must be >= 0, got {count}")
    k0, k1 = _stream_key(seed, streams)
    k1 = k1.ravel()
    r = k1.size
    blocks = -(-count // 4)
    out = np.empty((4 * blocks, r))
    c0, c1, c2, c3, hi1, lo0, lo1, t1, t2, key1 = np.empty((10, r), dtype=np.uint64)
    m0 = int(_PHILOX_M[0])
    s = m0 * k0  # round 1's M0 product, the same in every block
    for b in range(blocks):
        p = m0 * (b + 1)  # round 0's M0 product
        np.bitwise_xor(k1, p >> 64, out=c2)
        key0 = (k0 + _PHILOX_W[0]) & _MASK64
        np.add(k1, _PHILOX_W[1], out=key1)
        # round 1 on (seed, 0, c2, lo(p)): (hi1 ^ key0, lo1, hi(s) ^ lo(p) ^ key1, lo(s))
        mulhilo64(_PHILOX_M[1], c2, out=(hi1, lo1), scratch=(t1, t2))
        np.bitwise_xor(hi1, key0, out=c0)
        np.bitwise_xor(key1, (s >> 64) ^ (p & _MASK64), out=c2)
        c1, lo1 = lo1, c1
        c3.fill(s & _MASK64)
        for _ in range(2, _PHILOX_ROUNDS):
            key0 = (key0 + _PHILOX_W[0]) & _MASK64
            key1 += _PHILOX_W[1]
            # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0);
            # hi0 is written into c2, which the first product has already read
            mulhilo64(_PHILOX_M[1], c2, out=(hi1, lo1), scratch=(t1, t2))
            mulhilo64(_PHILOX_M[0], c0, out=(c2, lo0), scratch=(t1, t2))
            c2 ^= c3
            c2 ^= key1
            np.bitwise_xor(hi1, c1, out=c0)
            c0 ^= key0
            c1, lo1 = lo1, c1
            c3, lo0 = lo0, c3
        for j, c in enumerate((c0, c1, c2, c3)):
            np.right_shift(c, _SHIFT11, out=t1)
            np.multiply(t1, 2.0**-53, out=out[4 * b + j])
    return out[:count].T


@functools.lru_cache(maxsize=8, typed=True)
def _time_grid(n: int) -> np.ndarray:
    """The read-only clock ``t_k``, ``k = 0..n``: the exact sum of the doubles
    ``x_j = fl(1/(j+1))``, ``j = 1..k``, correctly rounded.

    With ``b = n.bit_length()``, every ``x_j >= 2**-b`` is a multiple of its
    ulp, so of ``2**-P`` with ``P = 54 + b``.  Each splits exactly into
    integer limbs ``hi = floor(x 2**48)`` and ``lo = (x - hi 2**-48) 2**P <
    2**(b+6)``; ``np.cumsum`` sums both in int64, ``lo``'s overflow is carried
    into ``hi``, and ``t_k = H 2**-48 + L 2**-P`` adds two exact doubles in
    one rounding.  ``H <= t_n 2**48 < 2**53`` and ``L <= n 2**(b+6) <
    2**(2b+6)``, so no limb overflows while ``2b + 6 < 63``: ``n < 2**28``.
    A larger ``n`` raises before anything is allocated (each array of its
    clock would take 2 GiB).  For every ``k <= 3,000,000`` the clock equals
    the compensated (Kahan) running sum of the ``x_j`` bit for bit; a plain
    running sum does not.

    ``t_n - log(n+1)`` is pinned near the Euler-Mascheroni constant minus
    one by a ``O(1/n)`` bracket, so the grid spans ``~ log n`` units of
    continuous time and the index below ``t_n - t`` grows like ``n e^{-t}``.
    The index of ``t`` is ``searchsorted(times, t, side="right") - 1``, the
    largest ``k`` with ``t_k <= t``.  The cache is typed, so ``2.0`` misses
    the entry of ``2`` and is rejected as not an integer.
    """
    n = _as_count(n, "time grid: n")
    if n < 1:
        raise PreconditionViolation(f"time grid: n must be >= 1, got {n}")
    b = n.bit_length()
    if 2 * b + 6 >= 63:
        raise ResourceLimitExceeded(f"time grid: n must be below 2**28, got {n}")
    p = 54 + b
    x = 1.0 / np.arange(2.0, n + 2.0)
    hi = np.floor(x * 2.0**48)
    x -= hi * 2.0**-48
    x *= 2.0**p
    H = np.cumsum(hi.astype(np.int64))
    L = np.cumsum(x.astype(np.int64))
    H += L >> (p - 48)
    L &= (1 << (p - 48)) - 1
    t = np.empty(n + 1)
    t[0] = 0.0
    np.multiply(H, 2.0**-48, out=t[1:])
    t[1:] += L * 2.0**-p
    t.flags.writeable = False
    return t


def _validate_x0(x0, d: int) -> int:
    """The 1-based start state ``x0`` as a Python int in ``1..d``."""
    x0 = _as_count(x0, "x0")
    if not 1 <= x0 <= d:
        raise DimensionMismatch(f"x0={x0} outside 1..{d}")
    return x0


def _column_scan(cdf, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0-based draws ``x = sum_i [u > C_i]``, one CDF column at a time.

    ``cdf`` holds the CDF values ``C_0..C_{d-2}`` of a ``d``-state row along
    its first axis, an array or a sequence of arrays, and every column
    given is counted: a value for every draw, or an array of ``u``'s shape,
    any view of the caller's (the plan runs scan ``C_0`` as a column of
    their control rows).  For a nonnegative row the float CDF is
    nondecreasing, so ``x`` is the smallest index with ``u <= C_x``, clamped
    to ``d-1``; ``C_{d-1}``, which the clamp makes moot, is left out, so a
    one-state row has no column and draws 0.  The draws go into ``out``, an
    integer array of ``u``'s shape wide enough for ``d-1``, when it is given.
    """
    x = np.empty(u.shape, dtype=np.int64) if out is None else out
    x.fill(0)
    for c in cdf:
        x += u > c
    return x


# ---------------------------------------------------------------------------
# reinforced chain


@dataclass(frozen=True, eq=False)
class ChainPath:
    """One reinforced-chain trajectory.

    ``states[k]`` is ``X_k`` (1-based) for ``k = 0..n-1``; ``counts[k-1]``
    holds the occupancy counts of the first ``k`` states, and
    ``L[k-1] = counts[k-1] / k`` is the running empirical measure.
    """

    n: int
    d: int
    x0: int
    seed: int
    states: np.ndarray
    counts: np.ndarray
    L: np.ndarray


def _reinforced_scan(q: np.ndarray, Amat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """0-based reinforced draws ``x = sum_{i<d-1} [u > C_i]`` from the measures ``q``.

    ``q`` holds the states along its first axis: a ``(d,)`` vector for every
    draw, or one column per draw.  The masses are ``m_y = q_0 A_0y + ... +
    q_{d-1} A_{d-1,y}`` and the CDF values ``C_i = m_0 + ... + m_i``, each
    product and add one numpy ufunc in index order.  So every value is
    rounded as the plain IEEE sum is, whatever the shape of ``q`` or the
    BLAS, and a draw depends only on its own ``q`` and ``u``.  As in
    :func:`_column_scan`, only ``C_0..C_{d-2}`` are formed: ``x`` is the
    smallest index with ``u <= C_x``, clamped to ``d-1``.
    """
    d = Amat.shape[0]
    x = np.zeros(u.shape, dtype=np.int64)
    c = 0.0
    for y in range(d - 1):
        m = q[0] * Amat[0, y]
        for i in range(1, d):
            m = m + q[i] * Amat[i, y]
        c = c + m
        x += u > c
    return x


def _reinforced_draws(Amat: np.ndarray, count, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0-based states of ``len(u)`` reinforced draws from ``count`` after ``k`` steps.

    Step ``t`` draws by :func:`_reinforced_scan` of ``count / k``, then adds
    one to ``count[x]`` and to ``k``; ``count`` holds exact integers summing
    to ``k``.  The steps run in blocks, each solved by a fixed-point
    iteration in numpy, and every draw equals the sequential one bit for bit.
    The states go into ``out``, an integer array of ``u``'s size wide enough
    for ``d-1``, when it is given.

    A block covers ``B = min(max(64, k // 8), _BLOCK_CAP)`` steps from the
    counts ``cnt`` at its first step ``k``, and its first guess draws every
    step from the measure at that step.  A pass redraws every step of the
    guess from the counts the guess implies, ``C = cnt + cumsum(one-hot of
    the earlier draws)``, by one scan of ``C / steps`` (states along the
    first axis).  A step's measure depends only on the draws before it, and
    the scan rounds each column as it rounds a lone vector, so the draws up
    to and including the first one a pass changes are final; the next pass
    starts after it.  So every pass settles at least one draw, and a block
    ends at the first pass that changes nothing: the sequential draws.
    """
    d = Amat.shape[0]
    if out is None:
        out = np.empty(u.size, dtype=np.int64)
    cnt = np.array(count, dtype=float)
    t = 0
    while t < u.size:
        b = min(max(64, (k + t) // 8), _BLOCK_CAP, u.size - t)
        x = _reinforced_scan(cnt / (k + t), Amat, u[t : t + b])
        while x.size:
            # one pass over the unsettled steps t .. t + x.size - 1
            steps = np.arange(k + t, k + t + x.size, dtype=float)
            C = np.zeros((d, x.size))
            for i in range(d):
                # the indicator is written as floats: a running sum of bools copies them first
                np.equal(x[:-1], i, out=C[i, 1:])
                np.cumsum(C[i, 1:], out=C[i, 1:])
            C += cnt[:, None]
            y = _reinforced_scan(C / steps, Amat, u[t : t + x.size])
            changed = np.flatnonzero(x != y)
            f = changed[0] + 1 if changed.size else y.size
            out[t : t + f] = y[:f]
            cnt += np.bincount(y[:f], minlength=d)
            t += f
            x = y[f:]
    return out


def simulate_chain(A: Kernel, x0: int, n: int, seed: int) -> ChainPath:
    """Simulate ``n`` steps of the reinforced chain (stream 0 of ``seed``)."""
    n = _as_count(n, "simulate_chain: n")
    if n < 1:
        raise PreconditionViolation(f"simulate_chain: n must be >= 1, got {n}")
    d = A.d
    x0 = _validate_x0(x0, d)
    count = np.zeros(d, dtype=np.int64)
    count[x0 - 1] = 1
    states = np.empty(n, dtype=np.int64)
    states[0] = x0 - 1
    states[1:] = _reinforced_draws(A.matrix, count, 1, path_rng(seed, 0).random(n - 1))
    counts = np.zeros((n, d), dtype=np.int64)
    counts[np.arange(n), states] = 1
    np.cumsum(counts, axis=0, out=counts)
    states += 1
    L = counts / np.arange(1.0, n + 1.0)[:, None]
    for arr in (states, counts, L):
        arr.flags.writeable = False
    return ChainPath(n=n, d=d, x0=x0, seed=int(seed), states=states, counts=counts, L=L)


def simulate_chain_batch(A: Kernel, x0: int, n: int, n_paths: int, seed: int) -> np.ndarray:
    """Final count vectors of ``n_paths`` independent chains, shape (n_paths, d).

    Path ``i`` consumes stream ``i`` of ``seed`` and draws by the same
    :func:`_reinforced_scan` as a single path, so row ``i`` equals
    ``simulate_chain`` on stream ``i`` by construction; path 0 reproduces
    ``simulate_chain(A, x0, n, seed)``.  Paths run in blocks of
    ``_BATCH_CHUNK``, and each block draws its uniforms with one call of
    :func:`philox_uniforms`.  The counts are held as a ``(d, paths)``
    float64 array of exact integers, so ``counts / k`` gives the doubles
    int64 counts would, and each step scans it with one column per path.
    The draws go into the counts by one masked add per state, ``counts[i]
    += (x == i)``, with no scatter.
    """
    n = _as_count(n, "simulate_chain_batch: n")
    n_paths = _as_count(n_paths, "simulate_chain_batch: n_paths")
    if n < 1 or n_paths < 1:
        raise PreconditionViolation("simulate_chain_batch: n and n_paths must be >= 1")
    d = A.d
    x0 = _validate_x0(x0, d)
    Amat = A.matrix
    out = np.empty((n_paths, d), dtype=np.int64)
    for lo in range(0, n_paths, _BATCH_CHUNK):
        hi = min(lo + _BATCH_CHUNK, n_paths)
        u = philox_uniforms(seed, np.arange(lo, hi), n - 1)
        counts = np.zeros((d, hi - lo))
        counts[x0 - 1] = 1.0
        for k in range(1, n):
            x = _reinforced_scan(counts / float(k), Amat, u[:, k - 1])
            for i in range(d):
                counts[i] += x == i
        out[lo:hi] = counts.T
        del u  # before the next block draws its own
    return out


# ---------------------------------------------------------------------------
# controlled companion


@dataclass(frozen=True, eq=False)
class ControlledPath:
    """A controlled companion trajectory over horizon ``n``.

    ``Lbar[k]`` for ``k = 0..n`` is the measure after ``k`` controlled
    updates (``Lbar[0]`` is the point mass at ``x0``); ``mu[k-1]`` is the
    control used by update ``k`` and ``states[k-1]`` the sampled state.
    ``Lbar[k] = (e_x0 + counts_k) / (k+1)``, where ``counts_k`` counts the
    states of the first ``k`` updates (see :func:`_running_measure`).
    ``states`` is int64 from :func:`simulate_controlled`; a plan path's
    (:func:`~reinforced_ldp.lowerbound.run_plan`) uses the smallest
    unsigned dtype that holds ``d``, ``np.min_scalar_type(d)``, one byte up
    to 255 states.
    """

    n: int
    d: int
    x0: int
    seed: int
    states: np.ndarray
    mu: np.ndarray
    Lbar: np.ndarray


def _clean_policy_row(p, d: int, step: int) -> np.ndarray:
    w = np.asarray(p, dtype=float)
    if w.shape != (d,) or not np.all(np.isfinite(w)):
        raise PolicyError(f"policy returned an invalid distribution at step {step}")
    lo = float(w.min())
    if lo < -1e-9:
        raise PolicyError(f"policy returned negative mass {lo:.3e} at step {step}")
    if lo < 0.0:
        w = np.maximum(w, 0.0)
    s = float(w.sum())
    if abs(s - 1.0) > 1e-9:
        raise PolicyError(f"policy weights sum to {s!r} at step {step}")
    return w / s


def _running_measure(states: np.ndarray, x0: int, Lbar: np.ndarray, steps: np.ndarray, counts: np.ndarray) -> None:
    """Fill ``Lbar``, shape ``(n+1, d)``, with the running measure of a controlled path.

    ``states`` holds the 0-based states ``X_1..X_n``, ``steps`` the
    divisors ``2..n+1``, and ``counts`` is a float scratch of ``n``
    entries.  ``Lbar[k, x] = (e_x0[x] + #{i <= k : X_i = x}) / (k+1)``,
    each count an exact integer, so every entry is one rounding from its
    value.  The first ``d - 1`` numerators are running counts; the last is
    the exact integer remainder ``(k+1)`` minus their sum.  Each count is
    formed in the contiguous scratch, as floats from the start: a running
    sum that casts a bool indicator copies all of it first, and writing
    the indicator into a strided column of ``Lbar`` takes about ten times
    as long.
    """
    d = Lbar.shape[1]
    Lbar[0] = 0.0
    Lbar[0, x0 - 1] = 1.0
    rest = Lbar[1:, d - 1]
    rest[...] = steps
    for x in range(d - 1):
        np.equal(states, x, out=counts)
        np.cumsum(counts, out=counts)
        counts += Lbar[0, x]
        rest -= counts
        np.divide(counts, steps, out=Lbar[1:, x])
    rest /= steps


def simulate_controlled(A: Kernel, x0: int, policy, n: int, seed: int) -> ControlledPath:
    """Run ``n`` controlled updates from the point mass at ``x0``.

    ``policy(k, Lbar)`` supplies the distribution of update ``k`` given the
    measure after ``k-1`` updates, for ``k = 1..n``.  That measure is
    ``(e_x0 + counts) / k`` from the running counts in exact integers, equal
    bit for bit to the returned ``Lbar[k-1]``.
    """
    n = _as_count(n, "simulate_controlled: n")
    if n < 1:
        raise PreconditionViolation(f"simulate_controlled: n must be >= 1, got {n}")
    d = A.d
    x0 = _validate_x0(x0, d)
    uniforms = path_rng(seed, 0).random(n)
    mu = np.empty((n, d))
    states = np.empty(n, dtype=np.int64)
    # e_x0 + counts: exact integers, so dividing by k rounds once
    running = np.zeros(d)
    running[x0 - 1] = 1.0
    for k in range(1, n + 1):
        w = _clean_policy_row(policy(k, running / k), d, k)
        mu[k - 1] = w
        x = int(_column_scan(np.cumsum(w)[:-1], uniforms[k - 1 : k])[0])
        states[k - 1] = x
        running[x] += 1.0
    Lbar = np.empty((n + 1, d))
    _running_measure(states, x0, Lbar, np.arange(2.0, n + 2.0), np.empty(n))
    states += 1
    for arr in (states, mu, Lbar):
        arr.flags.writeable = False
    return ControlledPath(n=n, d=d, x0=x0, seed=int(seed), states=states, mu=mu, Lbar=Lbar)


def _chain_rule_sides(path: ControlledPath, A: Kernel, scratch: np.ndarray, stepsum: bool = True):
    """The two sides of the chain-rule identity on the caller's ``scratch``.

    ``scratch`` holds two arrays of ``mu``'s shape, ``rho`` and the atoms,
    and both are overwritten.  ``rho = Lbar[:n] A`` is one product.  The
    right side, ``(1/n) sum_k R(mu_k || rho_k)``, is formed in the atoms
    and summed; with ``stepsum`` false it is skipped and returned as None.
    The left side is the relative entropy between the two discounted
    occupation measures, whose atoms on (state, reversed-time bin) are
    ``mu_k / n`` and ``rho_k / n``: they are divided in step order and
    summed in reversed-time order, so the value equals ``rel_entr(mu[::-1]
    / n, rho[::-1] / n).sum()`` bit for bit.  A side that is not finite
    raises :class:`PolicyError`.
    """
    n = path.n
    rho, atoms = scratch
    np.matmul(path.Lbar[:n], A.matrix, out=rho)
    rhs = None
    if stepsum:
        rel_entr(path.mu, rho, out=atoms)
        rhs = float(atoms.sum() / n)
        if not np.isfinite(rhs):
            raise PolicyError(_INFINITE_COST)
    rho /= n
    np.divide(path.mu, n, out=atoms)
    rel_entr(atoms, rho, out=rho)
    # the rows reversed, each copied as one record: a 2-d copy goes entry by entry
    record = np.dtype((np.void, rho.itemsize * rho.shape[1]))
    atoms.view(record)[:, 0] = rho.view(record)[::-1, 0]
    lhs = float(atoms.sum())
    if not np.isfinite(lhs):
        raise PolicyError(_INFINITE_COST)
    return lhs, rhs


def verify_chain_rule_identity(path: ControlledPath, A: Kernel) -> tuple[float, float]:
    """Running cost computed two ways.

    Left: relative entropy between the two discounted occupation measures,
    whose atoms on (state, reversed-time bin) are ``mu_k / n`` and ``rho_k
    / n`` with ``rho_k = Lbar_{k-1} A``.  Right: the per-step average
    ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)``.  The two agree to
    floating-point rounding.  Both come from :func:`_chain_rule_sides` on
    fresh scratch, which the runs of
    :func:`~reinforced_ldp.lowerbound.run_plan` and the cost trend of
    :func:`~reinforced_ldp.lowerbound.check_cost_convergence` also use, on
    one scratch per horizon; the trend computes the left side only, with
    these bits.
    """
    return _chain_rule_sides(path, A, np.empty((2,) + path.mu.shape))


# ---------------------------------------------------------------------------
# CSV export


def export_path_csv(path: ChainPath, file, provenance: str | None = None) -> None:
    """Write a chain path as rows ``step, state, L_1..L_d``, floats as ``%.17g``.

    The rows go through :func:`~reinforced_ldp._format.write_array_csv`,
    which formats blocks of rows in numpy: zeros and the ``L`` values in
    ``[1e-39, 1)``, in fixed or exponent form, get integer-arithmetic
    digits, and every other value (``1``) goes through ``f17``.  An entry
    of ``L^k`` is ``0`` or at least ``1/k``.
    """
    header = ["step", "state"] + [f"L_{x}" for x in range(1, path.d + 1)]
    steps = np.arange(1, len(path.L) + 1)
    write_array_csv(file, header, [steps, path.states], path.L, provenance)
