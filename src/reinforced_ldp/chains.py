"""Reinforced-chain simulation, controlled companions, and the chain-rule check.

The reinforced chain on ``{1..d}`` starts at ``x0`` and, given the running
empirical measure ``L^k = (count vector after k steps) / k``, draws its next
state from ``L^k A``.  The controlled companion replaces ``L^k A`` with an
arbitrary history-dependent distribution and is the basis of the
lower-bound experiments.

A deterministic time grid ``t_k = sum_{j=1..k} 1/(j+1)`` (harmonic tail)
turns step indices into continuous time.  :func:`_time_grid` builds it
without a Python loop as the correctly rounded sum of the doubles
``fl(1/(j+1))``: an exact int64 prefix sum of two limbs per term, in
blocks of terms, for ``n < 2**28``.  The pair of discounted occupation measures built from a controlled
path on that grid satisfies the chain-rule identity checked by
:func:`verify_chain_rule_identity`.

Randomness: every draw comes from :func:`path_rng`, a numpy ``Generator``
over ``np.random.Philox`` keyed by the seed.  A single path, a controlled
path and a plan run read the stream of their seed from its start.  A
batch reads the stream of its seed in segments, one per path, so batch
path ``p`` is the single path driven by segment ``p``, whatever the
batch's chunking.

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
in index order.  One function forms it, :func:`_reinforced_cdf`, one
numpy ufunc per product and add, so a value does not depend on how many
measures are formed at once or on the BLAS, and :func:`_column_scan`
scans it.  A batch step forms one CDF column per count vector its paths
can hold, and gathers it at each path (:func:`_level_steps`), or, when a
block has fewer paths than count vectors, one column per path
(:func:`_count_steps`).  A single path, and the fallback of ``run_plan``,
draw in blocks (:func:`_reinforced_draws`): each pass over a block scans
the measures of all its steps from a guess of their draws, and the draws
a pass leaves unchanged are the sequential ones.  So every draw of a
batch path equals the single path's on its segment.  Every
controlled path's ``Lbar`` comes from one builder, :func:`_running_measure`,
and its running cost ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)`` from one sum,
:class:`_StepCost`.  Like the column scans and the block draws, both take
a path a block of steps at a time: the measure from exact counts carried
between blocks, so its bits are those of a path formed whole, and the cost
as one ``np.sum`` per block, the block sums added in step order.  So the
plan runs of a horizon hold no array of ``n`` rows but its control rows.

:func:`export_path_csv` writes ``L^k`` one row per step through
:func:`~reinforced_ldp._format.write_array_csv`, which formats blocks of
rows in numpy: integer digits by a vectorized floor divide, and the 17 ``%.17g``
digits of ``0`` and of every value in ``[1e-39, 1)`` in integer arithmetic,
from 128-bit products (:func:`~reinforced_ldp._format.mulhilo64`).  Other
values (``1``) go through ``f17``, so the bytes equal a row-by-row ``%.17g``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from ._format import write_array_csv
from .errors import DimensionMismatch, PolicyError, PreconditionViolation, ResourceLimitExceeded
from .measures import Kernel, _as_count

_MASK64 = (1 << 64) - 1
# most steps per block of _reinforced_draws, which holds a few (steps, d) arrays at once
_BLOCK_CAP = 8192
# paths per block of simulate_chain_batch, which holds the block's uniforms at once
_BATCH_CHUNK = 8192
_INFINITE_COST = "infinite running cost: control mass escaped the kernel support"


def path_rng(seed: int) -> np.random.Generator:
    """Philox generator of seed ``seed``.

    The key is ``seed`` reduced mod 2**64, so a negative seed is reduced
    like any other; it must be an integer.  This is the package's one
    source of random draws.
    """
    return np.random.Generator(np.random.Philox(key=_as_count(seed, "seed") & _MASK64))


@functools.lru_cache(maxsize=8, typed=True)
def _time_grid(n: int) -> np.ndarray:
    """The read-only clock ``t_k``, ``k = 0..n``: the exact sum of the doubles
    ``x_j = fl(1/(j+1))``, ``j = 1..k``, correctly rounded.

    With ``b = n.bit_length()``, every ``x_j >= 2**-b`` is a multiple of its
    ulp, so of ``2**-P`` with ``P = 54 + b``.  Each splits exactly into
    integer limbs ``hi = floor(x 2**48)`` and ``lo = (x - hi 2**-48) 2**P <
    2**(b+6)``; ``np.cumsum`` sums both in int64, ``lo``'s overflow is carried
    into ``hi``, and ``t_k = H 2**-48 + L 2**-P`` adds two exact doubles in
    one rounding.  The sums run ``_BLOCK_CAP`` terms at a time from the
    exact ``H`` and ``L`` of the terms before, so every temporary is a
    block's.  ``H <= t_n 2**48 < 2**53`` and ``L <= n 2**(b+6) <
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
    t = np.empty(n + 1)
    t[0] = 0.0
    # the limb sums of the terms before the block, L reduced below 2**(p-48)
    H = L = 0
    for lo in range(1, n + 1, _BLOCK_CAP):
        hi = min(lo + _BLOCK_CAP, n + 1)
        x = 1.0 / np.arange(lo + 1.0, hi + 1.0)
        top = np.floor(x * 2.0**48)
        x -= top * 2.0**-48
        x *= 2.0**p
        Hs = np.cumsum(top.astype(np.int64))
        Hs += H
        Ls = np.cumsum(x.astype(np.int64))
        Ls += L
        Hs += Ls >> (p - 48)
        Ls &= (1 << (p - 48)) - 1
        np.multiply(Hs, 2.0**-48, out=t[lo:hi])
        t[lo:hi] += Ls * 2.0**-p
        H, L = int(Hs[-1]), int(Ls[-1])
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
    cols = iter(cdf)
    first = next(cols, None)
    if first is None:
        x.fill(0)
    else:
        # the first indicator is written as integers: adding a bool array to zeros takes two more passes
        np.greater(u, first, out=x)
    for c in cols:
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


def _reinforced_cdf(q: np.ndarray, Amat: np.ndarray) -> list:
    """The reinforced CDF values ``C_0..C_{d-2}`` of the measures ``q``.

    ``q`` holds the states along its first axis: a ``(d,)`` vector, or one
    column per measure.  The masses are ``m_y = q_0 A_0y + ... + q_{d-1}
    A_{d-1,y}`` and the CDF values ``C_i = m_0 + ... + m_i``, each product
    and add one numpy ufunc in index order, as the given-row CDFs are
    summed.  So every value is rounded as the plain IEEE sum is, whatever
    the shape of ``q`` or the BLAS, and a column depends only on its own
    ``q``.  As in
    :func:`_column_scan`, which draws from the list returned, ``C_{d-1}``
    is not formed.
    """
    d = Amat.shape[0]
    cdf = []
    for y in range(d - 1):
        m = q[0] * Amat[0, y]
        for i in range(1, d):
            m = m + q[i] * Amat[i, y]
        cdf.append(cdf[-1] + m if y else m)
    return cdf


def _reinforced_draws(Amat: np.ndarray, count, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0-based states of ``len(u)`` reinforced draws from ``count`` after ``k`` steps.

    Step ``t`` draws by :func:`_column_scan` of the :func:`_reinforced_cdf`
    of ``count / k``, then adds one to ``count[x]`` and to ``k``; ``count``
    holds exact integers summing to ``k``.  The steps run in blocks, each
    solved by a fixed-point iteration in numpy, and every draw equals the
    sequential one bit for bit.  The states go into ``out``, an integer
    array of ``u``'s size wide enough for ``d-1``, when it is given.

    A block covers ``B = min(max(64, k // 8), _BLOCK_CAP)`` steps from the
    counts ``cnt`` at its first step ``k``, or all the steps left when
    fewer than ``2 B`` (and at most ``_BLOCK_CAP``) are: so the plan runs,
    which call this once per block of ``_BLOCK_CAP`` steps, leave no short
    block, with passes of its own, at each call's end.  Its first guess
    draws every step from the measure at that step.  A pass redraws every
    step of the guess from the counts the guess implies, ``C = cnt +
    cumsum(one-hot of the earlier draws)``, by one scan of ``C / steps``
    (states along the first axis).  A step's measure depends only on the
    draws before it, and the scan rounds each column as it rounds a lone
    vector, so the draws up to and including the first one a pass changes
    are final; the next pass starts after it.  So every pass settles at
    least one draw, and a block ends at the first pass that changes
    nothing: the sequential draws.
    """
    d = Amat.shape[0]
    if out is None:
        out = np.empty(u.size, dtype=np.int64)
    cnt = np.array(count, dtype=float)
    t = 0
    while t < u.size:
        b = min(max(64, (k + t) // 8), _BLOCK_CAP)
        rest = u.size - t
        if rest < 2 * b and rest <= _BLOCK_CAP:
            b = rest
        x = _column_scan(_reinforced_cdf(cnt / (k + t), Amat), u[t : t + b])
        while x.size:
            # one pass over the unsettled steps t .. t + x.size - 1
            steps = np.arange(k + t, k + t + x.size, dtype=float)
            C = np.zeros((d, x.size))
            for i in range(d):
                # the indicator is written as floats: a running sum of bools copies them first
                np.equal(x[:-1], i, out=C[i, 1:])
                np.cumsum(C[i, 1:], out=C[i, 1:])
            C += cnt[:, None]
            y = _column_scan(_reinforced_cdf(C / steps, Amat), u[t : t + x.size])
            changed = np.flatnonzero(x != y)
            f = changed[0] + 1 if changed.size else y.size
            out[t : t + f] = y[:f]
            cnt += np.bincount(y[:f], minlength=d)
            t += f
            x = y[f:]
    return out


def simulate_chain(A: Kernel, x0: int, n: int, seed: int) -> ChainPath:
    """Simulate ``n`` steps of the reinforced chain (the stream of ``seed``)."""
    n = _as_count(n, "simulate_chain: n")
    if n < 1:
        raise PreconditionViolation(f"simulate_chain: n must be >= 1, got {n}")
    d = A.d
    x0 = _validate_x0(x0, d)
    count = np.zeros(d, dtype=np.int64)
    count[x0 - 1] = 1
    states = np.empty(n, dtype=np.int64)
    states[0] = x0 - 1
    states[1:] = _reinforced_draws(A.matrix, count, 1, path_rng(seed).random(n - 1))
    counts = np.zeros((n, d), dtype=np.int64)
    counts[np.arange(n), states] = 1
    np.cumsum(counts, axis=0, out=counts)
    states += 1
    L = counts / np.arange(1.0, n + 1.0)[:, None]
    for arr in (states, counts, L):
        arr.flags.writeable = False
    return ChainPath(n=n, d=d, x0=x0, seed=int(seed), states=states, counts=counts, L=L)


def _count_steps(Amat: np.ndarray, x0: int, u: np.ndarray) -> np.ndarray:
    """Final counts, shape ``(paths, d)``, of the paths that start at ``x0``
    and draw on the rows of ``u``, one :func:`_reinforced_cdf` column per path.

    The counts are held as a ``(d, paths)`` float64 array of exact
    integers, so ``counts / k`` gives the doubles int64 counts would.  The
    draws go into the counts by one masked add per state, ``counts[i] +=
    (x == i)``, with no scatter.
    """
    d = Amat.shape[0]
    counts = np.zeros((d, len(u)))
    counts[x0 - 1] = 1.0
    for k in range(1, u.shape[1] + 1):
        x = _column_scan(_reinforced_cdf(counts / float(k), Amat), u[:, k - 1])
        for i in range(d):
            counts[i] += x == i
    return counts.T


def _level_steps(Amat: np.ndarray, x0: int, u: np.ndarray) -> np.ndarray:
    """:func:`_count_steps` with one :func:`_reinforced_cdf` column per count vector.

    A path is held as the index of its last ``d - 1`` counts, the count of
    state ``i >= 1`` as digit ``i - 1`` in base ``n + 1``; the count of
    state 0 is the step ``k`` less their sum.  After ``k`` steps every index
    lies in ``[0, k s]``, ``s = 1 + (n + 1) + ... + (n + 1)^(d-2)``, so step
    ``k`` forms the CDF of the count vectors of those indices once, as
    exact-integer levels divided by ``k``, gathers each column at the
    paths' indices and scans it.  A level's column is the one its paths'
    counts would form, so the draws are :func:`_count_steps`'s.  The drawn
    state moves the index by its digit's weight (0 for state 0, so the
    draw itself at ``d = 2``), and no count exceeds ``n``, so the final
    counts are the digits.
    """
    d = Amat.shape[0]
    n = u.shape[1] + 1
    base = n + 1
    weights = np.zeros(d, dtype=np.int64)
    weights[1:] = base ** np.arange(d - 1)
    span = int(weights.sum())
    digits = np.arange((n - 1) * span + 1)[:, None] // weights[1:] % base
    # the levels of every index, state 0's less its step
    levels = np.empty((d, len(digits)))
    levels[0] = -digits.sum(axis=1)
    levels[1:] = digits.T
    idx = np.full(len(u), weights[x0 - 1])
    x = np.empty(len(u), dtype=np.int64)
    for k in range(1, n):
        q = levels[:, : k * span + 1].copy()
        q[0] += k
        q /= float(k)
        cdf = _reinforced_cdf(q, Amat)
        _column_scan([np.take(c, idx) for c in cdf], u[:, k - 1], out=x)
        idx += np.take(weights, x) if d > 2 else x
    counts = np.empty((len(u), d), dtype=np.int64)
    counts[:, 1:] = idx[:, None] // weights[1:] % base
    counts[:, 0] = n - counts[:, 1:].sum(axis=1)
    return counts


def simulate_chain_batch(A: Kernel, x0: int, n: int, n_paths: int, seed: int) -> np.ndarray:
    """Final count vectors of ``n_paths`` independent chains, shape (n_paths, d).

    All paths draw from one stream, ``path_rng(seed)``, in segments:
    path ``p`` takes its ``n - 1`` uniforms ``p(n-1) .. (p+1)(n-1) - 1``, and
    draws by the same :func:`_reinforced_cdf` and :func:`_column_scan` as a
    single path.  So row ``p`` equals ``simulate_chain`` driven by segment
    ``p``, whatever the chunking, and path 0 reproduces ``simulate_chain(A,
    x0, n, seed)``.  Paths run in blocks of ``_BATCH_CHUNK``; each block
    draws its uniforms as one ``(paths, n - 1)`` array, one row per path,
    and step ``k`` scans its strided column ``k - 1``.

    A step's draws depend on the past only through the counts, so a block
    forms one CDF column per count vector (:func:`_level_steps`) when the
    indices its final counts can take are no more than its paths; a block
    with fewer paths forms one column per path (:func:`_count_steps`).
    So no array of a block outgrows its uniforms, and no index its int64.
    """
    n = _as_count(n, "simulate_chain_batch: n")
    n_paths = _as_count(n_paths, "simulate_chain_batch: n_paths")
    if n < 1 or n_paths < 1:
        raise PreconditionViolation("simulate_chain_batch: n and n_paths must be >= 1")
    d = A.d
    x0 = _validate_x0(x0, d)
    # the indices that _level_steps's final counts can take
    cells = n * sum((n + 1) ** i for i in range(d - 1)) + 1
    rng = path_rng(seed)
    out = np.empty((n_paths, d), dtype=np.int64)
    for lo in range(0, n_paths, _BATCH_CHUNK):
        hi = min(lo + _BATCH_CHUNK, n_paths)
        u = rng.random((hi - lo, n - 1))
        steps = _level_steps if cells <= hi - lo else _count_steps
        out[lo:hi] = steps(A.matrix, x0, u)
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


def _running_measure(states: np.ndarray, carry: np.ndarray, Lbar: np.ndarray, steps: np.ndarray, counts: np.ndarray) -> None:
    """Fill ``Lbar``, shape ``(B, d)``, with the running measure after each of ``states``.

    ``states`` holds the 0-based states ``X_{k+1}..X_{k+B}`` of a controlled
    path, ``carry`` the numerators ``e_x0 + counts_k`` of the measure before
    them, as exact integers, and ``steps`` the divisors ``k+2..k+B+1``;
    ``counts`` is a float scratch of ``B`` entries.  Row ``j`` is
    ``Lbar[k+1+j, x] = (carry[x] + #{i <= j : X_{k+1+i} = x}) / (k+2+j)``,
    each count an exact integer, so every entry is one rounding from its
    value and a path filled block by block equals one filled at once.
    ``carry`` is advanced past the block.  The first ``d - 1`` numerators
    are running counts; the last is the exact integer remainder, the
    divisor ``k+2+j`` less their sum.  Each count is formed in the contiguous scratch, as
    floats from the start: a running sum that casts a bool indicator copies
    all of it first, and writing the indicator into a strided column of
    ``Lbar`` takes about ten times as long.
    """
    d = Lbar.shape[1]
    rest = Lbar[:, d - 1]
    rest[...] = steps
    for x in range(d - 1):
        np.equal(states, x, out=counts)
        np.cumsum(counts, out=counts)
        counts += carry[x]
        rest -= counts
        np.divide(counts, steps, out=Lbar[:, x])
        carry[x] = counts[-1]
    carry[d - 1] = rest[-1]
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
    uniforms = path_rng(seed).random(n)
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
    Lbar[0] = 0.0
    Lbar[0, x0 - 1] = 1.0
    _running_measure(states, Lbar[0].copy(), Lbar[1:], np.arange(2.0, n + 2.0), np.empty(n))
    states += 1
    for arr in (states, mu, Lbar):
        arr.flags.writeable = False
    return ControlledPath(n=n, d=d, x0=x0, seed=int(seed), states=states, mu=mu, Lbar=Lbar)


class _StepCost:
    """The paper's running cost ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)`` of an
    ``n``-step path on ``d`` states, fed the path's steps in blocks of at
    most ``_BLOCK_CAP``.

    :meth:`add` takes a block's measures ``Lbar_{k-1}`` and control rows
    ``mu_k``, forms ``rho_k = Lbar_{k-1} A`` by one product into a scratch
    block, overwrites it with the terms ``rel_entr(mu_k, rho_k)`` and adds
    their ``np.sum`` to a Python float, so the block sums are added in step
    order.  :meth:`value` divides the total by ``n``; a cost that is not
    finite raises :class:`PolicyError`.  A path of at most ``_BLOCK_CAP``
    steps is one block: its cost is ``rel_entr(mu, rho).sum() / n``.
    :meth:`start` readies the sum for the next path.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.rho = np.empty((min(n, _BLOCK_CAP), d))
        self.start()

    def start(self) -> None:
        self.total = 0.0

    def add(self, Lbar: np.ndarray, mu: np.ndarray, Amat: np.ndarray) -> None:
        rho = self.rho[: len(Lbar)]
        np.matmul(Lbar, Amat, out=rho)
        rel_entr(mu, rho, out=rho)
        self.total += float(rho.sum())

    def value(self) -> float:
        cost = self.total / self.n
        if not np.isfinite(cost):
            raise PolicyError(_INFINITE_COST)
        return cost


def verify_chain_rule_identity(path: ControlledPath, A: Kernel) -> tuple[float, float]:
    """Running cost computed two ways.

    Left: relative entropy between the two discounted occupation measures,
    whose atoms on (state, reversed-time bin) are ``mu_k / n`` and ``rho_k
    / n`` with ``rho_k = Lbar_{k-1} A``: ``rel_entr(mu[::-1] / n, rho[::-1]
    / n).sum()`` over the whole path, ``rho`` formed ``_BLOCK_CAP`` rows at
    a time.  Right: the per-step average ``(1/n) sum_k R(mu_k || Lbar_{k-1}
    A)``, from :class:`_StepCost`, the sum that costs the runs of
    :func:`~reinforced_ldp.lowerbound.run_plan` and the cost trend of
    :func:`~reinforced_ldp.lowerbound.check_cost_convergence` as they
    draw, so ``run_plan(...).cost_stepsum`` equals it bit for bit.  By the
    chain rule the two are one number, and they agree to floating-point
    rounding; a side that is not finite raises :class:`PolicyError`.
    """
    n, Amat = path.n, A.matrix
    step = _StepCost(n, path.d)
    rho = np.empty((n, path.d))
    for lo in range(0, n, _BLOCK_CAP):
        hi = min(lo + _BLOCK_CAP, n)
        step.add(path.Lbar[lo:hi], path.mu[lo:hi], Amat)
        np.matmul(path.Lbar[lo:hi], Amat, out=rho[lo:hi])
    lhs = float(rel_entr(path.mu[::-1] / n, rho[::-1] / n).sum())
    if not np.isfinite(lhs):
        raise PolicyError(_INFINITE_COST)
    return lhs, step.value()


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
