"""Reinforced-chain simulation, controlled companions, and occupation measures.

The reinforced chain on ``{1..d}`` starts at ``x0`` and, given the running
empirical measure ``L^k = (count vector after k steps) / k``, draws its next
state from ``L^k A``.  The controlled companion replaces ``L^k A`` with an
arbitrary history-dependent distribution and is the basis of the
lower-bound experiments.

A deterministic time grid ``t_k = sum_{j=1..k} 1/(j+1)`` (harmonic tail,
computed with compensated summation) turns step indices into continuous
time.  The pair of discounted occupation measures built from a controlled
path on that grid satisfies the chain-rule identity checked by
:func:`verify_chain_rule_identity`.

Randomness: a counter-based Philox generator keyed by ``(seed, stream)``,
one independent stream per path, so batched and per-path simulations are
bitwise reproducible regardless of scheduling.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from ._format import write_csv
from .errors import DimensionMismatch, PolicyError, PreconditionViolation
from .measures import Kernel, ProbVec

_MASK64 = (1 << 64) - 1


def path_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for stream ``stream`` of seed ``seed``."""
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _kahan_harmonic_tail(n: int) -> np.ndarray:
    """t_k = sum_{j=1..k} 1/(j+1) for k = 0..n, compensated summation."""
    t = np.empty(n + 1)
    t[0] = 0.0
    total = 0.0
    carry = 0.0
    for k in range(1, n + 1):
        y = 1.0 / (k + 1.0) - carry
        s = total + y
        carry = (s - total) - y
        total = s
        t[k] = total
    return t


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Nodes ``t_0 = 0 < t_1 < .. < t_n`` with ``t_{k+1} - t_k = 1/(k+2)``.

    ``t_n - log(n+1)`` is pinned near the Euler-Mascheroni constant minus
    one by a ``O(1/n)`` bracket, so the grid spans ``~ log n`` units of
    continuous time and the index below ``t_n - t`` grows like ``n e^{-t}``.
    """

    n: int
    times: np.ndarray

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionViolation(f"TimeGrid: n must be >= 1, got {n}")
        t = _kahan_harmonic_tail(int(n))
        t.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "times", t)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def index_of(self, t):
        """Largest k with t_k <= t (vectorized); requires t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise PreconditionViolation("TimeGrid.index_of: t must be >= 0")
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        return idx if idx.ndim else int(idx)

    def node_below(self, t):
        """a(t) = t_{index_of(t)}, clipped to the last node."""
        idx = np.minimum(self.index_of(t), self.n)
        out = self.times[idx]
        return out if np.ndim(out) else float(out)

    def step_weight(self, t):
        """Weight of the step covering time t: index_of(t) + 2."""
        return self.index_of(t) + 2


@functools.lru_cache(maxsize=8)
def _cached_grid(n: int) -> TimeGrid:
    return TimeGrid(n)


def _validate_x0(x0: int, d: int) -> int:
    if not 1 <= int(x0) <= d:
        raise DimensionMismatch(f"x0={x0} outside 1..{d}")
    return int(x0)


def _inverse_cdf_rows(prob_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest index x with u <= CDF(x), one draw per row (0-based)."""
    cdf = np.cumsum(prob_rows, axis=1)
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


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

    def final(self) -> ProbVec:
        return ProbVec(self.L[-1])


def simulate_chain(A: Kernel, x0: int, n: int, seed: int) -> ChainPath:
    """Simulate ``n`` steps of the reinforced chain (stream 0 of ``seed``)."""
    if n < 1:
        raise PreconditionViolation(f"simulate_chain: n must be >= 1, got {n}")
    d = A.d
    x0 = _validate_x0(x0, d)
    rng = path_rng(seed, 0)
    uniforms = rng.random(n - 1) if n > 1 else np.empty(0)
    states = np.empty(n, dtype=np.int64)
    counts = np.zeros((n, d), dtype=np.int64)
    L = np.empty((n, d))
    count = np.zeros(d, dtype=np.int64)
    states[0] = x0
    count[x0 - 1] = 1
    counts[0] = count
    L[0] = count / 1.0
    Amat = A.matrix
    for k in range(1, n):
        dist = L[k - 1] @ Amat
        cdf = np.cumsum(dist)
        x = int(np.searchsorted(cdf, uniforms[k - 1], side="left"))
        x = min(x, d - 1)
        states[k] = x + 1
        count[x] += 1
        counts[k] = count
        L[k] = count / float(k + 1)
    for arr in (states, counts, L):
        arr.flags.writeable = False
    return ChainPath(n=n, d=d, x0=x0, seed=int(seed), states=states, counts=counts, L=L)


def simulate_chain_batch(
    A: Kernel, x0: int, n: int, n_paths: int, seed: int, chunk: int = 8192
) -> np.ndarray:
    """Final count vectors of ``n_paths`` independent chains, shape (n_paths, d).

    Path ``i`` consumes stream ``i`` of ``seed``, so path 0 reproduces
    ``simulate_chain(A, x0, n, seed)``.
    """
    if n < 1 or n_paths < 1:
        raise PreconditionViolation("simulate_chain_batch: n and n_paths must be >= 1")
    d = A.d
    x0 = _validate_x0(x0, d)
    Amat = A.matrix
    out = np.empty((n_paths, d), dtype=np.int64)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        r = hi - lo
        u = np.empty((r, n - 1)) if n > 1 else None
        if u is not None:
            for i in range(r):
                u[i] = path_rng(seed, lo + i).random(n - 1)
        counts = np.zeros((r, d), dtype=np.int64)
        counts[:, x0 - 1] = 1
        rows = np.arange(r)
        for k in range(1, n):
            prob = (counts / float(k)) @ Amat
            x = _inverse_cdf_rows(prob, u[:, k - 1])
            counts[rows, x] += 1
        out[lo:hi] = counts
    return out


# ---------------------------------------------------------------------------
# controlled companion


@dataclass(frozen=True, eq=False)
class ControlledPath:
    """A controlled companion trajectory over horizon ``n``.

    ``Lbar[k]`` for ``k = 0..n`` is the measure after ``k`` controlled
    updates (``Lbar[0]`` is the point mass at ``x0``); ``mu[k-1]`` is the
    control used by update ``k`` and ``states[k-1]`` the sampled state.
    Updates follow ``Lbar[k] = Lbar[k-1] + (e_state - Lbar[k-1]) / (k+1)``
    in exactly that floating-point form.
    """

    n: int
    d: int
    x0: int
    seed: int
    states: np.ndarray
    mu: np.ndarray
    Lbar: np.ndarray

    def final(self) -> ProbVec:
        return ProbVec(self.Lbar[-1])

    def grid(self) -> TimeGrid:
        return _cached_grid(self.n)


def reference_policy(A: Kernel):
    """The zero-cost policy: feed the current measure back through ``A``.

    Works on single measures (shape ``(d,)``) and batches (``(r, d)``).
    """

    def policy(k: int, Lbar: np.ndarray) -> np.ndarray:
        return Lbar @ A.matrix

    return policy


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


def simulate_controlled(A: Kernel, x0: int, policy, n: int, seed: int) -> ControlledPath:
    """Run ``n`` controlled updates from the point mass at ``x0``.

    ``policy(k, Lbar)`` supplies the distribution of update ``k`` given the
    measure after ``k-1`` updates, for ``k = 1..n``.
    """
    if n < 1:
        raise PreconditionViolation(f"simulate_controlled: n must be >= 1, got {n}")
    d = A.d
    x0 = _validate_x0(x0, d)
    rng = path_rng(seed, 0)
    uniforms = rng.random(n)
    Lbar = np.empty((n + 1, d))
    mu = np.empty((n, d))
    states = np.empty(n, dtype=np.int64)
    Lbar[0] = 0.0
    Lbar[0, x0 - 1] = 1.0
    for k in range(1, n + 1):
        w = _clean_policy_row(policy(k, Lbar[k - 1]), d, k)
        mu[k - 1] = w
        cdf = np.cumsum(w)
        x = int(np.searchsorted(cdf, uniforms[k - 1], side="left"))
        x = min(x, d - 1)
        states[k - 1] = x + 1
        e = np.zeros(d)
        e[x] = 1.0
        Lbar[k] = Lbar[k - 1] + (e - Lbar[k - 1]) / (k + 1.0)
    for arr in (states, mu, Lbar):
        arr.flags.writeable = False
    return ControlledPath(n=n, d=d, x0=x0, seed=int(seed), states=states, mu=mu, Lbar=Lbar)


# ---------------------------------------------------------------------------
# discounted occupation measures


@dataclass(frozen=True, eq=False)
class DiscountedOccupation:
    """The pair of discounted occupation measures of a controlled path.

    Atoms live on (state, reversed-time bin); bin ``j`` covers
    ``[edges[j], edges[j+1])`` measured backwards from the final grid time.
    ``beta[j, x]`` carries the control mass ``mu / n`` of the step that bin
    reverses onto, ``theta[j, x]`` the kernel-image mass ``rho / n`` of the
    same step, so both time marginals are identically ``1/n`` per bin.
    """

    n: int
    d: int
    edges: np.ndarray
    beta: np.ndarray
    theta: np.ndarray

    def total_mass(self) -> tuple[float, float]:
        return float(self.beta.sum()), float(self.theta.sum())

    def time_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.beta.sum(axis=1), self.theta.sum(axis=1)


def occupation_measures(path: ControlledPath, A: Kernel) -> DiscountedOccupation:
    grid = path.grid()
    n = path.n
    rho = path.Lbar[:n] @ A.matrix
    beta = path.mu[::-1] / n
    theta = rho[::-1] / n
    edges = grid.horizon - grid.times[::-1]
    for arr in (beta, theta, edges):
        arr.flags.writeable = False
    return DiscountedOccupation(n=n, d=path.d, edges=edges, beta=beta, theta=theta)


def verify_chain_rule_identity(path: ControlledPath, A: Kernel) -> tuple[float, float]:
    """Running cost computed two ways.

    Left: relative entropy between the two occupation measures.  Right: the
    per-step average ``(1/n) sum_k R(mu_k || Lbar_{k-1} A)``.  The two agree
    to floating-point rounding.
    """
    occ = occupation_measures(path, A)
    lhs = float(rel_entr(occ.beta, occ.theta).sum())
    rho = path.Lbar[: path.n] @ A.matrix
    rhs = float(rel_entr(path.mu, rho).sum() / path.n)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise PolicyError("infinite running cost: control mass escaped the kernel support")
    return lhs, rhs


# ---------------------------------------------------------------------------
# CSV export


def export_path_csv(path, file, provenance: str | None = None) -> None:
    """Write a chain or controlled path as rows ``step, state, L_1..L_d``."""
    d = path.d
    header = ["step", "state"] + [f"L_{x}" for x in range(1, d + 1)]
    if isinstance(path, ChainPath):
        rows = (
            [k + 1, int(path.states[k])] + [float(v) for v in path.L[k]]
            for k in range(path.n)
        )
    else:
        # row k reports the state added by update k-1 (x0 for the first row)
        def _rows():
            yield [1, path.x0] + [float(v) for v in path.Lbar[0]]
            for k in range(path.n):
                yield [k + 2, int(path.states[k])] + [float(v) for v in path.Lbar[k + 1]]

        rows = _rows()
    write_csv(file, header, rows, provenance)

