"""Exact law of the reinforced chain's count vector by forward dynamic programming.

The count process is Markov: at level ``k`` the chain has occupancy counts
``c`` (summing to ``k``), and the next state is drawn from ``(c / k) A``.
Propagating the full distribution level by level yields the exact law after
``n`` steps, which in turn gives exact event probabilities and finite-``n``
rate estimates ``-(1/n) log P``.

Level ``k`` is one dense float array over the box ``[0, k]^(d-1)`` of the
first ``d - 1`` counts; the last count is ``k`` minus their sum, and cells
outside the simplex hold zero.  A step adds each transition's mass to the
cell shifted by one along the moved count's axis, in a fixed order, so
results are bitwise reproducible.  Cells grow like ``n^(d-1)``; a
configurable memory cap (default 2 GiB) on the bytes of the sweep's largest
step aborts cleanly before the sweep starts.

A law keeps its atoms in two read-only arrays, from the DP to the CSV: the
counts of the nonzero cells, in lexicographic order, and their
probabilities.  Ball probabilities sum a masked slice of them with
``math.fsum``, and the law CSV goes through the block writer
:func:`~reinforced_ldp._format.write_array_csv`, whose two digit routes
cover probabilities down to ``1e-39``: an exact two-product of doubles
from ``1e-6`` up, 128-bit integer products below.  Deeper atoms of a deep
law go through ``f17``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._format import write_array_csv, write_csv
from .chains import _validate_x0
from .errors import ConvergenceError, DimensionMismatch, PreconditionViolation, ResourceLimitExceeded
from .measures import Kernel, _as_count, _as_real, _weights_of

DEFAULT_MEM_CAP_BYTES = 2 << 30
DROP_THRESHOLD = 1e-300
MASS_CHECK_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class CountLaw:
    """Distribution of the count vector after ``n`` steps.

    ``counts`` (int64, ``(N, d)``, each row summing to ``n``) lists the
    count vectors of positive probability in lexicographic order, and
    ``probs`` (float64, ``(N,)``) their probabilities; both are read-only.
    ``dropped_mass`` is the total probability removed by the underflow
    threshold while building the law.
    """

    n: int
    d: int
    x0: int
    counts: np.ndarray
    probs: np.ndarray
    dropped_mass: float

    @functools.cached_property
    def atoms(self) -> dict[tuple[int, ...], float]:
        """The law as a dict from count tuples to probabilities."""
        return dict(zip(map(tuple, self.counts.tolist()), self.probs.tolist()))


def exact_law(
    A: Kernel, x0: int, n: int, mem_cap_bytes: int = DEFAULT_MEM_CAP_BYTES
) -> CountLaw:
    """Exact law of the counts after ``n`` steps, starting from state ``x0``."""
    laws = exact_law_levels(A, x0, [n], mem_cap_bytes)
    return laws[n]


def exact_law_levels(
    A: Kernel, x0: int, n_list, mem_cap_bytes: int = DEFAULT_MEM_CAP_BYTES
) -> dict[int, CountLaw]:
    """Laws at several levels from one DP sweep (keyed by requested n)."""
    wanted = sorted(set(_as_count(n, "exact_law: n") for n in n_list))
    mem_cap_bytes = _as_count(mem_cap_bytes, "exact_law: mem_cap_bytes")
    if not wanted or wanted[0] < 1:
        raise PreconditionViolation("exact_law: every n must be >= 1")
    d = A.d
    x0 = _validate_x0(x0, d)
    n_max = wanted[-1]
    # peak of the sweep, at the product in its last step: 8-byte arrays of the
    # lattice counts, their sums, the law, the scaled counts and the new
    # transitions (3d + 2 values a cell of the level n_max - 1 box), and the
    # previous step's 1-byte drop mask; the last snapshot holds no more
    need = (24 * d + 17) * n_max ** (d - 1)
    if need > mem_cap_bytes:
        raise ResourceLimitExceeded(
            f"exact_law: level {n_max} needs {need / 2**20:.2f} MiB of lattice arrays, "
            f"above the cap of {mem_cap_bytes / 2**20:.2f} MiB"
        )

    # P[c_1, .., c_{d-1}] is the probability of the counts (c_1, .., c_{d-1}, k - sum)
    P = np.zeros((2,) * (d - 1))
    P[tuple(int(x == x0) for x in range(1, d))] = 1.0
    dropped = 0.0
    # Mass drifts from 1 by at most `per_level` a level.  The kernel's rows
    # sum to 1 within `rho`.  The rest is rounding, relative to a mass near 1,
    # with u = 2^-53: u for `counts / k`, d u for the length-d dot product of
    # a transition row, u for `P * trans`, and d - 1 u for the at most d
    # parents added into a child cell, so (2d + 1) u; one more u covers the
    # second-order terms.  MASS_CHECK_ATOL covers the sum that measures it.
    rho = max(abs(math.fsum(row) - 1.0) for row in A.matrix.tolist())
    per_level = rho + 2 * (d + 1) * 2.0**-53
    out: dict[int, CountLaw] = {}

    def snapshot(level: int) -> CountLaw:
        # argwhere walks the cells in C order, which is lexicographic in the counts
        cells = np.argwhere(P)
        counts = np.column_stack([cells, level - cells.sum(axis=1)])
        # at d = 1 the box is a single cell, and indexing it gives a scalar
        probs = np.atleast_1d(P[tuple(cells.T)])
        counts.flags.writeable = probs.flags.writeable = False
        return CountLaw(n=level, d=d, x0=x0, counts=counts, probs=probs, dropped_mass=dropped)

    # the count vectors of the level n_max - 1 box, the largest a step reads;
    # level k slices its [0, k]^(d-1) box and fills the last count k - sum
    lattice = np.empty((n_max,) * (d - 1) + (d,))
    lattice[..., : d - 1] = np.moveaxis(np.indices((n_max,) * (d - 1)), 0, -1)
    total = lattice[..., : d - 1].sum(axis=-1)
    if 1 in wanted:
        out[1] = snapshot(1)
    for k in range(1, n_max):
        box = (slice(0, k + 1),) * (d - 1)
        counts = lattice[box]
        np.subtract(k, total[box], out=counts[..., d - 1])
        # one (cells, d) product, as for a flat count matrix of the box
        trans = ((counts / float(k)).reshape(P.size, d) @ A.matrix).reshape(*P.shape, d)
        nxt = np.zeros((k + 2,) * (d - 1))
        # move y adds one to count y; the last count is implied, so its move
        # keeps the cell.  Adding moves in order y = 0..d-1 sums each child's
        # parents in lexicographic order.
        for y in range(d):
            cell = [slice(0, k + 1)] * (d - 1)
            if y < d - 1:
                cell[y] = slice(1, k + 2)
            nxt[tuple(cell)] += P * trans[..., y]
        del trans  # before the next product and the snapshot
        # the zero cells of the box have nothing to drop
        small = (nxt > 0.0) & (nxt < DROP_THRESHOLD)
        dropped += math.fsum(nxt[small].tolist())
        nxt[small] = 0.0
        P = nxt
        mass = float(P.sum())
        if abs(mass + dropped - 1.0) > MASS_CHECK_ATOL + (k + 1) * per_level:
            raise ConvergenceError(
                f"exact_law: mass {mass!r} + dropped {dropped!r} drifted from 1 at level {k + 1}"
            )
        if k + 1 in wanted:
            out[k + 1] = snapshot(k + 1)
    return out


def check_ball(target, radius: float, d: int) -> np.ndarray:
    """``target`` as an array, once it and ``radius`` describe an l1 ball in dimension ``d``."""
    t = _weights_of(target)
    if t.shape != (d,):
        raise DimensionMismatch(f"ball target shape {t.shape}, law dimension {d}")
    if not np.all(np.isfinite(t)):
        raise PreconditionViolation(f"ball target entries must be finite, got {t.tolist()!r}")
    if not _as_real(radius, "ball radius") >= 0:
        raise PreconditionViolation(f"ball radius must be >= 0, got {radius!r}")
    return t


def event_probability(law: CountLaw, target, radius: float) -> float:
    """Probability of the closed l1 ball: ``sum P(c)`` over counts with
    ``||c/n - target||_1 <= radius``, capped at 1 (a ball over the whole
    simplex can sum the law's rounded atoms above 1)."""
    t = check_ball(target, radius, law.d)
    dist = np.abs(law.counts / float(law.n) - t[None, :]).sum(axis=1)
    return min(math.fsum(law.probs[dist <= radius].tolist()), 1.0)


@dataclass(frozen=True)
class FiniteNRate:
    """``probability`` is the law's kept sum ``p`` over the ball; the ball's
    true probability lies in ``[p, p + dropped_mass]``.  ``rate_is_bound``
    marks a ``rate`` read from that interval's upper end, so only a lower
    bound on the ball rate."""

    n: int
    probability: float
    rate: float
    infinite: bool
    rate_is_bound: bool


def ball_rate(law: CountLaw, target, radius: float) -> FiniteNRate:
    """Decay rate ``-(1/n) log P(||L^n - target||_1 <= radius)`` under ``law``.

    With ``p`` the kept sum, ``P`` lies in ``[p, hi]``, ``hi = min(p +
    dropped_mass, 1)``, and the rate is read from ``hi``: ``-log(hi) / n``,
    exactly 0 at ``hi == 1`` and infinite, with the ``infinite`` flag set
    instead of an error, at ``hi == 0``.  ``rate_is_bound`` is ``hi > p``:
    the dropped mass may lie in the ball and moves the rate.
    """
    p = event_probability(law, target, radius)
    hi = min(p + law.dropped_mass, 1.0)
    rate = 0.0 if hi == 1.0 else math.inf if hi == 0.0 else -math.log(hi) / law.n
    return FiniteNRate(n=law.n, probability=p, rate=rate, infinite=hi == 0.0, rate_is_bound=hi > p)


def finite_n_rate(A: Kernel, x0: int, target, radius: float, n_list) -> list[FiniteNRate]:
    """Finite-``n`` ball rates (see :func:`ball_rate`) at each level of ``n_list``."""
    check_ball(target, radius, A.d)  # before the DP, so a bad ball costs no law
    laws = exact_law_levels(A, x0, n_list)
    return [ball_rate(laws[n], target, radius) for n in sorted(laws)]


def export_law_csv(law: CountLaw, file, provenance: str | None = None) -> None:
    """Write the law as rows ``c_1..c_d, probability`` in lexicographic order, floats as ``%.17g``."""
    header = [f"c_{x}" for x in range(1, law.d + 1)] + ["probability"]
    write_array_csv(file, header, list(law.counts.T), law.probs[:, None], provenance)


def export_rate_trend_csv(records: list[FiniteNRate], file, provenance: str | None = None) -> None:
    header = ["n", "probability", "rate", "infinite", "rate_is_bound"]
    rows = ([r.n, r.probability, r.rate, r.infinite, r.rate_is_bound] for r in records)
    write_csv(file, header, rows, provenance)
