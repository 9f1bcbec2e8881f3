"""Probability vectors, strictly positive stochastic kernels, relative entropy.

State spaces are finite; states are labelled ``1..d`` externally and stored
as 0-indexed numpy arrays internally.  Two immutable value types live here:

* :class:`ProbVec` -- a point of the probability simplex.
* :class:`Kernel` -- a dense row-stochastic ``d x d`` matrix whose smallest
  entry ``delta0`` must be strictly positive.  The floor bounds every
  relative entropy against a kernel image: ``R(nu || m A) <= log(1/delta0)``.

Construction renormalizes inputs that are within ``1e-9`` of the simplex and
rejects anything farther.  Inputs that already satisfy the ``1e-12`` simplex
invariant are stored untouched.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from numbers import Real

import numpy as np
from scipy.special import rel_entr

from ._format import f17
from .errors import ConvergenceError, DimensionMismatch, PositivityViolation, PreconditionViolation, SimplexViolation

SIMPLEX_ATOL = 1e-12      # stored weights satisfy |sum - 1| <= this
RENORM_TOL = 1e-9         # inputs this close to the simplex are renormalized
STATIONARY_RESIDUAL_TOL = 1e-10


def _is_real(v) -> bool:
    """A real number, not a bool: strings and ``None`` fail."""
    return isinstance(v, Real) and not isinstance(v, (bool, np.bool_))


def _as_real(x, name: str, error=PreconditionViolation) -> float:
    """``x`` as a Python float; a value that is not a real number raises ``error``."""
    if not _is_real(x):
        raise error(f"{name} must be a real number, got {x!r}")
    return float(x)


def _as_count(n, name: str, error=PreconditionViolation) -> int:
    """``n`` as a Python int; a bool or a value that is not an integer raises ``error``."""
    if not isinstance(n, (bool, np.bool_)):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {n!r}")


def _float_array(raw, what: str, error) -> np.ndarray:
    """``raw`` as a new float array; ragged input, or an entry that is not a
    real number (a string or a bool), raises ``error``."""
    cells = np.array(raw, dtype=object)
    if not all(_is_real(v) for v in cells.flat):
        raise error(f"{what}: expected a regular array of numbers, got {raw!r}")
    return cells.astype(float)


def _clean_weights(raw, what: str) -> np.ndarray:
    w = _float_array(raw, what, SimplexViolation)
    if w.ndim != 1 or w.size == 0:
        raise SimplexViolation(f"{what}: expected a non-empty 1-d array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise SimplexViolation(f"{what}: entries must be finite")
    lo = float(w.min())
    if lo < -RENORM_TOL:
        raise SimplexViolation(f"{what}: entry {lo:.3e} is below -{RENORM_TOL}")
    clipped = lo < 0.0
    if clipped:
        w = np.maximum(w, 0.0)
    s = float(w.sum())
    if abs(s - 1.0) > RENORM_TOL:
        raise SimplexViolation(f"{what}: weights sum to {s!r}, farther than {RENORM_TOL} from 1")
    if clipped or abs(s - 1.0) > SIMPLEX_ATOL:
        w = w / s
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class ProbVec:
    """A probability vector on ``{1..d}`` (weights stored 0-indexed)."""

    weights: np.ndarray

    def __init__(self, weights):
        object.__setattr__(self, "weights", _clean_weights(weights, "ProbVec"))

    @property
    def d(self) -> int:
        return int(self.weights.size)

    @classmethod
    def point_mass(cls, state: int, d: int) -> "ProbVec":
        """Unit mass at ``state`` (1-based); ``state`` and ``d`` must be integers."""
        state, d = _as_count(state, "point_mass: state"), _as_count(d, "point_mass: d")
        if not 1 <= state <= d:
            raise DimensionMismatch(f"state {state} outside 1..{d}")
        w = np.zeros(d)
        w[state - 1] = 1.0
        return cls(w)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProbVec([{', '.join(f17(x) for x in self.weights)}])"


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic matrix with strictly positive entries.

    ``matrix[x, y]`` is the probability of moving to state ``y+1`` when the
    current empirical measure row is ``x+1``.  ``delta0``, the smallest
    entry, is the uniform positivity floor used throughout cost bounds.
    """

    matrix: np.ndarray
    delta0: float = field(init=False)

    def __init__(self, matrix):
        m = _float_array(matrix, "Kernel", DimensionMismatch)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatch(f"Kernel: expected a square matrix, got shape {m.shape}")
        rows = [_clean_weights(m[x], f"Kernel row {x + 1}") for x in range(m.shape[0])]
        m = np.vstack(rows)
        d0 = float(m.min())
        if d0 <= 0.0:
            raise PositivityViolation(
                "Kernel requires strictly positive entries (uniform floor delta0 > 0); "
                f"smallest entry is {d0!r}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "delta0", d0)

    @property
    def d(self) -> int:
        return int(self.matrix.shape[0])


def _weights_of(obj) -> np.ndarray:
    return obj.weights if isinstance(obj, ProbVec) else np.asarray(obj, dtype=float)


def relative_entropy(nu, mu) -> float:
    """R(nu || mu) = sum nu log(nu/mu), with 0 log 0 = 0 and +inf when
    nu puts mass where mu does not.

    R is nonnegative, but the rounded sum of terms of both signs can fall
    below 0 when nu is within rounding of mu; a negative sum returns 0.0.
    +inf and nan are returned as they are."""
    a = _weights_of(nu)
    b = _weights_of(mu)
    if a.shape != b.shape:
        raise DimensionMismatch(f"relative_entropy: shapes {a.shape} and {b.shape} differ")
    value = float(np.sum(rel_entr(a, b)))
    return 0.0 if value < 0.0 else value


def kernel_apply(m, A: Kernel) -> ProbVec:
    """The one-step distribution m A; every entry is >= delta0."""
    w = _weights_of(m)
    if w.size != A.d:
        raise DimensionMismatch(f"kernel_apply: vector has {w.size} entries, kernel is {A.d}x{A.d}")
    return ProbVec(w @ A.matrix)


def stationary_distribution(A: Kernel) -> ProbVec:
    """The unique m with m A = m, via a dense least-squares solve of the
    stacked system [A^T - I; 1^T] m = [0; 1]."""
    d = A.d
    lhs = np.vstack([A.matrix.T - np.eye(d), np.ones((1, d))])
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    m = ProbVec(sol)
    residual = float(np.abs(m.weights @ A.matrix - m.weights).sum())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ConvergenceError(
            f"stationary_distribution: fixed-point residual {residual:.3e} exceeds "
            f"{STATIONARY_RESIDUAL_TOL}"
        )
    return m


def build_kernel_qsd(p) -> Kernel:
    """Kernel of the conditioned-walk form.

    ``p`` is a strictly positive probability vector on ``{0, 1, .., d}``;
    row ``x`` of the result is ``p`` restricted to ``{1..d}`` plus an extra
    ``p[0]`` on the diagonal, i.e. ``A(x, y) = p[y] + p[0] * 1{x == y}``.
    """
    q = _clean_weights(p, "build_kernel_qsd: p")
    if q.size < 2:
        raise DimensionMismatch("build_kernel_qsd: p must live on {0, 1, .., d} with d >= 1")
    if q.min() <= 0.0:
        raise PositivityViolation("build_kernel_qsd: p must be strictly positive")
    d = q.size - 1
    return Kernel(np.tile(q[1:], (d, 1)) + q[0] * np.eye(d))


def build_kernel_mixture(alpha: float, p, B) -> Kernel:
    """Mixture kernel ``A(x, y) = alpha * p[y] + (1 - alpha) * B(x, y)``.

    ``alpha`` in (0, 1) and strictly positive ``p`` guarantee the positivity
    floor even when the row-stochastic ``B`` has zero entries.
    """
    alpha = _as_real(alpha, "build_kernel_mixture: alpha", PositivityViolation)
    if not 0.0 < alpha < 1.0:
        raise PositivityViolation(f"build_kernel_mixture: alpha={alpha!r} outside (0, 1)")
    q = _clean_weights(p, "build_kernel_mixture: p")
    if q.min() <= 0.0:
        raise PositivityViolation("build_kernel_mixture: p must be strictly positive")
    Bm = _float_array(B, "build_kernel_mixture: B", DimensionMismatch)
    if Bm.ndim != 2 or Bm.shape[0] != Bm.shape[1]:
        raise DimensionMismatch(f"build_kernel_mixture: B must be square, got {Bm.shape}")
    if Bm.shape[0] != q.size:
        raise DimensionMismatch(
            f"build_kernel_mixture: B is {Bm.shape[0]}x{Bm.shape[0]} but p has {q.size} entries"
        )
    rows = np.vstack([_clean_weights(Bm[x], f"build_kernel_mixture: B row {x + 1}") for x in range(Bm.shape[0])])
    return Kernel(alpha * q[None, :] + (1.0 - alpha) * rows)
