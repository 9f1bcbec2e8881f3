"""Text formatting helpers: 17-significant-digit floats and CSV emission.

Floats are written with %.17g (:func:`f17`), so that every IEEE-754 double
round-trips exactly through text; ``0.1`` is written
``0.10000000000000001``.  CSV files use '.' as the decimal separator and LF
line endings on every platform.

Two writers share the header layout.  :func:`write_csv` formats rows of
Python values one cell at a time.  :func:`write_array_csv` writes columns
of numpy arrays in blocks of ``_BLOCK_ROWS`` rows: each block is laid out
as a uint8 matrix, one fixed-width slot per cell, with a keep-mask over
it, and the kept bytes, in row order, are written straight to the file.
Its floats equal :func:`f17` byte for byte.  The fast domain is ``0.0``
and ``_DECADES[0] <= v < 1``, where ``_DECADES[0]`` is the smallest double
at or above ``1e-39``: fixed form ``0.000ddd`` on ``[1e-4, 1)`` and
exponent form ``d.ddde-XX`` below.  There the 17 significant digits come
from integer arithmetic (:func:`_significand17`): the significand times a
power of five, which down to that decade fits in 128 bits, so the digits
are exact, ties included.  Every value outside the domain goes through
:func:`f17` itself.

Digits, of integer cells and of the 17-digit ``N`` of a float cell, come
out one decimal place per pass over the block, last place first, by a
uint64 floor divide: ``q = N // 10``, the digit ``N - 10 q``, then ``N =
q``.  numpy's uint64 ``np.divmod`` gives the same digits at about 2.6
times the cost (17 places of 16,384 values: 1.3 ms against 0.50 ms on a
2-vCPU Xeon).
"""
from __future__ import annotations

import io
import math
from typing import Iterable, Sequence

import numpy as np

_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ONE = np.uint64(1)
_TEN = np.uint64(10)

# rows per block of write_array_csv
_BLOCK_ROWS = 8192


# E = -39: the deepest decade whose digit scale 5^(16 - E) fits in 128 bits
_E_MIN = 16 - int(math.log(2.0**128, 5))


def _decades() -> np.ndarray:
    """``_DECADES[E - _E_MIN]``: the smallest double ``>= 10^E``, for ``E = _E_MIN..0``."""
    out = [1.0]
    five = 1
    for k in range(1, 1 - _E_MIN):
        five *= 5
        x = float(f"1e-{k}")  # the nearest double
        num, den = x.as_integer_ratio()
        # x = num / den with den = 2^j, j >= k; it lies below 10^-k when num 5^k < 2^(j-k)
        out.append(math.nextafter(x, 1.0) if num * five < den >> k else x)
    return np.array(out[::-1])


def _pow5_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per ``E = _E_MIN..-1`` (index ``E - _E_MIN``) the digit scale ``5^P``, ``P = 16 - E``.

    Returns ``hi``, ``lo`` and ``shift``.  ``hi 2^64 + lo`` is ``5^P``,
    which has at most 128 bits, scaled by a power of two into ``[2^127,
    2^128)``.  For a double with significand ``m`` and biased exponent
    ``e``, ``v 10^P = m (hi 2^64 + lo) / 2^(64 + shift - e)``.
    """
    hi, lo, shift = [], [], []
    five = 5**16
    for P in range(17, 17 - _E_MIN):
        five *= 5
        b = five.bit_length()
        F = five << (128 - b)
        hi.append(F >> 64)
        lo.append(F & 0xFFFFFFFFFFFFFFFF)
        # v 10^P = m 5^P 2^(e - 1075 + P), and 5^P = F 2^(b - 128)
        shift.append(1139 - P - b)
    return tuple(np.array(t[::-1], dtype=np.uint64) for t in (hi, lo, shift))


_DECADES = _decades()
# _BINADE_DECADE[e] = floor(log10 2^(e - 1023)), clamped at _E_MIN - 1, for the biased
# exponents e = 1..1022 of normal doubles below 1; a double of that binade lies in
# that decade or the next
_BINADE_DECADE = np.searchsorted(_DECADES, np.ldexp(1.0, np.arange(-1023, 0)), side="right") + _E_MIN - 1
_POW5 = _pow5_table()

# A fast cell's slot: a lead byte, ".", "000", the 17 digits, "e-" and two
# exponent digits.  The lead is "0" in fixed form and the first digit in
# exponent form.  Every f17 text, at most 24 bytes, fits in it as well.
_FAST_WIDTH = 26
_FAST_TEMPLATE = np.frombuffer(b"0.000" + b"0" * 17 + b"e-00", dtype=np.uint8)
# _FAST_KEEP[row, last] keeps the bytes of a cell whose last nonzero digit
# sits at `last` (5..21).  Rows 0..3 are fixed form for E = -4..-1: "0.",
# the last -E - 1 of the three zeros, and the digits up to `last`; row 3
# with last = 0 keeps only the "0" of a zero.  Row 4 is exponent form: the
# lead, "." if a digit after the first is kept, the digits after the first
# up to `last`, and the exponent.
_pos = np.arange(_FAST_WIDTH)
_last = _pos[:, None]
_fixed = (_pos <= _last) & ((_pos < 2) | (_pos >= np.arange(2, 6)[:, None, None]))
_expo = ((_pos == 0) | ((_pos == 1) & (_last >= 6)) | ((_pos >= 6) & (_pos <= _last))
         | (_pos >= 22))
_FAST_KEEP = np.concatenate([_fixed, _expo[None]])
# _FAST_ROW[E - _E_MIN] is the row of _FAST_KEEP and _EXPONENT_DIGITS[E - _E_MIN]
# the two digits of -E, for the decimal exponents E = _E_MIN..-1
_E = np.arange(_E_MIN, 0)
_FAST_ROW = np.where(_E < -4, 4, _E + 4)
_EXPONENT_DIGITS = np.stack([-_E // 10, -_E % 10], axis=1).astype(np.uint8)


def f17(x: float) -> str:
    return format(float(x), ".17g")


def cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f17(v)
    return str(v)


def mulhilo64(a, b) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b`` of uint64 values.

    ``a`` may be one uint64 scalar.
    """
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    t1 = b & _LO32  # b_lo
    t2 = a_hi * t1  # hi_lo
    t1 *= a_lo  # lo_lo
    t1 >>= _SHIFT32
    t1 += t2 & _LO32
    t2 >>= _SHIFT32
    lo = b >> _SHIFT32  # b_hi
    hi = a_hi * lo
    lo *= a_lo  # lo_hi
    # lo_hi <= (2**32 - 1)**2 and the other two addends are below 2**32, so cross fits in 64 bits
    t1 += lo
    t1 >>= _SHIFT32
    hi += t2
    hi += t1
    return hi, np.multiply(a, b, out=lo)


def _head(header: Sequence[str], provenance: str | None) -> str:
    return (f"# {provenance}\n" if provenance else "") + ",".join(header) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], provenance: str | None = None) -> None:
    """Write rows of Python values, each cell formatted by :func:`cell`."""
    buf = io.StringIO()
    buf.write(_head(header, provenance))
    buf.writelines(",".join(cell(v) for v in row) + "\n" for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _significand17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``N`` and ``E`` with ``v = N 10^(E-16)`` to 17 significant digits, for
    ``_DECADES[0] <= v < 1``.

    Write ``v = m 2^(e-1075)`` with ``m`` the 53-bit significand and ``e``
    the biased exponent.  The decimal exponent ``E = floor(log10 v)`` is
    ``B = _BINADE_DECADE[e]`` or ``B + 1``, as the binade ``[2^(e-1023),
    2^(e-1022))`` spans less than a decade.  It is ``B + 1`` exactly when
    ``v >= _DECADES[B + 1 - _E_MIN]``: that entry is the smallest double at
    or above ``10^(B+1)``, so the comparison of doubles decides the one of
    reals.

    The digits are ``N = round_half_even(v 10^P)`` with ``P = 16 - E``, and
    ``v 10^P = m F / 2^u`` with ``F = hi 2^64 + lo`` and ``u = 64 + shift - e``
    from ``_POW5``.  As ``v 10^P`` lies in ``[10^16, 10^17)`` and ``m F`` in
    ``[2^179, 2^181)``, ``u`` lies in [123, 127].  Two :func:`mulhilo64`
    products give ``m F = w2 2^128 + w1 2^64 + w0`` exactly; with ``r = u -
    64`` the quotient is ``w2 << (64 - r) | w1 >> r`` and the remainder is
    ``R 2^64 + w0`` with ``R = w1 mod 2^r``, against the half ``H 2^64``,
    ``H = 2^(r-1)``.  This rounds half to even (an exhaustive search over
    the binades of ``1e-39 <= v < 1e-11``, where ``w0`` can be nonzero,
    found no double with ``R = H`` and ``w0 > 0``, but the test of ``w0``
    keeps the rounding exact by construction).

    Rounding carries ``N`` to ``10^17`` when ``v`` lies within half a unit
    of the 17th digit below ``10^(E+1)``; then ``N = 10^16`` in the next
    decade.  That decade is never ``-4`` or ``0``: the doubles below 1e-4
    and 1, ``9.9999999999999991e-05`` and ``1 - 2^-53``, do not carry.
    """
    hi5, lo5, shift5 = _POW5
    bits = v.view(np.uint64)
    e = bits >> np.uint64(52)
    # np.take with intp indices gathers about twice as fast as fancy indexing
    k = np.take(_BINADE_DECADE, e.astype(np.intp)) - _E_MIN
    k += v >= np.take(_DECADES, k + 1)
    r = np.take(shift5, k) - e
    del e  # each block array is freed as soon as it is spent, to keep the peak low
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    w2, w1 = mulhilo64(np.take(hi5, k), m)
    w0 = np.uint64(0)
    lo = np.take(lo5, k)
    if lo.any():  # 5^P < 2^64 has a zero low word, for every v >= 1e-11
        b1, w0 = mulhilo64(lo, m)
        w1 += b1
        w2 += w1 < b1
        del b1
    del m, lo
    N = (w2 << (np.uint64(64) - r)) | (w1 >> r)
    del w2
    R = w1 & ((_ONE << r) - _ONE)
    del w1
    H = _ONE << (r - _ONE)
    N += (R > H) | ((R == H) & ((w0 != 0) | (N & _ONE).astype(bool)))
    carry = N == np.uint64(10**17)
    N[carry] = np.uint64(10**16)
    return N, k + carry + _E_MIN


def _float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and keep-mask of the cells ``f17(v) + ","``, shape ``v.shape + (width + 1,)``.

    A fast-domain cell is laid out in the ``_FAST_TEMPLATE`` slot with the
    17 digits of ``N`` and the exponent digits of ``E``, and the row of
    ``_FAST_KEEP`` for ``E`` keeps its fixed or its exponent form.  A zero
    keeps only its ``"0"``.  Every other cell holds ``f17(v)``, padded with
    masked NULs.  A block without exponent-form cells is cut to the fixed
    form's first 22 bytes, or to its longest ``f17`` text.
    """
    zero = (v == 0) & ~np.signbit(v)
    fast = zero | ((v >= _DECADES[0]) & (v < 1))
    N, E = _significand17(np.where(fast & ~zero, v, 0.5))
    slow = np.flatnonzero(~fast)
    texts = [f17(x).encode() for x in v.ravel()[slow].tolist()]
    expo = E < -4
    width = max([_FAST_WIDTH if expo.any() else 22] + [len(t) for t in texts])
    chars = np.zeros(v.shape + (width + 1,), dtype=np.uint8)
    for j in range(21, 4, -1):
        q = N // _TEN
        chars[..., j] = N - q * _TEN
        N = q
    if width == _FAST_WIDTH:
        chars[..., 0] = chars[..., 5] * expo
        chars[..., 24:26] = _EXPONENT_DIGITS[E - _E_MIN]
    last = 21 - np.argmax(chars[..., 21:4:-1] != 0, axis=-1)
    keep = np.zeros(chars.shape, dtype=bool)
    keep[..., :width] = _FAST_KEEP[_FAST_ROW[E - _E_MIN], np.where(zero, 0, last), :width]
    chars[..., :width] += _FAST_TEMPLATE[:width]
    if texts:
        flat_chars, flat_keep = chars.reshape(-1, width + 1), keep.reshape(-1, width + 1)
        flat_chars[slow, :width] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        flat_keep[slow, :width] = flat_chars[slow, :width] != 0
    chars[..., width] = ord(",")
    keep[..., width] = True
    return chars, keep


def _int_cells(k: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and keep-mask of the cells ``str(k) + ","`` of nonnegative integers ``k < 10^width``."""
    k = k.astype(np.uint64)
    chars = np.empty((len(k), width + 1), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        q = k // _TEN
        chars[:, j] = k - q * _TEN
        k = q
    # keep from the first nonzero digit on, and always the last digit and the comma
    keep = np.logical_or.accumulate(chars != 0, axis=1)
    keep[:, width - 1:] = True
    chars += ord("0")
    chars[:, width] = ord(",")
    return chars, keep


def write_array_csv(path, header: Sequence[str], ints: Sequence[np.ndarray], floats: np.ndarray,
                    provenance: str | None = None) -> None:
    """Write rows of integer columns followed by float columns.

    ``ints`` holds 1-D arrays of nonnegative integers and ``floats`` a 2-D
    float array, all with the same number of rows.  Integers are written in
    decimal, floats as :func:`f17`.  No row is formatted in a Python loop:
    a block of ``_BLOCK_ROWS`` rows becomes a uint8 matrix of fixed-width
    cells, each with its separator, and the bytes its keep-mask selects are
    written as they are.
    """
    widths = [len(str(int(c.max(initial=0)))) for c in ints]
    with open(path, "wb") as fh:
        fh.write(_head(header, provenance).encode())
        for lo in range(0, len(floats), _BLOCK_ROWS):
            block = np.asarray(floats[lo:lo + _BLOCK_ROWS], dtype=np.float64)
            rows = len(block)
            cells = [_int_cells(c[lo:lo + rows], w) for c, w in zip(ints, widths)]
            cells.append(tuple(a.reshape(rows, -1) for a in _float_cells(block)))
            chars = np.concatenate([c for c, _ in cells], axis=1)
            chars[:, -1] = ord("\n")
            keep = np.concatenate([k for _, k in cells], axis=1)
            fh.write(chars[keep].tobytes())
