"""Text formatting helpers: 17-significant-digit floats and CSV emission.

Floats are written with %.17g (:func:`f17`), so that every IEEE-754 double
round-trips exactly through text; ``0.1`` is written
``0.10000000000000001``.  CSV files use '.' as the decimal separator and LF
line endings on every platform.

Two writers share the header layout.  :func:`write_csv` formats rows of
Python values one cell at a time.  :func:`write_array_csv` writes columns
of numpy arrays in blocks of ``_BLOCK_ROWS`` rows.  A block is one zeroed
row matrix of uint32 words: every cell has a fixed slot of words, its
separator included, and a slot's unused bytes stay NUL.  The matrix is
held word-major, so each slot word is filled for the whole block as one
contiguous plane; one transposing copy gives the bytes in row order, and
``bytes.translate(None, b"\\0")`` drops the NULs before the write.

Digits are written four at a time, as words looked up in ``_QUADS``.  An
integer cell takes a word per four digits, its leading zero groups as
NULs.  A float cell takes seven words: two lead words (the separator and
``0.``, ``0.0``... with the first digit, or that digit and ``.`` in
exponent form) from ``_LEAD``, the other 16 digits as four groups, and
the ``e-XX`` word from ``_EXPONENT``.  A group that only zeros follow is
looked up in the table's stripped half, where trailing zeros are NUL, so
the flag "all zeros so far", carried from the last group, strips them;
the lead and exponent tables are indexed by decade, first digit and that
flag.  Its floats equal :func:`f17` byte for byte.  The 17 digits ``N``
come from one of two routes, chosen per cell:

* ``0.0`` and ``1e-6 <= v < 1``: the exact two-product.  ``10^P``, ``P =
  16 - E <= 22``, is an exact double, and Dekker's split gives ``v 10^P =
  p + err`` exactly in doubles; ``p >= 10^16 > 2^53`` is an even integer,
  so ``N = p + rint(err)`` rounds half to even.  No value of these decades
  rounds up to the next one.
* ``_DECADES[0] <= v < 1e-6``, where ``_DECADES[0]`` is the smallest
  double at or above ``1e-39``: :func:`_significand17`, the significand
  times a power of five, which down to that decade fits in 128 bits.

Both are exact, ties included.  Values from ``1e-4`` up print in fixed
form, smaller ones in exponent form.  Every other value (``1``, negative,
subnormal, below ``1e-39``, non-finite) goes through :func:`f17` itself.
A 5e4-step path of two states is written in 13-16 ms, about 4 ms of it
in ``translate`` (process time on one pinned vCPU of a 2-vCPU Xeon).
"""
from __future__ import annotations

import io
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionViolation

_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ONE = np.uint64(1)

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

_Q = 10**4


def _quads() -> np.ndarray:
    """Four-digit groups as uint32 words of their ASCII bytes, in four parts.

    ``[0, _Q)`` is ``"%04d"``.  ``[_Q, 2 _Q)`` is the same with its trailing
    zeros as NUL: a float's last groups, after its last nonzero digit.
    ``[2 _Q, 3 _Q)`` is ``"%4d"`` with its leading blanks as NUL: an
    integer's first nonzero group, or its last group if every group is
    zero.  Entry ``3 _Q``, four NULs, is each of an integer's leading zero
    groups.
    """
    g = np.arange(_Q)
    text = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + np.uint8(ord("0"))  # column g: "%04d" % g
    # digit i (of 0..3) is a trailing zero when g is a multiple of 10^(4 - i),
    # and a leading one, but for the last digit, when g < 10^(3 - i)
    no_trailing = g % 10 ** np.arange(4, 0, -1)[:, None] != 0
    no_leading = g >= 10 ** np.arange(3, -1, -1)[:, None]
    no_leading[3] = True
    parts = [text, text * no_trailing, text * no_leading, np.zeros((4, 1), np.uint8)]
    return np.concatenate(parts, axis=1).T.copy().view(np.uint32).ravel()


def _leads() -> tuple[np.ndarray, np.ndarray]:
    """The words of a float cell around its last 16 digits, by ``20 k + 10 bare + d0``.

    For the decade ``E = k + _E_MIN``, the first digit ``d0`` and ``bare``
    when the last 16 digits are zeros, the lead is the separator and the
    text before those digits, as two uint32 words (one row each), and the
    exponent word is ``"e-XX"`` or NULs.  A zero (``d0 = 0``) is ``",0"``
    in every decade.
    """
    leads, exponents = [], []
    for E in range(_E_MIN, 0):
        for bare in (False, True):
            for d0 in range(10):
                if d0 == 0:
                    leads.append(b",0")
                elif E >= -4:
                    leads.append(b",0." + b"0" * (-E - 1) + b"%d" % d0)
                else:
                    leads.append(b",%d" % d0 + (b"" if bare else b"."))
                exponents.append(b"e-%02d" % -E if E < -4 and d0 else b"")
    lead = np.array(leads, dtype="S8").view(np.uint32).reshape(-1, 2).T.copy()
    return lead, np.array(exponents, dtype="S4").view(np.uint32)


_QUADS = _quads()
_LEAD, _EXPONENT = _leads()
_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", dtype=np.uint32)

# The two-product route, 1e-6 <= v < 1: decades E = -6..-1, k = _TWO_K + j,
# and 10^P, P = 16 - E = 22 - j, exact doubles split in two 26-bit halves
_TWO_K = -6 - _E_MIN
_TWO_LO = _DECADES[_TWO_K]
_SPLIT = 2.0**27 + 1
_P10 = np.array([float(10**P) for P in range(22, 16, -1)])
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_P10_LO = _P10 - _P10_HI


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


def _float_words(v: np.ndarray, out: np.ndarray) -> None:
    """Write the cells ``"," + f17(v)`` of the ``(F, R)`` floats ``v`` into ``out[f, :, r]``,
    seven uint32 words a cell: two lead words, four digit groups and the exponent.

    ``v`` is the caller's scratch and is overwritten.  A cell in ``[1e-6, 1)``
    or ``0.0`` takes its digits from the two-product, one in ``[_DECADES[0],
    1e-6)`` from :func:`_significand17`, and every other cell's text is
    :func:`f17`'s.  The 17 digits ``N`` are the first digit ``d0`` and the
    groups ``g1..g4``; a group whose later groups are all zeros is looked up
    in the stripped half of ``_QUADS``, and so the lead knows when all 16 are
    zeros.
    """
    flat = v.reshape(-1)
    two = v >= _TWO_LO
    two &= v < 1.0
    other = np.flatnonzero(~two & (v.view(np.uint64) != 0))  # all but +0.0
    x = flat[other]
    flat[other] = 0.0
    # j = E + 6, the decade of v above 1e-6; 0 for a zero
    j = (v >= _DECADES[_TWO_K + 1]).view(np.uint8).copy()
    for d in _DECADES[_TWO_K + 2:-1]:
        j += (v >= d).view(np.uint8)
    k = j.astype(np.intp)
    # Dekker's two-product: v 10^P = p + err exactly, with 10^P and both its
    # halves exact doubles; p >= 10^16 > 2^53 is an even integer, so
    # p + rint(err) is v 10^P rounded half to even, below 10^17 in these decades
    c, ch, cl = np.take(_P10, k), np.take(_P10_HI, k), np.take(_P10_LO, k)
    t = v * _SPLIT
    vh = t - v
    vh = np.subtract(t, vh, out=vh)
    vl = np.subtract(v, vh, out=t)
    p = v * c
    err = np.multiply(vh, ch, out=c)
    np.subtract(p, err, out=err)
    err -= np.multiply(vl, ch, out=ch)
    err -= np.multiply(vh, cl, out=vh)
    err = np.subtract(np.multiply(vl, cl, out=vl), err, out=err)
    N = p.astype(np.int64)
    N += np.rint(err, out=err).astype(np.int64)
    del t, vh, vl, p, err, ch, cl
    k += _TWO_K
    mid = (x >= _DECADES[0]) & (x < _TWO_LO)
    if mid.any():
        Nm, E = _significand17(x[mid])
        N.reshape(-1)[other[mid]] = Nm
        k.reshape(-1)[other[mid]] = E - _E_MIN
    q = N // 10**8
    g4 = (N - q * 10**8).astype(np.uint32)  # g3 g4
    hi = q.astype(np.uint32)  # d0 g1 g2
    del N, q
    g3 = g4 // _Q
    g4 -= g3 * _Q
    t = hi // _Q  # d0 g1
    g2 = hi - t * _Q
    d0 = np.floor_divide(t, _Q, out=hi)
    g1 = t - d0 * _Q
    zeros = g4 == 0
    out[:, 5] = np.take(_QUADS, g4 + _Q)
    for i, g in ((4, g3), (3, g2), (2, g1)):
        out[:, i] = np.take(_QUADS, g + zeros * _Q)
        zeros &= g == 0
    k *= 20
    k += zeros * 10
    k += d0
    out[:, 0] = np.take(_LEAD[0], k)
    out[:, 1] = np.take(_LEAD[1], k)
    out[:, 6] = np.take(_EXPONENT, k)
    slow = other[~mid]
    if slow.size:
        texts = np.array([("," + f17(y)).encode() for y in x[~mid].tolist()], dtype="S28")
        f, r = np.divmod(slow, v.shape[1])
        out[f, :, r] = texts.view(np.uint32).reshape(-1, 7)


def _int_words(c: np.ndarray, out: np.ndarray) -> None:
    """Write the nonnegative integers ``c < 10^(4 m)`` into the ``m`` planes ``out``,
    four digits a uint32 word, leading zeros as NUL but for the last digit."""
    c = c.astype(np.uint64)
    groups = []
    for _ in range(len(out) - 1):
        q = c // np.uint64(_Q)
        groups.append((c - q * np.uint64(_Q)).astype(np.intp))
        c = q
    groups.append(c.astype(np.intp))
    lead = True  # the groups so far are all zeros
    for i, g in enumerate(reversed(groups)):
        index = g + lead * (2 * _Q)
        if i < len(out) - 1:
            lead = lead & (g == 0)
            index += lead * _Q
        out[i] = np.take(_QUADS, index)


def write_array_csv(path, header: Sequence[str], ints: Sequence[np.ndarray], floats: np.ndarray,
                    provenance: str | None = None) -> None:
    """Write rows of integer columns followed by float columns.

    ``ints`` holds 1-D arrays of nonnegative integers and ``floats`` a 2-D
    float array, all with the same number of rows.  Integers are written in
    decimal, floats as :func:`f17`.  No row is formatted in a Python loop:
    a block of ``_BLOCK_ROWS`` rows becomes one row matrix of uint32 words,
    every cell in its own slot of words with its separator, held word-major
    so that each slot's words are written as contiguous planes, and its
    bytes but the NULs are written as they are.  An integer column with a
    negative, fractional, non-finite or 2^64-or-larger value raises
    :class:`PreconditionViolation` naming its header, before the file is
    opened.
    """
    for name, c in zip(header, ints):
        if c.size and not (c.min() >= 0 and (c.dtype.kind in "iu" or (
                np.all(np.isfinite(c) & (c == np.floor(c))) and c.max() < 2.0**64))):
            raise PreconditionViolation(f"write_array_csv: column '{name}' must hold nonnegative integers")
    rows, F = floats.shape
    # each integer column: a comma word but for the first cell, and a word per four digits
    slots = []
    f0 = 0  # the first plane after the integer slots
    for j, c in enumerate(ints):
        f0 += j > 0
        m = -(-len(str(int(c.max(initial=0)))) // 4)
        slots.append((f0, f0 + m))
        f0 += m
    words = np.zeros((f0 + 7 * F + 1, min(rows, _BLOCK_ROWS)), dtype=np.uint32)
    for lo, _ in slots[1:]:
        words[lo - 1] = _COMMA
    words[-1] = _NEWLINE
    with open(path, "wb") as fh:
        fh.write(_head(header, provenance).encode())
        for lo in range(0, rows, _BLOCK_ROWS):
            block = np.array(floats[lo:lo + _BLOCK_ROWS].T, dtype=np.float64, order="C")
            R = block.shape[1]
            view = words[:, :R]
            for c, (a, b) in zip(ints, slots):
                _int_words(c[lo:lo + R], view[a:b])
            _float_words(block, view[f0:-1].reshape(F, 7, R))
            if not ints and F:
                view[f0].view(np.uint8)[::4] = 0  # the first cell's comma
            fh.write(view.T.tobytes().translate(None, b"\0"))
