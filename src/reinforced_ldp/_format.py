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
Its floats equal :func:`f17` byte for byte.  On the fast domain, ``0.0``
and ``1e-4 <= v < 1``, the 17 significant digits are computed exactly in
integer arithmetic (:func:`_fast_fraction`); every other value goes
through :func:`f17` itself.
"""
from __future__ import annotations

import io
from typing import Iterable, Sequence

import numpy as np

_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# rows per block of write_array_csv
_BLOCK_ROWS = 8192
# the doubles nearest 1e-4, 1e-3, 1e-2 and 1e-1; each lies above its power of ten
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1])
# 5**P for the digit scale P = 16 - E, indexed by E + 4 for E = -4..-1
_POW5 = np.array([5**20, 5**19, 5**18, 5**17], dtype=np.uint64)
# a fast-domain cell is "0.000" and 17 digits
_FAST_WIDTH = 22
_FAST_TEMPLATE = np.frombuffer(b"0.000" + b"0" * 17, dtype=np.uint8)
# _FAST_KEEP[E + 4, last] keeps "0.", the last -E - 1 of the three zeros, and the bytes up to `last`
_pos = np.arange(_FAST_WIDTH)
_FAST_KEEP = (_pos <= _pos[:, None]) & ((_pos < 2) | (_pos >= np.arange(2, 6)[:, None, None]))


def f17(x: float) -> str:
    return format(float(x), ".17g")


def cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f17(v)
    return str(v)


def mulhilo64(a, b) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b`` of uint64 values."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    # lo_hi <= (2**32 - 1)**2 and the other two addends are below 2**32, so cross fits in 64 bits
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LO32) + lo_hi
    hi = a_hi * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, a * b


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
    """``N`` and ``E`` with ``v = N 10^(E-16)`` to 17 significant digits, for ``1e-4 <= v < 1``.

    Write ``v = m 2^q`` with ``m`` the 53-bit significand and ``q = e - 1075``
    (``e`` the biased exponent).  The decimal exponent ``E = floor(log10 v)``
    is the number of entries of ``_DECADES`` at or below ``v``, minus 5, and
    it is exact: each entry is the double nearest its power of ten ``10^k``
    and lies above it, so the next double below lies below ``10^k``, and
    ``v >= 10^k`` holds as doubles exactly when it holds as reals.

    The 17 significant digits are ``N = round_half_even(v 10^P)`` with
    ``P = 16 - E`` in [17, 20], that is ``N = round_half_even(m 5^P / 2^s)``
    with ``s = -(q + P)``.  As ``e - 1023 = floor(log2 v)`` and
    ``10^E <= v < 10^(E+1)``, ``s = 36 + E - floor(log2 v)`` lies in
    [36, 46] for E = -4..-1, inside [1, 63]: the product
    ``m 5^P < 2^53 5^20 < 2^100`` is formed exactly by :func:`mulhilo64`,
    the quotient by ``2^s`` is ``hi << (64 - s) | lo >> s`` and its
    remainder ``lo mod 2^s`` lies in the low word.  Rounding never carries
    ``N`` to ``10^17``: that would need ``v`` within ``5e-18`` relative
    below ``10^(E+1)``, but the double below 1 is ``1 - 2^-53``, and the
    double below any other ``10^(E+1)`` lies at least half a spacing, over
    ``5e-17`` relative, below it, by the same nearest-double argument.  So
    ``10^16 <= N < 10^17``.
    """
    E = np.searchsorted(_DECADES, v, side="right") - 5
    bits = v.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    s = (1059 + E - (bits >> np.uint64(52)).astype(np.int64)).astype(np.uint64)
    hi, lo = mulhilo64(_POW5[E + 4], m)
    N = (hi << (np.uint64(64) - s)) | (lo >> s)
    rem = lo & ((np.uint64(1) << s) - np.uint64(1))
    half = np.uint64(1) << (s - np.uint64(1))
    N += (rem > half) | ((rem == half) & (N & np.uint64(1)).astype(bool))
    return N, E


def _float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and keep-mask of the cells ``f17(v) + ","``, shape ``v.shape + (width + 1,)``.

    A fast-domain cell is laid out as ``"0.000"`` and the 17 digits of
    ``N``; the mask keeps ``"0."``, the last ``-E - 1`` of the three zeros,
    and the digits up to the last nonzero one.  A zero keeps only its
    ``"0"``.  Every other cell holds ``f17(v)``, padded with masked NULs.
    """
    zero = (v == 0) & ~np.signbit(v)
    fast = zero | ((v >= 1e-4) & (v < 1))
    N, E = _significand17(np.where(fast & ~zero, v, 0.5))
    slow = np.flatnonzero(~fast)
    texts = [f17(x).encode() for x in v.ravel()[slow].tolist()]
    width = max([_FAST_WIDTH] + [len(t) for t in texts])
    chars = np.zeros(v.shape + (width + 1,), dtype=np.uint8)
    for j in range(_FAST_WIDTH - 1, 4, -1):
        N, chars[..., j] = np.divmod(N, np.uint64(10))
    last = _FAST_WIDTH - 1 - np.argmax(chars[..., _FAST_WIDTH - 1:4:-1] != 0, axis=-1)
    keep = np.zeros(chars.shape, dtype=bool)
    keep[..., :_FAST_WIDTH] = _FAST_KEEP[E + 4, np.where(zero, 0, last)]
    chars[..., :_FAST_WIDTH] += _FAST_TEMPLATE
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
        k, chars[:, j] = np.divmod(k, np.uint64(10))
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
