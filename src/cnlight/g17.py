"""Byte-exact ``"%.17g" % x`` for a whole float64 array at once.

``fill(values, words)`` writes the ``%.17g`` text of each value and a
newline into one row of ``WIDTH`` bytes per value, at fixed positions,
with NUL wherever that value has no character.  Once the NUL bytes are
dropped, what is left is exactly ``"".join("%.17g\\n" % x for x in
values)``.

The 17 significant digits of x are n = round(y), y = |x| 10^k, k = 16 - X,
where X = floor(log10 |x|) is the decimal exponent, so that
10^16 <= y < 10^17.  They are computed exactly in binary64 arithmetic
(round to nearest; numpy fuses no multiply-add):

* 10^k = Ph + Pl, Ph the double nearest 10^k and Pl the double nearest
  10^k - Ph, both from exact integer arithmetic.  Only 0 <= k <= 266 is
  tabulated, so the fast path covers 1e-250 <= |x| < 1e17 and Dekker's
  split of Ph cannot overflow.
* Dekker's split and TwoProduct (Dekker 1971) give |x| Ph = p + e
  exactly; then h = (e + |x| Pl) + 1/2.  For y >= 10^16 > 2^53, p is an
  integer, and p + h differs from y + 1/2 by less than 4e-15:
  |x| (10^k - Ph - Pl) is below 2^-106 y, and each of the three roundings
  after the product is below half an ulp of a number under 16.
* n = p + floor(h) is then round(y) when the fraction of h is more than
  ``MARGIN`` = 1e-9 from 0 and from 1: y is neither a tie nor close to
  one, so CPython's correctly rounded, round-half-even digits agree.
* floor(log10 |x|) can be one off next to a power of ten; y then falls
  below 10^16 and n <= 10^16, or reaches 10^17 and n >= 10^17.
  Requiring n > 10^16, so that y >= 10^16 + 1/2, and n < 10^17, so that
  y < 10^17 - 1/2, keeps a margin at both ends; n = 10^16 itself is
  refused, as y may then lie just below 10^16 and need one more digit.

A value that fails any condition goes through CPython's own
``"%.17g" % x``, one value at a time: 0, -0, subnormals, inf, nan,
values outside the fast range, near-ties and exact ties, and a
floor(log10) off by one.

Each row is six little-endian uint64 words.  Byte 0 holds the sign,
bytes 1-5 the ``0.`` and zeros of fixed notation for -4 <= X < 0, byte
6 + 2j the digit d_j and byte 7 + 2j the decimal point if it follows d_j,
bytes 40-46 the exponent ``e-XX`` or ``e-XXX`` of X < -4 (``%g`` switches
to it below -4, and X < 17 on the fast path) and byte 47 the newline.
Trailing zeros of the fraction, and a point with nothing after it, stay
NUL.  The digit words come from a table of four-digit groups; the masks
and points come from a table indexed by the number of integer digits
and the number of kept digits, both set by X and the trailing zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "MARGIN", "fill"]

WIDTH = 48  # bytes per row: six words
MARGIN = 1e-9  # least distance of the fraction of h from 0 and 1

_X_MIN, _X_MAX = -250, 16  # decimal exponents of the fast path
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_WORD = "<u8"


def _halves(x: np.ndarray):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _powers():
    """Ph, its two halves and Pl of 10^(16 - X), indexed by X - _X_MIN."""
    ph, pl = [], []
    ten = 1
    for _ in range(_X_MAX - _X_MIN + 1):
        h = float(ten)  # int to float rounds to nearest
        ph.append(h)
        pl.append(float(ten - int(h)))
        ten *= 10
    ph = np.array(ph[::-1])
    return (ph, *_halves(ph), np.array(pl[::-1]))


_PH, _PH_HI, _PH_LO, _PL = _powers()


def _digit_words():
    """The word of g = 0..9999, its four digits at the even bytes, and the
    trailing zeros of g written with four digits."""
    pair = np.arange(100)
    slots = np.zeros((100, 4), np.uint8)
    slots[:, 0] = 48 + pair // 10
    slots[:, 2] = 48 + pair % 10
    two = slots.view("<u4")[:, 0].astype(np.uint64)
    zeros = (pair % 10 == 0).astype(np.uint8) + (pair == 0)
    words = two[:, None] | two << np.uint64(32)
    trailing = zeros + (pair == 0) * zeros[:, None]
    return words.ravel(), trailing.astype(np.uint8).ravel()


_QUAD, _TRAILING = _digit_words()


def _layouts():
    """Masks and points of words 0-4 by column m * 18 + kept, m the integer
    digits (0 for 0.ddd, 1 for d.ddde-XX), kept = max(m, significant
    digits); and the column of each (X - _X_MIN) * 17 + trailing zeros."""
    m = np.arange(18)[:, None, None]
    kept = np.arange(18)[:, None]
    digit = np.arange(20) - 3  # the digit in each two-byte slot
    rows = np.zeros((2, 18, 18, 20, 2), np.uint8)
    rows[0, ..., 0] = 255 * ((digit >= 0) & (digit < kept))
    rows[1, ..., 1] = 46 * ((digit == m - 1) & (kept > m) & (m > 0))
    masks, points = rows.reshape(2, 18 * 18, 40).view(_WORD).transpose(0, 2, 1)
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    m = np.where(x < -4, 1, np.maximum(x + 1, 0))
    column = m * 18 + np.maximum(m, 17 - np.arange(17))
    return masks.copy(), points.copy(), column.ravel()


_MASKS, _POINTS, _COLUMN = _layouts()


def _affixes():
    """Words 0 and 5 by X - _X_MIN: the "0." and zeros of -4 <= X < 0; the
    exponent of X < -4, and the newline."""
    rows = b"".join(
        (b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).ljust(8, b"\0")
        + (b"e%+03d" % x if x < -4 else b"").ljust(7, b"\0") + b"\n"
        for x in range(_X_MIN, _X_MAX + 1)
    )
    return np.frombuffer(rows, _WORD).reshape(-1, 2).T.copy()


_PREFIX, _SUFFIX = _affixes()


def fill(values: np.ndarray, words: np.ndarray) -> None:
    """Write ``"%.17g\\n" % values[i]`` into ``words[i]``, NUL-padded.

    ``values`` is a 1-d float64 array; ``words`` a (len(values),
    WIDTH // 8) array of little-endian uint64, the bytes of one row each.
    """
    v = np.asarray(values, dtype=np.float64)
    i, n, fast = _digits(v)

    # n = lead 10^16 + four groups of four digits
    hi = n // 10**8
    n -= hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    groups = []
    for half in (hi, n):
        top = half // 10**4
        half -= top * 10**4
        groups += [top, half]
    column = np.take(_COLUMN, i * 17 + _trailing_zeros(groups))

    lead += 48
    lead <<= 48
    digits = [lead.view(np.uint64)] + [np.take(_QUAD, g) for g in groups]
    for k, word in enumerate(digits):
        word &= np.take(_MASKS[k], column)
        word |= np.take(_POINTS[k], column)
        words[:, k] = word
    words[:, 0] |= np.take(_PREFIX, i) | (v < 0) * np.uint64(45)
    words[:, 5] = np.take(_SUFFIX, i)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g\n" % y for y in v[slow].tolist()]
        text = np.array(text, dtype=f"S{WIDTH}")
        words[slow] = text.view(_WORD).reshape(slow.size, -1)


def _digits(v: np.ndarray):
    """X - _X_MIN, the 17 significant digits n as one int64, and whether
    both are exact, for each value of ``v`` (see the module docstring).

    Each temporary is dropped once spent, to keep a frame's peak memory
    down."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log10(a)
    np.floor(x, out=x)
    fast = (x >= _X_MIN) & (x <= _X_MAX)  # false for nan, inf and 0
    a[~fast] = 1.0
    x[~fast] = 0.0
    i = x.astype(np.intp)
    i -= _X_MIN
    del x

    # y = a 10^k = p + e + a Pl, with a Ph = p + e exactly (Dekker)
    a_hi, a_lo = _halves(a)
    ph_hi, ph_lo = np.take(_PH_HI, i), np.take(_PH_LO, i)
    p = np.take(_PH, i)
    p *= a
    e = a_hi * ph_hi
    e -= p
    e += np.multiply(a_hi, ph_lo, out=a_hi)
    e += np.multiply(a_lo, ph_hi, out=ph_hi)
    e += np.multiply(a_lo, ph_lo, out=ph_lo)
    del a_hi, a_lo, ph_hi, ph_lo
    h = np.take(_PL, i)
    h *= a
    h += e
    h += 0.5
    del a, e
    r = np.floor(h)
    h -= r
    fast &= (h > MARGIN) & (h < 1.0 - MARGIN)
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    fast &= (n > 10**16) & (n < 10**17)
    return i, n, fast


def _trailing_zeros(groups) -> np.ndarray:
    """Trailing zeros of the 16 digits in four groups (all zero: 16)."""
    zeros = np.take(_TRAILING, groups[3]).astype(np.intp)
    run = zeros == 4
    for g in groups[2::-1]:
        tail = np.take(_TRAILING, g)
        zeros += run * tail
        run &= tail == 4
    return zeros
