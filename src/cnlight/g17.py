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

Each row is four little-endian uint64 words.  Byte 0 holds the sign,
bytes 1-5 the ``0.`` and zeros of fixed notation for -4 <= X < 0, byte 6
the digit d0, byte 7 the point after d0 for X = 0 and X < -4, bytes 8-23
d1 ... d16 from a table of four-digit groups, bytes 24-30 the exponent
``e-XX`` or ``e-XXX`` of X < -4 (``%g`` switches to it below -4, and
X < 17 on the fast path) and byte 31 the newline.  Words 0 and 3 come
from tables indexed by X; one table indexed by their count masks trailing
zeros, and a point with nothing after it.  The rare rows with X >= 1 put
their point after d_X, the bytes past it moved up one byte, into byte 24.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "MARGIN", "fill"]

WIDTH = 32  # bytes per row: four words
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


def _groups():
    """The word of g = 0..9999, its four ASCII digits from byte 0, and the
    trailing zeros of g written with four digits."""
    pair = np.arange(100)
    two = ((48 + pair // 10) | (48 + pair % 10) << 8).astype(np.uint64)
    zeros = (pair % 10 == 0) + (pair == 0).astype(np.uint8)
    trailing = zeros + (pair == 0) * zeros[:, None]
    return (two[:, None] | two << np.uint64(16)).ravel(), trailing.ravel()


_QUAD, _TRAILING = _groups()


def _masks():
    """Words 0-2 by the trailing zeros z = 0..16: d1 ... d(16 - z) and word 0,
    its point only if a digit follows; and by X = 1..16 (row X - 1), the
    bytes of d1 ... d_X that stay and the point that follows them."""
    byte, z, x = np.arange(24), np.arange(17)[:, None], np.arange(9, 25)[:, None]
    keep = (byte < 7) | (byte == 7) & (z < 16) | (byte > 7) & (byte < 24 - z)
    tables = 255 * keep, 255 * (byte < x), 46 * (byte == x)
    return [t.astype(np.uint8).view(_WORD).T.copy() for t in tables]


_MASKS, _STAY, _POINT = _masks()


def _affixes():
    """Words 0 and 3 by X - _X_MIN: the "0." and zeros of -4 <= X < 0 or
    the point of X = 0 and X < -4; the exponent of X < -4, and the newline."""
    rows = b"".join(
        (b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).ljust(7, b"\0")
        + (b"." if x == 0 or x < -4 else b"\0")
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

    # n = d0 10^16 + four groups of four digits
    groups = []
    for unit in (10**16, 10**12, 10**8, 10**4):
        groups.append(n // unit)
        n -= groups[-1] * unit
    lead, *groups = groups + [n]
    zeros = _trailing_zeros(groups)
    up = np.flatnonzero(i > -_X_MIN)  # X >= 1: the point follows d_X
    x = i[up] + _X_MIN
    zeros[up] = np.minimum(zeros[up], 16 - x)  # d1 ... d_X stay

    word = np.take(_PREFIX, i)
    word |= (lead + 48 << 48).view(np.uint64)
    word |= (v < 0) * np.uint64(45)
    word &= np.take(_MASKS[0], zeros)
    words[:, 0] = word
    for k in (1, 2):
        word = np.take(_QUAD, groups[2 * k - 1])
        word <<= 32
        word |= np.take(_QUAD, groups[2 * k - 2])
        word &= np.take(_MASKS[k], zeros)
        words[:, k] = word
    words[:, 3] = np.take(_SUFFIX, i)

    if up.size:  # d(X+1) ... d16 move up one byte, into byte 24 at most
        lo, hi = words[up, 1], words[up, 2]
        stay_lo, stay_hi = _STAY[1:, x - 1]
        move_lo, move_hi = lo & ~stay_lo, hi & ~stay_hi
        point_lo, point_hi = _POINT[1:, x - 1] * (zeros[up] < 16 - x)
        words[up, 1] = lo & stay_lo | move_lo << 8 | point_lo
        words[up, 2] = hi & stay_hi | move_hi << 8 | move_lo >> 56 | point_hi
        words[up, 3] |= move_hi >> 56

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g\n" % y for y in v[slow].tolist()], f"S{WIDTH}")
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
