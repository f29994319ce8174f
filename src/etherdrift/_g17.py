"""The "%.17g" text of float64 arrays, computed in numpy, byte for byte.

For each nonzero cell x:

1. k = floor(log10|x| − 1e-12) is never above the decimal exponent of x,
   and one below it only within 2.3e-12 (relative) above a power of ten.
2. y = |x|·10^(16−k) is formed in double-double arithmetic.  10^(16−k) is
   stored as 2^σ·(hi + lo), hi + lo in [1, 2), and |x|·2^σ is exact, so
   every partial product is a normal double (below |x| = 1e-292, where
   2^σ would leave the double range, hi + lo grows to at most 2^110).
   Dekker's product on Veltkamp halves forms hi·|x|·2^σ exactly (numpy
   has no FMA), and lo·|x|·2^σ is added.  At y ≈ 1e17 the error is below
   1e-14.  The rounded product is a whole number, since y > 2^53, so the
   small rest t alone gives floor(y) and frac(y).
3. The 17 digits are D = floor(y) + (frac(y) > ½).  A cell is certified
   only when |frac − ½| > 1e-9, 10^16 ≤ floor(y) ≤ 10^17 and D ≤ 10^17:
   a tie (2^-25, whose 18th and last digit is a 5, which "%.17g" rounds
   half to even) and a y past 10^17 (the double after an exact power of
   ten) are left to "%.17g" itself.  D = 10^17 is the carry into the next
   decade, of an exact power of ten or of 1e-14, whose 17 digits round
   up: 10^16, with k + 1.
4. The digits come out of divisions by 10^8 and 10^4, as 4-digit groups
   read from a table of their ASCII text; a table of each group's digit
   count gives the length without trailing zeros.

Each cell is written into a 32-byte slot of four little-endian words, at
fixed places:

    byte 0      the separator ("\\n" before a row's first cell, else ",")
    byte 1      "-" for a negative x or -0.0
    bytes 2-6   "0." and up to three zeros, for -4 <= k < 0
    byte 7      the first digit
    bytes 8-24  the other 16 digits, the point moved in among them
    bytes 25-29 "e+dd", "e-dd", "e+ddd" or "e-ddd", for k < -4 or k >= 17

and every byte that "%g" leaves out (a trailing zero of the fraction, a
bare point, an absent sign or prefix) is left 0, so that dropping the
zero bytes of a block leaves its text.  An uncertified cell is formatted
by "%.17g" and written into its slot as it stands.

The digit and layout tables, and the pairs of 10^(16−k) for every k of a
finite double, are built once, at import.
"""

import numpy as np

from .units import _quotient

_U64 = np.uint64
_WORDS = "<u8"  # a slot's words are little-endian, whatever the host's order
#: the powers 10^s, s = 16 - k, for every k of a finite nonzero double
#: (-324 to 308), read one low (-325) or carried (309); row = s - _SMIN
_SMIN, _SMAX = 16 - 309, 16 + 325
_ROWS = _SMAX - _SMIN + 1


def _power(s):
    """10^s = 2^σ·(hi + lo): (hi, lo, hi's upper and lower Veltkamp half, 2^σ)."""
    # floor(s·log2 10), so that 10^s/2^σ is in [1, 2); but 2^σ must be
    # a double, so below |x| = 1e-292 the pair grows, to at most 2^110
    sigma = min(s * 3321928094887 // 10 ** 12, 1023)
    hi, lo = _quotient(10 ** s, 1 << sigma) if s >= 0 else _quotient(1 << -sigma, 10 ** -s)
    upper = hi * 134217729.0
    upper -= upper - hi
    return hi, lo, upper, hi - upper, 2.0 ** sigma


def _words(texts):
    """Each text, of up to 8 bytes, as a little-endian word."""
    return np.array(list(texts), "S8").view(_WORDS).astype(_U64)


# What the layout reads, by 4-digit group, by digit count and by table row
# (row = 16 - k - _SMIN, so a carry's k + 1 is row - 1).
_v = np.arange(10000)
# a group's 4 ASCII digits, in the low or the high half of a word
_TEXT = sum((48 + d).astype(_U64) << _U64(8 * i)
            for i, d in enumerate((_v // 1000, _v // 100 % 10, _v // 10 % 10, _v % 10)))
_TEXT_HIGH = _TEXT << _U64(32)
# byte 7; 10 is the uncertified 10^17 + 1
_FIRST = (48 + np.arange(11)).astype(_U64) << _U64(56)
# the digit count through a group's last nonzero digit, 0 for 0000, by the
# group's place among the 16
_last = 4 - np.where(_v % 10, 0, np.where(_v % 100, 1, np.where(_v % 1000, 2, 3)))
_COUNTS = [np.where(_v, 4 * place + _last, 0).astype(np.uint8) for place in range(4)]
# by i of 0-16, over the 16 digits at bytes 8-23: the bytes of the first i
# digits, and a point in place of digit i (i = 16: none)
_byte, _i = np.arange(16), np.arange(17)[:, None]
_KEEP = list(np.where(_byte < _i, 0xFF, 0).astype(np.uint8).view(_WORDS).T.astype(_U64))
_POINT = list(np.where(_byte == _i, 46, 0).astype(np.uint8).view(_WORDS).T.astype(_U64))
_k = 16 - _SMIN - np.arange(_ROWS)
_exponent, _small = (_k < -4) | (_k > 16), (_k >= -4) & (_k < 0)
# "0." and -k-1 zeros at bytes 2-6, and "e", the sign and two or three
# digits at bytes 25-29
_PREFIX = _words(b"\0\0" + b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"" for e in _k.tolist())
_EXPONENT = _words(b"\0" + b"e%+03d" % e if e < -4 or e > 16 else b"" for e in _k.tolist())
# the point follows digit _AFTER (of 1-16; 16 for none: "0.000" and a whole
# number with 17 digits), and digits through _WHOLE are kept, zeros or not
_AFTER = np.where(_exponent, 0, np.where(_small, 16, _k)).clip(0, 16)
_WHOLE = np.where(_exponent | _small, 0, _k).clip(0, 16)
#: the five columns of _power, by row
_POWERS = np.array([_power(s) for s in range(_SMIN, _SMAX + 1)]).T
del _v, _last, _byte, _i, _k, _exponent, _small


def _slots(x, sep, out):
    """Write sep + "%.17g" % x[i] into row i of out, an (n, 4) array of
    little-endian words, by the layout above: a zero byte where the text
    has none."""
    nonzero = x != 0.0
    a = np.abs(np.where(nonzero, x, 1.0))  # a zero is laid out as 1 with its digit 0
    row = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    np.subtract(16 - _SMIN, row, out=row)
    hi, lo, upper, lower, scale = (column.take(row) for column in _POWERS)
    a *= scale
    split = a * 134217729.0
    a_upper = split - (split - a)
    a_lower = a - a_upper
    p = a * hi
    t = ((a_upper * upper - p) + a_upper * lower + a_lower * upper) + a_lower * lower + a * lo
    floor_t = np.floor(t)
    t -= floor_t  # the fraction of y = p + t, p being a whole number
    y = p.astype(np.int64) + floor_t.astype(np.int64)
    ok = (np.abs(t - 0.5) > 1e-9) & ((y - 10 ** 16).view(_U64) <= _U64(9 * 10 ** 16))
    y += t > 0.5
    ok &= y <= 10 ** 17
    carry = y == 10 ** 17
    y[carry] = 10 ** 16
    row -= carry
    y *= nonzero
    high = y // 10 ** 8
    low8 = y - high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    g0 = high // 10 ** 4
    g1 = high - g0 * 10 ** 4
    g2 = low8 // 10 ** 4
    g3 = low8 - g2 * 10 ** 4
    w1 = _TEXT.take(g0) | _TEXT_HIGH.take(g1)
    w2 = _TEXT.take(g2) | _TEXT_HIGH.take(g3)
    c0, c1, c2, c3 = _COUNTS
    digits = np.maximum(np.maximum(c0.take(g0), c1.take(g1)), np.maximum(c2.take(g2), c3.take(g3)))
    after = _AFTER.take(row)
    kept = np.maximum(_WHOLE.take(row), digits)
    keep1, keep2 = _KEEP
    w1 &= keep1.take(kept)
    w2 &= keep2.take(kept)
    at = np.where(digits > after, after, 16)
    moved1 = w1 & ~keep1.take(at)
    moved2 = w2 & ~keep2.take(at)
    w1 ^= moved1
    w2 ^= moved2
    point1, point2 = _POINT
    out[:, 0] = (_PREFIX.take(row) | _FIRST.take(first)
                 | (x.view(_U64) >> _U64(63)) * _U64(0x2D00) | _U64(sep))
    out[:, 1] = w1 | (moved1 << _U64(8)) | point1.take(at)
    out[:, 2] = w2 | (moved2 << _U64(8)) | (moved1 >> _U64(56)) | point2.take(at)
    out[:, 3] = (moved2 >> _U64(56)) | _EXPONENT.take(row)
    bad = (~ok).nonzero()[0]
    if len(bad):
        texts = [chr(sep) + "%.17g" % v for v in x[bad].tolist()]
        out[bad] = np.array(texts, "S32").view(_WORDS).reshape(-1, 4)


def csv_lines(rows):
    """The lines of rows, a 2-D float64 array of finite doubles: each line
    led by its newline, its cells "%.17g" and joined by commas."""
    cells = np.empty((*rows.shape, 4), _WORDS)
    for column in range(rows.shape[1]):
        _slots(rows[:, column], 44 if column else 10, cells[:, column])
    flat = cells.view(np.uint8).ravel()
    return str(flat[flat != 0], "ascii")
