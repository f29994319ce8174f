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
   up: 10^16, with k + 1, its leading "10" written as the digit 1.
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

A table is formatted a pass of whole rows at a time: each block handed
in is split into passes of at most _PASS cells, and each pass is laid
out in row-major order, the order of its text, by the function that
_slots binds for a pass of its size.  Every cell is laid out with a ",",
and one XOR then makes that of each row's first cell a newline.  Every
intermediate of a pass is written by ufunc out= into one float64 scratch
array of _SLOTS rows, viewed as int64, uint64 or bool where a step needs,
and every ufunc reads and writes one dtype: no intermediate, and no cast
buffer, is an array of its own.  The slots of a pass lie in a bytearray
of exactly that many slots, whose zero bytes bytes.translate drops, and
its text is handed on before the next pass is laid out.  The blocks are
handed in one by one, by whoever forms them (csv_blocks), so the table
need never be held whole, and at most one pass of its text is held at a
time.  The scratch is allocated for the table's first pass and anew for
a later pass of more cells; the bytearray, and the views of both that a
pass works in, for each pass of another size than the one before.  All
are freed with the generator of the table's texts.

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
# byte 7, by the first digit; 10 is a carry's, of D = 10^17, written 1
_FIRST = (48 + np.r_[0:10, 1]).astype(_U64) << _U64(56)
# the digit count through a group's last nonzero digit, 0 for 0000, by the
# group's place among the 16
_last = 4 - np.where(_v % 10, 0, np.where(_v % 100, 1, np.where(_v % 1000, 2, 3)))
_COUNTS = [np.where(_v, 4 * place + _last, 0).astype(np.uint8) for place in range(4)]
# by i of 0-16, over the 16 digits at bytes 8-23: the bytes of the first i
# digits, the bytes of the others, and a point in place of digit i (i = 16:
# none)
_byte, _i = np.arange(16), np.arange(17)[:, None]
_KEEP = list(np.where(_byte < _i, 0xFF, 0).astype(np.uint8).view(_WORDS).T
             .astype(_U64, order="C"))
_DROP = [~keep for keep in _KEEP]
_POINT = list(np.where(_byte == _i, 46, 0).astype(np.uint8).view(_WORDS).T
              .astype(_U64, order="C"))
_k = 16 - _SMIN - np.arange(_ROWS)
_exponent, _small = (_k < -4) | (_k > 16), (_k >= -4) & (_k < 0)
# the separator "," at byte 0 and "0." and -k-1 zeros at bytes 2-6, and
# "e", the sign and two or three digits at bytes 25-29
_PREFIX = _words(b",\0" + (b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"") for e in _k.tolist())
_EXPONENT = _words(b"\0" + b"e%+03d" % e if e < -4 or e > 16 else b"" for e in _k.tolist())
# the point follows digit _AFTER (of 1-16; 16 for none: "0.000" and a whole
# number with 17 digits), and digits through _WHOLE are kept, zeros or not
_AFTER = np.where(_exponent, 0, np.where(_small, 16, _k)).clip(0, 16)
_WHOLE = np.where(_exponent | _small, 0, _k).clip(0, 16)
#: the five columns of _power, by row; each is contiguous, as are the
#: tables above, since take copies a strided table before it reads it
_POWERS = np.array([_power(s) for s in range(_SMIN, _SMAX + 1)]).T.copy()
_HI, _LO, _UPPER, _LOWER, _SCALE = _POWERS
del _v, _last, _byte, _i, _k, _exponent, _small


#: the float64 rows of the scratch that a pass of _slots works in
_SLOTS = 10
#: the most cells in a pass, whose scratch is then 640 KiB.  Formatting a
#: 30000-row fringe table (2-core x86-64 VM, medians of 40 interleaved
#: calls), passes of 4096 cells took about 8 % longer, and passes of
#: 16384 cells 2-4 % less but 0.6 MB more peak resident memory
_PASS = 8192
# the uint64 operands of a pass: "," XOR "\n", the sign bit's shift and
# the "-" it becomes at byte 1, a byte's and seven bytes' shift, and the
# span of certified floor(y) above 10^16
_NEWLINE, _SIGN, _MINUS = _U64(44 ^ 10), _U64(63), _U64(0x2D00)
_BYTE, _TOP, _SPAN = _U64(8), _U64(56), _U64(9 * 10 ** 16)


def _slots(scratch, out, rows):
    """The layout of a pass of rows whole rows: a function that writes
    "," + "%.17g" % x[i] into row i of out, an (n, 4) array of
    little-endian words, by the layout above, x being the pass's n cells as
    a (rows, n / rows) float64 array: a zero byte where the text has none,
    and each row's first cell led by a newline.

    Every intermediate is written into scratch, (_SLOTS, n) float64, its
    rows viewed as int64, uint64 or bool where a step needs.  These views,
    and those of out, are bound here, once for each pass size, and every
    ufunc of a pass reads and writes one dtype, so that a pass allocates no
    cast buffer: a certified pass allocates nothing of its size."""
    n = len(out)
    # each row of scratch is viewed once for each dtype that it is read in,
    # and a view serves every intermediate that is laid in its row
    a, _, h, a_upper, a_lower, p, t, low, tmp, flags = scratch
    high, row, itmp, y, rest, g0, g2 = scratch[:7].view(np.int64)
    shifted, moved2, _, w2, moved1, w1, utmp = scratch[2:_SLOTS - 1].view(_U64)
    flags = flags.view(np.bool_)
    zero, ok, b = flags[:n], flags[n:2 * n], flags[2 * n:3 * n]
    d0, d1, d2 = (flags[j * n:(j + 1) * n].view(np.uint8) for j in (3, 4, 5))
    # the integer stage's first digit, the digit count, the digits kept
    # and the point's place
    first, digits, kept, at = rest, itmp, y, high
    c0, c1, c2, c3 = _COUNTS
    keep1, keep2 = _KEEP
    drop1, drop2 = _DROP
    point1, point2 = _POINT
    word0, word1, word2, word3 = out.T
    firsts = out.reshape(rows, -1)[:, 0]

    def lay_out(x):
        # an in-place operator stores its view back under the same name
        nonlocal a, h, a_upper, t, y, high, ok, row, w1, w2, utmp, firsts
        x = x.ravel()
        np.abs(x, out=a)
        np.equal(x, 0.0, out=zero)
        np.copyto(a, 1.0, where=zero)  # a zero is laid out as 1 with its digit 0
        np.log10(a, out=h)
        h -= 1e-12
        np.floor(h, out=h)
        np.subtract(16 - _SMIN, h, out=h)
        np.copyto(row, h, casting="unsafe")
        # take's mode "clip" never clips here, every index being in range;
        # in its default mode, take would fill a copy of out
        a *= _SCALE.take(row, out=h, mode="clip")
        np.multiply(a, 134217729.0, out=a_upper)
        np.subtract(a_upper, a, out=a_lower)
        a_upper -= a_lower
        np.subtract(a, a_upper, out=a_lower)
        np.multiply(a, _HI.take(row, out=h, mode="clip"), out=p)
        _UPPER.take(row, out=h, mode="clip")
        _LOWER.take(row, out=low, mode="clip")
        np.multiply(a_upper, h, out=t)
        t -= p
        t += np.multiply(a_upper, low, out=tmp)
        t += np.multiply(a_lower, h, out=tmp)
        t += np.multiply(a_lower, low, out=tmp)
        t += np.multiply(a, _LO.take(row, out=h, mode="clip"), out=tmp)
        floor_t = np.floor(t, out=h)
        t -= floor_t  # the fraction of y = p + t, p being a whole number
        np.copyto(y, p, casting="unsafe")
        np.copyto(rest, floor_t, casting="unsafe")
        y += rest
        np.greater(np.abs(np.subtract(t, 0.5, out=tmp), out=tmp), 1e-9, out=ok)
        ok &= np.less_equal(np.subtract(y, 10 ** 16, out=rest).view(_U64), _SPAN, out=b)
        np.copyto(rest, np.greater(t, 0.5, out=b))  # the rounding, as int64
        y += rest
        ok &= np.less_equal(y, 10 ** 17, out=b)
        # the sign of 10^17 − 1 − D takes one off the row of D >= 10^17: a
        # carry, D = 10^17, has k + 1, and its first "digit" 10 is written
        # 1 (a larger D is uncertified)
        np.right_shift(np.subtract(10 ** 17 - 1, y, out=itmp), 63, out=itmp)
        row += itmp
        np.copyto(y, 0, where=zero)
        np.floor_divide(y, 10 ** 8, out=high)
        y -= np.multiply(high, 10 ** 8, out=itmp)  # y: the low 8 digits
        np.floor_divide(high, 10 ** 8, out=first)
        high -= np.multiply(first, 10 ** 8, out=itmp)
        np.floor_divide(high, 10 ** 4, out=g0)
        g1 = high
        g1 -= np.multiply(g0, 10 ** 4, out=itmp)
        np.floor_divide(y, 10 ** 4, out=g2)
        g3 = y
        g3 -= np.multiply(g2, 10 ** 4, out=itmp)
        np.maximum(c0.take(g0, out=d0, mode="clip"), c1.take(g1, out=d1, mode="clip"), out=d0)
        np.maximum(c2.take(g2, out=d1, mode="clip"), c3.take(g3, out=d2, mode="clip"), out=d1)
        np.maximum(d0, d1, out=d0)
        np.copyto(digits, d0)  # as int64, to meet int64 operands
        _TEXT.take(g0, out=w1, mode="clip")
        w1 |= _TEXT_HIGH.take(g1, out=utmp, mode="clip")
        _TEXT.take(g2, out=w2, mode="clip")
        w2 |= _TEXT_HIGH.take(g3, out=utmp, mode="clip")
        _AFTER.take(row, out=at, mode="clip")
        np.maximum(_WHOLE.take(row, out=kept, mode="clip"), digits, out=kept)
        w1 &= keep1.take(kept, out=utmp, mode="clip")
        w2 &= keep2.take(kept, out=utmp, mode="clip")
        np.copyto(at, 16, where=np.less_equal(digits, at, out=b))  # the point's place, or 16
        np.bitwise_and(w1, drop1.take(at, out=moved1, mode="clip"), out=moved1)
        np.bitwise_and(w2, drop2.take(at, out=moved2, mode="clip"), out=moved2)
        w1 ^= moved1
        w2 ^= moved2
        _PREFIX.take(row, out=utmp, mode="clip")
        utmp |= _FIRST.take(first, out=shifted, mode="clip")
        np.multiply(np.right_shift(x.view(_U64), _SIGN, out=shifted), _MINUS, out=shifted)
        np.bitwise_or(utmp, shifted, out=word0)
        point1.take(at, out=utmp, mode="clip")
        utmp |= np.left_shift(moved1, _BYTE, out=shifted)
        np.bitwise_or(w1, utmp, out=word1)
        point2.take(at, out=utmp, mode="clip")
        utmp |= np.left_shift(moved2, _BYTE, out=shifted)
        utmp |= np.right_shift(moved1, _TOP, out=shifted)
        np.bitwise_or(w2, utmp, out=word2)
        _EXPONENT.take(row, out=utmp, mode="clip")
        np.bitwise_or(utmp, np.right_shift(moved2, _TOP, out=shifted), out=word3)
        if not ok.all():
            bad = np.logical_not(ok, out=b).nonzero()[0]
            texts = ["," + "%.17g" % v for v in x[bad].tolist()]
            out[bad] = np.array(texts, "S32").view(_WORDS).reshape(-1, 4)
        firsts ^= _NEWLINE

    return lay_out


def _block(rows, lay_out, buffer):
    """The lines of rows, one pass of csv_blocks as a 2-D float64 array,
    each led by its newline.

    Its cells are laid out in row-major order by lay_out, the _slots
    function bound for a pass of its size, into the 32-byte slots of
    buffer, a bytearray of exactly that many slots, whose zero bytes are
    then dropped."""
    lay_out(rows)
    return buffer.translate(None, b"\0").decode("ascii")


def csv_blocks(blocks):
    """The lines of a table given as blocks, an iterable of 2-D float64
    arrays of finite doubles, its blocks of rows in order: one text for
    each pass of whole rows, at most _PASS cells (one row, if a row has
    more), each line led by its newline, its cells "%.17g" and joined by
    commas.

    The scratch is allocated for the first pass, and anew for any later
    pass of more cells.  The slots are a bytearray of exactly one pass,
    allocated, with the views of both bound by _slots, for each pass of
    another size than the last; all are freed with the generator."""
    scratch, shape = np.empty(0), None
    for rows in blocks:
        step = max(_PASS // rows.shape[1], 1)
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            if part.shape != shape:
                shape, n = part.shape, part.size
                lay_out = buffer = None  # the last size's slots go first
                if _SLOTS * n > scratch.size:
                    scratch = np.empty(_SLOTS * n)
                buffer = bytearray(32 * n)
                lay_out = _slots(scratch[:_SLOTS * n].reshape(_SLOTS, n),
                                 np.frombuffer(buffer, _WORDS).reshape(n, 4), len(part))
            yield _block(part, lay_out, buffer)
