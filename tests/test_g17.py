"""The numpy "%.17g" of etherdrift._g17, cell for cell against "%.17g".

Each case is laid out as a two-column table, so that both separators are
written: the text must be what formatting every cell one at a time gives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from etherdrift import _g17


def _formatted(values):
    """csv_lines of a table whose rows are (v, -v), and the same text
    formed one "%.17g" cell at a time."""
    values = np.asarray(values, dtype=float)
    table = np.stack([values, -values], axis=1)
    naive = "".join("\n%.17g,%.17g" % (v, w) for v, w in table.tolist())
    return _g17.csv_lines(table), naive


def _assert_formatted(values):
    got, naive = _formatted(values)
    if got != naive:  # name the first cell that differs
        for line, want in zip(got.split("\n"), naive.split("\n")):
            assert line == want
    assert got == naive


def _neighbours(value):
    return [np.nextafter(value, 0.0), value, np.nextafter(value, math.inf)]


#: ties at the 17th digit, which "%.17g" rounds half to even: 2^-25 rounds
#: down (...312|5) and 3·2^-25 up (...937|5)
TIES = [2.0 ** -25, 3 * 2.0 ** -25]


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))],
    # the switch to "e" notation below 1e-4 and from 1e17 on, and 17-digit
    # values that round up into the next decade
    [1e-4, 9.9999999999999991e-05, 1e-5, 1e16, 1e17, 99999999999999984.0,
     9.9999999999999995e-05, 0.99999999999999989, 1e-305, 1e-14, 1e98, 1e220],
    # exponents of three digits, and whole numbers of up to 17 digits
    [1e100, 1.5e-100, 1.2345678901234567e-300, 1e300, 123.0, 12345678901234567.0],
    # cells the fast path does not certify, which "%.17g" formats: ties,
    # and the doubles just above an exact power of ten, whose k is read one
    # low, so that y lies above 10^17
    [*TIES, 2222059449269862.75, *[np.nextafter(10.0 ** k, math.inf) for k in range(23)]],
    # below about 1e-292 the pair of 10^(16 - k) is scaled up, not |x|
    [1e-300, 1e-310, 3e-320, 2.0 ** -1074, 2.0 ** -1022 - 2.0 ** -1074],
], ids=["extremes", "powers-of-ten", "notation-switches", "long-exponents-and-wholes",
        "uncertified", "subnormals"])
def test_named_cells(values):
    _assert_formatted(values)


def test_decade_carry_and_ties_are_not_left_to_chance():
    # an exact power of ten is read with k one below its own (the estimate
    # of k never lies above it), so its 17 digits carry into the next
    # decade; so do those of the double 1e-14, which lies just below 10^-14
    assert Fraction(1e-14) < Fraction(1, 10 ** 14) and "%.16e" % 1e-14 == "1.0000000000000000e-14"
    got, _ = _formatted([100.0, 1e-14, *TIES])
    assert got == "\n100,-100\n1e-14,-1e-14\n%.17g,%.17g\n%.17g,%.17g" % (
        TIES[0], -TIES[0], TIES[1], -TIES[1])
    assert got.split("\n")[3].startswith("2.9802322387695312e-08,")


def test_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    values = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    _assert_formatted(values[np.isfinite(values)])


def test_random_log_uniform_values():
    rng = np.random.default_rng(7)
    values = 10.0 ** rng.uniform(-320, 308, 20000) * rng.choice([-1.0, 1.0], 20000)
    _assert_formatted(values)


def test_angle_grids():
    # the theta column of fringe scans, with its "0." prefixes
    _assert_formatted([360.0 * k / n for n in (5000, 12000, 30000, 100000)
                       for k in range(0, n, 97)])
