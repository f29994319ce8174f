"""The numpy "%.17g" of etherdrift._g17, cell for cell against "%.17g".

Each case is laid out as a two-column table, so that both separators are
written: the text must be what formatting every cell one at a time gives."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from etherdrift import _g17


def _blocks(table, block):
    """table's blocks of up to block rows, as the CLI hands them in."""
    return (table[start:start + block] for start in range(0, len(table), block))


def _formatted(values):
    """The text of a table whose rows are (v, -v), in blocks of 4096 rows,
    and the same text formed one "%.17g" cell at a time."""
    values = np.asarray(values, dtype=float)
    table = np.stack([values, -values], axis=1)
    naive = "".join("\n%.17g,%.17g" % (v, w) for v, w in table.tolist())
    return "".join(_g17.csv_blocks(_blocks(table, 4096))), naive


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


#: cells with every byte of their slot in use: three-digit exponents and
#: "-0.000" prefixes; and cells that use few, whose slots are mostly zero
LONGEST = [-1.2345678901234567e-300, -0.00012345678901234567, -1.7976931348623157e308,
           -2.2250738585072014e-308, -0.00098765432109876543]
SHORT = [0.0, -0.0, 1.0, 12.0, -3.0]


@pytest.mark.parametrize("columns", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("block", [1, 2, 3, 4095, 4096, 4097])
def test_no_block_keeps_bytes_of_the_block_before(block, columns):
    # every pass is formatted in the same scratch and slots: a first
    # block of the longest cells, then short ones, ties (left to "%.17g")
    # in the third block only, and a short last block
    longest = np.resize(LONGEST, (block, columns))
    short = np.resize(SHORT, (block, columns))
    ties = short.copy()
    ties[0, 0], ties[-1, -1] = TIES
    table = np.concatenate([longest, short, ties, short[:max(block // 2, 1)]])
    got = "".join(_g17.csv_blocks(_blocks(table, block))).split("\n")
    assert len(got) == len(table) + 1
    for row, (line, values) in enumerate(zip(got[1:], table.tolist())):
        assert line == ",".join("%.17g" % v for v in values), row


@pytest.mark.parametrize("columns", [3, 4])
@pytest.mark.parametrize("block", [1, 2730, 2731, 4096, 4097])
def test_blocks_are_split_into_passes_of_whole_rows(block, columns):
    # a block is formatted a pass of _PASS // columns rows at a time (2730
    # rows of 3 cells, 2048 of 4), the last pass of a block short; a tie,
    # left to "%.17g", lies on each side of every pass edge.  The first
    # block has one row, so later passes outgrow the first pass's slots
    rng = np.random.default_rng(block * columns)
    rows = 2 * block + 2
    shape = (rows, columns)
    table = 10.0 ** rng.uniform(-320, 308, shape) * rng.choice([-1.0, 1.0], shape)
    table[::7, -1] = 0.0
    blocks = [table[:1], *_blocks(table[1:], block)]
    step, edge = _g17._PASS // columns, 0
    for rows_in_block in map(len, blocks):
        for start in range(edge, edge + rows_in_block, step):
            if start:
                table[start - 1, -1], table[start, 0] = TIES
        edge += rows_in_block
    got = "".join(_g17.csv_blocks(blocks)).split("\n")
    assert got[0] == "" and len(got) == rows + 1
    for row, (line, values) in enumerate(zip(got[1:], table.tolist())):
        assert line == ",".join("%.17g" % v for v in values), row


@pytest.mark.parametrize("columns", [3, 4])
def test_pass_size_changes_from_pass_to_pass(columns, monkeypatch):
    # blocks of 4096, 1, 2731, 3 and 4097 rows make passes whose size
    # changes from one to the next (at 3 columns 2730, 1366, 1, 2730, 1, 3,
    # 2730, 1367 rows; at 4, 2048 twice, then 1, 2048, 683, 3, 2048, 2048,
    # 1), and the views and slots of a pass are bound anew for each change
    # of size; a tie, left to "%.17g", lies on each side of every pass edge
    sizes = [4096, 1, 2731, 3, 4097]
    rng = np.random.default_rng(41 + columns)
    shape = (sum(sizes), columns)
    table = 10.0 ** rng.uniform(-320, 308, shape) * rng.choice([-1.0, 1.0], shape)
    table[::5, 1] = 0.0
    step, passes, start = _g17._PASS // columns, [], 0
    for size in sizes:
        passes += [min(step, start + size - edge) for edge in range(start, start + size, step)]
        start += size
    edge = 0
    for rows in passes[:-1]:
        edge += rows
        table[edge - 1, -1], table[edge, 0] = TIES
    slots, bound = _g17._slots, []

    def binding(scratch, out, rows):
        bound.append(rows)
        return slots(scratch, out, rows)

    monkeypatch.setattr(_g17, "_slots", binding)
    blocks = np.split(table, np.cumsum(sizes)[:-1])
    got = "".join(_g17.csv_blocks(blocks)).split("\n")
    assert bound == [rows for i, rows in enumerate(passes) if i == 0 or rows != passes[i - 1]]
    assert got[0] == "" and len(got) == len(table) + 1
    for row, (line, values) in enumerate(zip(got[1:], table.tolist())):
        assert line == ",".join("%.17g" % v for v in values), row


def test_a_full_pass_allocates_nothing_of_its_size():
    # every intermediate of a pass lies in views bound once for its size,
    # and every ufunc reads and writes one dtype, so a pass of certified
    # cells allocates neither an array nor a cast buffer, each 64 KiB for
    # a full pass
    n = _g17._PASS
    x = np.random.default_rng(3).uniform(-1e3, 1e3, (n // 4, 4))
    scratch, out = np.empty((_g17._SLOTS, n)), np.empty((n, 4), _g17._WORDS)
    lay_out = _g17._slots(scratch, out, len(x))
    lay_out(x)  # numpy's set-up of a first call
    tracemalloc.start()
    try:
        lay_out(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    text = out.tobytes().replace(b"\0", b"").decode("ascii")
    assert text == "".join("\n" + ",".join("%.17g" % v for v in row) for row in x.tolist())
