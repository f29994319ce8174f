import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from etherdrift import _g17, units
from etherdrift.errors import DomainError, InputError
from etherdrift.units import (MODERN, PAPER, UnitSystem, _quotient, get_constants,
                              inverse_length_to_mass)


def test_charge_and_flux_factors():
    # charge in esu and flux in G cm^2, as the photon-mass literature quotes them
    by_name = {r["name"]: r for r in MODERN.table(UnitSystem.GAUSSIAN)}
    assert by_name["e_charge"]["value"] == units.e_charge * 2.99792458e9
    assert by_name["e_charge"]["unit"] == "esu"
    assert by_name["flux_quantum"]["value"] == MODERN.flux_quantum * 1e8
    assert by_name["flux_quantum"]["unit"] == "G cm^2"


def test_hbar_derived_from_h():
    assert units.hbar == units.h / (2.0 * math.pi)


def test_modern_flux_quantum_value():
    # h/(2e) with the exact defining values
    assert MODERN.flux_quantum == pytest.approx(2.0678338484619293e-15, rel=1e-15)
    assert PAPER.flux_quantum == 2.067e-15


def test_charge_over_hbar_routes_through_flux_quantum():
    assert PAPER.charge_over_hbar == math.pi / PAPER.flux_quantum
    # in the modern profile pi/Phi_0 coincides with e/hbar
    assert MODERN.charge_over_hbar == pytest.approx(
        units.e_charge / units.hbar, rel=1e-14)
    assert MODERN.charge_over_hbar == pytest.approx(1.5192674478786262e15, rel=1e-15)
    assert PAPER.charge_over_hbar == pytest.approx(1.5198803355538429e15, rel=1e-15)


def test_cgs_views():
    assert units.c_cgs == 2.9979245800e10
    assert units.hbar_cgs == pytest.approx(1.0545718176461565e-27, rel=1e-15)


def test_get_constants_profiles(monkeypatch):
    assert get_constants("modern") is MODERN
    assert get_constants("paper") is PAPER
    # a profile is named by its caller: the environment picks none
    monkeypatch.setenv("ETHERDRIFT_PROFILE", "modern")
    with pytest.raises(InputError):
        get_constants(None)
    with pytest.raises(InputError):
        get_constants("victorian")


def test_mass_range_conversions():
    # hbar/(c * 3e9 cm), 50-digit arithmetic
    assert inverse_length_to_mass(3.0e9) == pytest.approx(1.1725576472487025e-47, rel=1e-14)
    with pytest.raises(DomainError):
        inverse_length_to_mass(0.0)


def test_constants_table_fields():
    rows = PAPER.table(UnitSystem.GAUSSIAN)
    assert [r["name"] for r in rows] == ["c", "h", "hbar", "e_charge", "flux_quantum"]
    for row in rows:
        assert row["system"] == "gaussian"
        assert row["profile"] == "paper"
    by_name = {r["name"]: r for r in rows}
    assert by_name["c"]["value"] == 2.9979245800e10
    assert by_name["c"]["unit"] == "cm/s"
    assert by_name["e_charge"]["value"] == pytest.approx(4.8032047125702637e-10, rel=1e-14)


def test_fingerprint_distinguishes_profiles():
    assert MODERN.fingerprint() != PAPER.fingerprint()
    assert MODERN.fingerprint() == MODERN.fingerprint()
    assert len(PAPER.fingerprint()) == 12


def test_fingerprint_pinned_per_profile():
    # the --version fingerprints; they hash c, h, hbar, e and the profile's Phi_0
    assert PAPER.fingerprint() == "d269bee6c5f1"
    assert MODERN.fingerprint() == "c84c8292ec3f"


# ---------------------------------------------------------------------------
# _quotient: an integer quotient rounded once, with its rest

#: the least quotient that rounds beyond the largest double
OVERFLOW = 2 ** 1024 - 2 ** 970


def _is_nearest(x, value):
    """Whether the double x is the one nearest the Fraction value, a tie
    going to the even one."""
    gap = abs(Fraction(x) - value)
    for neighbour in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        other = abs(Fraction(neighbour) - value) if math.isfinite(neighbour) else gap + 1
        odd = struct.unpack("<q", struct.pack("<d", x))[0] & 1
        if other < gap or (other == gap and odd):
            return False
    return True


def _check_quotient(num, den):
    exact = Fraction(num, den)
    if abs(exact) >= OVERFLOW:
        with pytest.raises(OverflowError):
            _quotient(num, den)
        return
    hi, lo = _quotient(num, den)
    assert _is_nearest(hi, exact), (num, den)
    assert _is_nearest(lo, exact - Fraction(hi)), (num, den)


def test_quotient_is_the_nearest_pair():
    # ties: between normals, between the two least subnormals, and at half
    # the least subnormal
    for num, den in ((2 ** 53 + 1, 1), (-(2 ** 54 + 2), 1), (3, 2 ** 1075), (1, 2 ** 1075)):
        _check_quotient(num, den)
    rng = random.Random(17)
    for _ in range(3000):
        # quotients from about 2^-2400, far below the subnormals, to 2^1300,
        # past the largest double
        num = rng.getrandbits(rng.randrange(1, 1300)) * rng.choice((1, -1))
        den = rng.getrandbits(rng.randrange(1, 2400)) or 1
        _check_quotient(num, den)


def test_quotient_overflow_rule():
    assert _quotient(OVERFLOW - 1, 1)[0] == sys.float_info.max
    assert _quotient(-3 * (OVERFLOW - 1), 3)[0] == -sys.float_info.max
    for num, den in ((OVERFLOW, 1), (-OVERFLOW, 1), (3 * OVERFLOW, 3), (10 ** 400, 7)):
        with pytest.raises(OverflowError):
            _quotient(num, den)
    # below the double range: a zero hi and a zero rest, not an error
    assert _quotient(1, 2 ** 1075) == (0.0, 0.0)
    assert _quotient(-(10 ** 9), 10 ** 400) == (0.0, 0.0)


def test_power_table_rows_are_exact():
    # every row of _g17's table of 10^s = 2^σ (hi + lo), against Fraction
    assert _g17._POWERS.shape == (5, _g17._ROWS)
    for s, row in zip(range(_g17._SMIN, _g17._SMAX + 1), _g17._POWERS.T.tolist()):
        hi, lo, upper, lower, scale = row
        assert math.frexp(scale)[0] == 0.5
        exact = Fraction(10) ** s / Fraction(scale)
        assert _is_nearest(hi, exact) and _is_nearest(lo, exact - Fraction(hi)), s
        assert 1.0 <= hi < (2.0 if scale < 2.0 ** 1023 else 2.0 ** 111), s
        assert Fraction(upper) + Fraction(lower) == Fraction(hi), s
        for half in (upper, lower):  # 26 bits each, so their products are exact
            assert math.ldexp(half, 26 - math.frexp(half)[1]).is_integer(), s
