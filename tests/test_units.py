import math

import pytest

from etherdrift import units
from etherdrift.errors import DomainError, InputError
from etherdrift.units import (MODERN, PAPER, UnitSystem, get_constants,
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
