"""The field momentum P_e of a charge beside a solenoid and the AB phase of
a loop around it, linked through the enclosed flux.

The ideal P_e is (q/c) A at the charge, and A_phi = Phi/(2 pi d) outside
the bore, so 2 pi d |P_y|/(q/c) is the flux pi a^2 B.  ``fieldmomentum``
(Gaussian) and ``abphase`` (SI) share no code: a loop threaded by that flux
must pick up (e/hbar) Phi.  No kernel is touched here; if a check fails,
a kernel has moved.
"""

import math

import pytest

from etherdrift.abphase import Path, SolenoidVectorPotential, phase_line_integral
from etherdrift.fieldmomentum import (SolenoidChargeGeometry, analytic_solenoid_momentum,
                                      integrate_field_momentum)
from etherdrift.units import MODERN, PAPER, UnitSystem, c_cgs

EPS = 2.0 ** -52

#: (a cm, B gauss, q esu); q of either sign
BORES = [(1.0, 100.0, 1.0), (0.5, 1e3, -2.5), (2.0, 7.0, 3e-3)]


def flux_from_momentum(p_y, geom):
    """2 pi d |P_y| / (q/c): the flux in G cm^2 that P_y at the charge implies."""
    return 2.0 * math.pi * geom.d * abs(p_y) / (abs(geom.q) / c_cgs)


@pytest.mark.parametrize("a, B, q", BORES)
@pytest.mark.parametrize("d_over_a", [1.05, 3.0, 1e3])
def test_closed_form_momentum_carries_the_flux(a, B, q, d_over_a):
    geom = SolenoidChargeGeometry(a=a, B=B, d=d_over_a * a, q=q)
    flux = flux_from_momentum(analytic_solenoid_momentum(geom)[1], geom)
    # both sides are a handful of roundings from the same product
    assert flux == pytest.approx(math.pi * a * a * B, rel=8 * EPS, abs=0.0)


@pytest.mark.parametrize("a, B, q", BORES)
@pytest.mark.parametrize("d_over_a, shortfall", [(1.05, 5.51e-9), (3.0, 4.50e-8)])
def test_truncated_bore_falls_short_by_d2_over_2_lambda2(a, B, q, d_over_a, shortfall):
    # Lambda = 1e4 a.  The shortfall is d^2/(2 Lambda^2)(1 - (3/4)(a^2 + d^2)/Lambda^2
    # + ...): measured, its relative departure from the leading term is 1.58e-4 and
    # 7.49e-4 at Lambda = 100 a, (3/4)(a^2 + d^2)/Lambda^2 to 0.1 %.  At 1e4 a the
    # subtraction 1 - ratio also costs a few roundings of 1.
    d, half_length = d_over_a * a, 1e4 * a
    geom = SolenoidChargeGeometry(a=a, B=B, d=d, q=q, truncation_halflength=half_length)
    ratio = flux_from_momentum(integrate_field_momentum(geom).P_e[1], geom) / (math.pi * a * a * B)
    leading = d * d / (2.0 * half_length * half_length)
    assert abs((1.0 - ratio) - leading) <= leading * (a * a + d * d) / half_length ** 2 + 8 * EPS
    assert 1.0 - ratio == pytest.approx(shortfall, rel=2e-3)


@pytest.mark.parametrize("constants", [PAPER, MODERN], ids=["paper", "modern"])
@pytest.mark.parametrize("a, B, q", BORES)
def test_momentum_flux_gives_the_ab_phase(constants, a, B, q):
    geom = SolenoidChargeGeometry(a=a, B=B, d=3.0 * a, q=q)
    flux_gaussian = flux_from_momentum(analytic_solenoid_momentum(geom)[1], geom)
    quanta = {row["system"]: row["value"]
              for system in UnitSystem for row in constants.table(system)
              if row["name"] == "flux_quantum"}
    flux_si = flux_gaussian * quanta["si"] / quanta["gaussian"]  # G cm^2 -> Wb
    loop = Path([(1.0, -1.0, 0.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-1.0, -1.0, 0.0),
                 (1.0, -1.0, 0.0)])
    phase = phase_line_integral(SolenoidVectorPotential(flux_si, constants.charge_over_hbar),
                                loop)
    # (e/hbar) Phi in SI, and pi Phi/Phi_0 in Gaussian units: the same number
    assert phase == pytest.approx(constants.charge_over_hbar * flux_si, rel=4 * EPS, abs=0.0)
    assert phase == pytest.approx(math.pi * flux_gaussian / quanta["gaussian"],
                                  rel=8 * EPS, abs=0.0)
