import math

import mpmath
import numpy as np
import pytest

from etherdrift.abphase import fresnel_momentum
from etherdrift.errors import DomainError, InputError
from etherdrift.interferometer import (InterferometerConfig, fringe_shift, improvement_factor,
                                       min_detectable_u)
from etherdrift.proca import (PhotonMassBound, ProcaCylinderConfig, _scaled_I0,
                              bessel_I0, bounds_registry,
                              cylinder_potential_exact,
                              cylinder_potential_expansion, invert_bound,
                              mass_phase_correction, potential_profile,
                              projected_bound, time_of_flight)
from etherdrift.units import MODERN, PAPER, inverse_length_to_mass

REFERENCE = ProcaCylinderConfig(R=0.27, V=1e7, tau=0.05, epsilon=1e-4)


def test_bessel_I0_frozen_values():
    # 50-digit series sums
    assert bessel_I0(0.0) == 1.0
    assert bessel_I0(0.1) == pytest.approx(1.0025015629340956, rel=1e-15)
    assert bessel_I0(0.27) == pytest.approx(1.0183082059991784, rel=1e-15)
    assert bessel_I0(1.0) == pytest.approx(1.2660658777520083, rel=1e-15)
    assert bessel_I0(2.0) == pytest.approx(2.2795853023360673, rel=1e-15)


def test_bessel_I0_monotone_and_even_order_growth():
    xs = np.linspace(0.0, 5.0, 41)
    vals = [bessel_I0(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # leading behaviour 1 + x^2/4
    assert bessel_I0(1e-4) == pytest.approx(1.0 + 2.5e-9, rel=1e-12)


def test_bessel_I0_range_limits():
    # I0(x) ~ e^x/sqrt(2 pi x) passes the largest double near x = 713.99
    assert math.isfinite(bessel_I0(713.9))
    for x in (714.5, 1e3, 1e308, math.inf):
        with pytest.raises(DomainError):
            bessel_I0(x)
    with pytest.raises(DomainError):
        bessel_I0(-0.5)
    # used to loop forever (proca potential with an overflowing mass)
    with pytest.raises(DomainError):
        bessel_I0(float("nan"))


def _worst_error(values, oracle, args):
    with mpmath.workdps(50):
        return max(float(abs(mpmath.mpf(v) / oracle(mpmath.mpf(x)) - 1))
                   for v, x in zip(values, args))


def test_scaled_I0_matches_mpmath():
    xs = [float(x) for x in np.geomspace(1e-3, 1e4, 4000)]
    xs += [20.0, 1e100, 1.7976931348623157e308]  # 2 pi x overflows at the last
    assert _worst_error([_scaled_I0(x) for x in xs],
                        lambda x: mpmath.besseli(0, x) * mpmath.exp(-x), xs) <= 2e-15
    for x in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            _scaled_I0(x)


def test_bessel_I0_matches_mpmath():
    xs = [float(x) for x in np.linspace(0.0, 700.0, 2001)]
    assert _worst_error([bessel_I0(x) for x in xs],
                        lambda x: mpmath.besseli(0, x), xs) <= 2e-15


def test_config_validation():
    with pytest.raises(DomainError):
        ProcaCylinderConfig(R=0.0, V=1e7, tau=0.05)
    with pytest.raises(DomainError):
        ProcaCylinderConfig(R=0.27, V=1e7, tau=0.0)
    with pytest.raises(DomainError):
        ProcaCylinderConfig(R=0.27, V=1e7, tau=0.05, epsilon=0.0)
    with pytest.raises(DomainError):
        ProcaCylinderConfig(R=0.27, V=1e7, tau=0.05, rho=0.27)


def test_cylinder_potential_wall_and_massless():
    assert cylinder_potential_exact(REFERENCE.R, REFERENCE, 1.0) == REFERENCE.V
    assert cylinder_potential_exact(0.13, REFERENCE, 0.0) == REFERENCE.V


def test_cylinder_potential_exact_frozen():
    cfg = ProcaCylinderConfig(R=0.1, V=1e7, tau=1.0)
    # V / I0(0.1), 50-digit arithmetic
    assert cylinder_potential_exact(0.0, cfg, 1.0) == pytest.approx(
        9975046.7926775686, rel=1e-14)


def test_cylinder_potential_sags_toward_axis():
    m = 0.8
    rhos = np.linspace(0.0, REFERENCE.R, 9)
    vals = [cylinder_potential_exact(float(r), REFERENCE, m) for r in rhos]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < REFERENCE.V


def test_cylinder_potential_domain():
    with pytest.raises(DomainError):
        cylinder_potential_exact(-0.01, REFERENCE, 1.0)
    with pytest.raises(DomainError):
        cylinder_potential_exact(0.3, REFERENCE, 1.0)
    with pytest.raises(DomainError):
        cylinder_potential_exact(0.1, REFERENCE, -1.0)
    with pytest.raises(DomainError, match="rho"):
        cylinder_potential_expansion(-0.01, REFERENCE, 1.0)
    with pytest.raises(DomainError, match="rho"):
        cylinder_potential_expansion(0.3, REFERENCE, 1.0)
    with pytest.raises(DomainError, match="photon mass"):
        cylinder_potential_expansion(0.1, REFERENCE, -1.0)


def test_expansion_variants():
    m = 1.0
    quarter = cylinder_potential_expansion(0.0, REFERENCE, m)
    half = cylinder_potential_expansion(0.0, REFERENCE, m, variant="half")
    R2 = REFERENCE.R ** 2
    assert quarter == pytest.approx(REFERENCE.V * (1.0 - 0.25 * R2), rel=1e-15)
    assert half == pytest.approx(REFERENCE.V * (1.0 - 0.5 * R2), rel=1e-15)
    with pytest.raises(InputError):
        cylinder_potential_expansion(0.0, REFERENCE, m, variant="third")


@pytest.mark.parametrize("variant", ["quarter", "half"])
@pytest.mark.parametrize("steps, m_gamma", [(2, 1.0), (7, 40.0), (101, 2400.0)])
def test_potential_profile_rows_are_the_pointwise_potentials(steps, m_gamma, variant):
    rows = potential_profile(REFERENCE, m_gamma, steps, variant)
    assert len(rows) == steps
    radii = [REFERENCE.R * i / (steps - 1) for i in range(steps - 1)] + [REFERENCE.R]
    assert [rho for rho, _, _ in rows] == radii
    for rho, exact, expansion in rows:
        assert exact == cylinder_potential_exact(rho, REFERENCE, m_gamma)
        assert expansion == cylinder_potential_expansion(rho, REFERENCE, m_gamma, variant)
    assert rows[-1][:2] == (REFERENCE.R, REFERENCE.V)


def test_potential_profile_validation():
    with pytest.raises(InputError, match="at least 2 steps"):
        potential_profile(REFERENCE, 1.0, 1)
    with pytest.raises(InputError, match="at most"):
        potential_profile(REFERENCE, 1.0, 10 ** 400)
    with pytest.raises(DomainError, match="photon mass"):
        potential_profile(REFERENCE, -1.0, 5)
    # m R = 702 used to pass the series' ceiling; only a non-finite m R fails
    assert potential_profile(REFERENCE, 2600.0, 5)[-1][1] == REFERENCE.V
    for m_gamma in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            potential_profile(REFERENCE, m_gamma, 5)
    with pytest.raises(InputError, match="variant"):
        potential_profile(REFERENCE, 1.0, 5, "third")


@pytest.mark.parametrize("mR", [1e-3, 0.05, 0.3, 1.0, 3.0, 5.0, 9.0, 14.0, 19.0, 20.0,
                                21.0, 25.0, 50.0, 120.0, 300.0, 650.0, 699.0])
def test_potential_profile_rows_match_mpmath(mR):
    # the oracle takes the same float m, rho and R; exp(m (rho - R)) adds
    # the relative error of its rounded argument, m (R - rho) 2 eps
    cfg = ProcaCylinderConfig(R=0.1, V=1e7, tau=1.0)
    m = mR / cfg.R
    rows = potential_profile(cfg, m, 301)
    assert rows[-1][1] == cfg.V
    with mpmath.workdps(50):
        wall = mpmath.besseli(0, mpmath.mpf(m) * mpmath.mpf(cfg.R))
        for rho, exact, _ in rows:
            oracle = cfg.V * mpmath.besseli(0, mpmath.mpf(m) * mpmath.mpf(rho)) / wall
            error = float(abs((mpmath.mpf(exact) - oracle) / oracle))
            assert error <= 4e-15 + m * (cfg.R - rho) * 2.2e-16, (rho, error)


def test_quarter_expansion_tracks_exact_to_fourth_order():
    # deviation between I0 ratio and its two-term expansion is O((mR)^4)
    for mR in (0.02, 0.05, 0.1, 0.2, 0.3):
        m = mR / REFERENCE.R
        for frac in (0.0, 0.3, 0.7):
            rho = frac * REFERENCE.R
            exact = cylinder_potential_exact(rho, REFERENCE, m)
            approx = cylinder_potential_expansion(rho, REFERENCE, m)
            assert exact >= approx > 0.0
            assert abs(exact - approx) <= 0.1 * REFERENCE.V * mR ** 4


def test_mass_phase_correction_basics():
    assert mass_phase_correction(REFERENCE, 0.0, PAPER) == 0.0
    phase = mass_phase_correction(REFERENCE, 1e-7, PAPER)
    assert phase > 0.0
    assert mass_phase_correction(REFERENCE, 2e-7, PAPER) == pytest.approx(4.0 * phase, rel=1e-12)
    with pytest.raises(DomainError):
        mass_phase_correction(REFERENCE, -1.0, PAPER)


def test_bound_closure_round_trip():
    # inverting the bound and feeding the mass back must reproduce epsilon
    rng = np.random.default_rng(20260815)
    for constants in (PAPER, MODERN):
        for _ in range(100):
            cfg = ProcaCylinderConfig(
                R=float(rng.uniform(0.05, 2.0)),
                V=float(rng.uniform(1e2, 1e8)),
                tau=float(rng.uniform(1e-3, 10.0)),
                epsilon=float(rng.uniform(1e-6, 1e-2)),
            )
            m_gamma = 1.0 / (invert_bound(cfg, constants) / 100.0)
            phase = mass_phase_correction(cfg, m_gamma, constants=constants)
            assert phase == pytest.approx(cfg.epsilon, rel=1e-10)


def test_invert_bound_frozen_both_profiles():
    # (R/2) sqrt(pi V tau/(eps Phi0)) in cm, 50-digit arithmetic
    assert invert_bound(REFERENCE, PAPER) == pytest.approx(3.7215466620391035e13, rel=1e-14)
    assert invert_bound(REFERENCE, MODERN) == pytest.approx(3.7207962345167440e13, rel=1e-14)


def test_invert_bound_scalings():
    base = invert_bound(REFERENCE, PAPER)
    v_up = ProcaCylinderConfig(R=0.27, V=4e7, tau=0.05, epsilon=1e-4)
    tau_up = ProcaCylinderConfig(R=0.27, V=1e7, tau=0.20, epsilon=1e-4)
    eps_up = ProcaCylinderConfig(R=0.27, V=1e7, tau=0.05, epsilon=4e-4)
    swapped = ProcaCylinderConfig(R=0.27, V=2e7, tau=0.025, epsilon=1e-4)
    assert invert_bound(v_up, PAPER) == pytest.approx(2.0 * base, rel=1e-12)
    assert invert_bound(tau_up, PAPER) == pytest.approx(2.0 * base, rel=1e-12)
    assert invert_bound(eps_up, PAPER) == pytest.approx(0.5 * base, rel=1e-12)
    assert invert_bound(swapped, PAPER) == pytest.approx(base, rel=1e-12)
    with pytest.raises(DomainError):
        invert_bound(ProcaCylinderConfig(R=0.27, V=-1e7, tau=0.05), PAPER)


def test_time_of_flight():
    assert time_of_flight(1.35, 27.0) == 0.05
    assert time_of_flight(0.0, 5.0) == 0.0
    with pytest.raises(DomainError):
        time_of_flight(1.0, 0.0)
    with pytest.raises(DomainError):
        time_of_flight(-1.0, 2.0)


NAN = float("nan")
DRIFT = InterferometerConfig(1.0, 1.0006, 1.0001, 1e3, 633e-9)


@pytest.mark.parametrize("call, args", [
    (mass_phase_correction, (REFERENCE, NAN, PAPER)),
    (mass_phase_correction, (REFERENCE, math.inf, PAPER)),
    (cylinder_potential_expansion, (0.1, REFERENCE, NAN)),
    (cylinder_potential_expansion, (NAN, REFERENCE, 1.0)),
    (time_of_flight, (NAN, 1.0)),
    (time_of_flight, (1.0, NAN)),
    (inverse_length_to_mass, (NAN,)),
    (fringe_shift, (1e-15, NAN)),
    (improvement_factor, (NAN, 1.0006, 1.0001)),
    (fresnel_momentum, (NAN, 1.5, (10.0, 0.0, 0.0))),
    (fresnel_momentum, (3e15, NAN, (10.0, 0.0, 0.0))),
    (min_detectable_u, (DRIFT, NAN)),
    (projected_bound, (PhotonMassBound(1.4e7, 2.5e-45, "x"), NAN)),
], ids=lambda value: getattr(value, "__name__", None))
def test_guards_refuse_what_fails_their_condition(call, args):
    # each guard states the condition that must hold, so NaN fails it
    with pytest.raises(DomainError):
        call(*args)


def test_photon_mass_bound_pair_consistency():
    PhotonMassBound(3.0e9, 1.17e-47, "ok")
    with pytest.raises(DomainError, match="inconsistent"):
        PhotonMassBound(3.0e9, 5.0e-47, "bad pair")
    with pytest.raises(DomainError):
        PhotonMassBound(-1.0, 1e-50, "negative")


def test_projected_bound():
    base = PhotonMassBound(3.0e9, inverse_length_to_mass(3.0e9), "base")
    same = projected_bound(base, 1.0)
    assert same.m_gamma_inv_cm == base.m_gamma_inv_cm
    longer = projected_bound(base, 4.0)
    assert longer.m_gamma_inv_cm == pytest.approx(6.0e9, rel=1e-15)
    assert longer.m_ph_g == pytest.approx(base.m_ph_g / 2.0, rel=1e-15)
    assert longer.source == "base (tau x4)"
    with pytest.raises(DomainError):
        projected_bound(base, 0.0)


def test_bounds_registry_entries():
    registry = {b.source: b for b in bounds_registry()}
    assert set(registry) == {"Williams-Faller-Hill", "Luo et al.",
                             "Boulware-Deser", "Spavieri-Rodriguez"}
    wfh = registry["Williams-Faller-Hill"]
    assert wfh.m_gamma_inv_cm == 3.0e9
    # hbar/(c * 3e9 cm), 50-digit arithmetic
    assert wfh.m_ph_g == pytest.approx(1.1725576472487025e-47, rel=1e-14)
    assert registry["Luo et al."].m_ph_g == 2.1e-51
    assert registry["Boulware-Deser"].m_ph_g == 2.5e-45
    assert registry["Spavieri-Rodriguez"].m_ph_g == 2.0e-51


def test_bounds_registry_pairs_near_ideal():
    # quoted masses track hbar/(c range); the rounded Spavieri-Rodriguez
    # pair is the loosest at about 14%
    for bound in bounds_registry():
        ideal = inverse_length_to_mass(bound.m_gamma_inv_cm)
        tol = 0.15 if bound.source == "Spavieri-Rodriguez" else 0.05
        assert abs(bound.m_ph_g - ideal) <= tol * ideal
