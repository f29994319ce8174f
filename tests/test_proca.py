import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

from etherdrift.abphase import fresnel_momentum
from etherdrift import proca
from etherdrift.errors import DomainError, InputError
from etherdrift.fieldmomentum import SolenoidChargeGeometry, convergence_study
from etherdrift.interferometer import (InterferometerConfig, angle_scan, fringe_shift,
                                       improvement_factor, min_detectable_u)
from etherdrift.proca import (PhotonMassBound, ProcaCylinderConfig, _potential_rows,
                              _potential_table, _scaled_I0, bessel_I0, bounds_registry,
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
# m R = 20 (its wall on the power series: 74.07407407407406 R is 20 less
# an ulp) and 21 (on the asymptotic series), both sides of the I0 switch
@pytest.mark.parametrize("steps, m_gamma", [(2, 1.0), (7, 40.0), (101, 2400.0),
                                            (41, 74.07407407407406), (41, 21.0 / 0.27)])
def test_potential_profile_rows_are_the_pointwise_potentials(steps, m_gamma, variant):
    rows = list(potential_profile(REFERENCE, m_gamma, steps, variant))
    assert len(rows) == steps
    radii = [REFERENCE.R * i / (steps - 1) for i in range(steps - 1)] + [REFERENCE.R]
    assert [rho for rho, _, _ in rows] == radii
    for rho, exact, expansion in rows:
        assert exact == cylinder_potential_exact(rho, REFERENCE, m_gamma)
        assert expansion == cylinder_potential_expansion(rho, REFERENCE, m_gamma, variant)
    assert rows[-1][:2] == (REFERENCE.R, REFERENCE.V)


def test_scaled_I0_columns_are_the_float_series_bit_for_bit():
    # each element's series, masked, stops at the term the float's stops at
    rng = np.random.default_rng(3701)
    xs = np.concatenate([np.exp(rng.uniform(math.log(1e-12), math.log(1e4), 3000)),
                         [0.0, 19.99, np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 30.0),
                          20.01, 700.0, 1e100, 1.7976931348623157e308]])
    floats = np.array([_scaled_I0(x) for x in xs.tolist()])
    assert _scaled_I0(xs, np).tobytes() == floats.tobytes()
    for x in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError, match=f"got {x}"):
            _scaled_I0(np.array([1.0, x, 30.0]), np)


def _potential_draws():
    """Seeded (cfg, m_gamma, steps, variant): m R log-uniform over 1e-12 to
    700, and 19.99, 20 and 20.01, where I0 switches series; V of both signs
    and -0.0; step counts at and around the block edges of 4096 rows."""
    rng = np.random.default_rng(3707)
    mRs = [float(x) for x in np.exp(rng.uniform(math.log(1e-12), math.log(700.0), 36))]
    steps = [2, 3, 4095, 4096, 4097, 8191, 8192, 8193, 10001, *rng.integers(2, 10002, 30)]
    for k, mR in enumerate([19.99, 20.0, 20.01] + mRs):
        R = float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
        cfg = ProcaCylinderConfig(R=R, V=(1e7, -3.5e5, -0.0)[k % 3], tau=1.0)
        yield cfg, mR / R, int(steps[k]), ("quarter", "half")[k % 2]


def test_potential_table_is_the_profile_bit_for_bit():
    # the one row rule over numpy columns, in blocks, gives the plain
    # float rows and the pointwise potentials to the bit, -0.0 included
    rng = np.random.default_rng(3709)
    for cfg, m_gamma, steps, variant in _potential_draws():
        table = _potential_table(cfg, m_gamma, steps, variant)
        rows = np.array(list(potential_profile(cfg, m_gamma, steps, variant)))
        assert table.tobytes() == rows.tobytes(), (cfg, m_gamma, steps, variant)
        at = sorted({0, steps - 1, *rng.integers(0, steps, 6).tolist()})
        pointwise = [(cylinder_potential_exact(rho, cfg, m_gamma),
                      cylinder_potential_expansion(rho, cfg, m_gamma, variant))
                     for rho in table[at, 0].tolist()]
        assert np.array(pointwise).tobytes() == table[at, 1:].tobytes()


@pytest.mark.parametrize("variant", ["quarter", "half"])
@pytest.mark.parametrize("V, R, m_gamma", [(1e300, 10.0, 1e10), (-1e300, 10.0, 1e10),
                                          (sys.float_info.max, 0.1, 300.0)])
def test_profile_refuses_its_first_non_finite_cell(V, R, m_gamma, variant):
    # V = +-1e300 at m R = 1e11, and the largest V at m R = 30: the
    # expansion column leaves the double range.  The plain rows and the
    # numpy table refuse the profile by its first non-finite cell in
    # row-major order, and numpy's overflow warning stays inside the
    # refusal
    cfg = ProcaCylinderConfig(R=R, V=V, tau=1.0)
    row = _potential_rows(cfg, m_gamma, variant)
    for steps in (2, 5, 4097):
        cells = [value for i in range(steps)
                 for value in row(R * i / (steps - 1) if i < steps - 1 else R, math)]
        first = next(value for value in cells if not math.isfinite(value))
        message = re.escape(f"result is not a finite number ({first}): "
                            "the computation left the double range")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (lambda: list(potential_profile(cfg, m_gamma, steps, variant)),
                         lambda: _potential_table(cfg, m_gamma, steps, variant)):
                with pytest.raises(DomainError, match=f"^{message}$"):
                    form()


def test_profile_is_refused_in_row_major_order(monkeypatch):
    # a row rule that reads a 6-row table, whose radii are its row
    # numbers: its first non-finite cell in row-major order, inf, is named,
    # not the first in column order, nan, nor the -inf in the radius column
    table = np.arange(18.0).reshape(6, 3)
    table[1, 2], table[3, 1], table[4, 0] = np.inf, np.nan, -np.inf

    def rows(cfg, m_gamma, variant):
        return lambda rho, xp: tuple(table[int(rho)] if xp is math else table[rho.astype(int)].T)

    monkeypatch.setattr(proca, "_potential_rows", rows)
    cfg = ProcaCylinderConfig(R=5.0, V=1.0, tau=1.0)
    for form in (lambda: list(potential_profile(cfg, 1.0, 6)),
                 lambda: _potential_table(cfg, 1.0, 6, "quarter")):
        with pytest.raises(DomainError, match=r"not a finite number \(inf\)"):
            form()
    table[1, 2] = 0.0
    with pytest.raises(DomainError, match=r"not a finite number \(nan\)"):
        _potential_table(cfg, 1.0, 6, "quarter")
    # the rows are refused one at a time: those before the first bad cell are read
    rows = potential_profile(cfg, 1.0, 6)
    assert [next(rows) for _ in range(3)] == list(map(tuple, table[:3].tolist()))
    with pytest.raises(DomainError, match=r"not a finite number \(nan\)"):
        next(rows)


def test_refused_profile_table_stops_at_its_first_bad_block(monkeypatch):
    # each block is checked once it is formed, so a long profile whose
    # first row overflows forms one block of rows, not the whole table
    formed = []
    rule = proca._potential_rows

    def counted(*args):
        row = rule(*args)
        return lambda rho, xp: formed.append(len(rho)) or row(rho, xp)

    monkeypatch.setattr(proca, "_potential_rows", counted)
    cfg = ProcaCylinderConfig(R=10.0, V=1e300, tau=1.0)
    with pytest.raises(DomainError, match=r"not a finite number \(-inf\)"):
        _potential_table(cfg, 1e10, 5 * 4096, "quarter")
    assert formed == [4096]


def test_expansion_at_an_overflowing_mass_radius_product_is_refused():
    # m R = inf: the two-term form alone would give -inf; the wall's I0 refuses it
    wide = ProcaCylinderConfig(R=1e298, V=1e7, tau=1.0)
    for potential in (cylinder_potential_expansion, cylinder_potential_exact):
        with pytest.raises(DomainError, match="finite"):
            potential(0.0, wide, 1e302)


def test_potential_profile_validation():
    with pytest.raises(InputError, match="at least 2 steps"):
        potential_profile(REFERENCE, 1.0, 1)
    with pytest.raises(InputError, match="at most"):
        potential_profile(REFERENCE, 1.0, 10 ** 400)
    with pytest.raises(DomainError, match="photon mass"):
        potential_profile(REFERENCE, -1.0, 5)
    # m R = 702 used to pass the series' ceiling; only a non-finite m R fails
    assert list(potential_profile(REFERENCE, 2600.0, 5))[-1][1] == REFERENCE.V
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
    rows = list(potential_profile(cfg, m, 301))
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


@pytest.mark.parametrize("R, V, tau", [(0.27, 1e300, 1e300), (1e306, 1e7, 0.05)])
def test_invert_bound_beyond_the_double_range_is_refused(R, V, tau):
    # V tau overflows, or the range of a huge cylinder does: both returned
    # an infinite range, which nothing named
    message = f"the Compton range overflows at V = {V!r} V, tau = {tau!r} s, R = {R!r} m"
    with pytest.raises(DomainError, match=re.escape(message)):
        invert_bound(ProcaCylinderConfig(R=R, V=V, tau=tau), PAPER)


def test_invert_bound_where_epsilon_phi0_is_subnormal_matches_mpmath():
    # epsilon Phi_0 below the smallest normal double has lost bits: the
    # quotient took 5.2630617598572773e+148 here, 4.9e-10 off.  The split
    # root is within 1.6 ulp of 50-digit mpmath over these draws
    cfg = ProcaCylinderConfig(R=27 / 100, V=1e-10, tau=1e-10, epsilon=1e-300)
    assert invert_bound(cfg, PAPER) == 5.263061762460022e+148
    rng = np.random.default_rng(3703)
    for k in range(300):
        R, V, tau = np.exp(rng.uniform(np.log([1e-2, 1e-10, 1e-10]), np.log([1.0, 1e8, 1.0])))
        eps = float(np.exp(rng.uniform(math.log(5e-324), math.log(1.1e-293))))
        cfg = ProcaCylinderConfig(R=float(R), V=float(V), tau=float(tau), epsilon=eps)
        constants = (PAPER, MODERN)[k % 2]
        with mpmath.workdps(50):
            exact = (mpmath.mpf(cfg.R) / 2 * 100
                     * mpmath.sqrt(mpmath.pi * mpmath.mpf(cfg.V) * mpmath.mpf(cfg.tau)
                                   / (mpmath.mpf(eps) * mpmath.mpf(constants.flux_quantum))))
            error = abs(mpmath.mpf(invert_bound(cfg, constants)) / exact - 1)
        assert error <= 2 * 2.2e-16, (cfg, float(error))


def test_invert_bound_keeps_its_quotient_where_epsilon_phi0_is_normal():
    # from the smallest epsilon whose product is a normal double upward,
    # the range is the quotient's, digit for digit
    phi = PAPER.flux_quantum
    smallest = 2.2250738585072014e-308 / phi
    while smallest * phi < 2.2250738585072014e-308:
        smallest = np.nextafter(smallest, 1.0)
    below = np.nextafter(smallest, 0.0)
    assert below * phi < 2.2250738585072014e-308 <= smallest * phi
    for eps in (float(smallest), 1e-290, 1e-100, 1e-6):
        cfg = ProcaCylinderConfig(R=0.27, V=1e-10, tau=1e-10, epsilon=eps)
        quotient = 0.5 * cfg.R * math.sqrt(math.pi * cfg.V * cfg.tau / (eps * phi)) * 100.0
        assert invert_bound(cfg, PAPER) == quotient


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
    (time_of_flight, (math.inf, 1.0)),
    (time_of_flight, (1.0, math.inf)),
    (inverse_length_to_mass, (math.inf,)),
    (improvement_factor, (math.inf, 1.5, 1.0)),
    (improvement_factor, (1e3, math.inf, 1.0)),
    (improvement_factor, (1e3, 1.5, -math.inf)),
], ids=lambda value: getattr(value, "__name__", None))
def test_guards_refuse_what_fails_their_condition(call, args):
    # each guard states the condition that must hold, so NaN fails it; an
    # infinity, which a one-sided guard would pass, fails it too, where it
    # would come out as inf or 0.0
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("call, args, named", [
    (fringe_shift, (NAN, 633e-9), "dt must be finite, got nan"),
    (fringe_shift, (1e300, 633e-9), "at dt = 1e+300 s"),
    (improvement_factor, (5e-324, 1.5, 1.4), "at drift speed 5e-324 m/s"),
    (improvement_factor, (30.0, 1e300, 1.4), "at index n1 = 1e+300"),
    (time_of_flight, (1.0, 5e-324), "speed 5e-324 m/s"),
    (bessel_I0, (10 ** 400,), "I0 argument must be finite"),
], ids=["fringe-nan", "fringe-overflow", "gain-tiny-u", "gain-huge-n1", "tof-tiny-speed",
        "I0-huge-int"])
def test_results_beyond_the_double_range_are_refused_by_name(call, args, named):
    # finite arguments whose result overflows came out as inf (a NaN delay
    # as a NaN fringe count), and an int beyond the double range as a bare
    # OverflowError
    with pytest.raises(DomainError, match=re.escape(named)):
        call(*args)


GEOMETRY = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0, grid=(4, 4, 4))


@pytest.mark.parametrize("count", [2.5, 5.0, "5", None])
def test_counts_that_are_not_integers_are_refused(count):
    for call, args in [(angle_scan, (DRIFT,)), (potential_profile, (REFERENCE, 1.0)),
                       (convergence_study, (GEOMETRY,))]:
        with pytest.raises(InputError, match="must be an integer"):
            call(*args, count)


def test_numpy_integer_counts_pass():
    assert len(angle_scan(DRIFT, np.int64(5))) == 5
    assert len(list(potential_profile(REFERENCE, 1.0, np.int32(5)))) == 5
    assert len(convergence_study(GEOMETRY, np.int64(2))) == 2


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
