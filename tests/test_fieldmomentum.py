import functools
import math

import mpmath
import numpy as np
import pytest

from etherdrift import fieldmomentum
from etherdrift.errors import DomainError, InputError
from etherdrift.fieldmomentum import (REFERENCE_GRID, SolenoidChargeGeometry,
                                      analytic_solenoid_momentum,
                                      convergence_study,
                                      integrate_field_momentum)
from etherdrift.units import c_cgs

REFERENCE = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0)


def test_geometry_validation():
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=0.0, B=1.0, d=2.0, q=1.0)
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=1.0, q=1.0)
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, truncation_halflength=0.0)
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4))
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4, 1))
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4.0, 4, 4))
    for grid in ((2, 2, 2), (3, 16, 128)):
        with pytest.raises(InputError, match=">= 4"):
            SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=grid)
    # the grid is echoed, never summed on: only the double range bounds it
    for grid in ((4, 4, 4), (2048, 4, 4), (4096, 4096, 4096), (4, 4, 10 ** 308)):
        assert SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=grid).grid == grid
    nan = float("nan")
    for kwargs in ({"a": nan}, {"d": nan}, {"truncation_halflength": nan}):
        with pytest.raises(DomainError):
            SolenoidChargeGeometry(**dict(dict(a=1.0, B=1.0, d=2.0, q=1.0), **kwargs))


def test_default_truncation():
    assert REFERENCE.half_length == 50.0 * 3.0
    explicit = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0,
                                      truncation_halflength=777.0)
    assert explicit.half_length == 777.0


def test_analytic_momentum_frozen():
    p = analytic_solenoid_momentum(REFERENCE)
    # q B a^2/(2 d c_cgs), 50-digit arithmetic
    assert p[1] == pytest.approx(5.5594015866358675e-10, rel=1e-14)
    assert p[0] == 0.0 and p[2] == 0.0
    assert type(p) is tuple and all(type(x) is float for x in p)


def test_quadrature_matches_closed_form():
    result = integrate_field_momentum(REFERENCE)
    analytic = analytic_solenoid_momentum(REFERENCE)
    assert abs(result.P_e[1] - analytic[1]) / abs(analytic[1]) <= 5e-3
    # momentum is azimuthal at the charge: +y, nothing radial or axial
    assert result.P_e[2] == 0.0
    assert result.P_e[0] == 0.0
    assert result.P_e[1] > 0.0
    assert type(result.P_e) is tuple and all(type(x) is float for x in result.P_e)


def test_quadrature_error_estimate_brackets_truth():
    result = integrate_field_momentum(REFERENCE)
    actual = abs(result.P_e[1] - analytic_solenoid_momentum(REFERENCE)[1])
    assert result.estimated_quadrature_error > 0.0
    assert actual <= 10.0 * result.estimated_quadrature_error
    assert result.estimated_quadrature_error <= 10.0 * actual


def test_quadrature_linear_in_charge_and_field():
    base = integrate_field_momentum(REFERENCE).P_e
    doubled_q = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=2.0)).P_e
    tripled_B = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=300.0, d=3.0, q=1.0)).P_e
    assert doubled_q[1] == pytest.approx(2.0 * base[1], rel=1e-14)
    assert tripled_B[1] == pytest.approx(3.0 * base[1], rel=1e-14)


def test_quadrature_sign_flips_with_field():
    flipped = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=-100.0, d=3.0, q=1.0)).P_e
    base = integrate_field_momentum(REFERENCE).P_e
    assert flipped[1] == pytest.approx(-base[1], rel=1e-14)


def test_convergence_study_monotone_and_order():
    rows = convergence_study(REFERENCE, 4)
    assert len(rows) == 4
    assert rows[-1].half_length_cm == REFERENCE.half_length
    assert rows[-1].grid == REFERENCE_GRID
    rels = [row.rel_error for row in rows]
    assert all(b < a for a, b in zip(rels, rels[1:]))
    # truncation error ~ 1/Lambda^2: slope of log(rel) vs log(Lambda) <= -1
    lams = [row.half_length_cm for row in rows]
    slope = np.polyfit(np.log(lams), np.log(rels), 1)[0]
    assert slope <= -1.0


def test_convergence_study_levels_validated():
    with pytest.raises(InputError):
        convergence_study(REFERENCE, 1)
    # 150 cm * 2**-1099 is 0: the coarsest levels would integrate over
    # |z| <= 0 and report rel_error 1
    with pytest.raises(DomainError, match="levels"):
        convergence_study(SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0,
                                                 grid=(4, 4, 4)), 1100)


def _bore_tail(a, d, half_length):
    """int_disk (d - x) 2/(s (s + L)) dA at the working precision, as the
    integral around the bore's edge it is by the divergence theorem:
    -2 a int_0^{2 pi} cos t log(L + s(t)) dt, s(t)^2 = a^2 + d^2 + L^2 - 2 a d cos t,
    unfolded and with no log1p."""
    a, d, lam = mpmath.mpf(a), mpmath.mpf(d), mpmath.mpf(half_length)

    def edge(t):
        return mpmath.cos(t) * mpmath.log(lam + mpmath.sqrt(a * a + d * d + lam * lam
                                                           - 2 * a * d * mpmath.cos(t)))

    return -2 * a * mpmath.quad(edge, mpmath.linspace(0, 2 * mpmath.pi, 9))


def _disk_tail(a, d, half_length):
    """The same tail as a disk integral: tanh-sinh quadrature over r in
    [0, a] and phi in [0, pi], doubled for the mirror half."""
    a, d, lam = mpmath.mpf(a), mpmath.mpf(d), mpmath.mpf(half_length)

    def tail(r, phi):
        ux = d - r * mpmath.cos(phi)
        s = mpmath.sqrt(ux * ux + (r * mpmath.sin(phi)) ** 2 + lam * lam)
        return 2 * ux / (s * (s + lam)) * r

    return 2 * mpmath.quad(tail, [0, a], [0, mpmath.pi])


@functools.cache
def _truncated_bore(geom, half_length):
    """(P_y, closed form, tail) over r <= a, |z| <= half_length, to 30 digits.

    The z integral of (d - x)/rho_3^3 is 2 L/(rho^2 s), s = sqrt(rho^2 + L^2),
    or 2/rho^2 - 2/(s (s + L)); the first term integrates over the disk to
    2 pi a^2/d, the second is _bore_tail."""
    with mpmath.workdps(30):
        coeff = mpmath.mpf(geom.q) * geom.B / (4 * mpmath.pi * c_cgs)
        closed = coeff * 2 * mpmath.pi * mpmath.mpf(geom.a) ** 2 / geom.d
        tail = coeff * _bore_tail(geom.a, geom.d, half_length)
        return closed - tail, closed, tail


@pytest.mark.parametrize("a, d, half_length", [(1.0, 1.0001, 1.0), (1.0, 1.2, 2.0),
                                               (0.7, 2.1, 40.0)])
def test_edge_integral_is_the_disk_integral(a, d, half_length):
    # the unfolded edge integral loses to cancellation the digits the
    # tail's share of log(L + s) costs, so it runs at 30 digits
    with mpmath.workdps(30):
        edge = _bore_tail(a, d, half_length)
    with mpmath.workdps(20):
        disk = _disk_tail(a, d, half_length)
        assert abs(edge - disk) <= mpmath.mpf(10) ** -18 * abs(disk)


def _assert_levels_match_the_truncated_bore(geom, levels):
    rows = convergence_study(geom, levels)
    for row in rows:
        exact, closed, tail = _truncated_bore(geom, row.half_length_cm)
        assert abs(row.P_e[1] - exact) <= 1e-15 * abs(exact)
        assert row.p_magnitude == abs(row.P_e[1])
        assert abs(row.rel_error - tail / closed) <= 1e-15 * (tail / closed)
        assert row.P_e[0] == 0.0 and row.P_e[2] == 0.0
        result = integrate_field_momentum(geom._replace(truncation_halflength=row.half_length_cm))
        assert abs(result.P_e[1] - exact) <= 1e-15 * abs(exact)
    return rows


@pytest.mark.parametrize("grid", [(16, 32, 64), (17, 33, 64)])
@pytest.mark.parametrize("d, half_length", [(1.05, 1.0), (1.2, 1.0), (3.0, 1.0),
                                            (1.01, 5.0), (3.0, 150.0)])
def test_levels_match_the_truncated_bore_to_rounding(d, half_length, grid):
    # the coarsest level sits at half_length; Lambda = a is the smallest a
    # level may have, and there the tail is the largest share of the
    # momentum.  No quadrature reads the grid: it is only echoed
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=d, q=1.0,
                                  truncation_halflength=2.0 * half_length, grid=grid)
    rows = _assert_levels_match_the_truncated_bore(geom, 2)
    assert [row.half_length_cm for row in rows] == [half_length, 2.0 * half_length]
    assert rows[-1].grid == grid


def _edge_momentum(geom, half_length):
    """P_y over r <= a, |z| <= half_length to 60 digits, from the edge
    integral of the truncated momentum itself (not closed form - tail):
    coeff 2 a int_0^{2 pi} asinh(L/rho(t)) cos t dt, rho(t) the distance
    from the charge to the edge."""
    with mpmath.workdps(60):
        a, d, lam = (mpmath.mpf(x) for x in (geom.a, geom.d, half_length))

        def edge(t):
            rho = mpmath.sqrt(a * a + d * d - 2 * a * d * mpmath.cos(t))
            return mpmath.asinh(lam / rho) * mpmath.cos(t)

        coeff = mpmath.mpf(geom.q) * geom.B / (4 * mpmath.pi * c_cgs)
        return coeff * 2 * a * mpmath.quad(edge, mpmath.linspace(0, 2 * mpmath.pi, 9))


@pytest.mark.parametrize("d", [1e3, 1e6])
def test_levels_far_beyond_lambda_hold_to_rounding(d):
    # Lambda << d: the tail is nearly all of (q/c) A, and (q/c) A - tail
    # kept P_e to 3e-14 at d = 1e3 a and 1.9e-11 at d = 1e6 a.  The edge
    # sum of the truncated momentum is within 3e-16 at both
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=d, q=1.0, truncation_halflength=2.0)
    rows = convergence_study(geom, 2)
    assert [row.half_length_cm for row in rows] == [1.0, 2.0]
    for row in rows:
        assert row.rel_error > 0.99
        exact = _edge_momentum(geom, row.half_length_cm)
        assert abs(row.P_e[1] - exact) <= 1e-15 * abs(exact)
        single = integrate_field_momentum(geom._replace(truncation_halflength=row.half_length_cm))
        assert single.P_e == row.P_e


@pytest.mark.parametrize("d, top", [(1.0001, 2.0), (1.0001, 100.0), (1.05, 100.0),
                                    (1.2, 100.0), (3.0, 100.0)],
                         ids=["1.0001-a-2a", "1.0001-a-100d", "1.05-a-100d", "1.2-a-100d",
                              "3.0-a-100d"])
def test_levels_down_to_a_match_the_truncated_bore(d, top):
    # the levels halve Lambda from 2a, or from 100 d, down to at least a
    half_length = top * (d if top == 100.0 else 1.0)
    levels = 1 + math.floor(math.log2(half_length))
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=d, q=1.0,
                                  truncation_halflength=half_length)
    rows = _assert_levels_match_the_truncated_bore(geom, levels)
    assert rows[0].half_length_cm >= 1.0 > rows[0].half_length_cm / 2.0


def test_estimate_covers_the_true_error():
    # the estimate is the summed tail plus an a-priori bound on the rule.
    # At Lambda = 0.01 a, 1e-4 a from the bore, the edge sum takes 3704
    # nodes, and P_e is 3.6 % of the closed form: the subtraction costs
    # digits of P_e, but not of the tail.  In the last geometry the
    # closed form's own rounding puts P_e farther from (q/c) A than the
    # tail: the bound's rounding term covers it
    for geom in (SolenoidChargeGeometry(a=1.0, B=100.0, d=1.0001, q=1.0,
                                        truncation_halflength=0.01),
                 SolenoidChargeGeometry(a=2.358391884159911, B=658.2266915796033,
                                        d=2.35890102088978, q=1.5159606280675102,
                                        truncation_halflength=198.277277215692),
                 SolenoidChargeGeometry(a=0.6480262676206137, B=12.248272878650218,
                                        d=2.0901708997646273, q=5.787647120410555,
                                        truncation_halflength=200.0844256058074)):
        result = integrate_field_momentum(geom)
        exact, closed, tail = _truncated_bore(geom, geom.half_length)
        assert abs(result.P_e[1] - exact) <= 1e-15 * max(abs(exact), abs(tail))
        assert abs(result.P_e[1] - closed) <= result.estimated_quadrature_error
        assert abs(result.P_e[1] - exact) <= result.estimated_quadrature_error


def test_edge_nodes_beyond_the_cap_are_a_domain_error():
    # 37/sigma passes the cap only where d - a and Lambda are both below
    # about 0.002 a; no CLI level has Lambda < a
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=1.0001, q=1.0, truncation_halflength=1e-3)
    with pytest.raises(DomainError, match=r"d - a = 9\.99.*e-05 and Lambda = 0\.001 "):
        integrate_field_momentum(geom)
    # a charge 1e4 radii out sums on few nodes however short the bore
    far = geom._replace(d=1e4)
    assert integrate_field_momentum(far).P_e[1] > 0.0


@pytest.mark.parametrize("a, d, half_length", [(1e-300, 1e10, None), (1e-300, 1e10, 1e-10),
                                               (1e-300, 1e10, 1e300), (1.0, 1e308, None),
                                               (1e-10, 1e-9, 1e300)])
def test_edge_sum_beyond_the_double_range_takes_the_small_bore_limit(a, d, half_length):
    # d/a or Lambda/a overflows: the share is d^2/(s0 (s0 + Lambda)),
    # s0 = sqrt(d^2 + Lambda^2), to rounding; Lambda = 50 d = inf leaves no tail
    geom = SolenoidChargeGeometry(a=a, B=1.0, d=d, q=1.0, truncation_halflength=half_length)
    lam = geom.half_length
    with mpmath.workdps(30):
        s0 = mpmath.sqrt(mpmath.mpf(d) ** 2 + mpmath.mpf(lam) ** 2)
        limit = 0 if math.isinf(lam) else float(mpmath.mpf(d) ** 2 / (s0 * (s0 + lam)))
    assert fieldmomentum._tail_share(geom, lam) == pytest.approx(limit, rel=1e-15, abs=0.0)
    # the truncated momentum's own share, Lambda/s0 in the limit
    if not math.isinf(lam):
        kept = float(lam / s0)
        assert fieldmomentum._kept_share(geom, lam) == pytest.approx(kept, rel=1e-15, abs=0.0)
    # with a = 1e-300 d, d/a and Lambda/a are in the double range where
    # Lambda < 1e8 d: there the edge sums reach the same limits
    if lam < 1e8 * d:
        inside = geom._replace(a=d * 1e-300)
        assert fieldmomentum._tail_share(inside, lam) == pytest.approx(limit, rel=1e-14)
        assert fieldmomentum._kept_share(inside, lam) == pytest.approx(kept, rel=1e-14)


def test_edge_nodes_stay_few_at_every_cli_level(monkeypatch):
    # N is the multiple of 4 at or above 37/sigma + 2; for Lambda >= a,
    # the tail's sigma is smallest at d = sqrt(2) a, Lambda = a (44 nodes).
    # The truncated momentum's own sum, with sigma = log(d/a), runs only
    # where the tail passes half the closed form: from d = 1.888 a at
    # Lambda = a, so it takes at most 64 nodes
    counts, fsum = [], math.fsum

    def counting_fsum(terms):
        counts.append(4 * len(terms))
        return fsum(terms)

    monkeypatch.setattr(fieldmomentum.math, "fsum", counting_fsum)
    convergence_study(REFERENCE, 2)
    assert counts == [8, 8]
    counts.clear()
    for d in (1.0 + 1e-12, 1.05, math.sqrt(2.0), 1.889, 2.0, 1e6):
        integrate_field_momentum(SolenoidChargeGeometry(a=1.0, B=1.0, d=d, q=1.0,
                                                        truncation_halflength=1.0))
    assert counts == [44, 44, 44, 44, 64, 44, 56, 8, 8]


def test_coarse_grid_reports_the_truncation_share():
    # the (4, 4, 4) midpoint lattice reported rel_error 0.987 here; the
    # grid is echoed now, and the share is the edge sum's
    rows = convergence_study(REFERENCE._replace(grid=(4, 4, 4)), 3)
    assert rows[-1].rel_error == pytest.approx(1.9993e-4, rel=0.0, abs=1e-6)
    assert [row.grid for row in rows] == [(4, 4, 2), (4, 4, 2), (4, 4, 4)]


def test_readme_truncation_share_holds_to_rounding():
    # rel_error was |P_e - (q/c) A|/|(q/c) A|, two numbers that agree to
    # 2e-4 subtracted: 1.1e-13 off at Lambda = 150.  It is formed from the
    # summed tail now, against a 30-digit tail / (2 pi a^2/d)
    row = convergence_study(REFERENCE, 3)[-1]
    assert row.half_length_cm == 150.0
    with mpmath.workdps(30):
        share = (_bore_tail(REFERENCE.a, REFERENCE.d, row.half_length_cm) * REFERENCE.d
                 / (2 * mpmath.pi * mpmath.mpf(REFERENCE.a) ** 2))
    assert row.rel_error == pytest.approx(float(share), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("grid, levels, half_length", [
    ((8, 16, 128), 4, None),       # even nz
    ((5, 7, 129), 3, None),        # odd nz and odd nphi
    ((8, 16, 100), 3, None),       # 25 / 50 / 100: odd first level
    ((8, 16, 100), 4, None),       # 100/8 rounds to 12
    ((4, 4, 4), 4, None),          # nz_k floored at 2
    ((9, 17, 1000), 4, 64),        # explicit Lambda, halved exactly
    ((4, 4, 2 ** 18 + 8), 3, None),  # nz far above any other axis
])
def test_convergence_rows_match_standalone_kernel_bit_for_bit(grid, levels, half_length):
    # each row must equal the single-level result at its own half-length,
    # and echo n_z halved with Lambda
    for geom in (SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0, grid=grid,
                                        truncation_halflength=half_length),
                 SolenoidChargeGeometry(a=0.7, B=-12.5, d=2.1, q=3.3, grid=grid,
                                        truncation_halflength=40.0)):
        rows = convergence_study(geom, levels)
        assert len(rows) == levels
        for k, row in enumerate(rows):
            scale = 2.0 ** (k - (levels - 1))
            assert row.half_length_cm == geom.half_length * scale
            assert row.grid == (grid[0], grid[1], max(2, round(grid[2] * scale)))
            single = integrate_field_momentum(
                geom._replace(truncation_halflength=row.half_length_cm))
            assert [x.hex() for x in row.P_e] == [x.hex() for x in single.P_e]


@pytest.mark.parametrize("q", [1e-150, 1e-170, 1e172])
def test_convergence_magnitude_is_the_azimuthal_component(q):
    # a norm squares P_y: below 1.5e-154 the square is subnormal, above
    # 1.3e154 it overflows
    rows = convergence_study(SolenoidChargeGeometry(a=1.0, B=1.0, d=3.0, q=q), 3)
    for row in rows:
        assert row.P_e[0] == row.P_e[2] == 0.0
        assert row.p_magnitude == abs(row.P_e[1]) > 0.0
        assert math.isfinite(row.p_magnitude)


@pytest.mark.parametrize("field", [{"B": 0.0}, {"q": 0.0}, {"a": 1e-300}, {"d": 1e308}])
def test_convergence_study_zero_momentum_is_a_domain_error(field):
    geom = SolenoidChargeGeometry(**dict(dict(a=1.0, B=100.0, d=3.0, q=1.0), **field))
    with pytest.raises(DomainError, match="undefined for a zero momentum"):
        convergence_study(geom, 2)
