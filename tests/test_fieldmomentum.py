import functools
import math

import mpmath
import numpy as np
import pytest

from etherdrift.errors import DomainError, InputError
from etherdrift.fieldmomentum import (MAX_RADIAL_NODES, REFERENCE_GRID,
                                      SolenoidChargeGeometry, _gauss_legendre,
                                      _momenta, analytic_solenoid_momentum,
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
    # an axis below 4 cannot be halved twice for the error estimate
    for grid in ((2, 2, 2), (3, 16, 128)):
        with pytest.raises(InputError, match=">= 4"):
            SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=grid)
    assert SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4, 4)).grid == (4, 4, 4)
    # a Gauss-Legendre rule costs O(n_r^2) to build
    with pytest.raises(InputError, match="radial nodes"):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(MAX_RADIAL_NODES + 1, 4, 4))
    assert SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0,
                                  grid=(MAX_RADIAL_NODES, 4, 4)).grid[0] == MAX_RADIAL_NODES
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


def test_quadrature_matches_closed_form():
    result = integrate_field_momentum(REFERENCE)
    analytic = analytic_solenoid_momentum(REFERENCE)
    rel = float(np.linalg.norm(result.P_e - analytic)) / float(np.linalg.norm(analytic))
    assert rel <= 5e-3
    # momentum is azimuthal at the charge: +y, nothing radial or axial
    assert result.P_e[2] == 0.0
    assert result.P_e[0] == 0.0
    assert result.P_e[1] > 0.0


def test_quadrature_error_estimate_brackets_truth():
    result = integrate_field_momentum(REFERENCE)
    analytic = analytic_solenoid_momentum(REFERENCE)
    actual = float(np.linalg.norm(result.P_e - analytic))
    assert result.estimated_quadrature_error > 0.0
    assert actual <= 10.0 * result.estimated_quadrature_error
    assert result.estimated_quadrature_error <= 10.0 * actual


def test_halved_rule_estimate_covers_the_rule_error():
    # the estimate is |rule(n_r, n_phi) - rule(n_r/2, n_phi/2)| plus the
    # truncation share |P_e - (q/c) A|
    setup = dict(a=0.6480262676206137, B=12.248272878650218, d=2.0901708997646273,
                 q=5.787647120410555, truncation_halflength=200.0844256058074)
    result = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(8, 16, 128)))
    half = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(4, 8, 64))).P_e
    fine = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(32, 64, 1024))).P_e
    assert result.estimated_quadrature_error >= float(np.linalg.norm(result.P_e - half))
    assert float(np.linalg.norm(result.P_e - fine)) <= result.estimated_quadrature_error
    # at Lambda = a with the charge beside the bore the (4, 4) rule is off
    # the tail; its difference from the (2, 2) rule covers that error
    # within a factor of 100, on top of the truncation share
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=1.05, q=1.0, truncation_halflength=1.0,
                                  grid=(4, 4, 4))
    result = integrate_field_momentum(geom)
    fine = integrate_field_momentum(geom._replace(grid=(64, 128, 4))).P_e
    rule_error = abs(result.P_e[1] - fine[1])
    truncation = abs(result.P_e[1] - analytic_solenoid_momentum(geom)[1])
    assert rule_error > 0.0
    assert truncation + rule_error <= result.estimated_quadrature_error
    assert result.estimated_quadrature_error <= truncation + 100.0 * rule_error


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
    """int_disk (d - x) 2/(s (s + L)) dA, s = sqrt(rho^2 + L^2), at the
    working precision: tanh-sinh quadrature over r in [0, a] and phi in
    [0, pi], doubled for the mirror half."""
    a, d, lam = mpmath.mpf(a), mpmath.mpf(d), mpmath.mpf(half_length)

    def tail(r, phi):
        ux = d - r * mpmath.cos(phi)
        s = mpmath.sqrt(ux * ux + (r * mpmath.sin(phi)) ** 2 + lam * lam)
        return 2 * ux / (s * (s + lam)) * r

    return 2 * mpmath.quad(tail, [0, a], [0, mpmath.pi])


@functools.cache
def _truncated_bore(a, d, half_length):
    """P_y / (q B / 4 pi c) over r <= a, |z| <= half_length, to 20 digits.

    The z integral of (d - x)/rho_3^3 is 2 L/(rho^2 s), s = sqrt(rho^2 + L^2),
    or 2/rho^2 - 2/(s (s + L)); the first term integrates over the disk to
    2 pi a^2/d, the second is _bore_tail."""
    with mpmath.workdps(20):
        return 2 * mpmath.pi * mpmath.mpf(a) ** 2 / d - _bore_tail(a, d, half_length)


@pytest.mark.parametrize("grid", [(16, 32, 64), (17, 33, 64)])
@pytest.mark.parametrize("d, half_length", [(1.05, 1.0), (1.2, 1.0), (3.0, 1.0),
                                            (1.01, 5.0), (3.0, 150.0)])
def test_levels_match_the_truncated_bore_to_rounding(d, half_length, grid):
    # the coarsest level sits at half_length; Lambda = a is the smallest a
    # level may have, and there the tail is hardest to sum.  An odd n_phi
    # has a phi = pi node that weighs 1 in the mirror fold
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=d, q=1.0,
                                  truncation_halflength=2.0 * half_length, grid=grid)
    coeff = mpmath.mpf(geom.q) * geom.B / (4 * mpmath.pi * c_cgs)
    analytic = analytic_solenoid_momentum(geom)[1]
    rows = convergence_study(geom, 2)
    assert [row.half_length_cm for row in rows] == [half_length, 2.0 * half_length]
    for row in rows:
        exact = coeff * _truncated_bore(geom.a, d, row.half_length_cm)
        assert row.P_e[1] == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert row.p_magnitude == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert row.rel_error == pytest.approx(float(abs(exact - analytic) / analytic),
                                              rel=0.0, abs=1e-14)
        assert row.P_e[0] == 0.0 and row.P_e[2] == 0.0


def test_coarse_grid_reports_the_truncation_share():
    # the (4, 4, 4) midpoint lattice reported rel_error 0.987 here; the
    # tail is smooth, so four radial and four azimuthal nodes sum it
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


def _unfolded_midpoint_p_y(geom, nr, nphi, half_length):
    """P_y from every node of the nr x nphi disk rule, no symmetry used:
    Gauss-Legendre in r and the midpoint nodes (k + 1/2) 2 pi/nphi in phi."""
    t, w_t = np.polynomial.legendre.leggauss(nr)
    r = (0.5 * geom.a * (t + 1.0))[:, None]
    dphi = 2.0 * math.pi / nphi
    phi = ((np.arange(nphi) + 0.5) * dphi)[None, :]
    ux, y = geom.d - r * np.cos(phi), r * np.sin(phi)
    s = np.sqrt(ux * ux + y * y + half_length * half_length)
    weight = 0.5 * geom.a * w_t[:, None] * r * dphi
    tail = np.sum(ux * 2.0 / (s * (s + half_length)) * weight)
    coeff = geom.q * geom.B / (4.0 * math.pi * c_cgs)
    return analytic_solenoid_momentum(geom)[1] - coeff * tail


@pytest.mark.parametrize("grid", [(4, 4, 4), (5, 7, 9), (8, 16, 128), (9, 17, 129)])
def test_folded_kernel_matches_unfolded_midpoint_sum(grid):
    # the mirror fold (phi -> 2 pi - phi) changes only the order of the
    # sum: an odd nphi carries the weight-1 node at phi = pi
    for geom in (REFERENCE, SolenoidChargeGeometry(a=0.7, B=-12.5, d=2.1, q=3.3,
                                                   truncation_halflength=40.0)):
        ((folded, _),) = _momenta(geom, grid[0], grid[1], [geom.half_length])
        unfolded = _unfolded_midpoint_p_y(geom, grid[0], grid[1], geom.half_length)
        assert folded[1] == pytest.approx(unfolded, rel=1e-13, abs=0.0)
        # P_x and P_z vanish by the mirror and axial symmetries
        assert folded[0] == 0.0 and folded[2] == 0.0


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
    # the levels share one disk rule; each row must equal the single-level
    # result at its own half-length
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
            assert row.P_e.tobytes() == single.P_e.tobytes()


def _gauss_legendre_exact(n):
    """Nodes and weights of the n-point rule to 30 digits: Newton on the
    Legendre recurrence from numpy's nodes, in mpmath."""
    nodes, weights = [], []
    with mpmath.workdps(30):
        for x in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(x)
            for _ in range(4):
                p_prev, p = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                dp = n * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_gauss_legendre_rule_matches_leggauss(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-15)
    # leggauss's own weights are 2.3e-15 off the exact ones at n = 64, so
    # there the weights are held to the exact rule alone
    if n <= 32:
        np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=1e-15)
    exact_x, exact_w = _gauss_legendre_exact(n)
    np.testing.assert_allclose(x, exact_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, exact_w, rtol=0.0, atol=1e-15)
    # built once per n and shared, so read-only
    assert _gauss_legendre(n) is _gauss_legendre(n)
    assert not x.flags.writeable and not w.flags.writeable


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
