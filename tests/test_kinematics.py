import random

import mpmath
import numpy as np
import pytest

from etherdrift.errors import DomainError
from etherdrift.kinematics import (CompositionLaw, compose_lab_speed,
                                   effective_fresnel_speed,
                                   einstein_composed_speed,
                                   fresnel_drag_coefficient, fresnel_speed,
                                   tangherlini_composed_speed)
from etherdrift.units import c as C


def test_drag_coefficient_endpoints():
    assert fresnel_drag_coefficient(1.0) == 0.0
    assert fresnel_drag_coefficient(1e9) == pytest.approx(1.0, abs=1e-12)
    # no n^2 is formed, so none overflows
    assert fresnel_drag_coefficient(1e200) == 1.0
    # 1 - 1/1.33^2, 50-digit arithmetic
    assert fresnel_drag_coefficient(1.33) == pytest.approx(0.43467691785855616, rel=1e-15)


def test_drag_coefficient_matches_mpmath_near_vacuum():
    # n - 1 log-uniform over [1e-12, 10], with both ends: the rarefied gases
    # near n = 1, where 1 - 1/n^2 cancels, through dense media.  (n - 1) is
    # exact for n <= 2 and rounded once above; (n + 1), the two quotients
    # and their product are rounded once each: at most 5 errors of 2^-53
    rng = random.Random("near-vacuum")
    with mpmath.workdps(50):
        for e in [-12.0, 1.0, *(rng.uniform(-12.0, 1.0) for _ in range(2000))]:
            n = 1.0 + 10.0 ** e
            exact = 1 - 1 / mpmath.mpf(n) ** 2
            assert abs(fresnel_drag_coefficient(n) - exact) <= 5 * 2.0 ** -53 * exact, n


def test_drag_coefficient_monotone():
    values = [fresnel_drag_coefficient(n) for n in np.linspace(1.0, 3.0, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fresnel_speed_values():
    assert fresnel_speed(1.0, 1e4) == C
    assert fresnel_speed(2.5, 0.0) == C / 2.5
    # c/1.33 + (1 - 1/1.33^2)*10, 50-digit arithmetic
    assert fresnel_speed(1.33, 10.0) == pytest.approx(225407867.50466392, rel=1e-15)


def test_fresnel_speed_drag_term_odd_in_u():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = float(rng.uniform(1.0, 2.0))
        u = float(rng.uniform(0.0, 1e5))
        plus = fresnel_speed(n, u) - C / n
        minus = fresnel_speed(n, -u) - C / n
        assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-9)


def test_effective_fresnel_speed():
    assert effective_fresnel_speed(1.0003, 3e4, 0.0) == C / 1.0003
    assert effective_fresnel_speed(1.33, 17.0, 1.0) == fresnel_speed(1.33, 17.0)
    # c/1.0003 + 6.1e-3 (1 - 1/1.0003^2) 3e4, 50-digit arithmetic
    assert effective_fresnel_speed(1.0003, 3e4, 6.1e-3) == pytest.approx(
        299702547.34557986, rel=1e-15)


def test_effective_fresnel_speed_linear_in_ef():
    base = effective_fresnel_speed(1.2, 5e3, 0.0)
    full = effective_fresnel_speed(1.2, 5e3, 1.0)
    for e_f in (0.1, 0.35, 0.8):
        expected = base + e_f * (full - base)
        assert effective_fresnel_speed(1.2, 5e3, e_f) == pytest.approx(expected, rel=1e-14)


def test_einstein_composed_speed_values():
    assert einstein_composed_speed(1.0, 0.5 * C) == pytest.approx(C, rel=1e-15)
    assert einstein_composed_speed(1.0, 2.5e5) == pytest.approx(C, rel=1e-15)
    assert einstein_composed_speed(1.5, 0.0) == C / 1.5
    # (c/1.5 - 1e3)/(1 - 1e3/(1.5c)), 50-digit arithmetic
    assert einstein_composed_speed(1.5, 1e3) == pytest.approx(199861083.10987569, rel=1e-15)


def test_tangherlini_composed_speed_values():
    assert tangherlini_composed_speed(1.0, 0.0) == C
    # (c/1.5 - 1e3)/(1 - (1e3/c)^2), 50-digit arithmetic
    assert tangherlini_composed_speed(1.5, 1e3) == pytest.approx(
        199860638.66889042, rel=1e-15)
    # (c/1.0003 - 3e5)/(1 - (3e5/c)^2), 50-digit arithmetic
    assert tangherlini_composed_speed(1.0003, 3e5) == pytest.approx(
        299402847.05336435, rel=1e-14)


def test_tangherlini_vacuum_is_two_way_anisotropic():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = float(rng.uniform(-0.5, 0.5)) * C
        assert tangherlini_composed_speed(1.0, u) == pytest.approx(
            C * C / (C + u), rel=1e-14)


def test_inverse_speed_offset_identity():
    # the two laws differ exactly by the synchronization term u/c^2 in
    # inverse speed, for any index
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = float(rng.uniform(1.0, 2.0))
        u = float(rng.uniform(-3e5, 3e5))
        w_e = einstein_composed_speed(n, u)
        w_t = tangherlini_composed_speed(n, u)
        offset = (1.0 / w_t - 1.0 / w_e) * C * C
        assert offset == pytest.approx(u, abs=1e-6)


def test_composition_laws_agree_on_arm_differences():
    # any observable built from inverse-speed differences cancels the
    # synchronization offset, so the laws coincide there; normalized by
    # u^2/c^3 this sits far below the first-order scale u/c^2
    rng = np.random.default_rng(29)
    for _ in range(200):
        n1 = float(rng.uniform(1.0, 1.01))
        n2 = float(rng.uniform(1.0, 1.01))
        u = float(rng.uniform(-1e3, 1e3))
        if u == 0.0:
            continue
        diff_e = 1.0 / einstein_composed_speed(n1, u) - 1.0 / einstein_composed_speed(n2, u)
        diff_t = 1.0 / tangherlini_composed_speed(n1, u) - 1.0 / tangherlini_composed_speed(n2, u)
        assert abs(diff_e - diff_t) <= 2.0 * u * u / C ** 3 + 1e-24


def test_composed_speeds_positive_below_c():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = float(rng.uniform(1.0 + 1e-6, 2.0))
        u = float(rng.uniform(0.0, 0.9)) * C / n
        for law in CompositionLaw:
            w = compose_lab_speed(C / n, u, law)
            assert 0.0 < w < C
        # reversed drift keeps speeds positive (Tangherlini can exceed c
        # one-way there; only the positivity claim survives)
        assert compose_lab_speed(C / n, -u, CompositionLaw.TANGHERLINI) > 0.0
        assert compose_lab_speed(C / n, -u, CompositionLaw.EINSTEIN) > 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        fresnel_drag_coefficient(0.5)
    with pytest.raises(DomainError):
        fresnel_speed(1.33, C)
    with pytest.raises(DomainError):
        effective_fresnel_speed(1.33, 10.0, 1.5)
    with pytest.raises(DomainError):
        einstein_composed_speed(1.0, 1.5 * C)
    with pytest.raises(DomainError):
        fresnel_drag_coefficient(-2.0)
    with pytest.raises(DomainError, match="unknown composition law"):
        compose_lab_speed(C / 1.5, 10.0, "einstein")
