
import numpy as np
import pytest

import _exact
from etherdrift.errors import DomainError
from etherdrift.kinematics import (CompositionLaw, compose_lab_speed,
                                   effective_fresnel_speed,
                                   einstein_composed_speed, fresnel_speed,
                                   tangherlini_composed_speed)
from etherdrift.units import c as C


def test_fresnel_speed_values():
    assert fresnel_speed(1.0, 1e4) == C
    assert fresnel_speed(2.5, 0.0) == C / 2.5
    # c/1.33 + (1 - 1/1.33^2)*10, 50-digit arithmetic, correctly rounded
    assert fresnel_speed(1.33, 10.0) == 225407867.50466392


def test_fresnel_speed_drag_term_odd_in_u():
    # the drag term v - c/n of the rounded v is not odd to better than half
    # an ulp of v, so each v(±u) is checked against the exact speed, and
    # the oddness on the exact drag term
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = float(rng.uniform(1.0, 2.0))
        u = float(rng.uniform(0.0, 1e5))
        rest, plus, minus = (_exact.effective_fresnel_speed(n, drift, 1.0)
                             for drift in (0.0, u, -u))
        assert _exact.ulps(fresnel_speed(n, u), plus) <= 0.5, (n, u)
        assert _exact.ulps(fresnel_speed(n, -u), minus) <= 0.5, (n, -u)
        assert plus - rest == -(minus - rest) != 0


def test_effective_fresnel_speed():
    assert effective_fresnel_speed(1.0003, 3e4, 0.0) == C / 1.0003
    assert effective_fresnel_speed(1.33, 17.0, 1.0) == fresnel_speed(1.33, 17.0)
    # c/1.0003 + 6.1e-3 (1 - 1/1.0003^2) 3e4, 50-digit arithmetic, correctly rounded
    assert effective_fresnel_speed(1.0003, 3e4, 6.1e-3) == 299702547.34557986


def test_effective_fresnel_speed_linear_in_ef():
    base = effective_fresnel_speed(1.2, 5e3, 0.0)
    full = effective_fresnel_speed(1.2, 5e3, 1.0)
    for e_f in (0.1, 0.35, 0.8):
        expected = base + e_f * (full - base)
        assert effective_fresnel_speed(1.2, 5e3, e_f) == pytest.approx(expected, rel=1e-14)


def test_einstein_composed_speed_values():
    # light in vacuum keeps c under any drift, exactly
    assert einstein_composed_speed(1.0, 0.5 * C) == C
    assert einstein_composed_speed(1.0, 2.5e5) == C
    assert einstein_composed_speed(1.5, 0.0) == C / 1.5
    # (c/1.5 - 1e3)/(1 - 1e3/(1.5c)), 50-digit arithmetic, correctly rounded
    assert einstein_composed_speed(1.5, 1e3) == 199861083.10987569


def test_tangherlini_composed_speed_values():
    assert tangherlini_composed_speed(1.0, 0.0) == C
    # (c/1.5 - 1e3)/(1 - (1e3/c)^2), 50-digit arithmetic, correctly rounded
    assert tangherlini_composed_speed(1.5, 1e3) == 199860638.66889042
    # (c/1.0003 - 3e5)/(1 - (3e5/c)^2), 50-digit arithmetic, correctly rounded
    assert tangherlini_composed_speed(1.0003, 3e5) == 299402847.05336435


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
        fresnel_speed(0.5, 10.0)
    with pytest.raises(DomainError):
        fresnel_speed(1.33, C)
    with pytest.raises(DomainError):
        effective_fresnel_speed(1.33, 10.0, 1.5)
    with pytest.raises(DomainError):
        einstein_composed_speed(1.0, 1.5 * C)
    with pytest.raises(DomainError):
        fresnel_speed(-2.0, 10.0)
    with pytest.raises(DomainError, match="unknown composition law"):
        compose_lab_speed(C / 1.5, 10.0, "einstein")
    # u v_rest = c^2 exactly: the Einstein lab speed is infinite
    for v_rest, u in [(2.0 * C, C / 2.0), (4.0 * C, C / 4.0)]:
        with pytest.raises(DomainError, match=f"v_rest = {v_rest} m/s, u = {u} m/s"):
            compose_lab_speed(v_rest, u, CompositionLaw.EINSTEIN)


def test_compose_lab_speed_past_u_v_rest_equal_to_c_squared():
    # c^2/1e8 rounds down, so u v_rest falls short of c^2 by a few parts in
    # 1e17, and the lab speed is finite and huge; beyond c^2, as at
    # (4c, c/2), the Einstein denominator is negative, and the speed takes
    # its sign
    v_rest = C * C / 1e8
    for law in CompositionLaw:
        exact = _exact.compose_lab_speed(v_rest, 1e8, law)
        assert _exact.ulps(compose_lab_speed(v_rest, 1e8, law), exact) <= 0.5
    assert compose_lab_speed(v_rest, 1e8, CompositionLaw.EINSTEIN) == 1.723320336792015e25
    # (3.5c)c^2/(c^2 - 2c^2)
    assert compose_lab_speed(4.0 * C, C / 2.0, CompositionLaw.EINSTEIN) == -3.5 * C
