import contextlib
import math
import os
import random
import re
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _exact
from etherdrift import _record, cli, interferometer
from etherdrift._record import MAX_SCAN_STEPS, _rows, _table
from etherdrift.errors import DegenerateConfigError, DomainError, InputError
from etherdrift.abphase import fresnel_momentum
from etherdrift.interferometer import (SCAN_COLUMNS, InterferometerConfig, _cos_deg,
                                       _scan_blocks, _scan_cos, _scan_row, _fringes,
                                       angle_scan, delay_exact, delay_first_order,
                                       improvement_factor, min_detectable_u, rotation_signal)
from etherdrift.kinematics import (CompositionLaw, compose_lab_speed, einstein_composed_speed,
                                   fresnel_speed)
from etherdrift.proca import ProcaCylinderConfig, _profile_rule
from etherdrift.units import c as C


#: angle_scan's table columns
THETA, EXACT, FIRST, FRINGES = range(4)


def config(n1=1.0006, n2=1.0001, L=1.0, u=1e3, lam=633e-9,
           composition=CompositionLaw.EINSTEIN, e_f=0.0):
    return InterferometerConfig(L, n1, n2, u, lam, composition, e_f)


def arm1_along_drift_speed(cfg):
    """Lab speed of arm 1's light at 0 degrees, where the arm takes all of u."""
    return compose_lab_speed(C / cfg.n1, cfg.u, cfg.composition)


def test_vacuum_einstein_arm_is_invariant():
    cfg = config(n1=1.0, n2=1.0, u=2.5e5)
    assert arm1_along_drift_speed(cfg) == pytest.approx(C, rel=1e-15)


def test_arm_speed_tangherlini_frozen():
    cfg = config(n1=1.0003, n2=1.0, u=3e5, composition=CompositionLaw.TANGHERLINI)
    # (c/1.0003 - 3e5)/(1 - (3e5/c)^2), 50-digit arithmetic
    assert arm1_along_drift_speed(cfg) == pytest.approx(299402847.05336435, rel=1e-14)


def test_delay_identical_arms_is_zero_everywhere():
    cfg = config(n1=1.0004, n2=1.0004, u=2e5)
    for theta in (0.0, 37.0, 90.0, 180.0, 233.0):
        assert delay_exact(cfg, theta) == 0.0


def test_delay_static_case():
    cfg = config(u=0.0)
    expected = (1.0 / C) * (1.0006 - 1.0001)
    assert delay_exact(cfg, 0.0) == pytest.approx(expected, rel=1e-15)
    assert delay_first_order(cfg, 123.4) == pytest.approx(expected, rel=1e-15)


def test_delay_exact_frozen():
    # L(1/w1 - 1/w2) at theta=0 for the reference configuration,
    # 50-digit arithmetic
    assert delay_exact(config(), 0.0) == pytest.approx(1.6678316064227491e-12, rel=5e-12)


def test_delay_first_order_frozen():
    # (L/c)(n1-n2)[1 + (u/c)(n1+n2)], 50-digit arithmetic
    assert delay_first_order(config(), 0.0) == pytest.approx(
        1.6678316063855960e-12, rel=1e-14)


def test_first_order_matches_exact_to_second_order():
    cfg = config(u=C * 1e-5)
    residual = abs(delay_exact(cfg, 0.0) - delay_first_order(cfg, 0.0))
    assert residual <= 5.0 * (cfg.u / C) ** 2 * (cfg.L / C)


def test_first_order_reversal_is_sign_flip_of_u():
    cfg = config(u=7.7e4)
    flipped = config(u=-7.7e4)
    for theta in (0.0, 10.0, 45.0, 77.7):
        assert delay_first_order(cfg, theta + 180.0) == delay_first_order(flipped, theta)


def _rotation_bound(cfg):
    """rotation_signal's stated bound in ulp, 2 + 2K: K sums (s + t)/|s - t|
    over its factors s - t, a - e_f beta^2 r1 r2, 1 - x1^2 and 1 - x2^2,
    so the bound is 8 ulp where none of them cancels."""
    a, beta = 1.0 - cfg.e_f, cfg.u / C
    r1, r2 = (a + cfg.e_f / (n * n) for n in (cfg.n1, cfg.n2))
    factors = [(a, cfg.e_f * beta * beta * r1 * r2), (1.0, (beta * cfg.n1 * r1) ** 2),
               (1.0, (beta * cfg.n2 * r2) ** 2)]
    return 2.0 + 2.0 * sum((s + t) / abs(s - t) if s != t else math.inf for s, t in factors)


def test_rotation_signal_frozen():
    cfg = config()
    signal = rotation_signal(cfg)
    exact = _exact.rotation_signal(cfg)
    # 2(u/c)(n1^2-n2^2)(L/c) for the decimal indices, and Dt(0) - Dt(180) for
    # their nearest doubles, 50-digit arithmetic; the doubles move the
    # difference by 1.1e-13 relative
    assert signal.first_order == pytest.approx(2.2260789671464744e-17, rel=1e-14)
    assert float(exact) == 2.2260789671710323e-17
    # none of the closed form's factors cancels here
    assert _exact.ulps(signal.exact, exact) <= 8.0
    assert signal.exact == pytest.approx(signal.first_order, rel=1e-6)


def test_rotation_signal_odd_in_u():
    plus = rotation_signal(config(u=5e4))
    minus = rotation_signal(config(u=-5e4))
    assert plus.first_order == -minus.first_order
    assert plus.exact == pytest.approx(-minus.exact, rel=1e-9)


def test_rotation_signal_swap_and_flip_invariance():
    base = rotation_signal(config(n1=1.0006, n2=1.0001, u=4e4)).first_order
    swapped = rotation_signal(config(n1=1.0001, n2=1.0006, u=-4e4)).first_order
    assert base == pytest.approx(swapped, rel=1e-15)


def test_rotation_signal_identical_arms_bitwise_zero():
    for law in CompositionLaw:
        signal = rotation_signal(config(n1=1.0, n2=1.0, u=2.9e5, composition=law))
        assert signal.exact == 0.0
        assert signal.first_order == 0.0


def test_rotation_signal_full_drag_cancels_first_order():
    signal = rotation_signal(config(e_f=1.0))
    assert signal.first_order == 0.0


def _rotation_draws(rng, count):
    """count valid devices of close or distant indices: n2 - 1 log-uniform
    in [1e-5, 3], n1/n2 - 1 of either sign and of size log-uniform in
    [1e-12, 0.1], |u| log-uniform in [1e-3, 2e8] m/s, and e_f 0, 1 or
    uniform in turn.  A draw the config refuses is drawn again."""
    drawn = []
    while len(drawn) < count:
        n2 = 1.0 + 10.0 ** rng.uniform(-5.0, math.log10(3.0))
        n1 = n2 * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0))
        u = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(2e8))
        e_f = (0.0, 1.0, rng.random())[len(drawn) % 3]
        with contextlib.suppress(DomainError):
            drawn.append(config(n1=n1, n2=n2, u=u, e_f=e_f))
    return drawn


def test_rotation_signal_is_within_its_stated_bound_on_seeded_draws():
    # the difference of the arms' swings was up to 1.5e14 ulp off on these
    # draws, where close indices cancel; the closed form carries n1 - n2
    for cfg in _rotation_draws(random.Random("rotation-signal"), 4000):
        error = _exact.ulps(rotation_signal(cfg).exact, _exact.rotation_signal(cfg))
        assert error <= _rotation_bound(cfg), cfg


def test_rotation_signal_of_indices_whose_squares_multiply_past_the_double_range():
    # n1^2 n2^2 = 4e400: the closed form takes each arm's factors apart
    cfg = config(n1=1e100, n2=2e100, u=1e-93, e_f=0.5)
    exact = _exact.rotation_signal(cfg)
    assert _exact.ulps(rotation_signal(cfg).exact, exact) <= _rotation_bound(cfg)


def test_rotation_signal_refuses_a_drift_within_rounding_of_an_arms_light_speed():
    # the config's check keeps c/n1 - (1 - k1) u positive in its own
    # rounding, but x1 = (u/c) n1 (1 - k1) rounds to 1, where the signal's
    # denominator 1 - x1^2 vanishes
    cfg = config(n1=1.7, n2=1.0, u=262029397.73778918, e_f=0.5)
    with pytest.raises(DomainError, match=r"light speed in arm 1 \(n1 = 1.7\)"):
        rotation_signal(cfg)


def test_min_detectable_u_frozen_and_inverts_forward_formula():
    cfg = config()
    # res lambda c/(2(n1^2-n2^2)L), 50-digit arithmetic on the double indices
    u_min = min_detectable_u(cfg, 1e-3)
    assert u_min == pytest.approx(94.851115066737100, rel=1e-13)
    at_threshold = config(u=u_min)
    fringes = _fringes(rotation_signal(at_threshold).first_order, cfg.lambda_vac)
    assert fringes == pytest.approx(1e-3, rel=1e-12)


def test_min_detectable_u_scales():
    cfg = config()
    doubled = config(L=2.0)
    assert min_detectable_u(doubled, 1e-3) == pytest.approx(
        min_detectable_u(cfg, 1e-3) / 2.0, rel=1e-14)
    assert min_detectable_u(cfg, 5e-4) == pytest.approx(
        min_detectable_u(cfg, 1e-3) / 2.0, rel=1e-14)


def test_min_detectable_u_degenerate():
    with pytest.raises(DegenerateConfigError):
        min_detectable_u(config(n1=1.0003, n2=1.0003), 1e-3)
    with pytest.raises(DegenerateConfigError):
        min_detectable_u(config(e_f=1.0), 1e-3)
    with pytest.raises(DomainError):
        min_detectable_u(config(), 0.0)


def test_improvement_factor():
    assert improvement_factor(C, 1.0006, 1.0001) == pytest.approx(
        1.0006 ** 2 - 1.0001 ** 2, rel=1e-15)
    assert improvement_factor(1e3, 1.2, 1.2) == 0.0
    # (c/u)(n1^2 - n2^2) for the reference pair, 50-digit arithmetic on the
    # double indices
    assert improvement_factor(1e3, 1.0006, 1.0001) == pytest.approx(
        299.89738536026696, rel=1e-13)
    with pytest.raises(DomainError):
        improvement_factor(0.0, 1.0006, 1.0001)


@pytest.mark.parametrize("n1, n2", [(1.0006, 1.0001), (1.0003, 1.00029),
                                    (1.000001, 1.0000009)])
def test_index_square_difference_matches_mpmath(n1, n2):
    # n1 * n1 - n2 * n2 cancels for near-vacuum indices: it was 9.3e-14,
    # 8.9e-12 and 3.5e-10 off at these pairs
    cfg = config(n1=n1, n2=n2, L=2.0, u=3e4, e_f=0.25)
    got = {"improvement_factor": improvement_factor(cfg.u, n1, n2),
           "min_detectable_u": min_detectable_u(cfg, 1e-3),
           "first_order": rotation_signal(cfg).first_order}
    with mpmath.workdps(50):
        c, diff = mpmath.mpf(C), mpmath.mpf(n1) ** 2 - mpmath.mpf(n2) ** 2
        L, u, e_f, lam = map(mpmath.mpf, (cfg.L, cfg.u, cfg.e_f, cfg.lambda_vac))
        references = {
            "improvement_factor": (c / u) * diff,
            "min_detectable_u": mpmath.mpf(1e-3) * lam * c / (2 * diff * L * (1 - e_f)),
            "first_order": 2 * (u / c) * diff * (L / c) * (1 - e_f),
        }
        for name, reference in references.items():
            error = float(abs((got[name] - reference) / reference))
            assert error <= 1e-15, (name, error)


def test_angle_scan_two_steps_is_rotation_pair():
    cfg = config()
    table = angle_scan(cfg, 2)
    assert SCAN_COLUMNS == ("theta_deg", "delay_exact_s", "delay_first_order_s", "fringes")
    assert table.shape == (2, len(SCAN_COLUMNS)) and table.dtype == np.float64
    assert table[:, THETA].tolist() == [0.0, 180.0]
    assert table[0, EXACT] == delay_exact(cfg, 0.0)
    assert table[1, EXACT] == delay_exact(cfg, 180.0)


def test_angle_scan_static_is_constant():
    table = angle_scan(config(u=0.0), 8)
    assert len(set(table[:, EXACT].tolist())) == 1


def test_angle_scan_half_turn_antisymmetry():
    cfg = config(u=2e5)
    table = angle_scan(cfg, 12)
    static = (cfg.L / C) * (1.0006 - 1.0001)
    for k in range(6):
        a = table[k, FIRST] - static
        b = table[k + 6, FIRST] - static
        assert a == pytest.approx(-b, rel=1e-12, abs=1e-40)


def test_angle_scan_validates_steps():
    with pytest.raises(InputError):
        angle_scan(config(), 1)
    # a row range's start and stop are integers with 0 <= start <= stop <=
    # steps, refused before the table, here up to 320 MB, is allocated; the
    # CLI's scan builder refuses a step count that angle_scan refuses before
    # its delays, here up to 80 MB, are allocated
    steps = MAX_SCAN_STEPS
    counts = [-1, steps + 1, 2 ** 70, np.int64(-5), 3.0, np.float64(3.0), 2.5, [3],
              np.arange(3), "3"]
    tracemalloc.start()
    try:
        for rows in counts:
            for bounds in ((0, rows), (rows,), (rows, rows)):
                with pytest.raises(InputError, match="angle scan rows"):
                    angle_scan(config(), steps, *bounds)
            with pytest.raises(InputError, match="angle scan"):
                _scan_blocks(config(), rows)
        with pytest.raises(InputError, match="angle scan rows"):
            angle_scan(config(), steps, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_angle_scan_forms_the_rows_it_is_given(monkeypatch):
    # a range's rows are the whole scan's rows, bit for bit; and the CLI's
    # scan builder forms the rows up to the half turn, through angle_scan,
    # and a scan assembled from their delays is the scan, for blocks that
    # end anywhere.  At this device the 90 and 270 degree rows differed in
    # every delay cell while cos 90 degrees was 6.1e-17
    cfg = config(n1=1.5, n2=1.500000000001, u=1.2e8)
    whole = angle_scan(cfg, 12)
    for rows in (0, 1, 7, 12, np.int64(6), np.uint8(3)):
        assert angle_scan(cfg, 12, 0, rows).tobytes() == whole[:rows].tobytes()
        assert angle_scan(cfg, 12, rows).tobytes() == whole[rows:].tobytes()
        assert angle_scan(cfg, 12, rows // 2, rows).tobytes() == whole[rows // 2:rows].tobytes()
    assert whole[3, EXACT:].tobytes() == whole[9, EXACT:].tobytes()
    formed = []

    def recorded(*args):
        formed.append(angle_scan(*args))
        return formed[-1]

    for steps in [*range(2, 41), 4099, 4100, 8192]:
        whole = angle_scan(cfg, steps)
        for block in (1, 3, 4096):
            monkeypatch.setattr(_record, "_SCAN_BLOCK", block)
            monkeypatch.setattr(interferometer, "angle_scan", recorded)
            formed.clear()
            blocks = _scan_blocks(cfg, steps)
            monkeypatch.setattr(interferometer, "angle_scan", angle_scan)
            # every row formed before the first block is read, rows 0 to
            # steps // 2 once each
            assert np.concatenate(formed).tobytes() == whole[:steps // 2 + 1].tobytes()
            blocks = [rows.copy() for rows in blocks]  # each block a view of one array
            assert [len(rows) for rows in blocks] == [min(block, steps - start)
                                                      for start in range(0, steps, block)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), (steps, block)


def _raw_scan(cfg, steps):
    """The scan's cells in plain floats, in row-major order, unchecked."""
    return [value for k in range(steps) for value in _scan_row(cfg, steps, k, math)]


@pytest.mark.parametrize("n1, n2", [(1.0006, 1.0001), (1.0001, 1.0006)])
@pytest.mark.parametrize("lam", [5e-324, 1e-323])
def test_scan_refuses_its_first_non_finite_cell(lam, n1, n2):
    # at a subnormal wavelength the fringe count c dt / lambda overflows,
    # to inf or to -inf with the sign of the delays.  The plain rows and
    # both numpy builders refuse the scan by its first non-finite cell in
    # row-major order, and numpy's overflow warning stays inside the
    # refusal
    cfg = config(n1=n1, n2=n2, lam=lam)
    for steps in (4, 7, 4097):
        first = next(value for value in _raw_scan(cfg, steps) if not math.isfinite(value))
        message = re.escape(f"result is not a finite number ({first}): "
                            "the computation left the double range")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (lambda: list(_rows(partial(_scan_row, cfg, steps), steps)),
                         lambda: angle_scan(cfg, steps), lambda: _scan_blocks(cfg, steps)):
                with pytest.raises(DomainError, match=f"^{message}$"):
                    form()


def test_config_validation_names_offender():
    with pytest.raises(DomainError, match="n1"):
        config(n1=0.5)
    with pytest.raises(DomainError, match="n2"):
        config(n2=0.99)
    with pytest.raises(DomainError):
        config(L=0.0)
    with pytest.raises(DomainError):
        config(lam=-1e-9)
    with pytest.raises(DomainError):
        config(u=C)
    with pytest.raises(DomainError):
        config(e_f=1.5)
    with pytest.raises(DomainError, match="n2"):
        InterferometerConfig(1.0, 1.0, float("nan"), 0.0, 633e-9)


def _rotation_reference(cfg):
    """Dt(0) - Dt(180) from the composed lab speeds, 50-digit arithmetic."""
    with mpmath.workdps(50):
        c, L, e_f = mpmath.mpf(C), mpmath.mpf(cfg.L), mpmath.mpf(cfg.e_f)

        def inverse_speed(n, u):
            v = c / n + e_f * (1 - 1 / n ** 2) * u
            if cfg.composition is CompositionLaw.EINSTEIN:
                return (1 - u * v / c ** 2) / (v - u)
            return (1 - (u / c) ** 2) / (v - u)

        def delay(u):
            return L * (inverse_speed(mpmath.mpf(cfg.n1), u)
                        - inverse_speed(mpmath.mpf(cfg.n2), u))

        u = mpmath.mpf(cfg.u)
        return delay(u) - delay(-u)


@pytest.mark.parametrize("law", list(CompositionLaw))
@pytest.mark.parametrize("n1, n2", [(1.0006, 1.0001), (1.5, 1.0), (1.00029, 1.33),
                                    (1.0003, 1.00029)])
def test_rotation_signal_exact_matches_mpmath(law, n1, n2):
    # within the stated bound, in ulp of the 50-digit value; the difference
    # of two delays was 100 % off at 1 um/s, and the difference of the arms'
    # swings up to 159 ulp, at 1.0003/1.00029
    for e_f in (0.0, 0.5, 0.9, 0.999):
        for magnitude in (1e-6, 1e-3, 1.0, 1e3, 1e5, 1e7):
            for u in (magnitude, -magnitude):
                cfg = config(n1=n1, n2=n2, L=2.0, u=u, composition=law, e_f=e_f)
                reference = _rotation_reference(cfg)
                got = rotation_signal(cfg).exact
                error = float(abs(mpmath.mpf(got) - reference)) / math.ulp(float(reference))
                assert error <= _rotation_bound(cfg), (e_f, u, error)


def _folded_angle(k, steps):
    """theta_k = 360 k/steps folded into [0, 90] on the integer j = 4k, and
    the sign of its cosine, in _cos_deg's quadrants (t <= 90 the first)."""
    j = 4 * k
    if j <= steps:
        return 90.0 * j / steps, 1
    if j <= 2 * steps:
        return 90.0 * (2 * steps - j) / steps, -1
    if j <= 3 * steps:
        return 90.0 * (j - 2 * steps) / steps, -1
    return 90.0 * (4 * steps - j) / steps, 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n1=st.floats(1.0, 2.5), n2=st.floats(1.0, 2.5), u=st.floats(-1e7, 1e7),
       e_f=st.floats(0.0, 1.0), law=st.sampled_from(list(CompositionLaw)),
       steps=st.integers(2, 300))
def test_scan_rows_are_the_pointwise_delays(n1, n2, u, e_f, law, steps):
    cfg = config(n1=n1, n2=n2, u=u, composition=law, e_f=e_f)
    reversed_cfg = config(n1=n1, n2=n2, u=-u, composition=law, e_f=e_f)
    table = angle_scan(cfg, steps)
    assert len(table) == steps
    for k, (theta, exact, first, fringes) in enumerate(table.tolist()):
        assert theta == 360.0 * k / steps
        # the row's cosine is sign cos(folded): its u_eff is that of the
        # folded angle with the drift reversed where the sign is negative
        folded, sign = _folded_angle(k, steps)
        at = cfg if sign > 0 else reversed_cfg
        assert exact == delay_exact(at, folded)
        assert first == delay_first_order(at, folded)
        assert fringes == _fringes(exact, cfg.lambda_vac)
    # the CLI's plain-float scan holds the same doubles, signs of zero too
    rows = _rows(partial(_scan_row, cfg, steps), steps)
    assert (np.array(list(rows)).view("i8") == table.view("i8")).all()
    # u_eff negates exactly across a half turn: the rotated row is the row
    # of the reversed drift
    if steps % 2 == 0:
        reversed_table = angle_scan(reversed_cfg, steps)
        half = steps // 2
        for k in range(half):
            assert (table[k + half, EXACT:FRINGES] == reversed_table[k, EXACT:FRINGES]).all()


@pytest.mark.parametrize("steps", [2, 3, 4, 7, 8, 12, 14, 100, 360, 1001, 4096, 4097])
def test_scan_cosines_keep_the_quadrant_conventions(steps):
    # _cos_deg's quadrants hold: t <= 90 is the first, so 90 is exactly +0
    # and 270 exactly -0, as 0 and 180 are exactly +1 and -1.
    # The first quadrant is _cos_deg's value; elsewhere the angle is rounded
    # once at the folded value's ulp, not the rotated one's
    theta = 360.0 * np.arange(steps) / steps
    scan = _scan_cos(steps, 4 * np.arange(steps), np)
    ref = np.array([_cos_deg(t) for t in theta.tolist()])
    # the one fold gives the same doubles on an int and on an int array
    floats = np.array([_scan_cos(steps, 4 * k, math) for k in range(steps)])
    assert (floats.view("i8") == scan.view("i8")).all()
    assert (np.signbit(scan) == np.signbit(ref)).all()
    first = theta <= 90.0
    assert (scan[first] == ref[first]).all()
    assert np.abs(scan - ref).max() <= 1e-15
    assert scan[0] == 1.0
    if steps % 2 == 0:
        assert scan[steps // 2] == -1.0


def worst_row_error(cfg, steps, exact):
    """Largest relative error of a scan's exact delays against 50-digit
    L (1/w1 - 1/w2) from the Einstein-law lab speeds at u_eff = u cos, cos
    being each row's cosine (_scan_cos).  Rows sharing a cosine hold the
    same delay, which is checked once."""
    delays = {}
    for cos, value in zip(_scan_cos(steps, 4 * np.arange(steps), np).tolist(), exact):
        assert delays.setdefault(cos, value) == value
    worst = 0.0
    with mpmath.workdps(50):
        c, u, L = mpmath.mpf(C), mpmath.mpf(cfg.u), mpmath.mpf(cfg.L)
        arms = [(c / n, cfg.e_f * (1 - 1 / n ** 2)) for n in map(mpmath.mpf, (cfg.n1, cfg.n2))]
        for cos, value in delays.items():
            u_eff = u * cos
            inverse = [(1 - u_eff * v / c ** 2) / (v - u_eff)
                       for v in (rest + drag * u_eff for rest, drag in arms)]
            reference = L * (inverse[0] - inverse[1])
            worst = max(worst, float(abs((value - reference) / reference)))
    return worst


def _plain_scan(cfg, steps):
    """The scan's rows from the plain-float driver, as the CLI forms a
    table of up to its cut."""
    return list(_rows(partial(_scan_row, cfg, steps), steps))


@pytest.mark.parametrize("n1, n2", [(1.0006, 1.0001), (1.00029, 1.33), (1.5, 1.0)])
def test_scan_rows_match_mpmath_under_both_laws(n1, n2):
    # the rows were L (1/w1 - 1/w2), the difference of two composed inverse
    # speeds: up to 9.2e-13 off on this grid, with last digits that differed
    # between the laws.  Both drivers run at 64 steps on the whole grid, and
    # at 4097, beyond the CLI's cut between them, on one drift per e_f, which
    # bounds the test's time
    def check(e_f, u, steps):
        tables = [driver(config(n1=n1, n2=n2, L=2.0, u=u, composition=law, e_f=e_f), steps)
                  for law in CompositionLaw for driver in (angle_scan, _plain_scan)]
        exact = [row[EXACT] for row in tables[0]]
        assert all([row[EXACT] for row in table] == exact for table in tables)
        error = worst_row_error(config(n1=n1, n2=n2, L=2.0, u=u, e_f=e_f), steps, exact)
        assert error <= 3e-16, (e_f, u, steps, error)

    for e_f, far in zip((0.0, 0.3, 0.9), (1e5, -3e4, 1e-3)):
        for u in [sign * 10.0 ** e for e in (-3, -1, 1, 3, 5) for sign in (1, -1)] + [-3e4]:
            check(e_f, u, 64)
        check(e_f, far, 4097)


def test_rows_k_and_steps_minus_k_share_their_cosine_bit_for_bit():
    # the identity under a large scan's rows up to the half turn: for
    # 0 < k < steps/2, rows k and steps - k fold to the same angle, with
    # the same sign.  At k = steps/4 the cosine is +0 and at 3 steps/4 -0,
    # where cos 90 degrees rounded to +6.1e-17 and -6.1e-17; they are
    # equal, and delta1 - delta2 is +0 at either zero (the test below)
    for steps in [*range(2, 2001), 4096, 4097, 12000, 30000, 10 ** 5, 10 ** 6]:
        k = np.arange(1, (steps + 1) // 2)
        near = _scan_cos(steps, 4 * k, np)
        far = _scan_cos(steps, 4 * (steps - k), np)
        assert (near == far).all(), steps
        assert ((near.view("i8") == far.view("i8")) | (near == 0.0)).all(), steps
        assert (near == 0.0).sum() == (steps % 4 == 0), steps


@pytest.mark.parametrize("law", list(CompositionLaw))
@pytest.mark.parametrize("u", [1.2e8, -1.2e8])
def test_right_angle_rows_are_the_static_devices(law, u):
    # cos 90 degrees is exactly +-0, so u_eff is +-0 and delta1 - delta2
    # is +0: the delays at 90 and 270 degrees are the u = 0 device's, bit
    # for bit.  While cos 90 degrees was 6.1e-17, this device's exact
    # delays at 90 and 270 degrees were one ulp off the static one
    cfg = config(n1=1.5, n2=1.500000000001, u=u, composition=law)
    static = config(n1=1.5, n2=1.500000000001, u=0.0, composition=law)
    at_rest = [delay_exact(static, 0.0), delay_first_order(static, 0.0)]
    for theta in (90.0, 270.0, -90.0, 450.0):
        assert [delay_exact(cfg, theta), delay_first_order(cfg, theta)] == at_rest, theta
        assert [delay_exact(static, theta), delay_first_order(static, theta)] == at_rest
    for steps in (4, 12, 4100, 8192):
        table = angle_scan(cfg, steps)
        rest = angle_scan(static, steps)
        for k in (steps // 4, 3 * steps // 4):
            assert table[k].tobytes() == rest[k].tobytes(), (steps, k)
            assert table[k, EXACT:FIRST + 1].tolist() == at_rest


def test_scan_half_turn_rows_negate_exactly_at_every_even_step_count():
    # theta_{k + steps/2} - 180 used to differ from theta_k in the last bits
    # wherever the rotated angle has a coarser ulp, in 953 of these counts;
    # at n1 = 1.5 and u = c/2 a one-ulp change of u_eff shows in the delays
    cfg = config(n1=1.5, n2=1.0, u=1.5e8)
    reversed_cfg = config(n1=1.5, n2=1.0, u=-1.5e8)
    failing = []
    for steps in range(2, 2000, 2):
        table = angle_scan(cfg, steps)
        reversed_table = angle_scan(reversed_cfg, steps)
        half = steps // 2
        if (table[half:, EXACT:FRINGES] != reversed_table[:half, EXACT:FRINGES]).any():
            failing.append(steps)
    assert failing == []


def test_angle_scan_caps_steps_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="steps"):
            angle_scan(config(), MAX_SCAN_STEPS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows of MAX_SCAN_STEPS + 1 angles would take over 80 MB
    assert peak < 1 << 20
    with pytest.raises(InputError, match="steps"):
        angle_scan(config(), 10 ** 11)


@pytest.mark.parametrize("table", [*CompositionLaw, "profile"])
def test_angle_scan_allocates_little_beside_its_table(table):
    # a row tuple per angle took about 17 MB at this size, and a full-length
    # cosine array took the peak to 1.33x the table; the cosines and the
    # delays are formed in blocks, so no other array comes near its size.
    # A potential profile, at m R = 14, is formed by the same driver; its
    # block of rows holds more beside it, the I0 series' columns and the
    # Python floats that math.exp takes, about 0.55 MB at 4096 rows: 1.23x
    # its table here, and 1.21x when proca formed it in a loop of its own
    if table == "profile":
        cfg = ProcaCylinderConfig(R=0.1, V=1e7, tau=1.0)
        rule, columns = _profile_rule(cfg, 140.0, 10 ** 5, "quarter"), 3
    else:
        rule, columns = partial(_scan_row, config(u=3e4, composition=table, e_f=0.3), 10 ** 5), 4
    tracemalloc.start()
    try:
        formed = (_table(rule, columns, 0, 10 ** 5) if table == "profile"
                  else angle_scan(rule.args[0], 10 ** 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert formed.nbytes == 8 * columns * 10 ** 5
    assert peak < (1.25 if table == "profile" else 1.2) * formed.nbytes


def _synthetic_rule(columns, bad):
    """A row rule of columns cells, cell j of row k sqrt(k + j/7)(j - 5/2),
    of correctly rounded operations, so the same doubles in plain floats
    and in numpy; bad maps (k, j) to a value that replaces that cell."""
    def rule(k, xp):
        cells = [xp.sqrt(k + j / 7.0) * (j - 2.5) for j in range(columns)]
        for (row, j), value in bad.items():
            if xp is math:
                cells[j] = value if k == row else cells[j]
            else:
                cells[j] = xp.where(k == row, value, cells[j])
        return tuple(cells)
    return rule


@pytest.mark.parametrize("columns, bad, first", [
    (1, {(7, 0): -math.inf, (8, 0): math.nan}, "-inf"),
    (5, {(4, 3): math.inf, (5, 0): math.nan, (4, 4): -math.inf, (9, 1): math.nan}, "inf")])
def test_table_drivers_give_the_same_doubles_and_refusal(columns, bad, first, monkeypatch):
    # the plain driver, _rows, and the numpy one, _table, in blocks of 3
    # rows that end inside and at the table's end, run one row rule: the
    # same doubles bit for bit, -0.0 of row 0 included, for the whole table
    # and for any rows start to stop; and the same refusal, of the first
    # non-finite cell in row-major order, not the first in column order
    monkeypatch.setattr(_record, "_SCAN_BLOCK", 3)
    rule = _synthetic_rule(columns, {})
    rows = np.array(list(_rows(rule, 11)))
    table = _table(rule, columns, 0, 11)
    assert table.shape == (11, columns)
    assert table.tobytes() == rows.tobytes()
    assert np.signbit(table[0, 0])
    for start, stop in ((0, 0), (2, 8), (10, 11)):
        assert _table(rule, columns, start, stop).tobytes() == table[start:stop].tobytes()
    rule = _synthetic_rule(columns, bad)
    message = re.escape(f"result is not a finite number ({first}): "
                        "the computation left the double range")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form in (lambda: list(_rows(rule, 11)), lambda: _table(rule, columns, 0, 11)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                form()


def test_large_fringe_scan_is_written_in_blocks(tmp_path):
    # the CLI holds the delays of the scan's distinct rows, 0.8 MB (8 bytes
    # a row of the table), one block of 4096 rows, and one pass of 2048
    # rows: their 32-byte cell slots and their text, written as bytes, and
    # the formatter's 640 KiB scratch.  Measured: a 2.12 MB peak; holding
    # the distinct rows whole (1.6 MB) and decoding each pass's text took
    # it to 3.09 MB, a whole block's slots and text to 3.77 MB, holding the
    # whole table to 5.25 MB, and the whole 8.4 MB CSV, formed before it
    # was written, to 25.2 MB.  Both laws print the same bytes, so one is
    # enough
    argv = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "3e4",
            "--ef", "0.3", "--lambda-nm", "633", "--steps", str(10 ** 5)]
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0  # the imports and caches of a first call
    scan = tmp_path / "scan.csv"
    with open(scan, "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert scan.read_text().count("\n") == 10 ** 5 + 1
    assert peak < 2_500_000


def test_large_proca_potential_is_written_in_blocks(tmp_path):
    # a profile follows the scans' table rule: beside its 2.4 MB table the
    # CLI holds one row tuple, one pass's slots and text (2730 rows),
    # written as bytes, and the formatter's scratch.  Measured: a 3.59 MB
    # peak; decoding each pass's text took it to 3.75 MB, a whole block's
    # slots and text to 4.09 MB, and the whole profile as row tuples, then
    # as one string, to 31.6 MB
    argv = ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
            "--m-gamma-inv-cm", "100", "--steps", str(10 ** 5)]
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0  # the imports and caches of a first call
    profile = tmp_path / "profile.csv"
    with open(profile, "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert profile.read_text().count("\n") == 10 ** 5 + 1
    assert peak < 3_700_000


def test_drift_reaching_the_light_in_an_arm_is_refused():
    u = 199861638.66666666  # c/1.5 to the nearest double: arm 1 stalls at theta = 0
    assert u == C / 1.5
    for law in CompositionLaw:
        for drift in (u, -u, 2.5e8):
            with pytest.raises(DomainError, match="arm 1"):
                config(n1=1.5, n2=1.0, u=drift, composition=law)
        with pytest.raises(DomainError, match="arm 2"):
            config(n1=1.0, n2=1.5, u=u, composition=law)
        # a little slower, every orientation has a finite positive delay
        slower = config(n1=1.5, n2=1.0, u=u * (1.0 - 1e-9), composition=law)
        assert all(np.isfinite(row).all() for row in angle_scan(slower, 16))
    # full drag keeps the arm's light ahead of the medium
    dragged = config(n1=1.5, n2=1.0, u=2.5e8, e_f=1.0)
    assert all(np.isfinite(row).all() for row in angle_scan(dragged, 16))


@pytest.mark.parametrize("function, args, argument", [
    (delay_exact, (config(), math.nan), "theta_deg"),
    (delay_exact, (config(), math.inf), "theta_deg"),
    (delay_first_order, (config(), -math.inf), "theta_deg"),
    (min_detectable_u, (config(), math.inf), "fringe resolution"),
    (einstein_composed_speed, (math.nan, 10.0), "refractive index n"),
    (fresnel_speed, (math.inf, 10.0), "refractive index n"),
    (compose_lab_speed, (math.nan, 10.0, CompositionLaw.EINSTEIN), "v_rest"),
    (compose_lab_speed, (-math.inf, 10.0, CompositionLaw.TANGHERLINI), "v_rest"),
    (fresnel_momentum, (math.inf, 1.33, (1.0, 0.0, 0.0)), "omega"),
    (fresnel_momentum, (1e15, math.inf, (1.0, 0.0, 0.0)), "refractive index n"),
    (fresnel_momentum, (1e15, 1.33, (1.0, math.nan, 0.0)), "u_y"),
    (fresnel_momentum, (1e15, 1.33, (0.0, 0.0, -math.inf)), "u_z"),
], ids=lambda value: getattr(value, "__name__", None))
def test_non_finite_arguments_are_refused_by_name(function, args, argument):
    # each of these returned nan or inf with no error
    with pytest.raises(DomainError, match=f"{argument} must be finite"):
        function(*args)
