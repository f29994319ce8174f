"""Each stated accuracy claim of the library, checked by a seeded test that
draws over the domain the claim states, against an exact reference.

The speeds of ``etherdrift.kinematics`` are "correctly rounded" in every
mode: each is within 0.5 ulp of its exact value in ``tests/_exact.py``.
The draws take n - 1 log-uniform in [1e-9, 10]; |u| half log-uniform up
to 3e8 m/s and half within 1e-12 to 1 of c (relative), of either sign,
where the float forms of composition cancel; and e_f as 0, 1 or uniform.
A drift of |u| >= c, which the functions refuse, is drawn again.

The Proca phase and bound of ``etherdrift.proca`` are "correctly rounded"
too: each is within 0.5 ulp of 60-digit mpmath with mpmath's own pi,
independent of the library's.  The draws take R, V, tau and epsilon
log-uniform over [1e-4, 1e2] m, [1e-6, 1e10] V, [1e-9, 1e3] s and
[1e-12, 0.1], with one draw in eight taking an epsilon whose epsilon Phi_0
is subnormal; rho uniform over [0, R) for half of them and within 1e-12 to
0.1 of R (relative) for the other half, where R^2 - rho^2 cancels in
floats; m_gamma log-uniform over [1e-16, 1e2] 1/m; and both profiles."""

import contextlib
import io
import json
import math
import random

import mpmath
import pytest

import _exact
from etherdrift import cli
from etherdrift.kinematics import (CompositionLaw, compose_lab_speed,
                                   effective_fresnel_speed, einstein_composed_speed,
                                   fresnel_speed, tangherlini_composed_speed)
from etherdrift.proca import ProcaCylinderConfig, invert_bound, mass_phase_correction
from etherdrift.units import MODERN, PAPER
from etherdrift.units import c as C

DRAWS = 5000


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _drift(rng):
    """A medium speed of either sign, |u| < c: half of them near c."""
    while True:
        if rng.random() < 0.5:
            u = _loguniform(rng, 1e-3, 3e8)
        else:
            u = C * (1.0 - _loguniform(rng, 1e-12, 1.0))
        if u < C:
            return rng.choice((u, -u))


def _draws(seed):
    rng = random.Random(seed)
    for _ in range(DRAWS):
        n = 1.0 + _loguniform(rng, 1e-9, 10.0)
        e_f = rng.choice((0.0, 1.0, rng.random()))
        yield n, _drift(rng), e_f


#: each speed mode of the CLI, its library call and its exact reference
MODES = {
    "fresnel": (lambda n, u, e_f: fresnel_speed(n, u),
                lambda n, u, e_f: _exact.effective_fresnel_speed(n, u, 1.0)),
    "effective": (effective_fresnel_speed, _exact.effective_fresnel_speed),
    "einstein": (lambda n, u, e_f: einstein_composed_speed(n, u),
                 lambda n, u, e_f: _exact.composed_speed(n, u, CompositionLaw.EINSTEIN)),
    "tangherlini": (lambda n, u, e_f: tangherlini_composed_speed(n, u),
                    lambda n, u, e_f: _exact.composed_speed(n, u, CompositionLaw.TANGHERLINI)),
}


@pytest.mark.parametrize("mode", MODES)
def test_speed_is_correctly_rounded_on_seeded_draws(mode):
    speed, exact = MODES[mode]
    for n, u, e_f in _draws(mode):
        assert _exact.ulps(speed(n, u, e_f), exact(n, u, e_f)) <= 0.5, (n, u, e_f)


@pytest.mark.parametrize("law", CompositionLaw)
def test_compose_lab_speed_is_correctly_rounded_for_any_rest_speed(law):
    # rest-frame speeds of either sign from far below c to far above it,
    # where the Einstein denominator 1 - u v/c^2 nears zero or turns negative
    rng = random.Random(law.value)
    for _ in range(DRAWS):
        v_rest, u = rng.choice((1.0, -1.0)) * _loguniform(rng, 1e-3, 1e12), _drift(rng)
        exact = _exact.compose_lab_speed(v_rest, u, law)
        assert _exact.ulps(compose_lab_speed(v_rest, u, law), exact) <= 0.5, (v_rest, u)


def _speed(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["speed", *argv]) == 0
    return json.loads(out.getvalue())["v"]


@pytest.mark.parametrize("mode, n, u, printed", [
    # the Einstein law's float form over a rounded c/n gave
    # 1410065.2562989483: 2.0e-6 off
    ("einstein", 1.0000000044917354, 299792456.6406845, 1410062.4064513512),
    # the Tangherlini denominator 1 - (u/c)^2 left this 1.2e-8 off
    ("tangherlini", 1.0003, 299792457.0, -13477134621950.512),
])
def test_named_speeds_near_c(mode, n, u, printed):
    speed, exact = MODES[mode]
    assert _exact.ulps(speed(n, u, 0.0), exact(n, u, 0.0)) <= 0.5
    assert _speed("--mode", mode, "--n", repr(n), "--u-mps", repr(u)) == printed


def _cylinders(seed):
    """Cylinder configs and photon masses over the Proca draws' domain,
    with each draw's constants profile."""
    rng = random.Random(seed)
    for k in range(DRAWS):
        R = _loguniform(rng, 1e-4, 1e2)
        if rng.random() < 0.5:
            rho = rng.uniform(0.0, R)
        else:
            rho = R * (1.0 - _loguniform(rng, 1e-12, 0.1))
        if rng.random() < 0.125:  # epsilon Phi_0 below the smallest normal double
            epsilon = _loguniform(rng, 5e-324, 1e-294)
        else:
            epsilon = _loguniform(rng, 1e-12, 0.1)
        cfg = ProcaCylinderConfig(R=R, V=_loguniform(rng, 1e-6, 1e10),
                                  tau=_loguniform(rng, 1e-9, 1e3), rho=rho, epsilon=epsilon)
        yield cfg, _loguniform(rng, 1e-16, 1e2), (PAPER, MODERN)[k % 2]


def _phase_per_m2(cfg, constants):
    """pi (R^2 - rho^2) V tau/(4 Phi_0) in mpmath, at the caller's precision."""
    R, rho, V, tau, phi = map(mpmath.mpf, (cfg.R, cfg.rho, cfg.V, cfg.tau,
                                           constants.flux_quantum))
    return mpmath.pi * (R * R - rho * rho) * V * tau / (4 * phi)


def _ulps(x, exact):
    return float(abs(mpmath.mpf(x) - exact) / math.ulp(float(exact)))


def _exact_phase(cfg, m_gamma, constants):
    return _phase_per_m2(cfg, constants) * mpmath.mpf(m_gamma) ** 2


def _exact_bound(cfg, constants):
    """(R/2) sqrt(pi V tau/(epsilon Phi_0)) in cm: the root of the phase per
    unit m_gamma^2 at rho = 0 over epsilon, times 100."""
    on_axis = cfg._replace(rho=0.0)
    return 100 * mpmath.sqrt(_phase_per_m2(on_axis, constants) / mpmath.mpf(cfg.epsilon))


def test_proca_phase_and_bound_are_correctly_rounded_on_seeded_draws():
    with mpmath.workdps(60):
        for cfg, m_gamma, constants in _cylinders("proca"):
            phase = mass_phase_correction(cfg, m_gamma, constants)
            assert _ulps(phase, _exact_phase(cfg, m_gamma, constants)) <= 0.5, (cfg, m_gamma)
            bound = invert_bound(cfg, constants)
            assert _ulps(bound, _exact_bound(cfg, constants)) <= 0.5, (cfg, constants)


def _proca(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["proca", *argv]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("argv, key, printed", [
    # rho^2 - R^2 cancelled in floats: 7.4133585069647582e-16 printed
    (("phase", "--V-volts", "1e7", "--tau-s", "0.05", "--R-cm", "27",
      "--rho-cm", "26.9999999999", "--m-gamma-inv-cm", "3.72e13"),
     "delta_phi_rad", 7.4134042331407414e-16),
    # m_gamma^2 = 1e380 overflowed, and the call exited 2
    (("phase", "--V-volts", "1e7", "--tau-s", "0.05", "--R-cm", "1e-198",
      "--m-gamma-inv-cm", "1e-188"), "delta_phi_rad", 1.899850419442304),
    # V tau = 1e310 overflowed, and the call exited 2
    (("bound", "--V-volts", "1e300", "--tau-s", "1e10", "--R-cm", "27", "--epsilon", "1e-4"),
     "m_gamma_inv_cm", 5.2630617624600221e165),
])
def test_named_proca_outputs(argv, key, printed):
    flags = dict(zip(argv[1::2], map(float, argv[2::2])))
    cfg = ProcaCylinderConfig(R=flags["--R-cm"] / 100.0, V=flags["--V-volts"],
                              tau=flags["--tau-s"], rho=flags.get("--rho-cm", 0.0) / 100.0,
                              epsilon=flags.get("--epsilon", 1e-4))
    with mpmath.workdps(60):
        if argv[0] == "phase":
            m_gamma = 100.0 / flags["--m-gamma-inv-cm"]
            exact = _exact_phase(cfg, m_gamma, PAPER)
            assert _ulps(mass_phase_correction(cfg, m_gamma, PAPER), exact) <= 0.5
        else:
            assert _ulps(invert_bound(cfg, PAPER), _exact_bound(cfg, PAPER)) <= 0.5
    assert _proca(*argv)[key] == printed
