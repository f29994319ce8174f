"""Each stated accuracy claim of the library, checked by a seeded test that
draws over the domain the claim states, against an exact reference.

The speeds of ``etherdrift.kinematics`` are "correctly rounded" in every
mode: each is within 0.5 ulp of its exact value in ``tests/_exact.py``.
The draws take n - 1 log-uniform in [1e-9, 10]; |u| half log-uniform up
to 3e8 m/s and half within 1e-12 to 1 of c (relative), of either sign,
where the float forms of composition cancel; and e_f as 0, 1 or uniform.
A drift of |u| >= c, which the functions refuse, is drawn again."""

import contextlib
import io
import json
import math
import random

import pytest

import _exact
from etherdrift import cli
from etherdrift.kinematics import (CompositionLaw, compose_lab_speed,
                                   effective_fresnel_speed, einstein_composed_speed,
                                   fresnel_speed, tangherlini_composed_speed)
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
