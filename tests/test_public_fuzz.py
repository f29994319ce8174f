"""A fuzz of the package's public surface: each public callable and record
from one valid base call, with each extreme double or integer put into
each of its numeric arguments, alone and in seeded pairs.

A number inside a record, a tuple or a Path that a call takes is an
argument too: the record is built inside the case, so that its own
refusal counts as the call's.  Every case must return finite numbers or
raise an EtherdriftError: never a NaN, an infinity, an integer beyond the
double range, or a bare Python exception."""

import math
import random
import sys
import types

import numpy as np
import pytest

import etherdrift
from etherdrift import (CompositionLaw, ConvergenceRow, EtherdriftError, FresnelFlow,
                        InterferometerConfig, MomentumResult, Path, PhotonMassBound,
                        PhysicalConstants, ProcaCylinderConfig, RotationSignal,
                        SolenoidChargeGeometry, SolenoidVectorPotential, UniformQ,
                        analytic_solenoid_momentum, angle_scan, bessel_I0, bounds_registry,
                        compose_lab_speed, convergence_study, cylinder_potential_exact,
                        cylinder_potential_expansion, delay_exact, delay_first_order,
                        effective_fresnel_speed, einstein_composed_speed,
                        fresnel_drag_coefficient, fresnel_momentum, fresnel_speed,
                        fringe_shift, get_constants, improvement_factor,
                        integrate_field_momentum, inverse_length_to_mass, invert_bound,
                        mass_phase_correction, min_detectable_u, phase_line_integral,
                        potential_profile, projected_bound, rotation_signal,
                        tangherlini_composed_speed, time_of_flight)

#: NaN, ±inf, ±0, the least subnormal, ±1e300, the largest double, ints
#: beyond the double range, and the first int a double cannot hold
EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e300,
            sys.float_info.max, 10 ** 400, -10 ** 400, 2 ** 53 + 1]
#: the seeded pairs of (argument, extreme) tried for each case
PAIRS = 40


class Call:
    """fn(*args), made when the case runs."""

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def __repr__(self):
        return f"{self.fn.__name__}({', '.join(map(repr, self.args))})"


def _made(node):
    if isinstance(node, Call):
        return node.fn(*map(_made, node.args))
    if isinstance(node, (tuple, list)):
        return type(node)(map(_made, node))
    return node


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _places(node, at=()):
    """The paths to every number in node."""
    if _is_number(node):
        return [at]
    children = node.args if isinstance(node, Call) else node
    if isinstance(node, (Call, tuple, list)):
        return [place for i, child in enumerate(children) for place in _places(child, at + (i,))]
    return []


def _put(node, at, value):
    if not at:
        return value
    children = list(node.args if isinstance(node, Call) else node)
    children[at[0]] = _put(children[at[0]], at[1:], value)
    return Call(node.fn, *children) if isinstance(node, Call) else type(node)(children)


def _finite(result):
    if _is_number(result):
        try:
            return math.isfinite(result)
        except OverflowError:  # an int beyond the double range
            return False
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    if isinstance(result, types.GeneratorType):
        return all(map(_finite, result))
    return True  # a string, an enum member, a Path


def _outcome(case):
    """None for a finite result or an EtherdriftError, else what went wrong.
    numpy's warnings are off, as in the CLI: what counts is the result."""
    try:
        with np.errstate(all="ignore"):
            result = _made(case)
            if _finite(result):
                return None
        return f"returned {result!r}"[:300]
    except EtherdriftError:
        return None
    except Exception as error:  # noqa: BLE001 - the finding itself
        return f"raised {type(error).__name__}: {error}"[:300]


OMEGA = 2.0 * math.pi * 299792458.0 / 633e-9
CONFIG = Call(InterferometerConfig, 1.0, 1.0006, 1.0001, 30.0, 633e-9, CompositionLaw.EINSTEIN,
              0.5)
PROCA = Call(ProcaCylinderConfig, 0.1, 3.5e5, 1.0, 0.01, 1e-4)
GEOMETRY = Call(SolenoidChargeGeometry, 1.0, 100.0, 3.0, 1.0, 150.0, (8, 16, 128))
CONSTANTS = Call(PhysicalConstants, "paper", 2.067e-15)
BOUND = Call(PhotonMassBound, 1.66e13, 2.1e-51, "Luo et al.")
PATH = Call(Path, [(2.0, 0.0, 0.0), (0.0, 2.0, 0.5), (-2.0, 0.0, 1.0)])

#: one valid base call of each public callable and record; phase_line_integral
#: has one for each field
CASES = {
    "ConvergenceRow": Call(ConvergenceRow, 150.0, (8, 16, 128), 1e-3, 1e-6, (0.0, 1e-3, 0.0)),
    "FresnelFlow": Call(FresnelFlow, OMEGA, 1.33, (10.0, -5.0, 3.0)),
    "InterferometerConfig": CONFIG,
    "MomentumResult": Call(MomentumResult, (0.0, 1e-3, 0.0), 1e-12),
    "Path": PATH,
    "PhotonMassBound": BOUND,
    "PhysicalConstants": CONSTANTS,
    "ProcaCylinderConfig": PROCA,
    "RotationSignal": Call(RotationSignal, 1e-3, 1e-3),
    "SolenoidChargeGeometry": GEOMETRY,
    "SolenoidVectorPotential": Call(SolenoidVectorPotential, 1e-7, 2.0, (0.5, 0.0, 0.0)),
    "UniformQ": Call(UniformQ, (1.0, 0.5, 0.0)),
    "analytic_solenoid_momentum": Call(analytic_solenoid_momentum, GEOMETRY),
    "angle_scan": Call(angle_scan, CONFIG, 8),
    "bessel_I0": Call(bessel_I0, 2.5),
    "bounds_registry": Call(bounds_registry),
    "compose_lab_speed": Call(compose_lab_speed, 2e8, 30.0, CompositionLaw.TANGHERLINI),
    "convergence_study": Call(convergence_study, GEOMETRY, 3),
    "cylinder_potential_exact": Call(cylinder_potential_exact, 0.05, PROCA, 50.0),
    "cylinder_potential_expansion": Call(cylinder_potential_expansion, 0.05, PROCA, 50.0, "half"),
    "delay_exact": Call(delay_exact, CONFIG, 30.0),
    "delay_first_order": Call(delay_first_order, CONFIG, 30.0),
    "effective_fresnel_speed": Call(effective_fresnel_speed, 1.33, 30.0, 0.5),
    "einstein_composed_speed": Call(einstein_composed_speed, 1.33, 30.0),
    "fresnel_drag_coefficient": Call(fresnel_drag_coefficient, 1.33),
    "fresnel_momentum": Call(fresnel_momentum, OMEGA, 1.33, (10.0, -5.0, 3.0)),
    "fresnel_speed": Call(fresnel_speed, 1.33, 30.0),
    "fringe_shift": Call(fringe_shift, 1e-15, 633e-9),
    "get_constants": Call(get_constants, "modern"),
    "improvement_factor": Call(improvement_factor, 30.0, 1.0006, 1.0001),
    "integrate_field_momentum": Call(integrate_field_momentum, GEOMETRY),
    "inverse_length_to_mass": Call(inverse_length_to_mass, 3e9),
    "invert_bound": Call(invert_bound, PROCA, CONSTANTS),
    "mass_phase_correction": Call(mass_phase_correction, PROCA, 50.0, CONSTANTS),
    "min_detectable_u": Call(min_detectable_u, CONFIG, 0.01),
    "phase_line_integral[FresnelFlow]": Call(
        phase_line_integral, Call(FresnelFlow, OMEGA, 1.33, (10.0, -5.0, 3.0)), PATH),
    "phase_line_integral[SolenoidVectorPotential]": Call(
        phase_line_integral, Call(SolenoidVectorPotential, 1e-7, 2.0, (0.5, 0.0, 0.0)), PATH),
    "phase_line_integral[UniformQ]": Call(phase_line_integral, Call(UniformQ, (1.0, 0.5, 0.0)),
                                          PATH),
    "potential_profile": Call(potential_profile, PROCA, 50.0, 5, "quarter"),
    "projected_bound": Call(projected_bound, BOUND, 2.0),
    "rotation_signal": Call(rotation_signal, CONFIG),
    "tangherlini_composed_speed": Call(tangherlini_composed_speed, 1.33, 30.0),
    "time_of_flight": Call(time_of_flight, 1.0, 2e8),
}
#: public names that take no number: constants, enums and the errors
NO_NUMBERS = {"CompositionLaw", "DegenerateConfigError", "DomainError", "EtherdriftError",
              "InputError", "MODERN", "PAPER", "SCAN_COLUMNS", "SingularPathError", "UnitSystem"}


def test_every_public_name_has_a_case():
    public = {name for name in dir(etherdrift) if not name.startswith("_")
              and not isinstance(getattr(etherdrift, name), types.ModuleType)}
    assert public - NO_NUMBERS == {name.split("[")[0] for name in CASES}


@pytest.mark.parametrize("name", CASES)
def test_extreme_arguments_give_finite_numbers_or_a_refusal(name):
    base = CASES[name]
    assert _outcome(base) is None, base  # the base call is valid
    places = _places(base)
    cases = [_put(base, at, value) for at in places for value in EXTREMES]
    rng = random.Random(name)
    for _ in range(PAIRS if len(places) > 1 else 0):
        (at, other), values = rng.sample(places, 2), rng.choices(EXTREMES, k=2)
        cases.append(_put(_put(base, at, values[0]), other, values[1]))
    found = [f"{case!r} {outcome}" for case in cases if (outcome := _outcome(case))]
    assert not found, "\n".join(found[:20])
