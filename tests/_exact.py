"""Exact references for the library's rational outputs, in fractions.Fraction.

c = 299792458 m/s is an integer, so an output formed from its double
inputs by + - * / is a rational number, which Fraction evaluates exactly:
no precision is chosen, and no bound depends on how a reference rounds.
Each reference is written from the formula its docstring states, not from
the kernel's rearrangement, so the two are independent.  ulps(x, q) is a
double's distance from one.
"""

import math
from fractions import Fraction

from etherdrift.kinematics import CompositionLaw
from etherdrift.units import c

C = Fraction(c)


def ulps(x: float, q: Fraction) -> float:
    """|x - q| in ulps of q's nearest double."""
    return float(abs(Fraction(x) - q) / Fraction(math.ulp(float(q))))


def effective_fresnel_speed(n, u, e_f) -> Fraction:
    """c/n + e_f (1 - 1/n^2) u; fresnel_speed at e_f = 1."""
    n, u, e_f = Fraction(n), Fraction(u), Fraction(e_f)
    return C / n + e_f * (1 - 1 / (n * n)) * u


def compose_lab_speed(v_rest, u, law: CompositionLaw) -> Fraction:
    """Einstein w = (v - u)/(1 - u v/c^2), Tangherlini w = (v - u)/(1 - u^2/c^2);
    v_rest may be a Fraction, such as the exact c/n of the n-forms."""
    v, u = Fraction(v_rest), Fraction(u)
    if law is CompositionLaw.EINSTEIN:
        return (v - u) / (1 - u * v / (C * C))
    return (v - u) / (1 - u * u / (C * C))


def composed_speed(n, u, law: CompositionLaw) -> Fraction:
    """einstein_composed_speed and tangherlini_composed_speed: the lab
    speed of the exact c/n."""
    return compose_lab_speed(C / Fraction(n), u, law)


def _drift(n: Fraction, u: Fraction, e_f: Fraction) -> Fraction:
    """delta = 1/w - n/c of an arm at drift u: w the Einstein-law lab
    speed of the partially dragged rest-frame speed v = c/n + e_f (1 - 1/n^2) u."""
    w = compose_lab_speed(effective_fresnel_speed(n, u, e_f), u, CompositionLaw.EINSTEIN)
    return 1 / w - n / C


def rotation_signal(config) -> Fraction:
    """Dt(0) - Dt(180) = L [(delta1(u) - delta1(-u)) - (delta2(u) - delta2(-u))]:
    the static n/c terms cancel on the half turn, and so does Tangherlini's
    arm-independent u/c^2, so one law serves both."""
    u, e_f = Fraction(config.u), Fraction(config.e_f)

    def swing(n):
        n = Fraction(n)
        return _drift(n, u, e_f) - _drift(n, -u, e_f)

    return Fraction(config.L) * (swing(config.n1) - swing(config.n2))
