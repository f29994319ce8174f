"""Speed of light in moving refractive media.

Covers the classical Fresnel drag v = c/n + (1 - 1/n^2) u, the
effectiveness-weighted variant v = c/n + e_f (1 - 1/n^2) u for rarefied
gases, and the two composition laws that map a preferred-frame speed into
the laboratory: Einstein velocity subtraction and the Tangherlini form,
which shares length contraction and time dilation but re-synchronizes
clocks.  The two laws differ in one-way speed at first order in u/c, yet

    1/w_einstein - 1/w_tangherlini = -u/c^2

holds exactly for any medium rest-frame speed, so every arm-difference
observable built from inverse speeds is identical under both.

c is an integer, so every speed here is a rational function of its double
inputs.  Each is formed exactly in integers, from the inputs'
``as_integer_ratio``, and correctly rounded once by ``units._quotient``,
whose overflow rule is the module's only one: nothing cancels as |u|
nears c, however close.
"""

import enum

from ._record import check_finite
from .errors import DomainError
from .units import _quotient, c

#: c in m/s, as the integer it is
_C = int(c)


class CompositionLaw(enum.Enum):
    EINSTEIN = "einstein"
    TANGHERLINI = "tangherlini"


def _check_index(n: float):
    check_finite(("refractive index n", n))
    if not n >= 1.0:
        raise DomainError(f"refractive index must be >= 1, got {n}")


def _check_speed(u: float):
    if not abs(u) < c:
        raise DomainError(f"medium speed must satisfy |u| < c, got {u}")


def _index_ratio(n: float, u: float) -> tuple:
    """n as (a, p), n = a/p exactly, once n and the drift u are checked."""
    _check_index(n)
    _check_speed(u)
    return n.as_integer_ratio()


def fresnel_speed(n: float, u: float) -> float:
    """Fully dragged speed c/n + (1 - 1/n^2) u in the preferred frame,
    correctly rounded."""
    return effective_fresnel_speed(n, u, 1.0)


def effective_fresnel_speed(n: float, u: float, e_f: float) -> float:
    """Partially dragged speed c/n + e_f (1 - 1/n^2) u, correctly rounded.

    e_f = 1 recovers fresnel_speed, e_f = 0 the hypothesis that rarefied
    media carry light at c/n in the preferred frame regardless of motion.
    Formed as (c n + e_f (n^2 - 1) u)/n^2 over n = a/p, u = s/t and
    e_f = e/d, which is (c a p d t + e (a - p)(a + p) s)/(d t a^2).
    """
    a, p = _index_ratio(n, u)
    if not 0.0 <= e_f <= 1.0:
        raise DomainError(f"drag effectiveness must lie in [0, 1], got {e_f}")
    (s, t), (e, d) = u.as_integer_ratio(), e_f.as_integer_ratio()
    return _quotient(_C * a * p * d * t + e * (a - p) * (a + p) * s, d * t * a * a)[0]


def _composed(num: int, den: int, u: float, law: CompositionLaw) -> float:
    """The lab speed of the rest-frame speed v = num/den (den > 0), correctly
    rounded: Einstein (v - u)c^2/(c^2 - u v), Tangherlini
    (v - u)c^2/((c - u)(c + u)), both over u = s/t in integers.

    A negative denominator gives its sign to the numerator.  Only the
    Einstein one can be zero, where u v = c^2 exactly; then v - u is not,
    since |u| < c, so the lab speed is infinite, and it is refused as one
    beyond the double range is."""
    s, t = u.as_integer_ratio()
    top = (num * t - s * den) * _C * _C
    if law is CompositionLaw.EINSTEIN:
        bottom = _C * _C * den * t - s * num
    elif law is CompositionLaw.TANGHERLINI:
        top, bottom = top * t, den * (_C * t - s) * (_C * t + s)
    else:
        raise DomainError(f"unknown composition law {law!r}")
    try:
        return _quotient(-top if bottom < 0 else top, abs(bottom))[0]
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"the lab speed is beyond the double range at v_rest = {num / den} "
                          f"m/s, u = {u} m/s") from None


def compose_lab_speed(v_rest: float, u: float, law: CompositionLaw) -> float:
    """Map a preferred-frame light speed to the laboratory frame, correctly
    rounded.

    Einstein: w = (v - u)/(1 - u v/c^2).  Tangherlini: w = (v - u)/(1 - u^2/c^2).
    A NaN or infinite v_rest is refused, and so is a lab speed beyond the
    double range: under the Einstein law an infinite one at u v_rest = c^2.
    """
    _check_speed(u)
    check_finite(("rest-frame speed v_rest", v_rest))
    return _composed(*v_rest.as_integer_ratio(), u, law)


def einstein_composed_speed(n: float, u: float) -> float:
    """One-way lab speed (c/n - u)/(1 - u/(c n)) under Einstein synchronization,
    composed from the exact c/n and correctly rounded."""
    a, p = _index_ratio(n, u)
    return _composed(_C * p, a, u, CompositionLaw.EINSTEIN)


def tangherlini_composed_speed(n: float, u: float) -> float:
    """One-way lab speed (c/n - u)/(1 - u^2/c^2) under Tangherlini synchronization,
    composed from the exact c/n and correctly rounded."""
    a, p = _index_ratio(n, u)
    return _composed(_C * p, a, u, CompositionLaw.TANGHERLINI)
