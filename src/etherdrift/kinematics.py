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
"""

import enum
import math

from ._record import check_finite
from .errors import DomainError
from .units import c


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


def fresnel_drag_coefficient(n: float) -> float:
    """Drag coefficient 1 - 1/n^2; zero in vacuum, approaching 1 as n grows.

    Formed as ((n - 1)/n)((n + 1)/n): exact to rounding for n near 1, where
    1 - 1/n^2 cancels, and with no n^2 to overflow for large n."""
    _check_index(n)
    return ((n - 1.0) / n) * ((n + 1.0) / n)


def fresnel_speed(n: float, u: float) -> float:
    """Fully dragged speed c/n + (1 - 1/n^2) u in the preferred frame."""
    return effective_fresnel_speed(n, u, 1.0)


def effective_fresnel_speed(n: float, u: float, e_f: float) -> float:
    """Partially dragged speed c/n + e_f (1 - 1/n^2) u.

    e_f = 1 recovers fresnel_speed, e_f = 0 the hypothesis that rarefied
    media carry light at c/n in the preferred frame regardless of motion.
    """
    _check_index(n)
    _check_speed(u)
    if not 0.0 <= e_f <= 1.0:
        raise DomainError(f"drag effectiveness must lie in [0, 1], got {e_f}")
    return c / n + e_f * fresnel_drag_coefficient(n) * u


def compose_lab_speed(v_rest: float, u: float, law: CompositionLaw) -> float:
    """Map a preferred-frame light speed to the laboratory frame.

    Einstein: w = (v - u)/(1 - u v/c^2).  Tangherlini: w = (v - u)/(1 - u^2/c^2),
    with (u/c)^2 a product: a float's ** 2 calls pow, which is not always
    correctly rounded.  A NaN or infinite v_rest is refused.
    """
    _check_speed(u)
    check_finite(("rest-frame speed v_rest", v_rest))
    if law is CompositionLaw.EINSTEIN:
        w = (v_rest - u) / (1.0 - u * v_rest / (c * c))
    elif law is CompositionLaw.TANGHERLINI:
        beta = u / c
        w = (v_rest - u) / (1.0 - beta * beta)
    else:
        raise DomainError(f"unknown composition law {law!r}")
    if not math.isfinite(w):
        raise DomainError(f"the lab speed exceeds the double range at v_rest = {v_rest} m/s, "
                          f"u = {u} m/s")
    return w


def einstein_composed_speed(n: float, u: float) -> float:
    """One-way lab speed (c/n - u)/(1 - u/(c n)) under Einstein synchronization."""
    _check_index(n)
    return compose_lab_speed(c / n, u, CompositionLaw.EINSTEIN)


def tangherlini_composed_speed(n: float, u: float) -> float:
    """One-way lab speed (c/n - u)/(1 - u^2/c^2) under Tangherlini synchronization."""
    _check_index(n)
    return compose_lab_speed(c / n, u, CompositionLaw.TANGHERLINI)
