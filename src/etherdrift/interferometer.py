"""Two-arm first-order drift interferometer.

Both arms span the same segment, each filled with a different medium, and
the whole device is rotated in the plane containing the drift velocity.
The orientation enters through the projection u_eff = u cos(theta); only
theta = 0 and 180 degrees are fixed by the underlying argument, the cosine
is the minimal model consistent with "u -> -u on reversal".

Delays are one-way A to B, no mirror round trip.  The first-order delay

    dt(theta) = (L/c)(n1 - n2) [1 + (u_eff/c)(1 - e_f)(n1 + n2)]

carries the (1 - e_f) factor from composing the partially dragged medium
speed; at e_f = 0 it reduces to the plain printed form, at e_f = 1 the
drift signal cancels.  The same expression results from either composition
law, because their inverse one-way speeds differ by the arm-independent
synchronization term u/c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateConfigError, DomainError, InputError
from .kinematics import CompositionLaw, compose_lab_speed
from .units import c


def _cos_deg(theta_deg: float) -> float:
    """Cosine of an angle in degrees, exactly antisymmetric under +180.

    The angle is folded into [0, 90] before calling cos, so quadrant pairs
    (theta, theta+180) return exact negations and the quadrant points give
    exact 0 / +-1.  Fringe antisymmetry tests rely on this.
    """
    t = theta_deg % 360.0
    if t <= 90.0:
        return math.cos(math.radians(t))
    if t <= 180.0:
        return -math.cos(math.radians(180.0 - t))
    if t <= 270.0:
        return -math.cos(math.radians(t - 180.0))
    return math.cos(math.radians(360.0 - t))


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry, media and motion of the two-arm device.

    n1 and n2 are the refractive indices of the two arms.  e_f applies to
    both media (they share the entrainment mechanism); the default 0 is the
    rarefied-gas hypothesis under which the first-order signal survives.
    """

    L: float
    n1: float
    n2: float
    u: float
    lambda_vac: float
    composition: CompositionLaw = CompositionLaw.EINSTEIN
    e_f: float = 0.0

    def __post_init__(self):
        # each check is written "not lo <= x" so that NaN fails it too
        if not 1.0 <= self.n1:
            raise DomainError(f"n1 must be >= 1, got {self.n1}")
        if not 1.0 <= self.n2:
            raise DomainError(f"n2 must be >= 1, got {self.n2}")
        if not 0.0 < self.L:
            raise DomainError(f"arm length L must be positive, got {self.L}")
        if not 0.0 < self.lambda_vac:
            raise DomainError(f"wavelength must be positive, got {self.lambda_vac}")
        if not abs(self.u) < c:
            raise DomainError(f"drift speed must satisfy |u| < c, got {self.u}")
        if not 0.0 <= self.e_f <= 1.0:
            raise DomainError(f"e_f must lie in [0, 1], got {self.e_f}")
        if not isinstance(self.composition, CompositionLaw):
            raise InputError(f"composition must be a CompositionLaw, got {self.composition!r}")


def arm_speed(config: InterferometerConfig, arm: int, theta_deg: float) -> float:
    """Lab-frame one-way light speed in one arm at orientation theta.

    The medium rest-frame speed c/n + e_f (1 - 1/n^2) u_eff is composed
    with the configured law at the projected drift u_eff = u cos(theta).
    """
    if arm == 1:
        n = config.n1
    elif arm == 2:
        n = config.n2
    else:
        raise InputError(f"arm must be 1 or 2, got {arm}")
    u_eff = config.u * _cos_deg(theta_deg)
    v_rest = c / n + config.e_f * (1.0 - 1.0 / (n * n)) * u_eff
    return compose_lab_speed(v_rest, u_eff, config.composition)


def delay_exact(config: InterferometerConfig, theta_deg: float) -> float:
    """Arm delay difference L (1/w1 - 1/w2); positive when arm 1 is slower."""
    w1 = arm_speed(config, 1, theta_deg)
    w2 = arm_speed(config, 2, theta_deg)
    return config.L * (1.0 / w1 - 1.0 / w2)


def delay_first_order(config: InterferometerConfig, theta_deg: float) -> float:
    """First-order form (L/c)(n1 - n2)[1 + (u_eff/c)(1 - e_f)(n1 + n2)]."""
    n1 = config.n1
    n2 = config.n2
    u_eff = config.u * _cos_deg(theta_deg)
    return (config.L / c) * (n1 - n2) * (1.0 + (u_eff / c) * (1.0 - config.e_f) * (n1 + n2))


class RotationSignal(NamedTuple):
    exact: float
    first_order: float


def rotation_signal(config: InterferometerConfig) -> RotationSignal:
    """Delay variation on the half turn, dt = Dt(0) - Dt(180).

    Returns the exact difference alongside the closed first-order form
    2 (u/c)(n1^2 - n2^2)(L/c)(1 - e_f); they agree to O((u/c)^2).
    """
    exact = delay_exact(config, 0.0) - delay_exact(config, 180.0)
    n1 = config.n1
    n2 = config.n2
    first = 2.0 * (config.u / c) * (n1 * n1 - n2 * n2) * (config.L / c) * (1.0 - config.e_f)
    return RotationSignal(exact, first)


def fringe_shift(delta_t: float, lambda_vac: float) -> float:
    """Optical-phase cycles N = c dt / lambda for a path time difference dt."""
    if lambda_vac <= 0.0:
        raise DomainError(f"wavelength must be positive, got {lambda_vac}")
    return c * delta_t / lambda_vac


def min_detectable_u(config: InterferometerConfig, fringe_resolution: float) -> float:
    """Smallest drift speed giving a rotation signal of fringe_resolution fringes.

    Inverts the first-order dt formula:
    u_min = resolution * lambda * c / (2 |n1^2 - n2^2| L (1 - e_f)).
    """
    if fringe_resolution <= 0.0:
        raise DomainError(f"fringe resolution must be positive, got {fringe_resolution}")
    n1 = config.n1
    n2 = config.n2
    if n1 == n2:
        raise DegenerateConfigError("identical media: no first-order signal to invert")
    if config.e_f >= 1.0:
        raise DegenerateConfigError("e_f = 1 cancels the first-order signal")
    denom = 2.0 * abs(n1 * n1 - n2 * n2) * config.L * (1.0 - config.e_f)
    return fringe_resolution * config.lambda_vac * c / denom


def improvement_factor(u: float, n1: float, n2: float) -> float:
    """Gain (c/u)(n1^2 - n2^2) of the two-media device over a single-medium one."""
    if u <= 0.0:
        raise DomainError(f"drift speed must be positive, got {u}")
    return (c / u) * (n1 * n1 - n2 * n2)


class ScanRow(NamedTuple):
    theta_deg: float
    delay_exact_s: float
    delay_first_order_s: float
    fringes: float


def angle_scan(config: InterferometerConfig, steps: int) -> list:
    """Uniform orientation scan over [0, 360) degrees.

    steps = 2 reproduces the 0/180 pair of the rotation signal.  The fringe
    column converts the exact delay.
    """
    if steps < 2:
        raise InputError(f"angle scan needs at least 2 steps, got {steps}")
    rows = []
    for k in range(steps):
        theta = 360.0 * k / steps
        exact = delay_exact(config, theta)
        first = delay_first_order(config, theta)
        rows.append(ScanRow(theta, exact, first, fringe_shift(exact, config.lambda_vac)))
    return rows
