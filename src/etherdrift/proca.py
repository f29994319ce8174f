"""Massive-photon electrostatics for the scalar-AB photon mass bound.

If the photon has mass m_gamma (given throughout as an inverse length, the
reciprocal of the reduced Compton wavelength), the Coulomb potential turns
into a Yukawa form and the interior of a charged conducting cylinder is no
longer an equipotential: it sags below the wall value V following
I0(m_gamma rho)/I0(m_gamma R).  A charged-particle beam through the
cylinder then accumulates a small extra scalar phase, and demanding that
phase stay below an interferometer resolution epsilon turns into a lower
bound on the Compton range

    m_gamma^{-1} = (R/2) sqrt(pi V tau / (epsilon Phi_0)),

with Phi_0 = h/2e, which equals (R/2) sqrt(e V tau/(hbar epsilon)).

Two expansion normalizations circulate for the interior potential; the
quarter form V [1 + (m^2/4)(rho^2 - R^2)] is the one consistent with the
bound inversion and with the Bessel series, and is the default.  The half
form is kept as an explicit variant.
"""

import math

from ._record import Record, check_finite
from .errors import DomainError, InputError
from .interferometer import _check_steps
from .units import PhysicalConstants, inverse_length_to_mass


def _scaled_I0(x: float) -> float:
    """e^{-x} I0(x), finite for every finite x >= 0: the power series
    sum_k (x^2/4)^k/(k!)^2 times e^{-x} up to x = 20, above it the asymptotic
    series (Abramowitz & Stegun 9.7.1), whose smallest term there is below
    1e-18.  Each sum stops at its first term below 1e-17 of it."""
    # NaN would never end the series, and inf would give 0
    if not 0.0 <= x < math.inf:
        raise DomainError(f"I0 argument must be finite and >= 0, got {x}")
    small = x <= 20.0
    # term ratios (x^2/4)/k^2 and (2k - 1)^2/(8 x k)
    c = 0.25 * x * x if small else 0.125 / x
    total = term = 1.0
    k = 1
    while term >= 1e-17 * total:
        term *= c / (k * k) if small else (2 * k - 1) ** 2 * c / k
        total += term
        k += 1
    if small:
        return total * math.exp(-x)
    # 1/sqrt(2 pi) apart: 2 pi x overflows above x = 2.8e307
    return total * (0.3989422804014327 / math.sqrt(x))


def bessel_I0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero, as
    e^{x/2} e^{-x} I0(x) e^{x/2}: e^x alone overflows at x = 709.8, I0 only
    near 714, where this raises DomainError, as it does for NaN, inf, x < 0."""
    half = math.exp(0.5 * x) if x < 1e3 else math.inf
    value = half * _scaled_I0(x) * half
    if value == math.inf:
        raise DomainError(f"I0({x}) exceeds the double range")
    return value


class ProcaCylinderConfig(Record):
    """Scalar-AB cylinder experiment: radius R (m), wall potential V (volts),
    interaction time tau (s), beam radius rho (m), phase resolution epsilon."""

    R: float
    V: float
    tau: float
    rho: float = 0.0
    epsilon: float = 1e-4

    def _check(self):
        check_finite(("cylinder radius R", self.R), ("wall potential V", self.V),
                     ("interaction time tau", self.tau), ("beam radius rho", self.rho),
                     ("phase resolution epsilon", self.epsilon))
        if self.R <= 0.0:
            raise DomainError(f"cylinder radius R must be positive, got {self.R}")
        if self.tau <= 0.0:
            raise DomainError(f"interaction time tau must be positive, got {self.tau}")
        if self.epsilon <= 0.0:
            raise DomainError(f"phase resolution epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.rho < self.R:
            raise DomainError(f"beam radius must satisfy 0 <= rho < R, got {self.rho}")


def cylinder_potential_exact(rho: float, cfg: ProcaCylinderConfig, m_gamma: float) -> float:
    """Interior potential V I0(m_gamma rho)/I0(m_gamma R), volts.

    The solution regular at the origin; K0 is excluded because it diverges
    there.  Formed as V e^{m (rho - R)} S(m rho)/S(m R) with S(x) = e^{-x} I0(x),
    finite for every finite m R, so exactly V on the wall.
    """
    if not 0.0 <= rho <= cfg.R:
        raise DomainError(f"radial position must satisfy 0 <= rho <= R, got {rho}")
    if not 0.0 <= m_gamma < math.inf:
        raise DomainError(f"photon mass parameter must be finite and >= 0, got {m_gamma}")
    return cfg.V * (math.exp(m_gamma * (rho - cfg.R)) * _scaled_I0(m_gamma * rho)
                    / _scaled_I0(m_gamma * cfg.R))


def _expansion_scale(variant: str) -> float:
    if variant == "quarter":
        return 0.25
    if variant == "half":
        return 0.5
    raise InputError(f"variant must be 'quarter' or 'half', got {variant!r}")


def cylinder_potential_expansion(rho: float, cfg: ProcaCylinderConfig, m_gamma: float,
                                 variant: str = "quarter") -> float:
    """Two-term interior potential V [1 + (m_gamma^2/s)(rho^2 - R^2)], volts.

    ``variant`` picks the normalization s: "quarter" (s = 4, consistent with
    the I0 series and the phase-correction chain, residual O((m R)^4)) or
    "half" (s = 2, the alternative printed normalization, residual O((m R)^2)).
    """
    if not 0.0 <= rho <= cfg.R:
        raise DomainError(f"radial position must satisfy 0 <= rho <= R, got {rho}")
    if not 0.0 <= m_gamma < math.inf:
        raise DomainError(f"photon mass parameter must be finite and >= 0, got {m_gamma}")
    scale = _expansion_scale(variant)
    m2 = m_gamma * m_gamma
    return cfg.V * (1.0 + scale * m2 * (rho * rho - cfg.R * cfg.R))


def potential_profile(cfg: ProcaCylinderConfig, m_gamma: float, steps: int,
                      variant: str = "quarter") -> list:
    """Rows (rho, exact, expansion) at ``steps`` radii evenly spaced over [0, R].

    Each row holds what cylinder_potential_exact and
    cylinder_potential_expansion give at its radius, bit for bit; the scaled
    wall value e^{-m_gamma R} I0(m_gamma R) is formed once.  The last radius
    is exactly R.  A profile holds at most MAX_SCAN_STEPS rows.
    """
    _check_steps(steps, "potential profile")
    if not 0.0 <= m_gamma < math.inf:
        raise DomainError(f"photon mass parameter must be finite and >= 0, got {m_gamma}")
    R, V = cfg.R, cfg.V
    wall = _scaled_I0(m_gamma * R)
    scale_m2 = _expansion_scale(variant) * (m_gamma * m_gamma)
    # R * i / (steps - 1) can round above R at the last step
    radii = [R * i / (steps - 1) for i in range(steps - 1)] + [R]
    return [(rho,
             V * (math.exp(m_gamma * (rho - R)) * _scaled_I0(m_gamma * rho) / wall),
             V * (1.0 + scale_m2 * (rho * rho - R * R)))
            for rho in radii]


def mass_phase_correction(cfg: ProcaCylinderConfig, m_gamma: float,
                          constants: PhysicalConstants) -> float:
    """Extra scalar phase -(e m_gamma^2/4)(rho^2 - R^2) V tau / hbar.

    Positive for a beam inside the cylinder; vanishes with m_gamma.  The
    coupling e/hbar is the profile's charge_over_hbar = pi/Phi_0, which is
    what makes this the exact algebraic partner of invert_bound.
    """
    if not 0.0 <= m_gamma < math.inf:
        raise DomainError(f"photon mass parameter must be finite and >= 0, got {m_gamma}")
    m2 = m_gamma * m_gamma
    return -(constants.charge_over_hbar * m2 / 4.0) * (cfg.rho * cfg.rho - cfg.R * cfg.R) * cfg.V * cfg.tau


def invert_bound(cfg: ProcaCylinderConfig, constants: PhysicalConstants) -> float:
    """Compton-range bound m_gamma^{-1} = (R/2) sqrt(pi V tau/(epsilon Phi_0)), in cm.

    Algebraic inversion of mass_phase_correction at rho = 0 (the beam runs
    near the axis).  Evaluated in SI and converted to cm at the end; scales
    as R, sqrt(V), sqrt(tau) and 1/sqrt(epsilon).  The phase of any mass stays
    below (e/hbar) V tau, so a resolution epsilon at or above it has no bound.
    """
    if cfg.V * cfg.tau <= 0.0:
        raise DomainError("bound inversion needs V * tau > 0")
    largest = constants.charge_over_hbar * cfg.V * cfg.tau
    if not cfg.epsilon < largest:
        raise DomainError(f"phase resolution epsilon = {cfg.epsilon} rad is at least "
                          f"(e/hbar) V tau = {largest} rad, the largest phase any "
                          "photon mass gives")
    range_m = 0.5 * cfg.R * math.sqrt(
        math.pi * cfg.V * cfg.tau / (cfg.epsilon * constants.flux_quantum))
    return range_m * 100.0


def time_of_flight(length: float, speed: float) -> float:
    """Traversal time tau = L/v."""
    if not 0.0 < speed:
        raise DomainError(f"speed must be positive, got {speed}")
    if not 0.0 <= length:
        raise DomainError(f"length must be >= 0, got {length}")
    return length / speed


class PhotonMassBound(Record):
    """A Compton-range/mass pair with its provenance label.

    Construction cross-checks the pair against m = hbar/(c range) and
    tolerates 15% to accommodate rounded published values.
    """

    m_gamma_inv_cm: float
    m_ph_g: float
    source: str

    def _check(self):
        check_finite(("bound range", self.m_gamma_inv_cm), ("bound mass", self.m_ph_g))
        if self.m_gamma_inv_cm <= 0.0 or self.m_ph_g <= 0.0:
            raise DomainError("bound range and mass must be positive")
        ideal = inverse_length_to_mass(self.m_gamma_inv_cm)
        if abs(self.m_ph_g - ideal) > 0.15 * ideal:
            raise DomainError(
                f"inconsistent bound pair for {self.source!r}: "
                f"mass {self.m_ph_g} vs hbar/(c range) = {ideal}")


def projected_bound(base: PhotonMassBound, tau_scale: float) -> PhotonMassBound:
    """Rescale a bound for a tau_scale-times longer interaction time.

    From the bound formula m_gamma^{-1} grows as sqrt(tau), so the mass
    limit tightens by the same factor.
    """
    if not 0.0 < tau_scale:
        raise DomainError(f"tau scale must be positive, got {tau_scale}")
    factor = math.sqrt(tau_scale)
    return PhotonMassBound(base.m_gamma_inv_cm * factor, base.m_ph_g / factor,
                           f"{base.source} (tau x{tau_scale:g})")


def bounds_registry() -> list:
    """Published photon-mass bounds quoted alongside the cylinder proposal.

    Entries keep the rounded published numbers where a pair was quoted; the
    Williams-Faller-Hill mass is derived from its range (only the range was
    quoted).
    """
    return [
        PhotonMassBound(3.0e9, inverse_length_to_mass(3.0e9), "Williams-Faller-Hill"),
        PhotonMassBound(1.66e13, 2.1e-51, "Luo et al."),
        PhotonMassBound(1.4e7, 2.5e-45, "Boulware-Deser"),
        PhotonMassBound(2.0e13, 2.0e-51, "Spavieri-Rodriguez"),
    ]
