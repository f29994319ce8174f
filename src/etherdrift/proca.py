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
form is kept as an explicit variant.  Both potentials come from one row
rule, _potential_rows, given its array module, as the scans' _scan_row is:
math in cylinder_potential_exact and cylinder_potential_expansion, and at
a profile's radii (_profile_rule) in the CSV tables' drivers,
_record._rows with math and _record._table with numpy, so no other
kernel module runs to form a profile.  A profile's rows and its table are
the pointwise values by construction, bit for bit: the array form of the
scaled I0 sums each element's series term for term, and every exp,
element by element, is math.exp, since numpy's differs from libm's in the
last bit.
"""

import math
import sys

from ._record import Record, _check_steps, _rows, check_finite
from .errors import DomainError, InputError
from .units import PhysicalConstants, inverse_length_to_mass


def _scaled_I0(x, xp=math):
    """e^{-x} I0(x), finite for every finite x >= 0: the power series
    sum_k (x^2/4)^k/(k!)^2 times e^{-x} up to x = 20, above it the asymptotic
    series (Abramowitz & Stegun 9.7.1), whose smallest term there is below
    1e-18.  Each sum stops at its first term below 1e-17 of it.

    x is a float with xp = math, or a float array with xp = numpy, whose
    every element is summed as the float is, term for term, and stopped at
    the same term: the same doubles."""
    if xp is not math:
        return _scaled_I0_columns(x, xp)
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


def _scaled_I0_columns(x, np):
    """_scaled_I0 of a float array: each series a masked loop, whose
    elements leave it, with their sums, once their own term stops them."""
    bad = x[~((0.0 <= x) & (x < math.inf))]
    if len(bad):
        raise DomainError(f"I0 argument must be finite and >= 0, got {bad[0]}")
    out = np.empty_like(x)
    for small, at in ((True, (x <= 20.0).nonzero()[0]), (False, (x > 20.0).nonzero()[0])):
        y = x[at]
        c = 0.25 * y * y if small else 0.125 / y
        total, term, sums = np.ones_like(y), np.ones_like(y), np.empty_like(y)
        going = np.arange(len(y))  # the elements still summing, by place in y
        k = 1
        while len(going):
            term *= c / (k * k) if small else (2 * k - 1) ** 2 * c / k
            total += term
            k += 1
            more = term >= 1e-17 * total
            if not more.all():
                sums[going] = total  # final where the series stopped
                going, c, term, total = going[more], c[more], term[more], total[more]
        out[at] = sums * (_exp(-y, np) if small else 0.3989422804014327 / np.sqrt(y))
    return out


def _exp(x, xp):
    """math.exp of a float, or of each element of a float array with xp =
    numpy: numpy's exp is not libm's, and differs from it in the last bit
    for some arguments (at 4.6 % of uniform draws in [-700, 0], numpy 2.4 on
    x86-64)."""
    if xp is math:
        return math.exp(x)
    return xp.fromiter(map(math.exp, x.tolist()), float, len(x))


def bessel_I0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero, as
    e^{x/2} e^{-x} I0(x) e^{x/2}: e^x alone overflows at x = 709.8, I0 only
    near 714, where this raises DomainError, as it does for NaN, inf, x < 0
    and an int beyond the double range."""
    check_finite(("I0 argument", x))
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


def _check_mass(m_gamma: float) -> None:
    if not 0.0 <= m_gamma < math.inf:
        raise DomainError(f"photon mass parameter must be finite and >= 0, got {m_gamma}")
    check_finite(("photon mass parameter", m_gamma))  # an int beyond the double range


def _check_potential(m_gamma: float, variant: str) -> None:
    _check_mass(m_gamma)
    if variant not in ("quarter", "half"):
        raise InputError(f"variant must be 'quarter' or 'half', got {variant!r}")


def _potential_rows(cfg: ProcaCylinderConfig, m_gamma: float, variant: str):
    """The one row rule of the interior potential, its arguments checked
    first: row(rho, xp) gives (rho, exact, expansion), floats for a float
    rho in [0, R] with xp = math, columns for a float array of them with
    xp = numpy, the same doubles either way.

    exact is V I0(m_gamma rho)/I0(m_gamma R), formed as
    V e^{m (rho - R)} S(m rho)/S(m R) with S(x) = e^{-x} I0(x): finite for
    every finite m R, and exactly V on the wall.  expansion is
    V [1 + (m_gamma^2/s)(rho^2 - R^2)].  The wall's S(m R) and s m_gamma^2
    are formed once, here, for all rows.
    """
    _check_potential(m_gamma, variant)
    R, V = cfg.R, cfg.V
    wall = _scaled_I0(m_gamma * R)
    scale_m2 = (0.25 if variant == "quarter" else 0.5) * (m_gamma * m_gamma)

    def row(rho, xp):
        return (rho,
                V * (_exp(m_gamma * (rho - R), xp) * _scaled_I0(m_gamma * rho, xp) / wall),
                V * (1.0 + scale_m2 * (rho * rho - R * R)))
    return row


def _potential_at(rho: float, cfg: ProcaCylinderConfig, m_gamma: float, variant: str) -> tuple:
    if not 0.0 <= rho <= cfg.R:
        raise DomainError(f"radial position must satisfy 0 <= rho <= R, got {rho}")
    row = _potential_rows(cfg, m_gamma, variant)(rho, math)
    if not all(map(math.isfinite, row)):
        raise DomainError(f"the interior potential leaves the double range at rho = {rho} m, "
                          f"R = {cfg.R} m, V = {cfg.V} V and m_gamma = {m_gamma}")
    return row


def cylinder_potential_exact(rho: float, cfg: ProcaCylinderConfig, m_gamma: float) -> float:
    """Interior potential V I0(m_gamma rho)/I0(m_gamma R), volts.

    The solution regular at the origin; K0 is excluded because it diverges
    there.  Finite for every finite m R, and exactly V on the wall.
    """
    return _potential_at(rho, cfg, m_gamma, "quarter")[1]


def cylinder_potential_expansion(rho: float, cfg: ProcaCylinderConfig, m_gamma: float,
                                 variant: str = "quarter") -> float:
    """Two-term interior potential V [1 + (m_gamma^2/s)(rho^2 - R^2)], volts.

    ``variant`` picks the normalization s: "quarter" (s = 4, consistent with
    the I0 series and the phase-correction chain, residual O((m R)^4)) or
    "half" (s = 2, the alternative printed normalization, residual O((m R)^2)).
    """
    return _potential_at(rho, cfg, m_gamma, variant)[2]


def _profile_rule(cfg: ProcaCylinderConfig, m_gamma: float, steps: int, variant: str):
    """The row rule of a profile of steps rows, its arguments checked
    first: rule(i, xp) is _potential_rows' row at radius R i/(steps - 1),
    for an int i or an int array, and at exactly R for the last row."""
    row = _potential_rows(cfg, m_gamma, variant)
    R, last = cfg.R, steps - 1

    def rule(i, xp):
        if xp is math:
            return row(R * i / last if i < last else R, xp)
        rho = R * i / last
        rho[i == last] = R
        return row(rho, xp)
    return rule


def potential_profile(cfg: ProcaCylinderConfig, m_gamma: float, steps: int,
                      variant: str = "quarter"):
    """Rows (rho, exact, expansion) at ``steps`` radii evenly spaced over
    [0, R], the last exactly R: at most _record.MAX_SCAN_STEPS rows, each
    what cylinder_potential_exact and cylinder_potential_expansion give at
    its radius, bit for bit.  An iterator that forms them as they are read;
    the arguments are checked, and the wall's I0 formed, first.  A row
    with a cell that is NaN or infinite, a potential beyond the double
    range, is refused: DomainError names its first such cell, the
    profile's first in row-major order."""
    _check_steps(steps, "potential profile")
    return _rows(_profile_rule(cfg, m_gamma, steps, variant), steps)


def mass_phase_correction(cfg: ProcaCylinderConfig, m_gamma: float,
                          constants: PhysicalConstants) -> float:
    """Extra scalar phase -(e m_gamma^2/4)(rho^2 - R^2) V tau / hbar.

    Positive for a beam inside the cylinder; vanishes with m_gamma.  The
    coupling e/hbar is the profile's charge_over_hbar = pi/Phi_0, which is
    what makes this the exact algebraic partner of invert_bound.
    """
    _check_mass(m_gamma)
    m2 = m_gamma * m_gamma
    phase = (-(constants.charge_over_hbar * m2 / 4.0) * (cfg.rho * cfg.rho - cfg.R * cfg.R)
             * cfg.V * cfg.tau)
    if not math.isfinite(phase):
        raise DomainError(f"the mass phase correction is not finite at R = {cfg.R} m, "
                          f"rho = {cfg.rho} m, V = {cfg.V} V, tau = {cfg.tau} s and "
                          f"m_gamma = {m_gamma}")
    return phase


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
    phi, pi_v_tau = constants.flux_quantum, math.pi * cfg.V * cfg.tau
    eps_phi = cfg.epsilon * phi
    # a subnormal epsilon Phi_0 has lost bits, and 0 all of them
    ratio = pi_v_tau / eps_phi if eps_phi >= sys.float_info.min else math.inf
    if ratio < math.inf:
        range_cm = 0.5 * cfg.R * math.sqrt(ratio) * 100.0
    else:  # epsilon Phi_0 is not a normal double, or the ratio overflows: split the root
        range_cm = 0.5 * cfg.R * math.sqrt(pi_v_tau / phi) / math.sqrt(cfg.epsilon) * 100.0
    if not range_cm < math.inf:
        raise DomainError(f"the Compton range overflows at V = {cfg.V} V, tau = {cfg.tau} s, "
                          f"R = {cfg.R} m and epsilon = {cfg.epsilon}")
    return range_cm


def time_of_flight(length: float, speed: float) -> float:
    """Traversal time tau = L/v."""
    if not 0.0 < speed < math.inf:
        raise DomainError(f"speed must be finite and positive, got {speed}")
    if not 0.0 <= length < math.inf:
        raise DomainError(f"length must be finite and >= 0, got {length}")
    check_finite(("speed", speed), ("length", length))  # an int beyond the double range
    tau = length / speed
    if not tau < math.inf:
        raise DomainError(f"the time of flight exceeds the double range at length {length} m, "
                          f"speed {speed} m/s")
    return tau


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
    check_finite(("tau scale", tau_scale))
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
