"""Unit systems, conversions and physical constants.

All formulas in the package work in SI internally.  The Gaussian (cgs-esu)
side exists because the older drift and photon-mass literature quotes fluxes
in G cm^2, charges in esu and masses in grams, and the published bounds are
only reproducible digit for digit if the same rounded inputs are used.  The
``paper`` constants profile therefore keeps the rounded flux quantum
2.067e-15 Wb, while ``modern`` uses h/2e from the exact SI defining values.
"""

from __future__ import annotations

import enum
import math
import os
from typing import NamedTuple

from .errors import DimensionError, DomainError, InputError


class UnitSystem(enum.Enum):
    SI = "si"
    GAUSSIAN = "gaussian"


class Dimension(enum.Enum):
    LENGTH = "length"
    INVERSE_LENGTH = "inverse_length"
    TIME = "time"
    SPEED = "speed"
    MASS = "mass"
    ENERGY = "energy"
    ACTION = "action"
    CHARGE = "charge"
    POTENTIAL = "potential"
    MAGNETIC_FIELD = "magnetic_field"
    MAGNETIC_FLUX = "magnetic_flux"
    MOMENTUM = "momentum"
    DIMENSIONLESS = "dimensionless"


# SI -> Gaussian factor stored as a ratio num/den so that whichever direction
# has the exact decimal representation keeps it (e.g. 1 statV = 299.792458 V).
_SI_TO_GAUSSIAN = {
    Dimension.LENGTH: (100.0, 1.0),
    Dimension.INVERSE_LENGTH: (1.0, 100.0),
    Dimension.TIME: (1.0, 1.0),
    Dimension.SPEED: (100.0, 1.0),
    Dimension.MASS: (1000.0, 1.0),
    Dimension.ENERGY: (1.0e7, 1.0),
    Dimension.ACTION: (1.0e7, 1.0),
    Dimension.CHARGE: (2.99792458e9, 1.0),
    Dimension.POTENTIAL: (1.0, 299.792458),
    Dimension.MAGNETIC_FIELD: (1.0e4, 1.0),
    Dimension.MAGNETIC_FLUX: (1.0e8, 1.0),
    Dimension.MOMENTUM: (1.0e5, 1.0),
    Dimension.DIMENSIONLESS: (1.0, 1.0),
}

_UNIT_NAMES = {
    Dimension.LENGTH: ("m", "cm"),
    Dimension.INVERSE_LENGTH: ("1/m", "1/cm"),
    Dimension.TIME: ("s", "s"),
    Dimension.SPEED: ("m/s", "cm/s"),
    Dimension.MASS: ("kg", "g"),
    Dimension.ENERGY: ("J", "erg"),
    Dimension.ACTION: ("J s", "erg s"),
    Dimension.CHARGE: ("C", "esu"),
    Dimension.POTENTIAL: ("V", "statV"),
    Dimension.MAGNETIC_FIELD: ("T", "G"),
    Dimension.MAGNETIC_FLUX: ("Wb", "G cm^2"),
    Dimension.MOMENTUM: ("kg m/s", "g cm/s"),
    Dimension.DIMENSIONLESS: ("1", "1"),
}


class Quantity(NamedTuple):
    """A value together with its dimension and the system it is expressed in."""

    value: float
    dimension: Dimension
    system: UnitSystem = UnitSystem.SI

    def unit(self) -> str:
        si_name, gauss_name = _UNIT_NAMES[self.dimension]
        return si_name if self.system is UnitSystem.SI else gauss_name

    def to(self, target: UnitSystem) -> "Quantity":
        return convert(self, target)


def convert(quantity: Quantity, target: UnitSystem) -> Quantity:
    """Convert a :class:`Quantity` between SI and Gaussian units.

    Conversion to the system the quantity is already in returns it unchanged,
    so round trips cost at most one multiply and one divide.
    """
    if not isinstance(target, UnitSystem):
        raise DimensionError(f"conversion target must be a unit system, got {target!r}")
    if quantity.system is target:
        return quantity
    num, den = _SI_TO_GAUSSIAN[quantity.dimension]
    if target is UnitSystem.GAUSSIAN:
        value = quantity.value * num / den
    else:
        value = quantity.value * den / num
    return Quantity(value, quantity.dimension, target)


#: exact SI defining values (SI 2019), the same in every profile
c = 299792458.0             # m/s
h = 6.62607015e-34          # J s
e_charge = 1.602176634e-19  # C
hbar = h / (2.0 * math.pi)
c_cgs = c * 100.0
hbar_cgs = hbar * 1.0e7


class PhysicalConstants(NamedTuple):
    """What a constants profile chooses: the flux quantum Phi_0 (Wb).

    c, h and e are the exact SI values above in every profile, so Phi_0 is
    all that differs: ``paper`` keeps the rounded 2.067e-15 Wb, ``modern``
    uses h/2e.  ``charge_over_hbar`` is routed through it (pi/Phi_0 == e/hbar)
    so that phase formulas and the inversion of the cylinder bound stay
    mutually consistent inside either profile.
    """

    profile: str
    flux_quantum: float  # Wb

    @property
    def charge_over_hbar(self) -> float:
        return math.pi / self.flux_quantum

    def as_quantities(self) -> dict:
        return {
            "c": Quantity(c, Dimension.SPEED),
            "h": Quantity(h, Dimension.ACTION),
            "hbar": Quantity(hbar, Dimension.ACTION),
            "e_charge": Quantity(e_charge, Dimension.CHARGE),
            "flux_quantum": Quantity(self.flux_quantum, Dimension.MAGNETIC_FLUX),
        }

    def table(self, system: UnitSystem = UnitSystem.SI) -> list:
        rows = []
        for name, quantity in self.as_quantities().items():
            q = convert(quantity, system)
            rows.append(
                {
                    "name": name,
                    "value": q.value,
                    "unit": q.unit(),
                    "system": system.value,
                    "profile": self.profile,
                }
            )
        return rows

    def fingerprint(self) -> str:
        import hashlib  # only --version asks for it: off the cold import path

        payload = ",".join(
            f"{name}={q.value!r}" for name, q in sorted(self.as_quantities().items())
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


MODERN = PhysicalConstants(profile="modern", flux_quantum=h / (2.0 * e_charge))

PAPER = PhysicalConstants(profile="paper", flux_quantum=2.067e-15)

_PROFILES = {"modern": MODERN, "paper": PAPER}


def get_constants(profile: str | None = None) -> PhysicalConstants:
    """Look up a constants profile by name.

    ``None`` falls back to the ETHERDRIFT_PROFILE environment variable and
    then to the ``paper`` profile.
    """
    if profile is None:
        profile = os.environ.get("ETHERDRIFT_PROFILE", "paper")
    try:
        return _PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise InputError(f"unknown constants profile {profile!r} (known: {known})") from None


def inverse_length_to_mass(range_cm: float) -> float:
    """Photon mass in grams equivalent to a Yukawa range in cm.

    The range is the reduced Compton wavelength, so m = hbar / (c * range)
    evaluated in cgs.
    """
    if range_cm <= 0.0:
        raise DomainError(f"Yukawa range must be positive, got {range_cm}")
    return hbar_cgs / (c_cgs * range_cm)


def mass_to_inverse_length(mass_g: float) -> float:
    """Yukawa range in cm equivalent to a photon mass in grams."""
    if mass_g <= 0.0:
        raise DomainError(f"photon mass must be positive, got {mass_g}")
    return hbar_cgs / (c_cgs * mass_g)
