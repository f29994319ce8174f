"""Physical constants, their profiles, and photon range/mass conversion.

All formulas in the package work in SI internally.  The Gaussian (cgs-esu)
side exists because the older drift and photon-mass literature quotes fluxes
in G cm^2, charges in esu and masses in grams, and the published bounds are
only reproducible digit for digit if the same rounded inputs are used.  The
``paper`` constants profile therefore keeps the rounded flux quantum
2.067e-15 Wb, while ``modern`` uses h/2e from the exact SI defining values.
A profile is always named by its caller (``get_constants``; the CLI's
``--profile``, ``paper`` by default): no environment setting picks one.
``PhysicalConstants.table`` lists a profile's five constants in SI or
Gaussian units, and a Yukawa range in cm converts to a photon mass in
grams.
"""

import enum
import math

from ._record import Record
from .errors import DomainError, InputError


class UnitSystem(enum.Enum):
    SI = "si"
    GAUSSIAN = "gaussian"


#: exact SI defining values (SI 2019), the same in every profile
c = 299792458.0             # m/s
h = 6.62607015e-34          # J s
e_charge = 1.602176634e-19  # C
hbar = h / (2.0 * math.pi)
c_cgs = c * 100.0
hbar_cgs = hbar * 1.0e7

#: constant -> (SI unit, Gaussian unit, SI -> Gaussian factor)
_UNITS = {
    "c": ("m/s", "cm/s", 100.0),
    "h": ("J s", "erg s", 1.0e7),
    "hbar": ("J s", "erg s", 1.0e7),
    "e_charge": ("C", "esu", 2.99792458e9),
    "flux_quantum": ("Wb", "G cm^2", 1.0e8),
}


class PhysicalConstants(Record):
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

    def _si_values(self) -> dict:
        """The five constants in SI, in table order."""
        return {"c": c, "h": h, "hbar": hbar, "e_charge": e_charge,
                "flux_quantum": self.flux_quantum}

    def table(self, system: UnitSystem = UnitSystem.SI) -> list:
        gaussian = system is UnitSystem.GAUSSIAN
        rows = []
        for name, value in self._si_values().items():
            si_unit, gaussian_unit, factor = _UNITS[name]
            rows.append({"name": name,
                         "value": value * factor if gaussian else value,
                         "unit": gaussian_unit if gaussian else si_unit,
                         "system": system.value,
                         "profile": self.profile})
        return rows

    def fingerprint(self) -> str:
        import hashlib  # only --version asks for it: off the cold import path

        payload = ",".join(
            f"{name}={value!r}" for name, value in sorted(self._si_values().items()))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


MODERN = PhysicalConstants(profile="modern", flux_quantum=h / (2.0 * e_charge))

PAPER = PhysicalConstants(profile="paper", flux_quantum=2.067e-15)

_PROFILES = {"modern": MODERN, "paper": PAPER}


def get_constants(profile: str) -> PhysicalConstants:
    """Look up a constants profile by name: ``"modern"`` or ``"paper"``."""
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
    if not 0.0 < range_cm:
        raise DomainError(f"Yukawa range must be positive, got {range_cm}")
    return hbar_cgs / (c_cgs * range_cm)
