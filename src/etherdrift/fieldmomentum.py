"""Interaction field momentum of a point charge beside a long solenoid.

The charge supplies E, the solenoid interior supplies the uniform axial B,
and the interaction momentum P_e = (1/4 pi c) int E x B d^3x lives entirely
inside the solenoid bore.  The closed form for the ideal infinite solenoid
is (q/c) A evaluated at the charge, A_phi = B a^2/(2 d).

Everything in this module is Gaussian: cm, gauss, esu, erg, g cm/s.  The
integration domain is truncated at |z| <= Lambda.  With the charge at
(d, 0, 0) and B along +z, the axial integral has a closed form, and it
splits the truncated momentum into the ideal one and a tail:

    P_y = (q B / 4 pi c) int_disk (d - x) 2 Lambda / (rho^2 s) dA
        = (q B / 4 pi c) [2 pi a^2 / d - int_disk (d - x) 2 / (s (s + Lambda)) dA],

where rho^2 = (d - x)^2 + y^2 and s = sqrt(rho^2 + Lambda^2).  The first
term is the closed form (q/c) A; the tail, the truncation error, falls off
like 1/Lambda^2.  P_x and P_z vanish by symmetry and are returned as
exact zeros.  Only the tail is summed.  Its integrand is smooth on the
disk (s >= Lambda), so a Gauss-Legendre rule in r times the periodic
trapezoid rule in phi converges spectrally: at a = 1 the (16, 32) rule
holds it to 1e-14 of P_e even at Lambda = a with d = 1.05.

A grid is (n_r, n_phi, n_z): n_r Gauss-Legendre nodes in r and n_phi
trapezoid nodes in phi.  n_z is checked (an integer >= 4) and echoed with
each convergence level, but no quadrature uses it any more.

The interaction *energy* is not computed: for this source pair it vanishes
identically, because the charge carries no B and the static solenoid
carries no E, so the cross energy density (E1.E2 + B1.B2)/4 pi is zero at
every point even though the cross momentum is not.

numpy is imported inside the quadrature functions; importing this module or
building a geometry does not load it.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

from ._record import Checked
from .errors import DomainError, InputError
from .units import c_cgs

if TYPE_CHECKING:  # annotations only
    import numpy as np

#: default axial truncation, in units of max(a, d)
DEFAULT_TRUNCATION_FACTOR = 50.0

#: reference grid (radial, azimuthal, axial) used by the oracle comparison
REFERENCE_GRID = (16, 32, 512)

#: most nodes n_r n_phi n_z a grid may have: the input domain of grid
MAX_GRID_NODES = 2 ** 24

#: most radial nodes: a Gauss-Legendre rule costs O(n_r^2) to build
MAX_RADIAL_NODES = 1024


class _SolenoidChargeFields(NamedTuple):
    a: float
    B: float
    d: float
    q: float
    truncation_halflength: float | None = None
    grid: tuple = REFERENCE_GRID


class SolenoidChargeGeometry(Checked, _SolenoidChargeFields):
    """Solenoid of radius a (cm) and interior field B (gauss) along +z, with
    a point charge q (esu) at (d, 0, 0), d > a, outside the bore."""

    __slots__ = ()

    def _check(self):
        # each check is written "not lo < x" so that NaN fails it too
        if not 0.0 < self.a:
            raise DomainError(f"solenoid radius must be positive, got {self.a}")
        if not self.a < self.d:
            raise DomainError(
                f"charge must sit outside the solenoid (d > a), got d={self.d}, a={self.a}")
        if self.truncation_halflength is not None and not 0.0 < self.truncation_halflength:
            raise DomainError("truncation half-length must be positive")
        if len(self.grid) != 3:
            raise InputError(f"grid must have 3 dimensions, got {self.grid!r}")
        # the error estimate compares the disk rule with its half, which
        # needs 2 nodes per axis; n_z keeps the same check
        for n in self.grid:
            if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 4:
                raise InputError(f"grid dimensions must be integers >= 4, got {self.grid!r}")
        if math.prod(self.grid) > MAX_GRID_NODES:
            raise InputError(f"grid {list(self.grid)} has {math.prod(self.grid)} nodes, "
                             f"more than the {MAX_GRID_NODES} a grid may have")
        if self.grid[0] > MAX_RADIAL_NODES:
            raise InputError(f"grid {list(self.grid)} has {self.grid[0]} radial nodes, "
                             f"more than the {MAX_RADIAL_NODES} a Gauss-Legendre rule "
                             "is built for")

    @property
    def half_length(self) -> float:
        if self.truncation_halflength is not None:
            return self.truncation_halflength
        return DEFAULT_TRUNCATION_FACTOR * max(self.a, self.d)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence, from the guess
    cos(pi (k - 1/4)/(n + 1/2)); the weights are 2/((1 - x^2) P_n'(x)^2).
    The arrays are shared by every caller, so they are read-only.
    """
    import numpy as np

    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if float(np.max(np.abs(step))) < 1e-12:
            break
    # the last step was quadratically small: x is converged to rounding
    p, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _momenta(geom: SolenoidChargeGeometry, nr: int, nphi: int,
             half_lengths: list) -> list:
    """(P_e, truncation) for each truncation half-length: the truncation is
    the tail (q B / 4 pi c) int_disk (d - x) 2/(s (s + Lambda)) dA on the
    nr x nphi disk rule, and P_e the closed form minus it.

    The disk nodes are built once; each half-length changes only s.  The
    tail depends on phi through cos(phi) alone, and phi -> 2 pi - phi maps
    the trapezoid nodes (k + 1/2) 2 pi/nphi onto each other: the first
    ceil(nphi/2) of them are summed, a mirrored pair weighing 2 and the
    phi = pi node of an odd nphi 1.
    """
    import numpy as np

    t, w_t = _gauss_legendre(nr)
    r = (0.5 * geom.a * (t + 1.0))[:, None]
    phi = (np.arange((nphi + 1) // 2) + 0.5) * (2.0 * math.pi / nphi)
    w_phi = np.full(phi.size, 2.0)
    if nphi % 2:
        w_phi[-1] = 1.0
    ux = geom.d - r * np.cos(phi)  # d - x
    y = r * np.sin(phi)
    rho2 = ux * ux + y * y
    # dA = r dr dphi with dr = (a/2) dt and dphi = 2 pi/nphi
    weight = (math.pi * geom.a / nphi) * (w_t[:, None] * r) * w_phi * ux
    closed = analytic_solenoid_momentum(geom)[1]
    coeff = geom.q * geom.B / (4.0 * math.pi * c_cgs)
    momenta = []
    for half_length in half_lengths:
        s = np.sqrt(rho2 + half_length * half_length)
        s *= s + half_length
        truncation = coeff * (2.0 * float(np.sum(weight / s)))
        momenta.append((np.array([0.0, closed - truncation, 0.0]), truncation))
    return momenta


class MomentumResult(NamedTuple):
    P_e: np.ndarray
    estimated_quadrature_error: float


def integrate_field_momentum(geom: SolenoidChargeGeometry) -> MomentumResult:
    """P_e over the truncated bore on the geometry's disk rule.

    The error estimate is the change from the rule with half the nodes on
    each disk axis, |rule(n_r, n_phi) - rule(n_r/2, n_phi/2)|, plus the
    truncation share, the summed tail itself rather than P_e - (q/c) A.
    """
    nr, nphi, _ = geom.grid
    ((p, truncation),) = _momenta(geom, nr, nphi, [geom.half_length])
    ((p_half, _),) = _momenta(geom, nr // 2, nphi // 2, [geom.half_length])
    rule = abs(float(p[1] - p_half[1]))
    return MomentumResult(p, rule + abs(truncation))


def analytic_solenoid_momentum(geom: SolenoidChargeGeometry) -> np.ndarray:
    """Closed form (q/c) A at the charge: magnitude q B a^2/(2 d c), azimuthal.

    With the charge on +x and B along +z the azimuthal direction at the
    charge is +y.
    """
    import numpy as np

    if geom.d <= geom.a:
        raise DomainError("closed form requires the charge outside the solenoid")
    magnitude = geom.q * geom.B * geom.a * geom.a / (2.0 * geom.d * c_cgs)
    return np.array([0.0, magnitude, 0.0])


class ConvergenceRow(NamedTuple):
    half_length_cm: float
    grid: tuple
    p_magnitude: float
    rel_error: float
    P_e: np.ndarray


def convergence_study(geom: SolenoidChargeGeometry, levels: int) -> list:
    """Truncation refinement toward the geometry's own setup.

    Level k halves Lambda (levels-1-k) times, so the truncation error
    shrinks by about 4x per level; the last level is the geometry as
    configured.  Every level sums the tail on the same (n_r, n_phi) disk
    rule, and its rel_error is its truncation share |tail|/|(q/c) A|,
    formed from the tail itself: |P_e - (q/c) A| would subtract two
    numbers that agree to the share and lose its last digits.  Each row's
    grid echoes n_z halved with Lambda (at least 2), which no quadrature
    uses.  p_magnitude is |P_y|, never squared.  The relative error is
    undefined, a DomainError, where the closed form is 0.
    """
    import numpy as np

    if levels < 2:
        raise InputError(f"convergence study needs at least 2 levels, got {levels}")
    # below the bore radius the truncated integral is no longer near its
    # limit, and far below it underflows to 0
    coarsest = geom.half_length * 2.0 ** (1 - levels)
    if not coarsest >= geom.a:
        raise DomainError(f"levels={levels} halves the truncation half-length "
                          f"{geom.half_length} to {coarsest} at the coarsest level, "
                          f"below the bore radius {geom.a}")
    nr, nphi, nz = geom.grid
    analytic = analytic_solenoid_momentum(geom)
    if analytic[1] == 0.0:
        raise DomainError(f"the closed-form momentum q B a^2/(2 d c) is 0 for q={geom.q}, "
                          f"B={geom.B}, a={geom.a}, d={geom.d}: the relative error is "
                          "undefined for a zero momentum")
    scales = [2.0 ** (k - (levels - 1)) for k in range(levels)]
    momenta = _momenta(geom, nr, nphi, [geom.half_length * scale for scale in scales])
    rows = []
    for scale, (p, truncation) in zip(scales, momenta):
        grid = (nr, nphi, max(2, round(nz * scale)))
        rows.append(ConvergenceRow(geom.half_length * scale, grid,
                                   abs(float(p[1])), abs(truncation / analytic[1]), p))
    return rows
