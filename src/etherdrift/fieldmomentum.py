"""Interaction field momentum of a point charge beside a long solenoid.

The charge supplies E, the solenoid interior supplies the uniform axial B,
and the interaction momentum P_e = (1/4 pi c) int E x B d^3x lives entirely
inside the solenoid bore.  The closed form for the ideal infinite solenoid
is (q/c) A evaluated at the charge, A_phi = B a^2/(2 d); the quadrature
here exists to confirm it and to expose its own convergence behaviour.

Everything in this module is Gaussian: cm, gauss, esu, erg, g cm/s.  The
integration domain is truncated at |z| <= Lambda; the neglected tail falls
off like the 1/z^2 decay of E, so the truncation error scales as 1/Lambda^2.
The azimuthal midpoint error is spectrally small, but the radial and axial
ones are second order, and the axial one is large on coarse grids: for
a = 1, d = 3 and the default Lambda the (8, 16, 128) grid is 5.2e-3 off the
truncated integral, against a truncation error of 2.0e-4.  Truncation
dominates only on fine grids.

convergence_study halves Lambda and the axial cell count together, so its
levels keep one axial cell: the levels that share a folded z lattice are
summed in one pass over its nodes, each giving bit for bit what it gives
alone.

The interaction *energy* is not computed: for this source pair it vanishes
identically, because the charge carries no B and the static solenoid
carries no E, so the cross energy density (E1.E2 + B1.B2)/4 pi is zero at
every point even though the cross momentum is not.

numpy is imported inside the quadrature functions; importing this module or
building a geometry does not load it.
"""

from __future__ import annotations

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

#: most grid nodes one quadrature may sum: a bound on its work (the sum
#: itself runs in fixed blocks, so its memory does not grow with the grid)
MAX_GRID_NODES = 2 ** 24

#: doubles per temporary of the blocked axial sum in _momentum_on_grid
_BLOCK = 1 << 16


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
        # the error estimate compares the grid with its half and its quarter;
        # below 4 cells an axis cannot be halved twice, the coarser grids
        # coincide with it and the refinement difference reads 0
        for n in self.grid:
            if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 4:
                raise InputError(f"grid dimensions must be integers >= 4, got {self.grid!r}")
        if math.prod(self.grid) > MAX_GRID_NODES:
            raise InputError(f"grid {list(self.grid)} has {math.prod(self.grid)} nodes, "
                             f"more than the {MAX_GRID_NODES} one quadrature may sum")

    @property
    def half_length(self) -> float:
        if self.truncation_halflength is not None:
            return self.truncation_halflength
        return DEFAULT_TRUNCATION_FACTOR * max(self.a, self.d)


def _momentum_on_grid(geom: SolenoidChargeGeometry, nr: int, nphi: int, nz: int,
                      half_length: float) -> np.ndarray:
    """Midpoint product rule over the bore cylinder, |z| <= half_length.

    The nr x nphi x nz midpoint nodes are summed folded by two mirrors.
    phi -> 2 pi - phi maps the azimuthal nodes onto each other: the disk
    arrays hold the first ceil(nphi/2) of them, a mirrored pair weighs 2 and
    the phi = pi node of an odd nphi weighs 1.  y is odd under this mirror,
    so P_x cancels in pairs and is exactly 0.  z -> -z does the same for the
    axial nodes: ceil(nz/2) of them, a pair weighs 2 and the z = 0 node of
    an odd nz weighs 1.  For each disk node the axial sum
    S = sum w_z (rho^2 + z^2)^(-3/2) runs in blocks of about _BLOCK doubles,
    so no temporary grows with the grid.
    """
    return _momentum_on_grids(geom, nr, nphi, [(nz, half_length)])[0]


def _momentum_on_grids(geom: SolenoidChargeGeometry, nr: int, nphi: int,
                       axial: list) -> list:
    """_momentum_on_grid for each (nz, half_length) of axial, on one disk.

    Grids with the same axial cell dz = 2 half_length/nz and the same
    parity of nz share their folded z nodes: a shorter one's nodes are the
    first ceil(nz/2) of the longest one's.  Each such lattice is summed
    once, and each grid's result is bit for bit what it gives alone.
    """
    import numpy as np

    dr = geom.a / nr
    dphi = 2.0 * math.pi / nphi
    r = ((np.arange(nr) + 0.5) * dr)[:, None]
    phi = (np.arange((nphi + 1) // 2) + 0.5) * dphi
    w_phi = np.full(phi.size, 2.0)
    if nphi % 2:
        w_phi[-1] = 1.0
    x_rel = r * np.cos(phi) - geom.d
    y = r * np.sin(phi)
    rho2 = (x_rel * x_rel + y * y).ravel()

    # (dz, odd nz) -> the node counts of the grids on that lattice
    counts = {}
    for nz, half_length in axial:
        counts.setdefault((2.0 * half_length / nz, nz % 2), set()).add((nz + 1) // 2)
    sums = {key: _axial_sums(rho2, *key, group) for key, group in counts.items()}

    # (E x B) with B = B zhat: (E_y B, -E_x B, 0); E = q rvec / s^3
    coeff = geom.q * geom.B / (4.0 * math.pi * c_cgs)
    x_flat = x_rel.ravel()
    disk_weight = (r * w_phi).ravel()
    momenta = []
    for nz, half_length in axial:
        dz = 2.0 * half_length / nz
        weight = disk_weight * (dr * dphi * dz)
        p_y = -coeff * float(np.sum(x_flat * sums[dz, nz % 2][(nz + 1) // 2] * weight))
        momenta.append(np.array([0.0, p_y, 0.0]))
    return momenta


def _axial_sums(rho2: np.ndarray, dz: float, odd: int, counts: set) -> dict:
    """S = sum w_z (rho^2 + z^2)^(-3/2) over the first c folded z nodes of
    one lattice, for each disk node and each c in counts.

    The nodes sit 0, 1, 2, ... cells from z = 0 for an odd nz, 0.5, 1.5, ...
    for an even one.  Each block's terms are formed once and every count
    sums its leading columns, so a count's sums match a lattice of that
    length alone: same column blocks, same pairwise sum in each.
    """
    import numpy as np

    n = max(counts)
    z = (np.arange(n) + (0.0 if odd else 0.5)) * dz
    z2 = z * z
    w_z = np.full(n, 2.0)
    if odd:
        w_z[0] = 1.0
    sums = {count: np.zeros(rho2.size) for count in counts}
    rows = max(1, _BLOCK // n)
    cols = min(n, _BLOCK)
    for i in range(0, rho2.size, rows):
        for k in range(0, n, cols):
            t = rho2[i:i + rows, None] + z2[k:k + cols]
            s3 = np.sqrt(t)
            s3 *= t
            np.divide(w_z[k:k + cols], s3, out=s3)
            for count, axial in sums.items():
                if count > k:
                    axial[i:i + rows] += s3[:, :count - k].sum(axis=1)
    return sums


class MomentumResult(NamedTuple):
    P_e: np.ndarray
    estimated_quadrature_error: float


def integrate_field_momentum(geom: SolenoidChargeGeometry) -> MomentumResult:
    """Quadrature of the momentum density over the truncated bore.

    The error estimate combines a Richardson difference from one grid
    halving with the analytic 1/Lambda^2 tail of the truncated axial
    integral.  A second halving tells whether the differences shrink; where
    they do not, the coarse grids are not yet asymptotic (the radial and
    axial midpoint errors differ in sign and cancel unevenly there), and the
    whole difference stands as the estimate instead of a third of it.
    """
    import numpy as np

    half_length = geom.half_length
    nr, nphi, nz = geom.grid
    grids = [(nr, nphi, nz),
             (max(2, nr // 2), max(2, nphi // 2), max(2, nz // 2)),
             (max(2, nr // 4), max(2, nphi // 4), max(2, nz // 4))]
    p_fine, p_half, p_quarter = (
        _momentum_on_grid(geom, *g, half_length) for g in grids)
    scale = float(np.linalg.norm(p_fine))
    e_fine = float(np.linalg.norm(p_fine - p_half))
    e_coarse = float(np.linalg.norm(p_half - p_quarter))
    richardson = e_fine / 3.0 if e_fine <= e_coarse else e_fine
    tail = scale * (math.sqrt(half_length ** 2 + geom.d ** 2) / half_length - 1.0)
    return MomentumResult(p_fine, richardson + tail)


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
    """Joint truncation/axial-grid refinement toward the geometry's own setup.

    Level k halves Lambda and the axial cell count (levels-1-k) times, so
    the axial cell size stays fixed while the truncation error, which
    dominates, shrinks by about 4x per level; the last level is the
    geometry as configured.  A coarser level's folded z nodes are then the
    first of the finer ones' wherever nz halves exactly, so the levels on
    one lattice are summed in a single pass (_momentum_on_grids); a level
    whose nz was rounded, floored at 2 or changed parity has its own.  The
    relative error is undefined, a DomainError, where the closed form is 0.
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
    analytic_norm = float(np.linalg.norm(analytic))
    if analytic_norm == 0.0:
        raise DomainError(f"the closed-form momentum q B a^2/(2 d c) is 0 for q={geom.q}, "
                          f"B={geom.B}, a={geom.a}, d={geom.d}: the relative error is "
                          "undefined for a zero momentum")
    axial = []
    for k in range(levels):
        scale = 2.0 ** (k - (levels - 1))
        axial.append((max(2, round(nz * scale)), geom.half_length * scale))
    rows = []
    for (nz_k, half_length), p in zip(axial, _momentum_on_grids(geom, nr, nphi, axial)):
        rel = float(np.linalg.norm(p - analytic)) / analytic_norm
        rows.append(ConvergenceRow(half_length, (nr, nphi, nz_k),
                                   float(np.linalg.norm(p)), rel, p))
    return rows
