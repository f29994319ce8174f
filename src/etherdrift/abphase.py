"""Interaction-momentum fields and AB-type phase accumulation.

A wavefunction threading a region with interaction em momentum Q picks up
the phase integral of Q along its path.  Three field kinds cover the cases
of interest: a uniform Q, the Fresnel-drag momentum of a moving medium,
and the vector potential of an idealized flux line (the magnetic AB
geometry).  Phases are returned unwrapped; reduce mod 2 pi at the detector
if needed.

Positions are in meters and Q in rad/m throughout; the one Gaussian-form
helper (magnetic_ab_phase) says so explicitly.  numpy is imported inside
the functions that use arrays, so importing this module does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, InputError, SingularPathError
from .units import c, c_cgs, e_charge, hbar, hbar_cgs

if TYPE_CHECKING:  # annotations only
    import numpy as np


def _dot(a, b):
    """Row-wise 3-vector dot product in a fixed order: a row rounds alike anywhere."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def fresnel_momentum(omega: float, n: float, u) -> np.ndarray:
    """Fresnel-Fizeau interaction momentum Q = -(omega/c^2)(n^2 - 1) u, rad/m."""
    import numpy as np

    if omega <= 0.0:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    if n < 1.0:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    u = np.asarray(u, dtype=float)
    return -(omega / (c * c)) * (n * n - 1.0) * u


class UniformQ(NamedTuple):
    """Spatially constant interaction momentum (rad/m)."""

    q: tuple

    def q_at(self, points) -> np.ndarray:
        import numpy as np

        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.asarray(self.q, dtype=float), points.shape).copy()

    def segment_integrals(self, p0, p1) -> np.ndarray:
        """Exact int Q . dl over each segment p0[i] -> p1[i]: (p1 - p0) . q."""
        import numpy as np

        return _dot(p1 - p0, np.asarray(self.q, dtype=float))


class FresnelFlow(NamedTuple):
    """Uniformly moving medium of index n seen by light of frequency omega."""

    omega: float
    n: float
    u: tuple

    def q_vector(self) -> np.ndarray:
        return fresnel_momentum(self.omega, self.n, self.u)

    def q_at(self, points) -> np.ndarray:
        import numpy as np

        points = np.asarray(points, dtype=float)
        return np.broadcast_to(self.q_vector(), points.shape).copy()

    def segment_integrals(self, p0, p1) -> np.ndarray:
        """Exact int Q . dl over each segment p0[i] -> p1[i]: (p1 - p0) . Q."""
        return _dot(p1 - p0, self.q_vector())


class SolenoidVectorPotential(NamedTuple):
    """Idealized flux line: A_phi = flux/(2 pi rho) off axis, Q = coupling * A.

    ``coupling`` is the charge-to-action ratio (e/hbar in SI).  It has no
    default because it depends on the constants profile (pi/Phi_0, see
    PhysicalConstants.charge_over_hbar); the CLI takes it from the run's
    profile.  The finite-core interior belongs to the fieldmomentum module;
    for phases only the enclosed flux matters.
    """

    flux: float
    coupling: float
    axis_point: tuple = (0.0, 0.0, 0.0)
    axis_direction: tuple = (0.0, 0.0, 1.0)

    def _axis(self):
        import numpy as np

        point = np.asarray(self.axis_point, dtype=float)
        direction = np.asarray(self.axis_direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise DomainError("solenoid axis direction must be nonzero")
        return point, direction / norm

    def _perp(self, points):
        """Positions relative to the axis point, axial component removed."""
        import numpy as np

        point, axis = self._axis()
        rel = np.atleast_2d(np.asarray(points, dtype=float)) - point
        return rel - _dot(rel, axis)[:, None] * axis, axis

    def q_at(self, points) -> np.ndarray:
        import numpy as np

        rel_perp, axis = self._perp(points)
        rho2 = _dot(rel_perp, rel_perp)
        if np.any(rho2 == 0.0):
            raise SingularPathError("field evaluated on the flux line")
        # azimuthal direction axis x rho_hat; magnitude flux/(2 pi rho)
        phi_hat_scaled = np.cross(axis, rel_perp) / rho2[:, None]
        return (self.coupling * self.flux / (2.0 * math.pi)) * phi_hat_scaled

    def segment_integrals(self, p0, p1) -> np.ndarray:
        """Exact int Q . dl over each segment p0[i] -> p1[i] (Aharonov & Bohm 1959).

        Q . dl = coupling (flux/2 pi) dphi, and a segment sweeps the signed
        angle atan2(axis . (r0 x r1), r0 . r1), r0 and r1 its endpoints'
        offsets from the axis perpendicular to it.  A segment that meets the
        flux line raises SingularPathError."""
        import numpy as np

        r0, axis = self._perp(p0)
        r1, _ = self._perp(p1)
        seg = r1 - r0
        seg2 = _dot(seg, seg)
        # parameter of the point nearest the axis; 0 for a segment parallel to it
        t = np.clip(-_dot(r0, seg) / np.where(seg2 == 0.0, 1.0, seg2), 0.0, 1.0)
        dist = np.linalg.norm(r0 + t[:, None] * seg, axis=1)
        scale = np.maximum(1.0, np.linalg.norm(np.stack([r0, r1]), axis=2).max(axis=0))
        if np.any(dist <= 1e-12 * scale):
            raise SingularPathError("integration path passes through the flux line")
        swept = np.arctan2(_dot(np.cross(r0, r1), axis), _dot(r0, r1))
        return (self.coupling * self.flux / (2.0 * math.pi)) * swept


class Path:
    """Piecewise-linear integration contour (vertices in meters)."""

    def __init__(self, vertices):
        import numpy as np

        vertices = np.asarray(vertices, dtype=float)
        # an empty list has shape (0,): count its vertices before its shape
        if vertices.size == 0 or (vertices.ndim == 2 and vertices.shape[0] < 2):
            raise InputError("a path needs at least 2 vertices")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InputError("path vertices must be an (N, 3) array of points")
        if not np.all(np.isfinite(vertices)):
            raise InputError("path vertices must be finite")
        if np.any(np.all(np.diff(vertices, axis=0) == 0.0, axis=1)):
            raise InputError("consecutive path vertices must be distinct")
        self.vertices = vertices

    def reversed(self) -> "Path":
        return Path(self.vertices[::-1])


def phase_line_integral(field, path: Path) -> float:
    """Accumulated phase along the path, math.fsum over segments of int Q . dl.

    Every field kind integrates all segments in closed form in one vectorised
    pass (``segment_integrals``): exact up to rounding at any distance from a
    flux line.  A path through a flux line raises SingularPathError, and a
    sum that leaves the double range raises DomainError.
    """
    vertices = path.vertices
    segments = field.segment_integrals(vertices[:-1], vertices[1:]).tolist()
    try:
        return math.fsum(segments)
    except (OverflowError, ValueError):  # fsum raises where sum() gives inf or nan
        raise DomainError("the phase leaves the double range: its segment "
                          "integrals overflow") from None


def scalar_phase(potential_samples, dt: float, charge: float | None = None) -> float:
    """Scalar AB phase (e/hbar) int V(t) dt from uniform samples of V."""
    import numpy as np

    samples = np.asarray(potential_samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise InputError("need at least 2 uniformly spaced potential samples")
    if dt <= 0.0:
        raise InputError(f"sample spacing must be positive, got {dt}")
    if charge is None:
        charge = e_charge
    integral = float(np.trapezoid(samples, dx=dt))
    return charge * integral / hbar


def magnetic_ab_phase(a_magnitude: float, l_path: float,
                      charge_esu: float | None = None) -> float:
    """Magnetic AB phase e A L / (c hbar) in Gaussian units (G cm, cm, esu)."""
    if l_path <= 0.0:
        raise DomainError(f"path length must be positive, got {l_path}")
    if charge_esu is None:
        charge_esu = e_charge * c_cgs / 10.0
    return charge_esu * a_magnitude * l_path / (c_cgs * hbar_cgs)

