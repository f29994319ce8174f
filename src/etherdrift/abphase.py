"""Interaction-momentum fields and AB-type phase accumulation.

A wavefunction threading a region with interaction em momentum Q picks up
the phase integral of Q along its path.  Three field kinds cover the cases
of interest: a uniform Q, the Fresnel-drag momentum of a moving medium,
and the vector potential of an idealized flux line along z (the magnetic
AB geometry).  Phases are returned unwrapped; reduce mod 2 pi at the
detector if needed.

Positions are in meters and Q in rad/m throughout.  A path is a tuple of
float 3-tuples.  A constant Q's phase is one closed form over the path's
end points and a solenoid's a sum of closed-form segment integrals, all in
plain floats, so a phase never loads numpy.  Only the field samplers (``q_at``)
compute on arrays, and they import numpy inside the call.
"""

import math
import operator
import sys
from itertools import chain
from typing import TYPE_CHECKING

from ._record import Record, check_vector
from .errors import DomainError, InputError, SingularPathError
from .units import c

if TYPE_CHECKING:  # annotations only
    import numpy as np


def _constant_q_phase(q, vertices) -> float:
    """int Q . dl of a constant Q along a path: Q . (p_last - p_first),
    whatever the path between, correctly rounded.

    Every double is a ratio of integers whose denominator is a power of
    two, so the three products are summed exactly in integers and rounded
    once, by int true division: a closed path gives 0, and the phases of a
    path's pieces add up to the whole's to within their roundings.  A Q or
    a phase beyond the double range raises DomainError."""
    if not all(map(math.isfinite, q)):
        raise DomainError(f"the interaction momentum Q is not finite: {q}")
    num, den = 0, 1  # the phase is num/den
    for x, a, b in zip(q, vertices[0], vertices[-1]):
        (nx, dx), (na, da), (nb, db) = (x.as_integer_ratio(), a.as_integer_ratio(),
                                        b.as_integer_ratio())
        n, d = nx * (nb * da - na * db), dx * da * db  # x (b - a) = n/d
        if d > den:
            num, den = num * (d // den), d
        num += n * (den // d)
    try:
        return num / den
    except OverflowError:
        raise _not_finite(-math.inf if num < 0 else math.inf) from None


def _not_finite(phase) -> DomainError:
    """The error for a phase beyond the double range: inf, -inf or nan."""
    return DomainError(f"the phase is not a finite number ({phase}): it leaves the double range")


def fresnel_momentum(omega: float, n: float, u) -> tuple:
    """Fresnel-Fizeau interaction momentum Q = -(omega/c^2)(n^2 - 1) u, rad/m.

    n^2 - 1 is formed as (n - 1)(n + 1), exact to rounding for n near 1."""
    if not 0.0 < omega:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    if not 1.0 <= n:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    scale = -(omega / (c * c)) * ((n - 1.0) * (n + 1.0))
    ux, uy, uz = u
    return (scale * ux, scale * uy, scale * uz)


class UniformQ(Record):
    """Spatially constant interaction momentum (rad/m)."""

    q: tuple

    def _check(self):
        check_vector("interaction momentum q", self.q)

    def q_at(self, points) -> "np.ndarray":
        import numpy as np

        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.asarray(self.q, dtype=float), points.shape).copy()

    def path_integral(self, vertices) -> float:
        return _constant_q_phase(tuple(map(float, self.q)), vertices)


class FresnelFlow(Record):
    """Uniformly moving medium of index n seen by light of frequency omega."""

    omega: float
    n: float
    u: tuple

    def _check(self):
        check_vector("medium velocity u", self.u)

    def q_vector(self) -> tuple:
        return fresnel_momentum(self.omega, self.n, self.u)

    def q_at(self, points) -> "np.ndarray":
        import numpy as np

        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.asarray(self.q_vector()), points.shape).copy()

    def path_integral(self, vertices) -> float:
        return _constant_q_phase(self.q_vector(), vertices)


#: 2 pi to 128 bits: 2 pi = _TWO_PI_128 / 2**125 within 4e-39
_TWO_PI_128 = 0xC90FDAA22168C234C4C6628B80DC1CD1


#: offsets below this (m) keep every product of the segment loop in range
_FAR = 2.0 ** 500


def _scaled_far(segments):
    """The solenoid's segments, each one with an offset beyond _FAR scaled
    by the power of two that puts its largest coordinate in [1, 2).

    Scaling by a power of two is exact, and the swept angle and the
    nearest-point parameter do not depend on scale.  A scaled segment's
    larger radius is at least 1, so the flux-line check's floor of 1 m
    (below 2**-499 in the scaled units) does not act on it either way.
    Each segment takes its own scale: one scale for the whole path would
    push the offsets of its segments near the line below the double
    range.  A segment with an infinite or NaN offset is left as it is."""
    for (u0, v0), (u1, v1), r0, r1 in segments:
        if not max(r0, r1) <= _FAR:
            big = max(abs(u0), abs(v0), abs(u1), abs(v1))
            if big < math.inf:
                shift = 1 - math.frexp(big)[1]
                u0, v0, u1, v1 = (math.ldexp(x, shift) for x in (u0, v0, u1, v1))
                r0, r1 = math.sqrt(u0 * u0 + v0 * v0), math.sqrt(u1 * u1 + v1 * v1)
        yield (u0, v0), (u1, v1), r0, r1


class SolenoidVectorPotential(Record):
    """Idealized flux line along +z through ``axis_point``, whose z is
    ignored: A_phi = flux/(2 pi rho) off the line, Q = coupling * A.

    ``coupling`` is the charge-to-action ratio (e/hbar in SI).  It has no
    default because it depends on the constants profile (pi/Phi_0, see
    PhysicalConstants.charge_over_hbar); the CLI takes it from the run's
    profile.  The finite-core interior belongs to the fieldmomentum module;
    a phase depends only on the enclosed flux and the path's winding, so a
    line along -z is this one with the path reversed.
    """

    flux: float
    coupling: float
    axis_point: tuple = (0.0, 0.0, 0.0)

    def _check(self):
        check_vector("flux-line point axis_point", self.axis_point)

    def _phase_per_radian(self):
        """coupling flux/(2 pi) as hi + lo, two doubles within 1e-32 of it.

        hi is the quotient of exact integers, rounded once; lo is the rest.
        The three float operations round a single double by up to about
        1.2 ulp, and every segment of a loop would carry that error.  A
        non-finite input or a quotient beyond the double range takes the
        float operations."""
        try:
            (a, b), (p, q) = (float(self.coupling).as_integer_ratio(),
                              float(self.flux).as_integer_ratio())
            num, den = (a * p) << 125, b * q * _TWO_PI_128
            hi = num / den  # true division of ints is correctly rounded
            h, g = hi.as_integer_ratio()
            return hi, (num * g - h * den) / (den * g)
        except (OverflowError, ValueError):
            return self.coupling * self.flux / (2.0 * math.pi), 0.0

    def q_at(self, points) -> "np.ndarray":
        import numpy as np

        points = np.atleast_2d(np.asarray(points, dtype=float))
        px, py, _ = self.axis_point
        x, y = points[:, 0] - px, points[:, 1] - py
        rho2 = x * x + y * y
        if np.any(rho2 == 0.0):
            raise SingularPathError("field evaluated on the flux line")
        # azimuthal direction z x rho_hat = (-y, x, 0)/rho; magnitude flux/(2 pi rho)
        return (self.coupling * self.flux / (2.0 * math.pi)) * np.column_stack(
            [-y / rho2, x / rho2, np.zeros_like(rho2)])

    def segment_integrals(self, vertices) -> list:
        """Exact int Q . dl over each segment between consecutive vertices
        (Aharonov & Bohm 1959).

        Q . dl = coupling (flux/2 pi) dphi, and a segment sweeps the signed
        angle atan2(r0 x r1, r0 . r1), r0 and r1 its endpoints' (x, y)
        offsets from the line, each formed once per vertex.  The angle is scaled
        by coupling flux/(2 pi) carried in two doubles, so a closed loop's
        phase is coupling flux times its winding to within about 1.5 ulp.
        A segment that comes within 1e-12 max(1, |r0|, |r1|) of the flux
        line raises SingularPathError.  A segment more than 2**500 m from
        the line is first scaled by a power of two (``_scaled_far``), so its
        products do not overflow at any finite distance."""
        hi, lo = self._phase_per_radian()
        px, py, _ = self.axis_point
        offsets = [(x - px, y - py) for x, y, _ in vertices]
        radii = [math.sqrt(u * u + v * v) for u, v in offsets]
        segments = zip(offsets, offsets[1:], radii, radii[1:])
        if not max(radii, default=0.0) <= _FAR:  # one check per path
            segments = _scaled_far(segments)
        phases = []
        for (u0, v0), (u1, v1), r0, r1 in segments:
            du, dv = u1 - u0, v1 - v0
            length2 = du * du + dv * dv
            # parameter of the point nearest the line; 0 for a segment along z
            t = min(max(-(u0 * du + v0 * dv) / (length2 or 1.0), 0.0), 1.0)
            nu, nv = u0 + t * du, v0 + t * dv
            if math.sqrt(nu * nu + nv * nv) <= 1e-12 * max(1.0, r0, r1):
                raise SingularPathError("integration path passes through the flux line")
            swept = math.atan2(u0 * v1 - v0 * u1, u0 * u1 + v0 * v1)
            phases.append(hi * swept + lo * swept)
        return phases

    def path_integral(self, vertices) -> float:
        """math.fsum of the segment integrals.

        Where coupling flux/(2 pi) leaves the double range, the segments are
        inf, or nan where one sweeps no angle, and fsum passes them on: a
        phase that is not finite raises DomainError."""
        segments = self.segment_integrals(vertices)
        try:
            phase = math.fsum(segments)
        except (OverflowError, ValueError):  # fsum raises where sum() gives inf or nan
            raise DomainError("the phase leaves the double range: its segment "
                              "integrals overflow") from None
        if not math.isfinite(phase):
            raise _not_finite(phase)
        return phase


#: what every malformed vertex list is told
_NOT_A_PATH = "path must be an array of [x, y, z] vertices of finite numbers"


class Path:
    """Piecewise-linear integration contour (vertices in meters).

    ``vertices`` is a tuple of float 3-tuples.  Each vertex is checked and
    converted in one pass: 3 coordinates, each a real number (never a
    bool) within the double range."""

    def __init__(self, vertices):
        if isinstance(vertices, (str, dict)):  # iterable, but no list of points
            raise InputError(_NOT_A_PATH)
        try:
            rows = [(x, y, z) for x, y, z in vertices]
        except (TypeError, ValueError):  # not iterable, or not 3 coordinates
            raise InputError(_NOT_A_PATH) from None
        flat = list(chain.from_iterable(rows))
        kinds = set(map(type, flat))
        if kinds <= {float}:
            finite = all(map(math.isfinite, flat))
        else:
            # ints, or numpy's scalars; never a bool.  An int compares with
            # the bound exactly, and NaN fails it
            real = kinds <= {float, int}
            if not real:
                import numbers  # only here: a path of floats and ints never loads it

                real = all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                           for x in flat)
            finite = real and all(abs(x) <= sys.float_info.max for x in flat)
        if not finite:
            raise InputError(_NOT_A_PATH)
        if kinds != {float}:
            coordinates = iter(map(float, flat))
            rows = list(zip(coordinates, coordinates, coordinates))
        if len(rows) < 2:
            raise InputError("a path needs at least 2 vertices")
        if any(map(operator.eq, rows, rows[1:])):  # -0.0 == 0.0
            raise InputError("consecutive path vertices must be distinct")
        self.vertices = tuple(rows)


def phase_line_integral(field, path: Path) -> float:
    """Accumulated phase along the path, int Q . dl.

    Every field kind integrates in closed form (``path_integral``), exact up
    to rounding at any distance from a flux line: a constant Q over the
    path's end points, a solenoid segment by segment, summed by math.fsum.
    A path through a flux line raises SingularPathError, and a phase that
    leaves the double range raises DomainError.
    """
    return field.path_integral(path.vertices)
