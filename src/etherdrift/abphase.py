"""Interaction-momentum fields and AB-type phase accumulation.

A wavefunction threading a region with interaction em momentum Q picks up
the phase integral of Q along its path.  Three field kinds cover the cases
of interest: a uniform Q, the Fresnel-drag momentum of a moving medium,
and the vector potential of an idealized flux line along z (the magnetic
AB geometry).  Phases are returned unwrapped; reduce mod 2 pi at the
detector if needed.

Positions are in meters and Q in rad/m throughout.  A path is a tuple of
float 3-tuples.  Every phase is a closed form over the path's end points,
its products summed exactly in integers (``_exact_sum``): a constant Q's
is Q . (p_last - p_first), and a solenoid's the angle between the end
points plus the whole turns the path makes about the line.  A phase never
loads numpy.  Only the field samplers (``q_at``) compute on arrays, and
they import numpy inside the call.
"""

import math
import operator
import sys
from itertools import chain
from typing import TYPE_CHECKING

from ._record import Record, check_finite, check_vector
from .errors import DomainError, InputError, SingularPathError
from .units import _quotient, c

if TYPE_CHECKING:  # annotations only
    import numpy as np


def _exact_sum(pairs) -> tuple:
    """The sum of x y over pairs of finite doubles (x, y), exactly, as
    (num, den).

    Every double is a ratio of integers whose denominator is a power of
    two, so each product is one too, and the sum is over the largest
    product denominator."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pairs]
    den = max(dx * dy for (_, dx), (_, dy) in ratios)
    return sum(nx * ny * (den // (dx * dy)) for (nx, dx), (ny, dy) in ratios), den


def _rounded(num, den) -> tuple:
    """num/den as (hi, lo), by ``_quotient``; a quotient beyond the double
    range raises DomainError."""
    try:
        return _quotient(num, den)
    except OverflowError:
        raise _not_finite(-math.inf if num < 0 else math.inf) from None


def _constant_q_phase(q, vertices) -> float:
    """int Q . dl of a constant Q along a path: Q . (p_last - p_first),
    whatever the path between, correctly rounded.

    The six products Q . p_last - Q . p_first are summed exactly
    (``_exact_sum``) and rounded once: a closed path gives 0, and the
    phases of a path's pieces add up to the whole's to within their
    roundings.  Q is finite (UniformQ and fresnel_momentum check it); a
    phase beyond the double range raises DomainError."""
    products = chain(zip(q, vertices[-1]), zip(map(operator.neg, q), vertices[0]))
    return _rounded(*_exact_sum(products))[0]


def _not_finite(phase) -> DomainError:
    """The error for a phase beyond the double range: inf, -inf or nan."""
    return DomainError(f"the phase is not a finite number ({phase}): it leaves the double range")


def fresnel_momentum(omega: float, n: float, u) -> tuple:
    """Fresnel-Fizeau interaction momentum Q = -(omega/c^2)(n^2 - 1) u, rad/m.

    n^2 - 1 is formed as (n - 1)(n + 1), exact to rounding for n near 1.
    A NaN or infinite omega, n or component of u is refused by name, and
    so is a Q that leaves the double range, whose inf times 0 is NaN."""
    check_finite(("angular frequency omega", omega), ("refractive index n", n))
    if not 0.0 < omega:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    if not 1.0 <= n:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    ux, uy, uz = u
    check_finite(("medium velocity u_x", ux), ("medium velocity u_y", uy),
                 ("medium velocity u_z", uz))
    scale = -(omega / (c * c)) * ((n - 1.0) * (n + 1.0))
    q = (scale * ux, scale * uy, scale * uz)
    if not all(map(math.isfinite, q)):
        raise DomainError(f"the interaction momentum Q is not finite: {q}")
    return q


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
        check_finite(("angular frequency omega", self.omega), ("refractive index n", self.n))

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


def _check_offsets(vertices, offsets):
    """Refuse the first vertex whose (x, y) offset from the flux line
    leaves the double range, as the difference of a finite vertex and a
    finite point of the line can."""
    for index, (vertex, offset) in enumerate(zip(vertices, offsets)):
        if not all(map(math.isfinite, offset)):
            raise DomainError(f"path vertex {index} {vertex} is offset {offset} m from the "
                              "flux line: the offset leaves the double range")


def _scaled_far(segments):
    """The solenoid's segments, each one with an offset beyond _FAR scaled
    by the power of two that puts its largest coordinate in [1, 2).

    Scaling by a power of two is exact, and the swept angle and the
    nearest-point parameter do not depend on scale.  A scaled segment's
    larger radius is at least 1, so the flux-line check's floor of 1 m
    (below 2**-499 in the scaled units) does not act on it either way.
    Each segment takes its own scale: one scale for the whole path would
    push the offsets of its segments near the line below the double
    range.  Every offset is finite (``_check_offsets``)."""
    for (u0, v0), (u1, v1), r0, r1 in segments:
        if not max(r0, r1) <= _FAR:
            shift = 1 - math.frexp(max(abs(u0), abs(v0), abs(u1), abs(v1)))[1]
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
    line along -z is this one with the path reversed.  A path's phase is
    formed from its end points and its whole turns about the line
    (``path_integral``).
    """

    flux: float
    coupling: float
    axis_point: tuple = (0.0, 0.0, 0.0)

    def _check(self):
        check_finite(("flux", self.flux), ("coupling", self.coupling))
        check_vector("flux-line point axis_point", self.axis_point)

    def _coupling_flux(self) -> tuple:
        """coupling flux exactly, as (num, den) (``_exact_sum``)."""
        return _exact_sum(((float(self.coupling), float(self.flux)),))

    def _phase_per_radian(self, coupling_flux):
        """coupling flux/(2 pi) as hi + lo, two doubles within 1e-32 of it
        relative, from coupling flux's exact (num, den), _coupling_flux().

        hi is the quotient of exact integers, rounded once by ``_quotient``;
        lo is the rest, so hi + lo is within 1e-32 |hi| of it, or within
        2**-1075 where lo or hi is subnormal.  The three float operations
        round a single double by up to about 1.2 ulp, and the angle part of
        every phase would carry that error.  A quotient beyond the double
        range gives hi +-inf, as the float operations would, and lo 0."""
        num, den = coupling_flux
        try:
            return _quotient(num << 125, den * _TWO_PI_128)
        except OverflowError:
            return -math.inf if num < 0 else math.inf, 0.0

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

    def path_integral(self, vertices) -> float:
        """int Q . dl = coupling flux (theta + 2 pi k)/(2 pi) (Aharonov &
        Bohm 1959), theta the angle between the (x, y) offsets r0 and r1 of
        the path's end points from the line, and k its whole turns about it.

        theta = atan2(r0 x r1, r0 . r1), each product summed exactly
        (``_exact_sum``), so theta is the atan2 of one correctly rounded
        ratio, and +0 for a closed path.  k is the integer nearest to (the
        sum of each segment's rough atan2 - theta)/(2 pi): a rough angle
        errs by about 1e-15 rad, so k is exact for any path of fewer than
        about 1e15 segments.  The whole turns, coupling flux k, are summed
        exactly and rounded once, and theta is scaled by coupling
        flux/(2 pi) carried in two doubles: a closed loop gives exactly +0
        where it does not enclose the line, and coupling flux k correctly
        rounded where it does.

        A segment that comes within 1e-12 max(1, |r0|, |r1|) of the flux
        line raises SingularPathError, so a rough angle near +-pi keeps its
        sign.  A segment more than 2**500 m from the line is first scaled by
        a power of two (``_scaled_far``), so its rough products do not
        overflow at any finite distance.  A phase beyond the double range
        raises DomainError, and so does an offset beyond it, naming its
        vertex (``_check_offsets``)."""
        num, den = self._coupling_flux()
        hi, lo = self._phase_per_radian((num, den))
        px, py, _ = self.axis_point
        offsets = [(x - px, y - py) for x, y, _ in vertices]
        radii = [math.sqrt(u * u + v * v) for u, v in offsets]
        segments = zip(offsets, offsets[1:], radii, radii[1:])
        if not max(radii, default=0.0) <= _FAR:  # one check per path
            _check_offsets(vertices, offsets)
            segments = _scaled_far(segments)
        swept = 0.0
        for (u0, v0), (u1, v1), r0, r1 in segments:
            du, dv = u1 - u0, v1 - v0
            length2 = du * du + dv * dv
            # parameter of the point nearest the line; 0 for a segment along z
            t = min(max(-(u0 * du + v0 * dv) / (length2 or 1.0), 0.0), 1.0)
            nu, nv = u0 + t * du, v0 + t * dv
            if math.sqrt(nu * nu + nv * nv) <= 1e-12 * max(1.0, r0, r1):
                raise SingularPathError("integration path passes through the flux line")
            swept += math.atan2(u0 * v1 - v0 * u1, u0 * u1 + v0 * v1)
        (u0, v0), (u1, v1) = offsets[0], offsets[-1]
        (nc, dc), (nd, dd) = _exact_sum(((u0, v1), (-v0, u1))), _exact_sum(((u0, u1), (v0, v1)))
        y, x = nc * dd, nd * dc  # r0 x r1 and r0 . r1 times dc dd: no end is on the line
        big = max(abs(y), abs(x))
        theta = math.atan2(y / big, x / big)  # one of the two is +-1
        turns = round((swept - theta) / (2.0 * math.pi))
        whole, rest = _rounded(num * turns, den)
        phase = whole + (rest + lo * theta + hi * theta)
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

    Every field kind integrates in closed form over the path's end points
    (``path_integral``), at any distance from a flux line: a constant Q's
    phase correctly rounded, a solenoid's to a few ulp (2.34 at most over
    20000 seeded open paths), and a solenoid loop's +0, or coupling flux
    times its winding correctly rounded.  A path through a flux line raises
    SingularPathError, and a phase that leaves the double range raises
    DomainError.
    """
    return field.path_integral(path.vertices)
