"""Interaction field momentum of a point charge beside a long solenoid.

The charge supplies E, the solenoid interior supplies the uniform axial B,
and the interaction momentum P_e = (1/4 pi c) int E x B d^3x lives entirely
inside the solenoid bore.  The closed form for the ideal infinite solenoid
is (q/c) A evaluated at the charge, A_phi = B a^2/(2 d).

Everything in this module is Gaussian: cm, gauss, esu, erg, g cm/s.  The
integration domain is truncated at |z| <= Lambda.  With the charge at
(d, 0, 0) and B along +z, the axial integral has a closed form, and it
splits the truncated momentum into the ideal one and a tail:

    P_y = (q B / 4 pi c) [2 pi a^2 / d - int_disk (d - x) 2 / (s (s + Lambda)) dA],

where s = sqrt((d - x)^2 + y^2 + Lambda^2).  The first term is the closed
form (q/c) A; the tail, the truncation error, falls off like 1/Lambda^2.
P_x and P_z vanish by symmetry and are returned as exact zeros.

The tail's integrand is -d/dx of 2 log(s + Lambda), so the divergence
theorem turns the disk integral into one around the bore's edge.  Folded
onto a quarter turn, every term is positive:

    tail = 4 a int_0^{pi/2} cos t log1p(4 a d cos t / ((s+ + s-)(Lambda + s-))) dt,

with s-+ = sqrt(a^2 + d^2 + Lambda^2 -+ 2 a d cos t) on the edge.  The
integrand is periodic and analytic in the strip |Im t| < sigma,
sigma = acosh((a^2 + d^2 + Lambda^2)/(2 a d)), so the trapezoid rule on N
nodes converges like e^{-sigma N} (Trefethen & Weideman, SIAM Review 56,
2014), and N is chosen before summing.  It grows as d - a and Lambda both
shrink beside a, and is capped.

Where Lambda << d the tail is nearly all of the closed form, and their
difference cancels.  Where the tail passes half of it, P_y is summed
directly instead: the z-integrated integrand is d/dx of 2 asinh(Lambda/rho),
rho the distance from the charge, and folded the same way,

    P_y = (q B / 4 pi c) 4 a int_0^{pi/2} cos t asinh(4 a d Lambda cos t / (rho- rho+ (s+ + s-))) dt,

rho-+ = sqrt(a^2 + d^2 -+ 2 a d cos t).  Its strip half-width is log(d/a),
so it needs the fewest nodes exactly where the difference cancels.

A geometry carries a grid (n_r, n_phi, n_z): three integers >= 4,
checked and echoed with each convergence level (n_z halved with Lambda).
No quadrature reads it.

The interaction *energy* is not computed: for this source pair it vanishes
identically, because the charge carries no B and the static solenoid
carries no E, so the cross energy density (E1.E2 + B1.B2)/4 pi is zero at
every point even though the cross momentum is not.
"""

import math
import sys

from ._record import Record, check_count, check_finite
from .errors import DomainError, InputError
from .units import c_cgs

#: default axial truncation, in units of max(a, d)
DEFAULT_TRUNCATION_FACTOR = 50.0

#: default grid (radial, azimuthal, axial), echoed by the convergence levels
REFERENCE_GRID = (16, 32, 512)

#: most trapezoid nodes on the bore's edge: 37/sigma reaches it only where
#: d - a and Lambda are both below about 0.002 a
_MAX_EDGE_NODES = 2 ** 14

#: rounding of the closed form and of the summed tail, relative to the
#: closed form: an a-priori bound, the trapezoid rule's own error being
#: below e^-37 of the tail
_ROUNDING = 4.0 * sys.float_info.epsilon


class SolenoidChargeGeometry(Record):
    """Solenoid of radius a (cm) and interior field B (gauss) along +z, with
    a point charge q (esu) at (d, 0, 0), d > a, outside the bore."""

    a: float
    B: float
    d: float
    q: float
    truncation_halflength: float | None = None
    grid: tuple = REFERENCE_GRID

    def _check(self):
        check_finite(("solenoid radius a", self.a), ("field B", self.B),
                     ("charge distance d", self.d), ("charge q", self.q))
        if not 0.0 < self.a:
            raise DomainError(f"solenoid radius must be positive, got {self.a}")
        if not self.a < self.d:
            raise DomainError(
                f"charge must sit outside the solenoid (d > a), got d={self.d}, a={self.a}")
        if self.truncation_halflength is not None:
            check_finite(("truncation half-length", self.truncation_halflength))
            if not 0.0 < self.truncation_halflength:
                raise DomainError("truncation half-length must be positive")
        if len(self.grid) != 3:
            raise InputError(f"grid must have 3 dimensions, got {self.grid!r}")
        for n in self.grid:
            integral = type(n) is int
            if not integral:  # numpy's integers, say; never a bool
                import numbers  # only here: a grid of ints never loads it

                integral = isinstance(n, numbers.Integral) and not isinstance(n, bool)
            if not integral or n < 4:
                raise InputError(f"grid dimensions must be integers >= 4, got {self.grid!r}")
            # the echo halves n_z in floating point
            if n > sys.float_info.max:
                raise InputError(f"grid dimensions must lie in the double range, "
                                 f"got {self.grid!r}")

    @property
    def half_length(self) -> float:
        if self.truncation_halflength is not None:
            return self.truncation_halflength
        return DEFAULT_TRUNCATION_FACTOR * max(self.a, self.d)


def _edge_terms(geom: SolenoidChargeGeometry, half_length: float):
    """delta = d/a, gap = (d - a)/a, lam = Lambda/a and root = 2 sqrt(delta),
    the edge sums' lengths in units of a, or None where they leave the
    double range: a is then below about 1e-307 of d or Lambda."""
    delta = geom.d / geom.a
    gap = (geom.d - geom.a) / geom.a
    lam = half_length / geom.a
    root = 2.0 * math.sqrt(delta)
    # every s-+ is at most hypot(gap, lam, root), and s+ + s- at most twice that
    if not math.hypot(gap, lam, root) < sys.float_info.max / 2.0:
        return None
    return delta, gap, lam, root


def _nodes(sigma: float) -> float:
    """Trapezoid nodes for a strip half-width sigma: at or above 37/sigma + 2,
    since the aliased harmonic of a folded edge integrand falls like
    e^{-sigma (N - 2)} against its mean."""
    return 37.0 / sigma + 2.0


def _tail_share(geom: SolenoidChargeGeometry, half_length: float) -> float:
    """The truncation tail as a share of the closed form: tail d/(2 pi a^2).

    Lengths are in units of a.  s-+ are formed as hypot((d - a)/a, Lambda/a,
    2 sqrt(d/a) sin or cos(t/2)), sums of squares with no cancellation, and
    sigma through log1p of cosh(sigma) - 1 = ((d - a)^2 + Lambda^2)/(2 a d).
    N is the multiple of 4 at or above _nodes(sigma).  The nodes
    (k + 1/2) 2 pi/N map onto each other under t -> -t and t -> pi - t, so
    the first N/4 of them carry the sum.
    """
    edge = _edge_terms(geom, half_length)
    if edge is None:
        # the share's limit for a -> 0, to rounding: d^2/(s0 (s0 + Lambda)),
        # s0 = sqrt(d^2 + Lambda^2)
        r = half_length / geom.d
        h = math.hypot(1.0, r)
        return 1.0 / (h * (h + r))
    delta, gap, lam, root = edge
    excess = (gap * (gap / delta) + lam * (lam / delta)) / 2.0  # cosh(sigma) - 1
    nodes = _nodes(math.log1p(excess + math.sqrt(excess * (excess + 2.0))))
    if not nodes <= _MAX_EDGE_NODES:
        raise DomainError(f"d - a = {geom.d - geom.a} and Lambda = {half_length} are both "
                          f"too small beside the bore radius {geom.a}: the edge sum would "
                          f"need about {nodes:.0f} nodes, more than {_MAX_EDGE_NODES}")
    n = 4 * math.ceil(nodes / 4.0)
    terms = []
    for k in range(n // 4):
        half_angle = (k + 0.5) * (math.pi / n)
        cos_t = math.cos(2.0 * half_angle)
        s_minus = math.hypot(gap, lam, root * math.sin(half_angle))
        s_plus = math.hypot(gap, lam, root * math.cos(half_angle))
        ratio = 4.0 * cos_t * (delta / (s_plus + s_minus)) / (lam + s_minus)
        terms.append(cos_t * math.log1p(ratio))
    return 4.0 * delta / n * math.fsum(terms)


def _kept_share(geom: SolenoidChargeGeometry, half_length: float) -> float | None:
    """The truncated momentum as a share of the closed form, summed around
    the bore's edge directly rather than as 1 - _tail_share.

    The truncated disk integral is 2 a int_0^{2 pi} asinh(Lambda/rho(t)) cos t dt,
    rho(t) the distance from the charge to the edge.  Folded onto a quarter
    turn, t with pi - t, the difference of the two asinh is one asinh of
    4 a d Lambda cos t/(rho- rho+ (s+ + s-)), and every term is positive.
    The integrand's strip half-width is log(d/a), the nearest zero of rho,
    so this sum converges fastest where Lambda << d, exactly where 1 - share
    cancels.  None where N would pass the node cap.
    """
    edge = _edge_terms(geom, half_length)
    if edge is None:  # the limit for a -> 0: Lambda/s0
        r = half_length / geom.d
        return r / math.hypot(1.0, r) if r <= 1.0 else 1.0 / math.hypot(1.0, 1.0 / r)
    delta, gap, lam, root = edge
    nodes = _nodes(math.log1p(gap))
    if not nodes <= _MAX_EDGE_NODES:
        return None
    n = 4 * math.ceil(nodes / 4.0)
    terms = []
    for k in range(n // 4):
        half_angle = (k + 0.5) * (math.pi / n)
        cos_t = math.cos(2.0 * half_angle)
        rho_minus = math.hypot(gap, root * math.sin(half_angle))
        rho_plus = math.hypot(gap, root * math.cos(half_angle))
        s_sum = math.hypot(rho_plus, lam) + math.hypot(rho_minus, lam)
        ratio = 4.0 * cos_t * (delta / rho_plus) * (lam / s_sum) / rho_minus
        terms.append(cos_t * math.asinh(ratio))
    return 4.0 * delta / n * math.fsum(terms)


def _truncated(geom: SolenoidChargeGeometry, closed: float, half_length: float):
    """(P_y, truncation share) over |z| <= half_length.

    P_y is closed - closed share, except where the share is above 1/2 and
    that difference would cancel: there it is closed times _kept_share."""
    share = _tail_share(geom, half_length)
    kept = _kept_share(geom, half_length) if share > 0.5 else None
    return (closed - closed * share if kept is None else closed * kept), share


class MomentumResult(Record):
    P_e: tuple
    estimated_quadrature_error: float

    def _check(self):
        check_finite(*zip(("momentum P_x", "momentum P_y", "momentum P_z"), self.P_e),
                     ("quadrature error estimate", self.estimated_quadrature_error))


def integrate_field_momentum(geom: SolenoidChargeGeometry) -> MomentumResult:
    """P_e over the truncated bore, the tail summed around the bore's edge.

    The error estimate, against the ideal (q/c) A, is the truncation share,
    the summed tail itself rather than P_e - (q/c) A, plus an a-priori bound
    on the rule: N keeps its error below e^-37 of the tail, so what is left
    is rounding, at most a few ulps of the closed form.
    """
    closed = analytic_solenoid_momentum(geom)[1]
    p_y, share = _truncated(geom, closed, geom.half_length)
    return MomentumResult((0.0, p_y, 0.0), abs(closed * share) + _ROUNDING * abs(closed))


def analytic_solenoid_momentum(geom: SolenoidChargeGeometry) -> tuple:
    """Closed form (q/c) A at the charge: magnitude q B a^2/(2 d c), azimuthal.

    With the charge on +x and B along +z the azimuthal direction at the
    charge is +y.  The geometry has the charge outside the solenoid, d > a.
    """
    magnitude = geom.q * geom.B * geom.a * geom.a / (2.0 * geom.d * c_cgs)
    if not math.isfinite(magnitude):
        raise DomainError(f"the closed-form momentum q B a^2/(2 d c) is not a finite number "
                          f"({magnitude}) at q={geom.q}, B={geom.B}, a={geom.a}, d={geom.d}")
    return (0.0, magnitude, 0.0)


class ConvergenceRow(Record):
    half_length_cm: float
    grid: tuple
    p_magnitude: float
    rel_error: float
    P_e: tuple

    def _check(self):
        check_finite(("half-length", self.half_length_cm),
                     *zip(("grid n_r", "grid n_phi", "grid n_z"), self.grid),
                     ("momentum magnitude", self.p_magnitude), ("relative error", self.rel_error),
                     *zip(("momentum P_x", "momentum P_y", "momentum P_z"), self.P_e))


def convergence_study(geom: SolenoidChargeGeometry, levels: int) -> list:
    """Truncation refinement toward the geometry's own setup.

    Level k halves Lambda (levels-1-k) times, so the truncation error
    shrinks by about 4x per level; the last level is the geometry as
    configured.  Each level's rel_error is its truncation share, formed
    from the tail itself: |P_e - (q/c) A| would subtract two numbers that
    agree to the share and lose its last digits.  Each row's grid echoes
    n_z halved with Lambda (at least 2).  p_magnitude is |P_y|, never
    squared.  The relative error is undefined, a DomainError, where the
    closed form is 0.
    """
    check_count("convergence study levels", levels)
    if levels < 2:
        raise InputError(f"convergence study needs at least 2 levels, got {levels}")
    # below the bore radius the truncated integral is no longer near its
    # limit, and far below it underflows to 0
    # 2^-1100 is 0 already, and a float power of a larger int overflows
    coarsest = geom.half_length * 2.0 ** max(1 - levels, -1100)
    if not coarsest >= geom.a:
        raise DomainError(f"levels={levels} halves the truncation half-length "
                          f"{geom.half_length} to {coarsest} at the coarsest level, "
                          f"below the bore radius {geom.a}")
    nr, nphi, nz = geom.grid
    closed = analytic_solenoid_momentum(geom)[1]
    if closed == 0.0:
        raise DomainError(f"the closed-form momentum q B a^2/(2 d c) is 0 for q={geom.q}, "
                          f"B={geom.B}, a={geom.a}, d={geom.d}: the relative error is "
                          "undefined for a zero momentum")
    rows = []
    for k in range(levels):
        scale = 2.0 ** (k - (levels - 1))
        half_length = geom.half_length * scale
        p_y, share = _truncated(geom, closed, half_length)
        p = (0.0, p_y, 0.0)
        rows.append(ConvergenceRow(half_length, (nr, nphi, max(2, round(nz * scale))),
                                   abs(p[1]), share, p))
    return rows
