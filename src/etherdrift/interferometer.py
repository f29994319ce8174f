"""Two-arm first-order drift interferometer.

Both arms span the same segment, each filled with a different medium, and
the whole device is rotated in the plane containing the drift velocity.
The orientation enters through the projection u_eff = u cos(theta); only
theta = 0 and 180 degrees are fixed by the underlying argument, the cosine
is the minimal model consistent with "u -> -u on reversal".

Delays are one-way A to B, no mirror round trip.  The first-order delay

    dt(theta) = (L/c)(n1 - n2) [1 + (u_eff/c)(1 - e_f)(n1 + n2)]

carries the (1 - e_f) factor from composing the partially dragged medium
speed; at e_f = 0 it reduces to the plain printed form, at e_f = 1 the
drift signal cancels.  The exact delay L [(n1 - n2)/c + delta1 - delta2],
delta being the drift part of an arm's inverse speed (_drift), holds under
either composition law: their inverse one-way speeds differ by the
arm-independent synchronization term u/c^2.

Both delays at every orientation come from one expression, _delays, over
an array of orientation cosines or over one float cosine: the same
operations, so the same doubles.  A scan is one float table, a row per
angle, with the columns SCAN_COLUMNS.  Every row comes from one rule,
_scan_row, given its array module: math in the plain-float _scan_rows,
numpy in angle_scan's blocks, so both hold the same doubles.  The angle
is folded on the integer step index (_scan_cos), so rows half a turn
apart have exactly negated cosines, and a first-quadrant row equals
delay_exact at its angle bit for bit.  The fold also makes row steps - k
fold to the same angle as row k, with the same sign, so the two rows
hold the same three delay cells bit for bit.  This holds for every k:
at a right angle the cosine is exactly +-0, as at 0 and 180 degrees it
is exactly +-1, and at u_eff = +-0 delta1 - delta2 is +0, so the 90 and
270 degree rows are both the static device's.  A scan written past the
CLI's table cut (_scan_blocks) is therefore formed only up to row
steps // 2, of which it keeps the two delay columns alone: each row past
it takes its mirror's delays, and every row its theta and fringe cell by
_scan_row's own expressions.  Each of _scan_rows, angle_scan and
_scan_blocks refuses its first cell that is NaN or infinite, in
row-major order (_record.not_finite), before it hands on the row or the
block that holds it; a row past steps // 2 has a non-finite cell only
where its mirror has one.  A scan holds at most MAX_SCAN_STEPS rows,
and a configuration whose drift reaches the light speed of an arm is
refused, so no delay divides by zero.  The rotation signal is formed
from the drift parts of the inverse speeds, not as the difference of two
nearly equal delays, and every n1^2 - n2^2 as (n1 - n2)(n1 + n2), which
does not cancel for near-vacuum indices.
"""

import math

from ._record import Record, check_cells, check_count, check_finite, check_row
from .errors import DegenerateConfigError, DomainError, InputError
from .kinematics import CompositionLaw
from .units import c

#: the columns of an angle_scan table, in order
SCAN_COLUMNS = ("theta_deg", "delay_exact_s", "delay_first_order_s", "fringes")

#: largest angle_scan; each row holds four floats
MAX_SCAN_STEPS = 10 ** 7

#: the table rule (cli._table_csv) of every CSV table: in a process that has
#: not loaded numpy, up to this many rows in plain floats; beyond its cut, a
#: numpy table streamed, and filled, in blocks of this many rows, so that no
#: temporary nears the table's size
_SCAN_BLOCK = 4096


def _cos_deg(theta_deg: float) -> float:
    """Cosine of an angle in degrees.

    The angle is folded into [0, 90] before calling cos, so 0 and 180 give
    exactly +1 and -1, 90 and 270 exactly +0 and -0 (cos rounds 90 degrees
    to 6.1e-17), and a pair (theta, theta + 180) gives exact negations
    wherever theta + 180 - 180 == theta in floating point.  A scan folds its
    integer step index instead (_scan_cos), which makes every half-turn pair
    of a scan exact.  A NaN or infinite angle, whose remainder is NaN, is
    refused.
    """
    check_finite(("orientation theta_deg", theta_deg))
    t = theta_deg % 360.0
    h = t - 180.0 if t > 180.0 else t  # exact; 180 - h is then 360 - t
    cos = math.cos(math.radians(h if h <= 90.0 else 180.0 - h)) * (h != 90.0)
    return -cos if 90.0 < t <= 270.0 else cos


def _scan_cos(steps: int, j, xp):
    """cos(90 j/steps degrees) for j = 4k, the cosine of scan row k.

    j is an int with xp = math or an int array with xp = numpy.  _cos_deg's
    fold, done on j, theta_k in units of 90/steps degrees: m = steps -
    |steps - r| with r = j mod 2 steps folds it into [0, steps], the folded
    angle 90 m/steps is rounded once, and the sign comes from j against
    steps.  At m = steps, a right angle, the cosine is exactly +-0, as in
    _cos_deg.  Rows k and k + steps/2 fold to the same m with opposite
    signs, so their cosines are exact negations at every even step count;
    rows k and steps - k fold to the same m with the same sign, so their
    cosines are equal; in the first quadrant m = j and the cosine is
    _cos_deg's of theta_k.
    """
    r = j % (2 * steps)  # j and j + 2 steps, half a turn apart, alike
    m = steps - abs(steps - r)
    cos = xp.cos(xp.radians(90.0 * m / steps)) * (m != steps)
    return cos * (1 - 2 * ((steps < j) & (j <= 3 * steps)))


class InterferometerConfig(Record):
    """Geometry, media and motion of the two-arm device.

    n1 and n2 are the refractive indices of the two arms.  e_f applies to
    both media (they share the entrainment mechanism); the default 0 is the
    rarefied-gas hypothesis under which the first-order signal survives.
    """

    L: float
    n1: float
    n2: float
    u: float
    lambda_vac: float
    composition: CompositionLaw = CompositionLaw.EINSTEIN
    e_f: float = 0.0

    def _check(self):
        check_finite(("arm length L", self.L), ("n1", self.n1), ("n2", self.n2),
                     ("drift speed u", self.u), ("wavelength", self.lambda_vac),
                     ("e_f", self.e_f))
        if not 1.0 <= self.n1:
            raise DomainError(f"n1 must be >= 1, got {self.n1}")
        if not 1.0 <= self.n2:
            raise DomainError(f"n2 must be >= 1, got {self.n2}")
        if not 0.0 < self.L:
            raise DomainError(f"arm length L must be positive, got {self.L}")
        if not 0.0 < self.lambda_vac:
            raise DomainError(f"wavelength must be positive, got {self.lambda_vac}")
        if not abs(self.u) < c:
            raise DomainError(f"drift speed must satisfy |u| < c, got {self.u}")
        if not 0.0 <= self.e_f <= 1.0:
            raise DomainError(f"e_f must lie in [0, 1], got {self.e_f}")
        if not isinstance(self.composition, CompositionLaw):
            raise InputError(f"composition must be a CompositionLaw, got {self.composition!r}")
        # delta's denominator c/n - (1 - k) u_eff is monotone in u_eff, rounded
        # too, and |u cos| <= |u|: positive at 0 and 180 degrees, it is positive
        # at every angle.  Einstein's 1 - u_eff v_rest/c^2 is concave in u_eff.
        for arm, n in ((1, self.n1), (2, self.n2)):
            k = _drag(n, self.e_f)[1]
            for u_eff in (self.u, -self.u):
                if not (c / n - (1.0 - k) * u_eff > 0.0
                        and (self.composition is CompositionLaw.TANGHERLINI
                             or u_eff * (c / n + k * u_eff) < c * c)):
                    raise DomainError(f"drift speed u = {self.u} m/s reaches the light "
                                      f"speed in arm {arm} (n{arm} = {n}): its lab speed "
                                      "must stay positive at every orientation")


def _drag(n: float, e_f: float) -> tuple:
    """(n^2 - 1, k) of a medium: k = e_f (n^2 - 1)/n^2 is the share of the
    drift the medium carries, its rest-frame speed being c/n + k u_eff.
    n^2 - 1 is formed as (n - 1)(n + 1), exact to rounding for n near 1."""
    n2m1 = (n - 1.0) * (n + 1.0)
    return n2m1, e_f * n2m1 / (n * n)


def _drift(n: float, u_eff, e_f: float):
    """delta = 1/w - n/c = (u/c)[(n^2 - 1)(1 - e_f)/n - k u/c] / (c/n - (1 - k) u)
    at u = u_eff (a float or a numpy array), w the Einstein-law lab speed;
    Tangherlini's 1/w is u/c^2 larger in every arm."""
    n2m1, k = _drag(n, e_f)
    beta = u_eff / c
    return beta * (n2m1 * (1.0 - e_f) / n - k * beta) / (c / n - (1.0 - k) * u_eff)


def _delays(config: InterferometerConfig, cos):
    """Exact and first-order delays at each orientation cosine, as arrays,
    or as floats for one float cosine.

    The one numerical path of every delay: delay_exact, delay_first_order
    and each scan row (_scan_row) read theirs here.  The exact delay forms
    no lab speed, which could round to 0, and no composition law.
    """
    n1 = config.n1
    n2 = config.n2
    e_f = config.e_f
    u_eff = config.u * cos
    exact = config.L * ((n1 - n2) / c + (_drift(n1, u_eff, e_f) - _drift(n2, u_eff, e_f)))
    first = (config.L / c) * (n1 - n2) * (1.0 + (u_eff / c) * (1.0 - e_f) * (n1 + n2))
    return exact, first


def delay_exact(config: InterferometerConfig, theta_deg: float) -> float:
    """Arm delay difference L (1/w1 - 1/w2); positive when arm 1 is slower."""
    return _delays(config, _cos_deg(theta_deg))[0]


def delay_first_order(config: InterferometerConfig, theta_deg: float) -> float:
    """First-order form (L/c)(n1 - n2)[1 + (u_eff/c)(1 - e_f)(n1 + n2)]."""
    return _delays(config, _cos_deg(theta_deg))[1]


class RotationSignal(Record):
    exact: float
    first_order: float

    def _check(self):
        check_finite(("exact rotation signal", self.exact),
                     ("first-order rotation signal", self.first_order))


def _half_turn_swing(n: float, u: float, e_f: float) -> float:
    """Change 1/w(u) - 1/w(-u) of an arm's inverse lab speed on the half turn.

    With _drift's delta and its denominator D(u) = c/n - (1 - k) u, the swing
    is delta(u) - delta(-u) = 2u (n^2 - 1)/n^2 [(1 - e_f) - e_f (1 - k)(u/c)^2]
    / (D(u) D(-u)), the static n/c term cancelled in closed form.
    """
    n2m1, k = _drag(n, e_f)
    drift = (1.0 - k) * u
    bracket = (1.0 - e_f) - e_f * (1.0 - k) * (u / c) * (u / c)
    return 2.0 * u * (n2m1 / (n * n)) * bracket / ((c / n - drift) * (c / n + drift))


def rotation_signal(config: InterferometerConfig) -> RotationSignal:
    """Delay variation on the half turn, dt = Dt(0) - Dt(180).

    The exact value is L times the difference of the arms' half-turn
    swings; no two nearly equal delays are subtracted, so it holds to
    rounding for any u.  It is returned alongside the closed first-order
    form 2 (u/c)(n1^2 - n2^2)(L/c)(1 - e_f); they agree to O((u/c)^2).
    """
    n1 = config.n1
    n2 = config.n2
    u = config.u
    e_f = config.e_f
    exact = config.L * (_half_turn_swing(n1, u, e_f) - _half_turn_swing(n2, u, e_f))
    first = 2.0 * (u / c) * ((n1 - n2) * (n1 + n2)) * (config.L / c) * (1.0 - e_f)
    return RotationSignal(exact, first)


def _fringes(delta_t, lambda_vac):
    """c dt / lambda, of floats or of a delay column, unchecked: a scan
    row's fringe cell, which the scan refuses if it is not finite."""
    return c * delta_t / lambda_vac


def fringe_shift(delta_t: float, lambda_vac: float) -> float:
    """Optical-phase cycles N = c dt / lambda for a path time difference dt.
    A non-finite dt, and an N beyond the double range, are refused."""
    check_finite(("path time difference dt", delta_t))
    if not 0.0 < lambda_vac:
        raise DomainError(f"wavelength must be positive, got {lambda_vac}")
    check_finite(("wavelength", lambda_vac))
    fringes = _fringes(delta_t, lambda_vac)
    if not math.isfinite(fringes):
        raise DomainError(f"the fringe count c dt / lambda exceeds the double range at "
                          f"dt = {delta_t} s, lambda = {lambda_vac} m")
    return fringes


def min_detectable_u(config: InterferometerConfig, fringe_resolution: float) -> float:
    """Smallest drift speed giving a rotation signal of fringe_resolution fringes.

    Inverts the first-order dt formula:
    u_min = resolution * lambda * c / (2 |n1^2 - n2^2| L (1 - e_f)).
    """
    check_finite(("fringe resolution", fringe_resolution))
    if not 0.0 < fringe_resolution:
        raise DomainError(f"fringe resolution must be positive, got {fringe_resolution}")
    n1 = config.n1
    n2 = config.n2
    if n1 == n2:
        raise DegenerateConfigError("identical media: no first-order signal to invert")
    if config.e_f >= 1.0:
        raise DegenerateConfigError("e_f = 1 cancels the first-order signal")
    denom = 2.0 * abs((n1 - n2) * (n1 + n2)) * config.L * (1.0 - config.e_f)
    if not denom > 0.0:
        raise DomainError(f"2 |n1^2 - n2^2| L (1 - e_f) underflows to 0 at L = {config.L} m")
    u_min = fringe_resolution * config.lambda_vac * c / denom
    if not u_min < math.inf:
        raise DomainError(f"the smallest detectable drift speed exceeds the double range at "
                          f"resolution {fringe_resolution}, wavelength {config.lambda_vac} m")
    return u_min


def improvement_factor(u: float, n1: float, n2: float) -> float:
    """Gain (c/u)(n1^2 - n2^2) of the two-media device over a single-medium
    one.  A gain beyond the double range is refused, naming the drift speed
    or the indices whose n1^2 - n2^2 overflows."""
    check_finite(("drift speed", u), ("index n1", n1), ("index n2", n2))
    if not 0.0 < u:
        raise DomainError(f"drift speed must be positive, got {u}")
    contrast = (n1 - n2) * (n1 + n2)
    if not math.isfinite(contrast):
        raise DomainError(f"n1^2 - n2^2 exceeds the double range at index n1 = {n1}, "
                          f"index n2 = {n2}")
    gain = (c / u) * contrast
    if not math.isfinite(gain):
        raise DomainError(f"the improvement factor exceeds the double range at drift speed "
                          f"{u} m/s")
    return gain


def _check_steps(steps: int, noun: str) -> None:
    """Refuse a table (an angle scan, a potential profile) of fewer than 2
    or more than MAX_SCAN_STEPS rows, or a step count that is not an
    integer; noun names it in the message."""
    check_count(f"{noun} steps", steps)
    if steps < 2:
        raise InputError(f"{noun} needs at least 2 steps, got {steps}")
    if steps > MAX_SCAN_STEPS:
        raise InputError(f"{noun} takes at most {MAX_SCAN_STEPS} steps, got {steps}")


def _theta(steps: int, k):
    """theta_k = 360 k/steps of scan row k, an int or an int array."""
    return 360.0 * k / steps


def _scan_row(config: InterferometerConfig, steps: int, k, xp) -> tuple:
    """(theta, exact, first, fringes) of scan row k: floats for an int k
    with xp = math, columns for an int array k with xp = numpy.

    The one row rule of every scan driver: the cosine from _scan_cos, both
    delays from _delays on it, so _scan_rows, angle_scan and _scan_blocks
    hold the same doubles.  No row divides by zero: the config check keeps
    every delay's denominator positive.
    """
    exact, first = _delays(config, _scan_cos(steps, 4 * k, xp))
    return _theta(steps, k), exact, first, _fringes(exact, config.lambda_vac)


def _scan_rows(config: InterferometerConfig, steps: int):
    """angle_scan's rows in plain floats, one tuple each, as an iterator that
    forms them as they are read, and refuses the first row with a cell that
    is not finite (check_row); steps is checked first.  No numpy is
    imported: for a scan of a few rows its import costs more than the scan."""
    _check_steps(steps, "angle scan")
    return (check_row(_scan_row(config, steps, k, math)) for k in range(steps))


def angle_scan(config: InterferometerConfig, steps: int, start=0, stop=None):
    """Uniform orientation scan over [0, 360) degrees, theta_k = 360 k/steps.

    Returns a (steps, 4) float64 table whose columns are SCAN_COLUMNS:
    theta_k, the exact and the first-order delay, and the fringe count of
    the exact delay.  steps = 2 reproduces the 0/180 pair of the rotation
    signal.  The cosines come from _scan_cos, so at an even step count row
    k + steps/2 is row k of the reversed drift, and row steps - k repeats
    row k's delays bit for bit (module docstring).  start and stop,
    integers with 0 <= start <= stop <= steps (stop defaults to steps),
    select rows start to stop - 1: the table is then (stop - start, 4),
    the whole scan's rows bit for bit.  The rows are formed by _scan_row
    in blocks of _SCAN_BLOCK, cosines and delays alike, so the table is
    the only array of its size.  A cell that is NaN or infinite, such as
    a fringe count beyond the double range, is refused: DomainError names
    the first, in row-major order, once its block is formed.
    """
    _check_steps(steps, "angle scan")
    if stop is None:
        stop = steps
    start = check_count("angle scan rows start", start)
    stop = check_count("angle scan rows stop", stop)
    if not 0 <= start <= stop <= steps:
        raise InputError(f"angle scan rows must satisfy 0 <= start <= stop <= {steps}, "
                         f"got start {start}, stop {stop}")
    import numpy as np

    table = np.empty((stop - start, len(SCAN_COLUMNS)))
    with np.errstate(all="ignore"):  # the refusal is an overflow's one report
        for first in range(start, stop, _SCAN_BLOCK):
            rows = table[first - start:first - start + _SCAN_BLOCK]
            # a column at a time: a tuple of columns would be copied into an
            # array of the block's size first
            for column, values in zip(rows.T, _scan_row(config, steps,
                                                        np.arange(first, first + len(rows)), np)):
                column[...] = values
            check_cells(rows, np)
    return table


def _scan_blocks(config: InterferometerConfig, steps: int):
    """angle_scan's table as the CLI writes it past its table cut: an
    iterator of (n, 4) float64 blocks of up to _SCAN_BLOCK rows, each read
    before the next; steps is checked first.

    The scan's distinct rows, 0 to steps // 2, are formed before it
    returns, by angle_scan a block at a time (so they are refused there,
    and timed by bench/tracer.py), and only their exact and first-order
    delays are kept, a (2, steps // 2 + 1) array.  Each block, a view of
    one reused array, takes a row's delays from there, row k past
    steps // 2 those of row steps - k, its mirror (module docstring); its
    theta and fringe cells come from _scan_row's own expressions, so
    every double is angle_scan's.
    """
    _check_steps(steps, "angle scan")
    import numpy as np

    half = steps // 2 + 1  # rows 0 to steps // 2; row steps - k repeats row k's delays
    delays = np.empty((2, half))
    for start in range(0, half, _SCAN_BLOCK):
        # part is held while the next one forms: freed at once, it left the
        # heap laid out so that warm 12000-row scans ran about 4 % slower
        part = angle_scan(config, steps, start, min(start + _SCAN_BLOCK, half))
        delays[:, start:start + _SCAN_BLOCK] = part[:, 1:3].T

    def blocks():
        rows = np.empty((min(_SCAN_BLOCK, steps), len(SCAN_COLUMNS)))
        for start in range(0, steps, _SCAN_BLOCK):
            end = min(start + _SCAN_BLOCK, steps)
            part = rows[:end - start]
            split = min(max(start, half), end) - start  # the block's first mirrored row
            for column, held in zip(part.T[1:3], delays):
                column[:split] = held[start:start + split]
                column[split:] = held[steps - end + 1:steps - start - split + 1][::-1]
            part[:, 0] = _theta(steps, np.arange(start, end))
            part[:, 3] = _fringes(part[:, 1], config.lambda_vac)
            yield part

    return blocks()
