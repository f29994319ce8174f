import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etherdrift import cli
from etherdrift.abphase import (FresnelFlow, Path, SolenoidVectorPotential,
                                UniformQ, fresnel_momentum, phase_line_integral)
from etherdrift.errors import DomainError, InputError, SingularPathError
from etherdrift.units import PAPER, c

OMEGA_633 = 2.0 * math.pi * c / 633e-9


def square_loop(half=1.0, z=0.0, shift=(0.0, 0.0)):
    sx, sy = shift
    return Path([(half + sx, -half + sy, z),
                 (half + sx, half + sy, z),
                 (-half + sx, half + sy, z),
                 (-half + sx, -half + sy, z),
                 (half + sx, -half + sy, z)])


def test_fresnel_momentum_frozen():
    q = fresnel_momentum(OMEGA_633, 1.33, (10.0, 0.0, 0.0))
    # -(omega/c^2)(n^2-1) * 10, 50-digit arithmetic
    assert q[0] == pytest.approx(-0.25458060622095547, rel=1e-12)
    assert q[1] == 0.0 and q[2] == 0.0


def test_fresnel_momentum_matches_mpmath_near_vacuum():
    # n - 1 log-uniform over [1e-12, 10], with both ends.  (n - 1) is exact
    # for n <= 2 and rounded once above; c^2, omega/c^2, (n + 1), the three
    # products after them are rounded once each: at most 7 errors of 2^-53
    rng = random.Random("near-vacuum")
    u = (10.0, -3.0, 0.5)
    with mpmath.workdps(50):
        for e in [-12.0, 1.0, *(rng.uniform(-12.0, 1.0) for _ in range(2000))]:
            n = 1.0 + 10.0 ** e
            scale = -mpmath.mpf(OMEGA_633) / mpmath.mpf(c) ** 2 * (mpmath.mpf(n) ** 2 - 1)
            for got, ui in zip(fresnel_momentum(OMEGA_633, n, u), u):
                exact = scale * ui
                assert abs(got - exact) <= 7 * 2.0 ** -53 * abs(exact), n


def test_fresnel_momentum_trivial_zeros():
    # a tuple compares element-wise, and -0.0 == 0.0
    assert fresnel_momentum(OMEGA_633, 1.33, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    assert fresnel_momentum(OMEGA_633, 1.0, (10.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_fresnel_momentum_opposes_flow():
    q = fresnel_momentum(OMEGA_633, 1.2, (3.0, -4.0, 0.0))
    assert float(np.dot(q, (3.0, -4.0, 0.0))) < 0.0


def test_fresnel_momentum_domain():
    with pytest.raises(DomainError):
        fresnel_momentum(0.0, 1.33, (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        fresnel_momentum(OMEGA_633, 0.9, (1.0, 0.0, 0.0))


def test_fresnel_flow_field_matches_helper():
    flow = FresnelFlow(OMEGA_633, 1.33, (10.0, 0.0, 0.0))
    pts = np.zeros((5, 3))
    assert np.all(flow.q_at(pts) == fresnel_momentum(OMEGA_633, 1.33, flow.u))


def test_uniform_q_straight_segment_exact():
    field = UniformQ((0.3, -0.2, 0.5))
    path = Path([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    assert phase_line_integral(field, path) == pytest.approx(0.6, rel=1e-15)


def test_uniform_q_closed_loop_vanishes():
    field = UniformQ((0.3, -0.2, 0.5))
    assert phase_line_integral(field, square_loop()) == pytest.approx(0.0, abs=1e-15)


def test_phase_additive_over_concatenation():
    field = SolenoidVectorPotential(1.0, coupling=1.0)
    a, b, c = (2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (-1.0, 2.0, 0.0)
    whole = phase_line_integral(field, Path([a, b, c]))
    parts = phase_line_integral(field, Path([a, b])) + phase_line_integral(field, Path([b, c]))
    assert whole == pytest.approx(parts, rel=1e-14)


def test_phase_flips_sign_on_reversal():
    field = SolenoidVectorPotential(1.0, coupling=1.0)
    path = Path([(2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (-1.0, 2.0, 0.0)])
    forward = phase_line_integral(field, path)
    backward = Path(path.vertices[::-1])
    assert phase_line_integral(field, backward) == pytest.approx(-forward, rel=1e-13)


def test_solenoid_loop_phase_is_coupling_times_flux():
    flux = 2.067e-15
    field = SolenoidVectorPotential(flux, PAPER.charge_over_hbar)
    expected = PAPER.charge_over_hbar * flux
    got = phase_line_integral(field, square_loop())
    assert got == pytest.approx(expected, rel=1e-13)


def test_solenoid_loop_phase_shape_independent():
    field = SolenoidVectorPotential(2.0 * math.pi, coupling=1.0)
    loops = [
        square_loop(),
        square_loop(half=0.8, shift=(0.4, -0.3)),
        Path([(1.5, 0.0, 0.0), (-1.0, 1.2, 0.0), (-1.0, -1.2, 0.0), (1.5, 0.0, 0.0)]),
    ]
    for loop in loops:
        assert phase_line_integral(field, loop) == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_solenoid_loop_out_of_plane():
    # the line runs along z: the z of its point does not move it
    field = SolenoidVectorPotential(2.0 * math.pi, coupling=1.0,
                                    axis_point=(0.2, -0.1, -4.0))
    assert phase_line_integral(field, square_loop(half=2.0, z=0.7)) == pytest.approx(
        2.0 * math.pi, rel=1e-13)


def test_solenoid_two_routes_differ_by_loop_total():
    field = SolenoidVectorPotential(2.0 * math.pi, coupling=1.0)
    upper = Path([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-1.0, 0.0, 0.0)])
    lower = Path([(1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (-1.0, -1.0, 0.0), (-1.0, 0.0, 0.0)])
    delta = phase_line_integral(field, upper) - phase_line_integral(field, lower)
    assert delta == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_solenoid_double_winding_doubles_phase():
    field = SolenoidVectorPotential(2.0 * math.pi, coupling=1.0)
    once = square_loop().vertices
    twice = Path(np.vstack([once, once[1:]]))
    assert phase_line_integral(field, twice) == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_solenoid_nonenclosing_loop_vanishes():
    field = SolenoidVectorPotential(2.0 * math.pi, coupling=1.0)
    away = square_loop(half=0.5, shift=(3.0, 0.0))
    assert phase_line_integral(field, away) == pytest.approx(0.0, abs=1e-13)


def test_solenoid_rejects_path_through_flux_line():
    field = SolenoidVectorPotential(1.0, coupling=1.0)
    with pytest.raises(SingularPathError):
        phase_line_integral(field, Path([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]))
    with pytest.raises(SingularPathError):
        phase_line_integral(field, Path([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]))
    with pytest.raises(SingularPathError):
        field.q_at([(0.0, 0.0, 5.0)])


def _field_q(field, points):
    """Q at each point, formed here in numpy from the field's definition, so
    that the oracle shares no code with the kernels under test."""
    if isinstance(field, UniformQ):
        return np.broadcast_to(np.asarray(field.q, dtype=float), points.shape)
    if isinstance(field, FresnelFlow):
        q = -(field.omega / (c * c)) * (field.n * field.n - 1.0) * np.asarray(field.u, dtype=float)
        return np.broadcast_to(q, points.shape)
    # flux line along z: Q = coupling flux/(2 pi rho) along z x rho_hat
    across = (points - np.asarray(field.axis_point, dtype=float)) * [1.0, 1.0, 0.0]
    rho2 = np.sum(across * across, axis=1)
    return ((field.coupling * field.flux / (2.0 * math.pi))
            * np.cross([0.0, 0.0, 1.0], across) / rho2[:, None])


def _midpoint_doubling(field, p0, p1, rtol=1e-10, max_points=1 << 22):
    """Independent oracle: midpoint rule on 8, 16, 32, ... points of Q . dl,
    stopped when two successive values agree to rtol."""
    delta = p1 - p0
    previous = None
    m = 8
    while m <= max_points:
        t = (np.arange(m) + 0.5) / m
        integral = float(np.sum(_field_q(field, p0 + t[:, None] * delta) @ delta)) / m
        if previous is not None and abs(integral - previous) <= rtol * abs(integral) + 1e-30:
            return integral
        previous = integral
        m *= 2
    raise AssertionError("midpoint oracle did not settle")


FIELDS = {
    "uniform_q": UniformQ((0.3, -1.7, 2.5)),
    "fresnel_flow": FresnelFlow(OMEGA_633, 1.33, (12.0, -5.0, 3.0)),
    "solenoid": SolenoidVectorPotential(1.7, coupling=0.9, axis_point=(0.123, -0.456, 0.3)),
}


def _axis_distance(field, p0, p1):
    """Smallest distance from the flux line of points sampled along p0->p1."""
    rel = p0 + np.linspace(0.0, 1.0, 1001)[:, None] * (p1 - p0) - field.axis_point
    return np.min(np.hypot(rel[:, 0], rel[:, 1]))


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_closed_forms_match_midpoint_oracle(kind):
    field = FIELDS[kind]
    rng = np.random.default_rng(20100524)
    p0 = rng.uniform(-2.0, 2.0, (40, 3))
    p1 = rng.uniform(-2.0, 2.0, (40, 3))
    if kind == "solenoid":  # keep the midpoint rule clear of the 1/rho singularity
        clear = [_axis_distance(field, a, b) > 0.1 for a, b in zip(p0, p1)]
        p0, p1 = p0[clear], p1[clear]
    assert len(p0) >= 30
    closed = [phase_line_integral(field, Path([a, b])) for a, b in zip(p0, p1)]
    for value, a, b in zip(closed, p0, p1):
        assert value == pytest.approx(_midpoint_doubling(field, a, b), rel=1e-9, abs=1e-12)


def _polygon_loop(rng, vertices, distance, winding, center):
    """Regular polygon about the z axis through ``center`` whose nearest edge
    passes ``distance`` from the axis, winding -1, 0 or +1 around it."""
    radius = max(1.0, 2.5 * distance)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    angles = rot + 2.0 * math.pi * np.arange(vertices) / vertices
    corners = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    normal_angle = rot + math.pi / vertices  # foot of the edge between corners 0 and 1
    normal = np.array([math.cos(normal_angle), math.sin(normal_angle)])
    inradius = radius * math.cos(math.pi / vertices)
    shift = inradius - distance if winding else inradius + distance
    corners = corners - shift * normal
    if winding < 0:
        corners = corners[::-1]
    loop = np.column_stack([corners + center[:2], center[2] + rng.uniform(-0.5, 0.5, vertices)])
    return np.vstack([loop, loop[:1]])


@pytest.mark.parametrize("winding", [-1, 0, 1])
@pytest.mark.parametrize("distance", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0])
def test_solenoid_loop_matches_mpmath(distance, winding):
    rng = np.random.default_rng(int(-math.log10(distance)) * 3 + winding + 1)
    center = rng.uniform(-1.0, 1.0, 3)
    flux = 2.067e-15 * rng.uniform(0.5, 2.0)
    vertices = _polygon_loop(rng, int(rng.integers(3, 17)), distance, winding, center)
    field = SolenoidVectorPotential(flux, PAPER.charge_over_hbar, axis_point=tuple(center))
    got = phase_line_integral(field, Path(vertices))
    with mpmath.workdps(50):
        cx, cy = mpmath.mpf(center[0]), mpmath.mpf(center[1])
        swept = mpmath.mpf(0)
        for a, b in zip(vertices[:-1], vertices[1:]):
            ax, ay = mpmath.mpf(a[0]) - cx, mpmath.mpf(a[1]) - cy
            bx, by = mpmath.mpf(b[0]) - cx, mpmath.mpf(b[1]) - cy
            swept += mpmath.atan2(ax * by - ay * bx, ax * bx + ay * by)
        reference = mpmath.mpf(PAPER.charge_over_hbar) * mpmath.mpf(flux) * swept \
            / (2 * mpmath.pi)
        error = float(abs(mpmath.mpf(got) - reference))
        assert round(float(swept / (2 * mpmath.pi))) == winding
        # measured over these cases: at most 0.90 ulp, and 2.8e-16 at winding 0
        if winding:
            assert error <= math.ulp(float(reference))
        else:
            assert error <= 3e-16


def test_seeded_solenoid_loop_golden(capsys):
    # a 5-vertex loop 1 um from the line, winding +1 (a quadrature benchmark
    # request).  The phase is coupling x flux; 50-digit mpmath puts it 0.28
    # ulp from this output, where numpy's arctan2 and a one-double
    # coupling flux/(2 pi) printed 21.94877694371629, 1.28 ulp off
    flux = 1.4441121731940937e-14
    field = json.dumps({"kind": "solenoid", "params": {
        "flux_wb": flux, "center_m": [0.6167013912947723, -0.3886358371153753,
                                      -0.09364968385878591]}})
    path = json.dumps([[-0.08456909473363561, -0.4127214393244455, -0.11028770732838888],
                       [1.3179719459711854, -0.36455223372782064, 0.1885513343995201],
                       [1.2698027403745606, 1.0379888069770002, -0.253203321312064],
                       [-0.1327383003302609, 0.9898196013803748, -0.47312440572317593],
                       [-0.08456909473363561, -0.4127214393244455, -0.11028770732838888]])
    assert cli.main(["--profile", "paper", "abphase", "--field", field, "--path", path]) == 0
    out = capsys.readouterr().out
    assert out == '{"phase_rad":21.948776943716286}\n'
    with mpmath.workdps(50):
        reference = mpmath.mpf(PAPER.charge_over_hbar) * mpmath.mpf(flux)
        assert abs(mpmath.mpf(json.loads(out)["phase_rad"]) - reference) \
            <= 0.5 * math.ulp(float(reference))


_coordinate = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)),
       st.lists(st.tuples(_coordinate, _coordinate, _coordinate), min_size=3, max_size=12),
       st.integers(min_value=0))
def test_phase_reversal_and_split_properties(kind, vertices, split):
    field = FIELDS[kind]
    vertices = np.array(vertices)
    assume(not np.any(np.all(np.diff(vertices, axis=0) == 0.0, axis=1)))
    k = 1 + split % (len(vertices) - 2)
    path = Path(vertices)
    try:
        whole = phase_line_integral(field, path)
    except SingularPathError:
        assume(False)
    assert phase_line_integral(field, Path(path.vertices[::-1])) == -whole
    head = phase_line_integral(field, Path(vertices[:k + 1]))
    tail = phase_line_integral(field, Path(vertices[k:]))
    assert abs(whole - (head + tail)) <= 4.0 * np.finfo(float).eps * (abs(head) + abs(tail))


@pytest.mark.parametrize("vertices", [
    # a segment of +inf and one of -inf, and an end-to-end phase of -1e600
    [(0.0, 0.0, 0.0), (1e300, 0.0, 0.0), (-1e300, 0.0, 0.0)],
    # finite segments whose sum, 2e308, overflows
    [(0.0, 0.0, 0.0), (1e8, 0.0, 0.0), (2e8, 0.0, 0.0)],
])
def test_phase_beyond_double_range_raises_domain_error(vertices):
    field = UniformQ(q=(1e300, 0.0, 0.0))
    with pytest.raises(DomainError, match="double range"):
        phase_line_integral(field, Path(vertices))


@pytest.mark.parametrize("vertices, shown", [
    # coupling x flux/(2 pi) overflows: each segment of the loop is +-inf
    (square_loop().vertices, "inf"),
    (square_loop().vertices[::-1], "-inf"),
    # a radial segment sweeps no angle: inf x 0 is nan
    (((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)), "nan"),
    (square_loop().vertices + ((2.0, -2.0, 0.0),), "nan"),
], ids=["loop", "reversed-loop", "radial-segment", "loop-then-radial"])
def test_solenoid_phase_beyond_double_range_raises_domain_error(vertices, shown):
    # math.fsum passes inf and nan segments on, so the sum itself is checked
    field = SolenoidVectorPotential(flux=1e300, coupling=1e300)
    with pytest.raises(DomainError, match=rf"^the phase is not a finite number \({shown}\): "
                                          "it leaves the double range$"):
        phase_line_integral(field, Path(vertices))


def test_constant_q_closed_loop_is_exactly_zero():
    # the per-segment sum printed -1.4551915228366852e-11 for this loop; a
    # Q of all negative components must give +0.0, not -0.0
    loop = Path([(0.1, 0.7, -0.3), (0.9, -0.45, 0.2), (-0.6, 0.33, 0.81), (0.1, 0.7, -0.3)])
    for field in (UniformQ((3e5, -2e5, 1e5)), UniformQ((-3e5, -2e5, -1e5)),
                  FresnelFlow(OMEGA_633, 1.33, (12.0, -5.0, 3.0))):
        phase = phase_line_integral(field, loop)
        assert (phase, math.copysign(1.0, phase)) == (0.0, 1.0)


def test_constant_q_phase_at_the_edges_of_the_double_range():
    # p_last - p_first = -2e308 overflows a double, but the phase -2e298
    # does not: it is formed exactly and rounded once
    path = Path([(1e308, 0.0, 0.0), (0.0, 0.0, 0.0), (-1e308, 0.0, 0.0)])
    with mpmath.workdps(50):
        exact = mpmath.mpf(1e-10) * (mpmath.mpf(-1e308) - mpmath.mpf(1e308))
    assert phase_line_integral(UniformQ((1e-10, 0.0, 0.0)), path) == float(exact)
    # a Fresnel momentum beyond the double range is refused, not summed
    with pytest.raises(DomainError, match="Q is not finite"):
        phase_line_integral(FresnelFlow(1e308, 1e100, (1.0, 0.0, 0.0)), path)


@pytest.mark.parametrize("kind", ["uniform_q", "fresnel_flow"])
def test_constant_q_phase_matches_mpmath_on_open_paths(kind):
    # Q . (p_last - p_first) summed exactly and rounded once.  Measured over
    # these draws: within 0.98 of 2^-53 relative, where the per-segment fsum
    # was up to 5.0e4 of 2^-53 off (cancelling terms in a segment sum)
    rng = random.Random(f"open-paths-{kind}")
    with mpmath.workdps(50):
        for _ in range(500):
            if kind == "uniform_q":
                field = UniformQ(tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0)
                                       for _ in range(3)))
                q = field.q
            else:
                field = FresnelFlow(10.0 ** rng.uniform(14.0, 15.7), rng.uniform(1.0, 2.0),
                                    tuple(rng.uniform(-100.0, 100.0) for _ in range(3)))
                q = field.q_vector()
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            vertices = [tuple(rng.uniform(-scale, scale) for _ in range(3))
                        for _ in range(rng.randint(2, 40))]
            got = phase_line_integral(field, Path(vertices))
            exact = mpmath.fsum(mpmath.mpf(qi) * (mpmath.mpf(b) - mpmath.mpf(a))
                                for qi, a, b in zip(q, vertices[0], vertices[-1]))
            assert abs(mpmath.mpf(got) - exact) <= 2.0 ** -53 * abs(exact), vertices


def test_path_holds_float_triples():
    # JSON ints and numpy arrays of either dtype become float 3-tuples
    for vertices in ([[0, 0, 0], [1, 2, 3]], np.array([[0, 0, 0], [1, 2, 3]]),
                     np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])):
        path = Path(vertices)
        assert path.vertices == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert all(type(x) is float for v in path.vertices for x in v)
    for bad in ([[0, 0, 0], [True, 0, 0]], [[0, 0, 0], [10 ** 400, 0, 0]],
                [[0, 0, 0], [math.inf, 0, 0]], "abc", {"a": 1}, [[0, 0, 0], [1, 2]]):
        with pytest.raises(InputError, match="path must be an array"):
            Path(bad)


def test_path_validation():
    with pytest.raises(InputError):
        Path([(0.0, 0.0, 0.0)])
    with pytest.raises(InputError):
        Path([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(InputError):
        Path([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
