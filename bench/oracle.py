"""Independent references for every request, and the comparison against them.

References come from closed forms evaluated with mpmath at 50 digits from
the same doubles the request passes on the command line, and for the field
momentum of the truncated solenoid bore from a converged quadrature of its
closed-form axial integral; nothing here imports etherdrift.
``expected(request)`` returns the output the request should produce, in the
shape the output parses to, with every numeric leaf replaced by
``Ref(value, tol)``:

* ``tol is None``: the leaf must equal ``value`` exactly (echoed inputs,
  integers, strings, literal published numbers);
* otherwise ``|observed - value| <= tol`` (absolute).

Tolerances are the accuracy the interface states (tabled per output kind in
README.md): the ``--rtol`` asked of the adaptive line integral, the
discretisation error of the grid a field-momentum request asks for, and
near machine precision, scaled by the condition number of the formula,
where a value is computed in closed form.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import mpmath
import numpy
from scipy import special

mpmath.mp.dps = 50
mpf = mpmath.mpf

C = mpf(299792458)
H = mpf("6.62607015e-34")
E_CHARGE = mpf("1.602176634e-19")
FLUX_QUANTUM = {"paper": mpf("2.067e-15"), "modern": H / (2 * E_CHARGE)}
HBAR = H / (2 * mpmath.pi)

#: relative accuracy of a closed form evaluated in double precision,
#: before scaling by the condition number of the formula (about 45 ulp)
CLOSED_RTOL = 1e-14
#: literal or exactly converted numbers (constants, unit conversions)
EXACT_RTOL = 2e-15
#: sampled rows checked per CSV output (plus the first and the last)
SAMPLED_ROWS = 14


class Ref:
    """Reference leaf."""

    __slots__ = ("value", "tol")

    def __init__(self, value, tol=None):
        self.value = value
        self.tol = tol


def _r(x, rtol):
    """Reference leaf from an mpmath value with a relative tolerance."""
    return Ref(float(x), float(abs(x) * rtol))


def _exact(x):
    return Ref(x, None)


# ---------------------------------------------------------------------------
# closed forms

def _speed(spec):
    n, u, ef = mpf(spec["n"]), mpf(spec["u"]), mpf(spec["ef"])
    mode = spec["mode"]
    base = C / n
    if mode == "fresnel":
        term = (1 - 1 / (n * n)) * u
        v, scale = base + term, abs(base) + abs(term)
    elif mode == "effective":
        term = ef * (1 - 1 / (n * n)) * u
        v, scale = base + term, abs(base) + abs(term)
    elif mode == "einstein":
        v = (base - u) / (1 - u * base / (C * C))
        scale = (abs(base) + abs(u)) / abs(1 - u * base / (C * C))
    else:
        v = (base - u) / (1 - (u / C) ** 2)
        scale = (abs(base) + abs(u)) / abs(1 - (u / C) ** 2)
    return {"mode": _exact(mode), "n": _exact(spec["n"]), "u": _exact(spec["u"]),
            "e_f": _exact(spec["ef"]), "v": Ref(float(v), float(scale * CLOSED_RTOL)),
            "units": _exact("m/s")}


def _sensitivity(spec):
    n1, n2 = mpf(spec["n1"]), mpf(spec["n2"])
    lam = mpf(spec["lambda_nm"]) * mpf("1e-9")
    d2 = n1 * n1 - n2 * n2
    kappa = (n1 * n1 + n2 * n2) / abs(d2)
    u_min = mpf(spec["resolution"]) * lam * C / (2 * abs(d2) * mpf(spec["L"])
                                                 * (1 - mpf(spec["ef"])))
    factor = (C / mpf(spec["u"])) * d2
    return {"u_min_mps": _r(u_min, CLOSED_RTOL * kappa),
            "improvement_factor": _r(factor, CLOSED_RTOL * kappa)}


def _compose(v_rest, u, law):
    if law == "einstein":
        return (v_rest - u) / (1 - u * v_rest / (C * C))
    return (v_rest - u) / (1 - (u / C) ** 2)


def _fringe_row(spec, k):
    steps = spec["steps"]
    theta = mpf(360 * k) / steps
    u_eff = mpf(spec["u"]) * mpmath.cos(theta * mpmath.pi / 180)
    ef = mpf(spec["ef"])
    inv = []
    for n in (mpf(spec["n1"]), mpf(spec["n2"])):
        v_rest = C / n + ef * (1 - 1 / (n * n)) * u_eff
        inv.append(1 / _compose(v_rest, u_eff, spec["composition"]))
    L = mpf(spec["L"])
    exact = L * (inv[0] - inv[1])
    kappa = (inv[0] + inv[1]) / abs(inv[0] - inv[1])
    n1, n2 = mpf(spec["n1"]), mpf(spec["n2"])
    first = (L / C) * (n1 - n2) * (1 + (u_eff / C) * (1 - ef) * (n1 + n2))
    fringes = C * exact / (mpf(spec["lambda_nm"]) * mpf("1e-9"))
    return [Ref(float(theta), None), _r(exact, CLOSED_RTOL * kappa),
            _r(first, CLOSED_RTOL), _r(fringes, CLOSED_RTOL * kappa)]


def _potential_row(spec, i):
    steps = spec["steps"]
    R = mpf(spec["R_cm"]) / 100
    rho = R * i / (steps - 1)
    m = 100 / mpf(spec["inv_cm"])
    V = mpf(spec["V"])
    mR = m * R
    exact = V * mpmath.besseli(0, m * rho) / mpmath.besseli(0, mR)
    s = mpf("0.25") if spec["variant"] == "quarter" else mpf("0.5")
    expansion = V * (1 + s * m * m * (rho * rho - R * R))
    scale = abs(V) + abs(V * s * m * m * R * R)
    return [_r(rho, CLOSED_RTOL), _r(exact, CLOSED_RTOL * (1 + mR)),
            Ref(float(expansion), float(scale * CLOSED_RTOL))]


def _bound(spec):
    R = mpf(spec["R_cm"]) / 100
    rng_m = R / 2 * mpmath.sqrt(mpmath.pi * mpf(spec["V"]) * mpf(spec["tau"])
                                / (mpf(spec["epsilon"]) * FLUX_QUANTUM[spec["profile"]]))
    inv_cm = rng_m * 100
    return {"m_gamma_inv_cm": _r(inv_cm, CLOSED_RTOL),
            "m_ph_g": _r(_mass_g(inv_cm), CLOSED_RTOL)}


def _mass_g(range_cm):
    return HBAR * mpf("1e7") / (C * 100 * range_cm)


def _phase(spec):
    R = mpf(spec["R_cm"]) / 100
    rho = mpf(spec["rho_cm"]) / 100
    m = 100 / mpf(spec["inv_cm"])
    kappa = mpmath.pi / FLUX_QUANTUM[spec["profile"]]
    delta = -(kappa * m * m / 4) * (rho * rho - R * R) * mpf(spec["V"]) * mpf(spec["tau"])
    cond = (rho * rho + R * R) / (R * R - rho * rho)
    return {"delta_phi_rad": _r(delta, CLOSED_RTOL * cond)}


# published pairs, as quoted alongside the cylinder proposal; None: the mass
# is derived from the range (only the range was quoted)
PUBLISHED_BOUNDS = (("Williams-Faller-Hill", 3.0e9, None), ("Luo et al.", 1.66e13, 2.1e-51),
                    ("Boulware-Deser", 1.4e7, 2.5e-45), ("Spavieri-Rodriguez", 2.0e13, 2.0e-51))


def _bounds(spec):
    rows = []
    for source, inv_cm, mass in PUBLISHED_BOUNDS:
        m = _r(_mass_g(mpf(inv_cm)), CLOSED_RTOL) if mass is None else _exact(mass)
        rows.append({"source": _exact(source), "m_gamma_inv_cm": _exact(inv_cm),
                     "m_ph_g": m})
    return rows


def _constants(spec):
    system, profile = spec["system"], spec["profile"]
    si = (("c", C, "m/s", 100, "cm/s"), ("h", H, "J s", mpf("1e7"), "erg s"),
          ("hbar", HBAR, "J s", mpf("1e7"), "erg s"),
          ("e_charge", E_CHARGE, "C", mpf("2.99792458e9"), "esu"),
          ("flux_quantum", FLUX_QUANTUM[profile], "Wb", mpf("1e8"), "G cm^2"))
    rows = []
    for name, value, unit, factor, gunit in si:
        if system == "gaussian":
            value, unit = value * factor, gunit
        rows.append({"name": _exact(name), "value": _r(value, EXACT_RTOL),
                     "unit": _exact(unit), "system": _exact(system),
                     "profile": _exact(profile)})
    return rows


def _solenoid_coupling(spec, profile):
    params = spec["field"]["params"]
    if "coupling" in params:
        return mpf(params["coupling"])
    return mpmath.pi / FLUX_QUANTUM[profile]


def _abphase(spec, profile=None):
    field = spec["field"]
    params = field["params"]
    pts = [[mpf(x) for x in p] for p in spec["path"]]
    parts = []
    terms = mpf(0)
    if field["kind"] == "solenoid":
        cx, cy, _ = (mpf(x) for x in params["center_m"])
        k = _solenoid_coupling(spec, profile or spec["profile"]) * mpf(params["flux_wb"]) \
            / (2 * mpmath.pi)
        for a, b in zip(pts[:-1], pts[1:]):
            ax, ay, bx, by = a[0] - cx, a[1] - cy, b[0] - cx, b[1] - cy
            parts.append(k * mpmath.atan2(ax * by - ay * bx, ax * bx + ay * by))
        terms = sum(abs(p) for p in parts)
    else:
        if field["kind"] == "uniform_q":
            q = [mpf(x) for x in params["q"]]
        else:
            n = mpf(params["n"])
            q = [-(mpf(params["omega_rad_s"]) / (C * C)) * (n * n - 1) * mpf(x)
                 for x in params["u_mps"]]
        for a, b in zip(pts[:-1], pts[1:]):
            comps = [qj * (bj - aj) for qj, aj, bj in zip(q, a, b)]
            parts.append(sum(comps))
            terms += sum(abs(c) for c in comps)
    phase = sum(parts)
    tol = spec["rtol"] * sum(abs(p) for p in parts) + CLOSED_RTOL * terms
    return {"phase_rad": Ref(float(phase), float(tol))}


def _pmomentum(spec):
    """Field momentum of the charge beside the solenoid bore.

    The reference is the exact momentum of the truncated bore, |z| <= lambda,
    which the program's grid approximates: the axial integral in closed form
    and the disk by a converged Gauss-Legendre x trapezoid rule.  Its
    tolerance is the discretisation error of the requested midpoint grid,
    bounded independently of the program (_bore_momentum)."""
    g = spec["geometry"]
    a, B, d, q = (float(g[k]) for k in ("a_cm", "B_gauss", "d_cm", "q_esu"))
    coeff = mpf(q) * mpf(B) / (4 * mpmath.pi * C * 100)
    analytic = mpf(q) * mpf(B) * mpf(a) ** 2 / (2 * mpf(d) * C * 100)
    levels = spec["levels"]
    half = float(g["lambda_cm"]) if "lambda_cm" in g else 50 * max(a, d)
    nr, nphi, nz = g.get("grid", (16, 32, 512))
    rows = []
    for k in range(levels):
        shrink = levels - 1 - k
        half_k = half * 2.0 ** -shrink
        nz_k = max(2, round(nz * 2.0 ** -shrink))
        value, err = _bore_momentum(a, d, half_k, nr, nphi, nz_k)
        p, tol = coeff * value, abs(coeff) * err
        rows.append({"lambda_cm": _r(mpf(half) / 2 ** shrink, EXACT_RTOL),
                     "grid": [_exact(nr), _exact(nphi), _exact(nz_k)],
                     "P_mag": Ref(float(abs(p)), float(tol)),
                     "rel_error": Ref(float(abs(p - analytic) / analytic),
                                      float(tol / analytic) + 1e-15)})
    # the last level is the configured geometry itself
    tol = rows[-1]["P_mag"].tol
    return {"P_e": [Ref(0.0, tol), Ref(float(p), tol), _exact(0.0)],
            "analytic": [_exact(0.0), _r(analytic, CLOSED_RTOL), _exact(0.0)],
            "rel_error": rows[-1]["rel_error"], "levels": rows}


#: disk rule of the bore reference: Gauss-Legendre nodes in r (the integrand
#: is analytic there) and a trapezoid rule in phi (periodic); both converge
#: to double precision for d >= 1.2 a
_GL_R = numpy.polynomial.legendre.leggauss(48)
_DISK_PHI = 256
#: margin on the error bound of the requested grid, and the rounding of
#: a few million double-precision terms
GRID_BOUND_MARGIN = 1.5
SUM_RTOL = 1e-12


def _bore_momentum(a, d, half, nr, nphi, nz):
    """(value, error bound) of the truncated-bore integral, in units of
    q B / (4 pi c): int (d - x) dz dA / rho_3^3 over r <= a, |z| <= half,
    where rho^2 = (d - x)^2 + y^2 and rho_3^2 = rho^2 + z^2.

    The z integral is 2 half / (rho^2 s) with s = sqrt(rho^2 + half^2),
    written as 2/rho^2 - 2/(s (s + half)); the first term integrates over the
    disk to 2 pi a^2 / d, which is the ideal-solenoid momentum.

    The bound is for the product midpoint rule (nr, nphi, nz):
    * (r, phi): the midpoint rule on the exact z integral, minus the value;
    * z: Poisson summation gives the error of an infinite midpoint lattice
      of step h exactly, sum over m != 0 of (-1)^m 2 w K1(w rho) / rho with
      w = 2 pi m / h, bounded by the sum of absolute values; the integrand
      is convex for |z| > rho / 2, which holds beyond |z| = half for every
      request the workloads make (half >= 2.5 d > rho), so cutting the
      lattice off there adds at most (h^2 / 24) |f'(half)| per end."""
    t, w = _GL_R
    r = (a * (t + 1) / 2)[:, None]
    phi = ((numpy.arange(_DISK_PHI) + 0.5) * (2 * math.pi / _DISK_PHI))[None, :]
    weight = (w * a / 2)[:, None] * r * (2 * math.pi / _DISK_PHI)
    ux, rho2 = _bore_point(r, phi, d)
    s = numpy.sqrt(rho2 + half * half)
    value = 2 * math.pi * a * a / d - float(numpy.sum(weight * ux * 2 / (s * (s + half))))

    dr, dphi, h = a / nr, 2 * math.pi / nphi, 2 * half / nz
    r = ((numpy.arange(nr) + 0.5) * dr)[:, None]
    phi = ((numpy.arange(nphi) + 0.5) * dphi)[None, :]
    weight = r * dr * dphi
    ux, rho2 = _bore_point(r, phi, d)
    s = numpy.sqrt(rho2 + half * half)
    grid_rphi = float(numpy.sum(weight * ux * 2 * half / (rho2 * s))) - value
    rho = numpy.sqrt(rho2)
    lattice = numpy.zeros_like(rho)
    for m in itertools.count(1):
        x = 2 * math.pi * m * rho / h
        lattice += 2 * x * special.k1e(x) * numpy.exp(-x)
        if x.min() > 40.0:  # the rest is below 1e-16 of the first term
            break
    grid_z = float(numpy.sum(weight * ux * (2 / rho2 * lattice + h * h * half / (4 * s ** 5))))
    bound = GRID_BOUND_MARGIN * (abs(grid_rphi) + grid_z) + SUM_RTOL * abs(value)
    return value, bound


def _bore_point(r, phi, d):
    x, y = r * numpy.cos(phi), r * numpy.sin(phi)
    ux = d - x
    return ux, ux * ux + y * y


# ---------------------------------------------------------------------------
# expected outputs

CSV_HEADERS = {"fringe": ["theta_deg", "delay_exact_s", "delay_first_order_s", "fringes"],
               "proca_potential": ["rho_m", "phi_exact_V", "phi_expansion_V"]}


def sample_rows(request) -> list:
    """Seeded row indices checked for a CSV output: first, last and a sample."""
    n = request["spec"]["steps"]
    rng = random.Random(json.dumps(request["argv"]))
    picked = set(rng.sample(range(n), min(SAMPLED_ROWS, n)))
    picked.update((0, n - 1))
    return sorted(picked)


def expected(request):
    kind, spec = request["kind"], request["spec"]
    if kind in CSV_HEADERS:
        row = _fringe_row if kind == "fringe" else _potential_row
        return {"header": [_exact(h) for h in CSV_HEADERS[kind]],
                "n_rows": _exact(request["spec"]["steps"]), "bad_rows": _exact(0),
                "rows": {i: row(spec, i) for i in sample_rows(request)}}
    return {"speed": _speed, "sensitivity": _sensitivity, "proca_bound": _bound,
            "proca_phase": _phase, "bounds": _bounds, "constants": _constants,
            "abphase": _abphase, "pmomentum": _pmomentum}[kind](spec)


# ---------------------------------------------------------------------------
# comparison

class Mismatch(Exception):
    pass


def compare(expected_value, observed, path="") -> tuple:
    """Walk expected and observed in step.  Returns (max error/tolerance
    ratio, leaves compared); raises Mismatch with the path of the first
    leaf or shape that disagrees."""
    if isinstance(expected_value, dict):
        if not isinstance(observed, dict):
            raise Mismatch(f"{path or '.'}: expected an object")
        keys = list(expected_value)
        if all(isinstance(k, str) for k in keys) and list(observed) != keys:
            raise Mismatch(f"{path or '.'}: keys {list(observed)} != {keys}")
        worst, count = 0.0, 0
        for key in keys:
            if key not in observed:
                raise Mismatch(f"{path}/{key}: missing")
            r, c = compare(expected_value[key], observed[key], f"{path}/{key}")
            worst, count = max(worst, r), count + c
        return worst, count
    if isinstance(expected_value, list):
        if not isinstance(observed, list) or len(observed) != len(expected_value):
            raise Mismatch(f"{path or '.'}: expected a list of {len(expected_value)}")
        worst, count = 0.0, 0
        for i, (e, o) in enumerate(zip(expected_value, observed)):
            r, c = compare(e, o, f"{path}/{i}")
            worst, count = max(worst, r), count + c
        return worst, count
    ref = expected_value
    if ref.tol is None:
        if type(observed) is not type(ref.value) and not (
                isinstance(ref.value, float) and isinstance(observed, int)
                and not isinstance(observed, bool)):
            raise Mismatch(f"{path}: {observed!r} is not a {type(ref.value).__name__}")
        if observed != ref.value:
            raise Mismatch(f"{path}: {observed!r} != {ref.value!r}")
        return 0.0, 1
    if isinstance(observed, bool) or not isinstance(observed, (int, float)):
        raise Mismatch(f"{path}: {observed!r} is not a number")
    err = abs(observed - ref.value)
    if not err <= ref.tol:
        raise Mismatch(f"{path}: {observed!r} vs reference {ref.value!r}, "
                       f"error {err:.3g} > tolerance {ref.tol:.3g}")
    return (err / ref.tol if ref.tol > 0 else 0.0), 1


# ---------------------------------------------------------------------------
# verdicts

#: seed defects known before this benchmark existed.  A failing request
#: whose symptom matches the defect it was generated to hit is reported
#: under that cause; any other failure is unexplained and makes the run
#: incorrect.
KNOWN_DEFECTS = {
    "nan-accepted": "NaN input exits 0 and prints nan instead of exit 2",
    "degenerate-grid-accepted": "pmomentum grid [2,2,2] exits 0 instead of exit 2",
    "zero-range-traceback": "proca potential --m-gamma-inv-cm 0 ends in a "
                            "ZeroDivisionError traceback instead of exit 2",
    "modern-profile-ignored": "--profile modern abphase uses the paper flux quantum "
                              "for the default solenoid coupling",
    "near-line-convergence": "a solenoid loop 1 um from the flux line raises "
                             "ConvergenceError",
    # found by this benchmark
    "potential-endpoint-rounding": "proca potential computes the last radius as "
                                   "R*(steps-1)/(steps-1), which can round above R and "
                                   "exit 2 with DomainError",
    "coarse-grid-refinement-alarm": "pmomentum raises ConvergenceError 'refinement "
                                    "difference grew' when two grid halvings differ by "
                                    "nearly the same amount",
}


def _defect_symptom(defect, request, result):
    code, out, err = result["code"], result.get("stdout") or "", result.get("stderr") or ""
    if defect == "nan-accepted":
        return code == 0 and "nan" in out
    if defect == "degenerate-grid-accepted":
        return code == 0
    if defect == "zero-range-traceback":
        return code == 1 and "ZeroDivisionError" in err
    if defect == "near-line-convergence":
        return code == 2 and "ConvergenceError" in err
    if defect == "potential-endpoint-rounding":
        return code == 2 and "radial position must satisfy 0 <= rho <= R" in err
    if defect == "coarse-grid-refinement-alarm":
        return code == 2 and "refinement difference grew" in err
    if defect == "modern-profile-ignored":
        if code != 0 or not isinstance(result.get("parsed"), dict):
            return False
        paper = _abphase(request["spec"], profile="paper")
        try:
            compare(paper, result["parsed"])
        except Mismatch:
            return False
        return True
    return False


def verdict(request, result) -> dict:
    """Classify one completed request.

    ``result`` holds ``code``, ``stderr``, and either ``parsed`` (the output
    parsed by parse_output) or ``parse_error``; ``stdout`` is present for
    small outputs.  Returns {"ok", "cause", "ratio", "leaves", "known"}."""
    ok, cause, ratio, leaves = _judge(request, result)
    known = None
    if not ok:
        for defect in request.get("defects", ()):
            if _defect_symptom(defect, request, result):
                known = defect
                break
    return {"ok": ok, "cause": cause, "ratio": ratio, "leaves": leaves, "known": known}


def _judge(request, result):
    code = result["code"]
    if request["expect"] == "error":
        if code != 2:
            return False, f"exit {code}, expected 2", 0.0, 0
        lines = (result.get("stderr") or "").splitlines()
        if result.get("stdout"):
            return False, "stdout not empty on error", 0.0, 0
        if len(lines) != 1:
            return False, f"{len(lines)} stderr lines on error, expected 1", 0.0, 0
        try:
            payload = json.loads(lines[0])
        except ValueError:
            return False, "stderr is not JSON", 0.0, 0
        if not isinstance(payload, dict) or list(payload) != ["error", "message"]:
            return False, "stderr JSON lacks error/message", 0.0, 0
        return True, None, 0.0, 1
    if code != 0:
        first = (result.get("stderr") or "").strip().splitlines()
        return False, f"exit {code}: {first[-1][:160] if first else ''}", 0.0, 0
    if "parse_error" in result:
        return False, f"unparseable output: {result['parse_error'][:160]}", 0.0, 0
    try:
        ratio, leaves = compare(expected(request), result["parsed"])
    except Mismatch as exc:
        return False, f"wrong value: {str(exc)[:200]}", 0.0, 0
    return True, None, ratio, leaves


# ---------------------------------------------------------------------------
# self-test of the checks

def _leaves(value, path=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _synthesize(value):
    if isinstance(value, dict):
        return {k: _synthesize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_synthesize(v) for v in value]
    return value.value


def _set(value, path, leaf):
    if len(path) == 1:
        value[path[0]] = leaf
        return
    _set(value[path[0]], path[1:], leaf)


def miswired(request) -> list:
    """Problems with the checks of one request, found without running the
    program: the reference output itself must pass, and moving any single
    numeric leaf just beyond its tolerance must fail."""
    problems = []
    if request["expect"] == "error":
        good = {"code": 2, "stdout": "", "stderr": '{"error":"InputError","message":"m"}\n'}
        for bad in ({"code": 0, "stdout": "{}\n", "stderr": ""},
                    {"code": 1, "stdout": "", "stderr": "Traceback\n"},
                    dict(good, stderr="not json\n"), dict(good, stdout="x\n")):
            if _judge(request, bad)[0]:
                problems.append(f"error outcome {bad} accepted")
        if not _judge(request, good)[0]:
            problems.append("correct error outcome rejected")
        return problems
    exp = expected(request)
    synthesized = _synthesize(exp)
    try:
        compare(exp, synthesized)
    except Mismatch as exc:
        return [f"reference output fails its own check: {exc}"]
    for path, ref in _leaves(exp):
        if isinstance(ref.value, str) or isinstance(ref.value, bool):
            bumped = ref.value + "x" if isinstance(ref.value, str) else not ref.value
        elif ref.tol is None or ref.tol == 0.0:
            bumped = ref.value + 1 if isinstance(ref.value, int) else \
                ref.value * (1 + 1e-9) + 1e-300
        elif not math.isfinite(ref.tol):
            problems.append(f"{path}: tolerance {ref.tol!r} is not finite")
            continue
        else:
            bumped = ref.value + 3.0 * ref.tol
        trial = _synthesize(exp)
        _set(trial, path, bumped)
        try:
            compare(exp, trial)
        except Mismatch:
            continue
        problems.append(f"{path}: moving the leaf beyond tolerance was not detected")
    return problems
