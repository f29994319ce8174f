"""Seeded request generators for the three workloads.

A workload is an endless sequence of *passes*; pass ``p`` of workload ``w``
under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{p}")`` and is the
same on every machine.  What sets the cost of a request (scan length,
series length, distance of a loop to the flux line, grid size) is fixed per
pass, while everything that does not move the cost (physical parameters,
signs, profiles, shapes, request order) is drawn from the seed.  So the
work of a pass does not depend on the seed, and runs under different seeds
can be compared by the bounds in BENCHMARK.json.

A request is a dict::

    {"kind": str, "argv": [str, ...], "fmt": "json"|"csv"|"text",
     "expect": "ok"|"error", "spec": {...}, "defects": [str, ...]}

``spec`` carries the decoded inputs the oracle needs; ``defects`` names the
known seed defects the request can hit (see KNOWN_DEFECTS in oracle.py).
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli_cold", "scan_bulk", "quadrature")

PROFILES = ("paper", "modern")


def _f(x: float) -> str:
    """Shortest decimal that round-trips, so argv parses to the same double."""
    return repr(float(x))


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _request(kind, profile, argv, fmt, spec, expect="ok", defects=()):
    return {"kind": kind, "argv": ["--profile", profile] + argv, "fmt": fmt,
            "expect": expect, "spec": dict(spec, profile=profile),
            "defects": list(defects)}


# ---------------------------------------------------------------------------
# requests shared by the workloads

def speed_request(rng, mode, profile):
    n = rng.uniform(1.0, 2.0)
    u = rng.choice((-1.0, 1.0)) * _loguniform(rng, 1.0, 1e5)
    ef = rng.uniform(0.0, 1.0)
    argv = ["speed", "--mode", mode, "--n", _f(n), "--u-mps", _f(u), "--ef", _f(ef)]
    return _request("speed", profile, argv, "json",
                    {"mode": mode, "n": n, "u": u, "ef": ef})


def _interferometer_inputs(rng, u):
    n1 = rng.uniform(1.0001, 1.5)
    n2 = rng.uniform(1.0, n1 - 1e-5)
    if rng.random() < 0.5:
        n1, n2 = n2, n1
    return {"L": _loguniform(rng, 0.1, 10.0), "n1": n1, "n2": n2, "u": u,
            "lambda_nm": rng.uniform(400.0, 1000.0)}


def fringe_request(rng, steps, u, composition, ef, profile):
    p = _interferometer_inputs(rng, u)
    argv = ["fringe", "--L-m", _f(p["L"]), "--n1", _f(p["n1"]), "--n2", _f(p["n2"]),
            "--u-mps", _f(u), "--lambda-nm", _f(p["lambda_nm"]), "--ef", _f(ef),
            "--composition", composition, "--steps", str(steps)]
    return _request("fringe", profile, argv, "csv",
                    dict(p, steps=steps, composition=composition, ef=ef))


def sensitivity_request(rng, profile):
    p = _interferometer_inputs(rng, _loguniform(rng, 1.0, 1e5))
    ef = rng.uniform(0.0, 0.9)
    res = _loguniform(rng, 1e-4, 1e-2)
    argv = ["sensitivity", "--L-m", _f(p["L"]), "--n1", _f(p["n1"]), "--n2", _f(p["n2"]),
            "--u-mps", _f(p["u"]), "--lambda-nm", _f(p["lambda_nm"]),
            "--resolution", _f(res), "--ef", _f(ef)]
    return _request("sensitivity", profile, argv, "json", dict(p, ef=ef, resolution=res))


def potential_request(rng, steps, mR, variant, profile):
    R_cm = _loguniform(rng, 1.0, 30.0)
    V = _loguniform(rng, 1e3, 1e7)
    inv_cm = R_cm / mR  # m_gamma R = (100/inv_cm)(R_cm/100)
    argv = ["proca", "potential", "--V-volts", _f(V), "--R-cm", _f(R_cm),
            "--m-gamma-inv-cm", _f(inv_cm), "--steps", str(steps), "--variant", variant]
    return _request("proca_potential", profile, argv, "csv",
                    {"V": V, "R_cm": R_cm, "inv_cm": inv_cm, "steps": steps,
                     "variant": variant}, defects=["potential-endpoint-rounding"])


def bound_request(rng, profile):
    spec = {"V": _loguniform(rng, 1e3, 1e8), "tau": _loguniform(rng, 1e-3, 1.0),
            "R_cm": _loguniform(rng, 1.0, 100.0), "epsilon": _loguniform(rng, 1e-6, 1e-2)}
    argv = ["proca", "bound", "--V-volts", _f(spec["V"]), "--tau-s", _f(spec["tau"]),
            "--R-cm", _f(spec["R_cm"]), "--epsilon", _f(spec["epsilon"])]
    return _request("proca_bound", profile, argv, "json", spec)


def phase_request(rng, profile):
    R_cm = _loguniform(rng, 1.0, 100.0)
    spec = {"V": _loguniform(rng, 1e3, 1e8), "tau": _loguniform(rng, 1e-3, 1.0),
            "R_cm": R_cm, "rho_cm": rng.uniform(0.0, 0.9) * R_cm,
            "inv_cm": _loguniform(rng, 1e6, 1e14)}
    argv = ["proca", "phase", "--V-volts", _f(spec["V"]), "--tau-s", _f(spec["tau"]),
            "--R-cm", _f(R_cm), "--rho-cm", _f(spec["rho_cm"]),
            "--m-gamma-inv-cm", _f(spec["inv_cm"])]
    return _request("proca_phase", profile, argv, "json", spec)


def _random_walk(rng, vertices, step):
    p = [rng.uniform(-1, 1) for _ in range(3)]
    path = [list(p)]
    for _ in range(vertices - 1):
        p = [x + rng.uniform(-step, step) for x in p]
        path.append(list(p))
    return path


def uniform_request(rng, vertices, profile):
    q = [rng.choice((-1.0, 1.0)) * _loguniform(rng, 1.0, 1e6) for _ in range(3)]
    path = _random_walk(rng, vertices, 0.5)
    field = {"kind": "uniform_q", "params": {"q": q}}
    return _abphase(profile, field, path, {"field": field, "path": path})


def fresnel_request(rng, vertices, profile):
    params = {"omega_rad_s": _loguniform(rng, 1e14, 5e15), "n": rng.uniform(1.0, 2.0),
              "u_mps": [rng.uniform(-100.0, 100.0) for _ in range(3)]}
    path = _random_walk(rng, vertices, 0.5)
    field = {"kind": "fresnel_flow", "params": params}
    return _abphase(profile, field, path, {"field": field, "path": path})


def solenoid_loop(rng, vertices, distance, winding):
    """Regular polygon in the xy plane (z jittered per vertex) whose nearest
    edge passes ``distance`` from the z axis, winding -1, 0 or +1 around it.

    The perpendicular foot from the axis is the edge midpoint, so the
    nearest distance is exactly ``distance``."""
    radius = max(1.0, 2.5 * distance) * 10.0 ** rng.uniform(-0.005, 0.005)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    corners = [(radius * math.cos(rot + 2 * math.pi * k / vertices),
                radius * math.sin(rot + 2 * math.pi * k / vertices))
               for k in range(vertices)]
    inradius = radius * math.cos(math.pi / vertices)
    edge = rng.randrange(vertices)
    angle = rot + 2 * math.pi * (edge + 0.5) / vertices
    nx, ny = math.cos(angle), math.sin(angle)
    # move the polygon along the edge normal: inside at `distance` from the
    # edge for winding +-1, outside at `distance` for winding 0
    shift = inradius - distance if winding else inradius + distance
    corners = [(x - shift * nx, y - shift * ny) for x, y in corners]
    if winding < 0:
        corners.reverse()
    path = [[x, y, rng.uniform(-0.5, 0.5)] for x, y in corners]
    path.append(list(path[0]))
    return path


def solenoid_request(rng, vertices, distance, winding, profile, explicit_coupling,
                     coupling_value):
    flux = _loguniform(rng, 1e-16, 1e-13)
    center = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    path = [[x + center[0], y + center[1], z + center[2]]
            for x, y, z in solenoid_loop(rng, vertices, distance, winding)]
    params = {"flux_wb": flux, "center_m": center}
    if explicit_coupling:
        params["coupling"] = coupling_value
    field = {"kind": "solenoid", "params": params}
    return _abphase(profile, field, path,
                    {"field": field, "path": path, "winding": winding,
                     "distance": distance})


def _abphase(profile, field, path, spec):
    argv = ["abphase", "--field", json.dumps(field), "--path", json.dumps(path)]
    spec = dict(spec, rtol=1e-10)
    defects = []
    if field["kind"] == "solenoid":
        if spec["distance"] <= 1e-6:
            defects.append("near-line-convergence")
        if profile == "modern" and "coupling" not in field["params"]:
            defects.append("modern-profile-ignored")
    return _request("abphase", profile, argv, "json", spec, defects=defects)


def pmomentum_request(rng, grid, levels, profile, with_lambda=True):
    a = rng.uniform(0.5, 2.0)
    geometry = {"a_cm": a, "B_gauss": _loguniform(rng, 1.0, 1e4),
                "d_cm": a * rng.uniform(1.2, 5.0), "q_esu": _loguniform(rng, 0.1, 10.0)}
    if with_lambda:
        geometry["lambda_cm"] = rng.uniform(20.0, 100.0) * max(a, geometry["d_cm"])
    if grid is not None:
        geometry["grid"] = list(grid)
    argv = ["pmomentum", "--geometry", json.dumps(geometry)]
    if levels is not None:
        argv += ["--levels", str(levels)]
    return _request("pmomentum", profile, argv, "json",
                    {"geometry": geometry, "levels": 3 if levels is None else levels},
                    defects=["coarse-grid-refinement-alarm"])


# ---------------------------------------------------------------------------
# invalid inputs for cli_cold: the correct outcome is exit 2 with one JSON
# line on stderr.  Rotated by pass index, so every seed sees the same kinds
# in the same passes.

def _invalid(rng, i, profile):
    nan = "nan"
    if i == 0:
        argv = ["speed", "--mode", "einstein", "--n", nan, "--u-mps", "10"]
        return _request("invalid", profile, argv, "json", {"what": "speed --n nan"},
                        "error", ["nan-accepted"])
    if i == 1:
        argv = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1000",
                "--lambda-nm", "633", "--steps", str(rng.choice((0, 1)))]
        return _request("invalid", profile, argv, "csv", {"what": "fringe --steps < 2"},
                        "error")
    if i == 2:
        geometry = {"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0,
                    "grid": [2, 2, 2]}
        argv = ["pmomentum", "--geometry", json.dumps(geometry)]
        return _request("invalid", profile, argv, "json", {"what": "degenerate grid"},
                        "error", ["degenerate-grid-accepted"])
    if i == 3:
        argv = ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
                "--m-gamma-inv-cm", "0", "--steps", "5"]
        return _request("invalid", profile, argv, "csv", {"what": "zero Compton range"},
                        "error", ["zero-range-traceback"])
    if i == 4:
        argv = ["proca", "bound", "--V-volts", nan, "--tau-s", "0.05", "--R-cm", "27",
                "--epsilon", "1e-4"]
        return _request("invalid", profile, argv, "json", {"what": "proca bound V nan"},
                        "error", ["nan-accepted"])
    if i == 5:
        argv = ["sensitivity", "--L-m", "0", "--n1", "1.0006", "--n2", "1.0001",
                "--u-mps", "1000", "--lambda-nm", "633", "--resolution", "1e-3"]
        return _request("invalid", profile, argv, "json", {"what": "zero arm length"},
                        "error")
    if i == 6:
        argv = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", nan,
                "--lambda-nm", "633", "--steps", "8"]
        return _request("invalid", profile, argv, "csv", {"what": "fringe u nan"},
                        "error", ["nan-accepted"])
    path = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    field = {"kind": "uniform_q", "params": {"q": [1.0, 2.0, 3.0]}}
    argv = ["abphase", "--field", json.dumps(field), "--path", json.dumps(path)]
    return _request("invalid", profile, argv, "json", {"what": "repeated path vertex"},
                    "error")


INVALID_KINDS = 8


# ---------------------------------------------------------------------------
# passes

def cli_cold_pass(rng, index, tiny=False):
    """20 README-shaped requests at small sizes, one of them invalid."""
    def prof():
        return rng.choice(PROFILES)

    reqs = [speed_request(rng, m, prof())
            for m in ("fresnel", "effective", "einstein", "tangherlini",
                      rng.choice(("fresnel", "effective", "einstein", "tangherlini")))]
    reqs.append(sensitivity_request(rng, prof()))
    for lo, hi in ((2, 16), (17, 64)):
        reqs.append(fringe_request(rng, rng.randint(lo, hi),
                                   rng.choice((-1, 1)) * _loguniform(rng, 1e-3, 1e5),
                                   rng.choice(("einstein", "tangherlini")),
                                   rng.uniform(0.0, 0.999), prof()))
    reqs.append(bound_request(rng, prof()))
    reqs.append(phase_request(rng, prof()))
    reqs.append(potential_request(rng, rng.randint(2, 50), _loguniform(rng, 1e-3, 50.0),
                                  rng.choice(("quarter", "half")), prof()))
    reqs.append(_request("bounds", prof(), ["bounds", "--format", "json"], "json", {}))
    reqs.append(_request("bounds", prof(), ["bounds", "--format", "text"], "text", {}))
    for system in ("si", "gaussian"):
        reqs.append(_request("constants", prof(), ["constants", "--system", system], "json",
                             {"system": system}))
    reqs.append(uniform_request(rng, rng.randint(2, 12), prof()))
    reqs.append(fresnel_request(rng, rng.randint(2, 12), prof()))
    # 0.5 m from the line, winding +-1, modern profile without explicit
    # coupling: the profile defect shows in every pass
    reqs.append(solenoid_request(rng, 4, 0.5, rng.choice((-1, 1)), "modern", False, None))
    reqs.append(pmomentum_request(rng, None, None, prof(), with_lambda=False))
    reqs.append(_invalid(rng, index % INVALID_KINDS, prof()))
    rng.shuffle(reqs)
    return reqs


# A warm pass is built in tiers of cost, so that the median and the tail
# percentile of a run (TAIL_PERCENTILE in run.py) each fall inside a cluster
# of like requests: one request shape repeated, with the seed drawing only
# inputs that do not move the cost.  Where they fell between two unlike
# requests, a few per cent of host noise moved them by the gap between the
# two.

#: proca potential profiles (steps, mR), all cheaper than the median
#: cluster: 1e3..1e4 steps and mR 1e-3..650, so the I0 series runs from a
#: few terms to hundreds
_POTENTIALS = ((1000, 650.0), (10000, 1e-3), (3000, 14.0), (2000, 0.3))
#: fringe scans by tier: (steps, count)
_SCAN_TIERS = ((5000, 1), (12000, 9), (30000, 4), (100000, 1))


def scan_bulk_pass(rng, index, tiny=False):
    """19 requests: 4 proca potential profiles and one 5e3-step fringe scan
    below the median, the median cluster of nine 1.2e4-step scans, the tail
    cluster of four 3e4-step scans, and one 1e5-step scan."""
    scale = 0.01 if tiny else 1.0
    reqs = []
    first = rng.randrange(2)
    for steps, count in _SCAN_TIERS:
        for k in range(count):
            law = ("einstein", "tangherlini")[(first + k) % 2]
            u = rng.choice((-1.0, 1.0)) * _loguniform(rng, 1e-3, 1e5)
            reqs.append(fringe_request(rng, max(2, round(scale * steps)), u, law,
                                       rng.uniform(0.0, 0.999), rng.choice(PROFILES)))
    for k, (steps, mR) in enumerate(_POTENTIALS):
        reqs.append(potential_request(rng, max(2, round(scale * steps)), mR,
                                      ("quarter", "half")[(first + k) % 2],
                                      rng.choice(PROFILES)))
    rng.shuffle(reqs)
    return reqs


#: solenoid loops by tier, (distance to the line in m, vertices, |winding|):
#: the cost grows with edge length over distance, and a loop around the line
#: costs more than one beside it.  Five like 1 m loops are the median
#: cluster; the 1 mm .. 0.1 m loops lie above it, two 100 um loops cost
#: about what the finest pmomentum grid does (the tail cluster), and the
#: 10 um and 1 um loops are the slowest.
_LOOP_MEDIAN = ((1.0, 5, 0),) * 5
_LOOP_UPPER = ((1e-3, 16, 1), (1e-2, 16, 1), (1e-1, 32, 1))
_LOOP_TAIL = ((1e-4, 64, 0),) * 2
_LOOP_SLOWEST = ((1e-5, 3, 1), (1e-6, 4, 1))
#: (profile, explicit coupling) of the loops from 1 m to 10 um but the
#: 1 mm one, which alone is modern with the default coupling: it winds
#: round the line, so the profile defect shows exactly once a pass
_LOOP_PROFILES = (("paper", False), ("paper", False), ("paper", True), ("paper", True),
                  ("paper", True), ("modern", True), ("modern", True), ("modern", True),
                  ("modern", True), ("modern", True))
# e/hbar = pi/Phi_0 of each constants profile, for specs that state the coupling
_COUPLING = {"paper": math.pi / 2.067e-15,
             "modern": math.pi / (6.62607015e-34 / (2.0 * 1.602176634e-19))}
#: paths below the median cluster: (maker, vertices)
_PATHS = (("uniform", 100), ("fresnel", 175), ("uniform", 250), ("fresnel", 325),
          ("uniform", 400), ("fresnel", 250))
#: pmomentum grids and the convergence levels run on each; the last is in
#: the tail cluster
_GRIDS = (((8, 16, 128), 4), ((16, 32, 512), 3), ((32, 64, 2048), 2))


def quadrature_pass(rng, index, tiny=False):
    """21 requests: 6 uniform_q / fresnel_flow paths of 100..400 vertices and
    two coarse pmomentum grids below the median, five 1 m solenoid loops
    (the median cluster), loops 1 mm .. 0.1 m from the line, two 100 um
    loops with the (32,64,2048) grid (the tail cluster), and the 10 um and
    1 um loops."""
    reqs = []
    loops = _LOOP_MEDIAN + _LOOP_UPPER + _LOOP_TAIL + _LOOP_SLOWEST
    profiles = list(_LOOP_PROFILES)
    rng.shuffle(profiles)
    profiles.insert(5, ("modern", False))  # the 1 mm loop
    profiles.append(("paper", False))  # the 1 um loop
    if tiny:  # beside the line only: every loop converges in milliseconds
        loops, profiles = _LOOP_MEDIAN[:2], profiles[:2]
    for (distance, vertices, winding), (profile, explicit) in zip(loops, profiles):
        winding *= rng.choice((-1, 1))
        reqs.append(solenoid_request(rng, vertices, distance, winding, profile, explicit,
                                     _COUPLING[profile]))
    makers = {"uniform": uniform_request, "fresnel": fresnel_request}
    for kind, count in _PATHS:
        reqs.append(makers[kind](rng, 10 if tiny else count, rng.choice(PROFILES)))
    for grid, levels in _GRIDS[:1] if tiny else _GRIDS:
        reqs.append(pmomentum_request(rng, grid, levels, rng.choice(PROFILES)))
    rng.shuffle(reqs)
    return reqs


_PASSES = {"cli_cold": cli_cold_pass, "scan_bulk": scan_bulk_pass,
           "quadrature": quadrature_pass}


def make_pass(workload: str, seed: int, index: int, tiny: bool = False) -> list:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _PASSES[workload](rng, index, tiny)


def warmup_request(workload: str) -> dict:
    """Fixed, seed-independent request a fresh interpreter runs before it
    counts as set up."""
    rng = random.Random(f"{workload}:warmup")
    if workload == "cli_cold":
        return speed_request(rng, "einstein", "paper")
    if workload == "scan_bulk":
        return fringe_request(rng, 5000, 1e3, "einstein", 0.0, "paper")
    return solenoid_request(rng, 4, 1.0, 1, "paper", False, None)
