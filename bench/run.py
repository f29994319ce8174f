"""etherdrift benchmark: cold CLI calls, bulk scans and quadrature.

    python3 bench/run.py --workload cli_cold|scan_bulk|quadrature \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds 3    # every metric of every workload
    python3 bench/run.py --workload quadrature --tiny  # tiny sizes, for bench/test_bench.py

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One caller, closed loop: the next request is
sent only after the previous one has completed, and no two processes of
the program run at once.

``cli_cold`` starts ``python3 -m etherdrift.cli`` per request.  The warm
workloads call ``etherdrift.cli.main(argv)`` in a benchmark-owned child
interpreter (child.py), so the program's memory is measured apart from the
mpmath references computed here.  Every output is checked against
oracle.py outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics, from spans recorded around the public
functions of every layer (tracer.py) over pass 0 of the seeded sequence,
together with the tracing overhead.  The last line of stdout is one JSON
object; the lines before it are a readable report starting with '#'.
Per-request records and raw spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (mpmath stays in this process)
import workloads  # noqa: E402
from outputs import parse_output  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up samples taken before each pass of a --trace 0 run, so that they
#: are spread over the run like the requests, and the least a run takes
SETUP_PER_PASS = 2
SETUP_MIN = 10
#: set-up interpreters a --trace 1 run reads its import stages from
SETUP_SAMPLES = 7
INTERPRETER_SAMPLES = 5
REQUEST_TIMEOUT_S = 60.0
WALL_CAP_S = 110.0
#: the percentile of latency_tail_ctl, fixed per workload so that runs stay
#: comparable: in the middle of the workload's tail cluster (workloads.py),
#: with at least ten samples beyond it in a 25 s run; a run that leaves
#: fewer says so
TAIL_PERCENTILE = {"cli_cold": 90, "scan_bulk": 85, "quadrature": 85}
#: size of the in-run control: loop iterations, floats allocated, CSV rows
#: formatted for the output-heavy workload and, for cold calls, whether a
#: fresh interpreter is part of it; 9-13 ms on the warm workloads and about
#: 75 ms on cli_cold on the reference machine
CONTROL_LOOP = 50000
CONTROL_FLOATS = 60000
CONTROL_ROWS = {"cli_cold": 0, "scan_bulk": 3000, "quadrature": 0}
CONTROL_INTERPRETER = {"cli_cold": True, "scan_bulk": False, "quadrature": False}
#: nominal length of one pass on the reference machine; a run executes
#: round(--seconds / PASS_SECONDS) whole passes, whatever the host's speed
PASS_SECONDS = 5.0
#: control drift (slowest pass over fastest) above which a run warns
CONTROL_DRIFT_WARN = 1.5

E2E_UNITS = {"setup_s": "s", "latency_p50_ctl": "ctl", "latency_tail_ctl": "ctl",
             "requests_per_kctl": "1/kctl", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def pinned_env() -> dict:
    """Environment of every program process: the tree under test on
    PYTHONPATH, no ETHERDRIFT_PROFILE, single-threaded BLAS."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": os.environ.get("HOME", str(ROOT)),
            "LANG": "C.UTF-8", "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment_record(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version, "blas_threads": 1, "seed": seed,
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# program processes

class Child:
    """A benchmark-owned interpreter answering one JSON line per command:
    child.py (the program, warm) or, with script="launch.py", the launcher
    of cold calls."""

    def __init__(self, env, trace=False, script="child.py"):
        cmd = [sys.executable, str(HERE / script)] + (["--trace"] if trace else [])
        self.err = open(OUT / "child.err", "a")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, env=env, cwd=ROOT, text=True)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def ask(self, command, timeout=REQUEST_TIMEOUT_S) -> dict:
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise ChildError("child exited") from None
        if not self.selector.select(timeout):
            raise ChildError(f"no answer within {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError("child exited without answering")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()
        self.err.close()


def run_warm(child, request) -> dict:
    """One request answered in-process by child.py; stdout goes to a file."""
    path = OUT / "warm.out"
    reply = child.ask({"argv": request["argv"], "stdout": str(path)})
    return with_output(reply, request, path)


def run_cold(request, launcher) -> dict:
    """One fresh `python3 -m etherdrift.cli` per request, started by the
    launcher; wall time from spawn to exit."""
    out_path, err_path = OUT / "cold.out", OUT / "cold.err"
    answer = launcher.ask({"argv": [sys.executable, "-m", "etherdrift.cli"] + request["argv"],
                           "stdout": str(out_path), "stderr": str(err_path),
                           "timeout": REQUEST_TIMEOUT_S}, timeout=REQUEST_TIMEOUT_S + 10)
    reply = {"code": answer["code"], "ms": answer["ms"], "stderr": err_path.read_text(),
             "peak_rss_kb": answer["maxrss_kb"]}
    if answer["code"] is None:
        reply["code"], reply["stderr"] = -1, f"timeout after {REQUEST_TIMEOUT_S} s"
    return with_output(reply, request, out_path)


def with_output(reply, request, path) -> dict:
    """Add the request's stdout, read back from its file, and parse it
    against the oracle's sampled rows.  The output is ASCII, so its length
    is its size in bytes."""
    text = path.read_text()
    reply["stdout"], reply["out_bytes"] = text, len(text)
    if reply["code"] == 0:
        sample = (oracle.sample_rows(request)
                  if request["fmt"] == "csv" and request["expect"] == "ok" else ())
        try:
            reply["parsed"] = parse_output(request["fmt"], text, sample)
        except ValueError as exc:
            reply["parse_error"] = str(exc)
    return reply


def run_cold_traced(request, env) -> tuple:
    """A traced cold request: child.py --trace answers it and exits."""
    start = time.perf_counter()
    child = Child(env, trace=True)
    try:
        reply = run_warm(child, request)
        info = child.ask({"cmd": "stats"})
    finally:
        child.close()
    return reply, info, (time.perf_counter() - start) * 1e3


def control_ms(rows=0, interpreter=False) -> float:
    """In-run control: fixed work timed on the processor the program runs
    on, of the kinds the workload's requests are made of: a loop of integer
    arithmetic and a list of fresh floats; for an output-heavy workload,
    ``rows`` CSV rows of floats formatted and joined; for cold calls, with
    ``interpreter``, a fresh isolated interpreter importing two standard
    modules.  No change to the program moves it; the host does."""
    start = time.perf_counter()
    if interpreter:
        subprocess.run([sys.executable, "-I", "-c", "import csv, json"], check=True,
                       stdin=subprocess.DEVNULL, cwd=ROOT)
    total = 0
    for i in range(CONTROL_LOOP):
        total += i * i % 7
    total += sum([float(i) for i in range(CONTROL_FLOATS)])
    x = 0.1234567
    lines = []
    for i in range(rows):
        x = x * 1.0000001 + 1e-3
        lines.append("%.17g,%.17g" % (x, -x))
    "\n".join(lines)
    return (time.perf_counter() - start) * 1e3


def pin_to_one_cpu():
    """Run this process and every process it starts on one processor, so
    that the control is timed where the program runs.  The processors of a
    shared host slow down independently; timed on another one, the control
    did not follow the program (correlation at most 0.14 against 0.6-0.85
    pinned, on the reference machine).  The requests never overlap, so
    they do not compete for it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# set-up

def prime(workload, env):
    """One unmeasured interpreter, so bytecode caches exist before timing."""
    child = Child(env, trace=False)
    try:
        run_warm(child, workloads.warmup_request(workload))
    finally:
        child.close()


def setup_sample(workload, env, trace=False) -> tuple:
    """One fresh interpreter importing etherdrift.cli and finishing the
    workload's warm-up request: (seconds, the child still running, a
    problem or None).  The clock stops when the answer arrives, before the
    output is checked."""
    request = workloads.warmup_request(workload)
    path = OUT / "warm.out"
    child = Child(env, trace)
    try:
        reply = child.ask({"argv": request["argv"], "stdout": str(path)})
        seconds = time.perf_counter() - child.start
        judged = oracle.verdict(request, with_output(reply, request, path))
    except BaseException:
        child.close()
        raise
    return seconds, child, None if judged["ok"] else f"warm-up request failed: {judged['cause']}"


def measure_setup(workload, env, trace) -> tuple:
    """SETUP_SAMPLES set-up samples in a row; returns the import stages of
    each, the problems, and the last child still running."""
    stages, problems = [], []
    for i in range(SETUP_SAMPLES):
        _, child, problem = setup_sample(workload, env, trace)
        problems += [problem] if problem else []
        try:
            stages.append(child.ask({"cmd": "stats"}) if trace else {})
        except BaseException:
            child.close()
            raise
        if i == SETUP_SAMPLES - 1:
            return stages, problems, child
        child.close()


def interpreter_ms(env) -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# measurement

class Run:
    def __init__(self, workload, seed, seconds, tiny):
        self.workload, self.seed, self.seconds, self.tiny = workload, seed, seconds, tiny
        self.env = pinned_env()
        self.env_record = environment_record(seed)
        self.records = []
        self.problems = []
        self.spans = []

    def check(self, request, reply, phase, pass_index=0, control=None) -> dict:
        judged = oracle.verdict(request, reply)
        record = {"phase": phase, "pass": pass_index, "kind": request["kind"],
                  "argv": request["argv"], "control_ms": control,
                  "ms": reply["ms"], "code": reply["code"], "ok": judged["ok"],
                  "cause": judged["cause"], "known": judged["known"],
                  "ratio": judged["ratio"], "leaves": judged["leaves"],
                  "out_bytes": reply.get("out_bytes", 0),
                  "peak_rss_kb": reply.get("peak_rss_kb")}
        self.records.append(record)
        return record

    def passes(self):
        index = 0
        while True:
            yield workloads.make_pass(self.workload, self.seed, index, self.tiny)
            index += 1

    # -- end to end ------------------------------------------------------

    def end_to_end(self) -> dict:
        cold = self.workload == "cli_cold"
        prime(self.workload, self.env)
        setup = []
        worker = None

        def sample_setup():
            seconds, child, problem = setup_sample(self.workload, self.env)
            setup.append(seconds)
            self.problems += [problem] if problem else []
            return child

        if not cold:  # the first set-up interpreter stays as the warm worker
            worker = sample_setup()
        launcher = Child(self.env, script="launch.py") if cold else None
        peak_kb = []
        # a fixed number of whole passes, so that a seed always gives the same
        # requests, whatever the host's speed; the wall-clock cap keeps a run
        # on a very slow host under 180 s
        passes = max(1, round(self.seconds / PASS_SECONDS))
        start = time.perf_counter()
        capped = False
        try:
            for index, requests in enumerate(self.passes()):
                if index == passes or capped:
                    break
                for _ in range(SETUP_PER_PASS):
                    sample_setup().close()
                for request in requests:
                    control = control_ms(CONTROL_ROWS[self.workload],
                                         CONTROL_INTERPRETER[self.workload])
                    if cold:
                        reply = run_cold(request, launcher)
                        peak_kb.append(reply["peak_rss_kb"])
                    else:
                        reply = run_warm(worker, request)
                    self.check(request, reply, "measure", index, control)
                    if time.perf_counter() - start >= WALL_CAP_S:
                        capped = True
                        break
            if worker is not None:
                peak_kb.append(worker.ask({"cmd": "stats"})["peak_rss_kb"])
            while len(setup) < SETUP_MIN:
                sample_setup().close()
        finally:
            for process in (worker, launcher):
                if process is not None:
                    process.close()
        lat = sorted(r["ms"] for r in self.records)
        n = len(lat)
        pct = TAIL_PERCENTILE[self.workload]
        tail_index = max(0, math.ceil(pct / 100.0 * n) - 1)
        beyond = n - 1 - tail_index
        # times in units of the control: the host's speed drifts by tens of
        # per cent between runs and within one, and the control moves with
        # it.  A latency is divided by the control timed just before it, the
        # summed time by the mean control, which weighs the host's states as
        # the sum does.
        rel = sorted(r["ms"] / r["control_ms"] for r in self.records)
        ctl = statistics.median(r["control_ms"] for r in self.records)
        mean_ctl = statistics.fmean(r["control_ms"] for r in self.records)
        p50_ms, tail_ms = statistics.median(lat), lat[tail_index]
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "latency_p50_ctl": (statistics.median(rel), n),
            "latency_tail_ctl": (rel[tail_index], n),
            "requests_per_kctl": (1e3 * n * mean_ctl / sum(lat), n),
            "peak_rss_mb": (max(peak_kb) / 1024.0, len(peak_kb)),
        }
        done = max(r["pass"] for r in self.records) + 1
        control = [statistics.median(r["control_ms"] for r in self.records if r["pass"] == i)
                   for i in range(done)]
        drift = max(control) / min(control)
        notes = [f"{done} of {passes} passes of the seeded sequence"
                 + (f", stopped at the {WALL_CAP_S:g} s wall-clock cap" if capped else ""),
                 f"ctl is the time of the control timed before each request, median "
                 f"{ctl:.4f} ms; slowest pass / fastest pass {drift:.3f}",
                 "latency_p50_ctl is the median over requests of wall time / the ctl "
                 "timed before it",
                 f"latency_tail_ctl is the p{pct} of the same over all requests; "
                 f"{beyond} samples lie beyond it",
                 "requests_per_kctl is requests per 1000 mean ctl of summed request "
                 "wall time (one caller, closed loop, checking time excluded)",
                 f"as measured: latency p50 {p50_ms:.3f} ms, p{pct} {tail_ms:.3f} ms, "
                 f"{1e3 * n / sum(lat):.4f} requests/s"]
        if beyond < 10:
            notes.append(f"WARNING: only {beyond} samples lie beyond p{pct}; the tail is "
                         f"not the ten-sample percentile the metric is defined as")
        if drift > CONTROL_DRIFT_WARN:
            notes.append(f"WARNING: the control drifted by {drift:.2f}x within the run; "
                         f"the host changed speed during it")
        return {"metrics": values, "units": E2E_UNITS, "notes": notes,
                "control": {"median_ms": ctl, "drift": drift}}

    # -- traced ----------------------------------------------------------

    def traced(self) -> dict:
        cold = self.workload == "cli_cold"
        requests = workloads.make_pass(self.workload, self.seed, 0, self.tiny)
        prime(self.workload, self.env)
        interp = interpreter_ms(self.env)
        stages, traced_worker = [], None
        if not cold:  # import stages come from the set-up interpreters
            stages, problems, traced_worker = measure_setup(self.workload, self.env, True)
            self.problems += problems
        summaries = []
        untraced_ms, traced_ms = [], []
        try:
            if cold:
                launcher = Child(self.env, script="launch.py")
                try:
                    for request in requests:
                        untraced_ms.append(self.check(request, run_cold(request, launcher),
                                                      "untraced")["ms"])
                finally:
                    launcher.close()
                for request in requests:
                    reply, info, wall_ms = run_cold_traced(request, self.env)
                    reply["ms"] = wall_ms
                    traced_ms.append(self.check(request, reply, "traced")["ms"])
                    stages.append(info)
                    summaries.append(info["trace"])
                    self.spans += [[len(traced_ms)] + span[1:] for span in info["spans"]]
            else:
                plain = Child(self.env)
                try:
                    run_warm(plain, workloads.warmup_request(self.workload))
                    for request in requests:
                        reply = run_warm(plain, request)
                        untraced_ms.append(self.check(request, reply, "untraced")["ms"])
                finally:
                    plain.close()
                traced_worker.ask({"cmd": "reset"})
                for request in requests:
                    reply = run_warm(traced_worker, request)
                    traced_ms.append(self.check(request, reply, "traced")["ms"])
                info = traced_worker.ask({"cmd": "stats"})
                summaries.append(info["trace"])
                self.spans = info["spans"]
        finally:
            if traced_worker is not None:
                traced_worker.close()
        with open(OUT / f"spans-{self.workload}-seed{self.seed}.jsonl", "w") as handle:
            for request, name, start, end, parent in self.spans:
                handle.write(json.dumps({"request": request, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
        return layer_metrics(self, summaries, stages, interp, untraced_ms, traced_ms)


LAYER_UNITS = {
    "startup.interpreter_ms": "ms", "startup.numpy_import_ms": "ms",
    "startup.etherdrift_import_ms": "ms", "startup.numpy_loaded_frac": "frac",
    "cli.parse_config.self_ms": "ms", "cli.render.self_ms": "ms", "cli.render.bytes": "bytes",
    "cli.error_exits": "count",
    "interferometer.angle_scan.self_ms": "ms", "interferometer.angle_scan.rows": "count",
    "interferometer.delay_exact.calls": "count",
    "kinematics.compose_lab_speed.calls": "count",
    "kinematics.compose_lab_speed.self_ms": "ms",
    "proca.bessel_I0.calls": "count", "proca.bessel_I0.self_ms": "ms",
    "proca.cylinder_potential_exact.self_ms": "ms", "proca.series_overflow_errors": "count",
    "abphase.phase_line_integral.self_ms": "ms", "abphase.field_evals": "count",
    "abphase.points_evaluated": "count", "abphase.points_per_segment": "ratio",
    "abphase.convergence_errors": "count",
    "fieldmomentum.integrate_field_momentum.self_ms": "ms",
    "fieldmomentum.convergence_study.self_ms": "ms",
    "fieldmomentum.grid_points": "points_computed",
    "units.get_constants.calls": "count",
    "trace.overhead_ms": "ms", "trace.overhead_frac": "frac",
    "check.failed_frac": "frac", "check.error_to_tolerance_max": "ratio",
}


def layer_metrics(run, summaries, stages, interp, untraced_ms, traced_ms) -> dict:
    """Per-layer numbers over the traced pass.  Times are per traced
    request; counts are totals over the pass, which is fixed by the seed,
    so they repeat exactly."""
    stats, counters, errors = {}, {}, {}
    for summary in summaries:
        for name, (calls, total, own) in summary["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in summary["errors"].items():
            errors[key] = errors.get(key, 0) + value
    n = len(traced_ms)

    def self_ms(name):
        return stats.get(name, [0, 0.0, 0.0])[2] * 1e3 / n

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    numpy_ms = [s["numpy_import_ms"] for s in stages if s.get("numpy_import_ms") is not None]
    own_import = [s["etherdrift_import_ms"]
                  - (s["numpy_import_ms"] if s.get("numpy_at_import") else 0.0)
                  for s in stages]
    segments = counters.get("abphase.segments", 0)
    points = counters.get("abphase.points_evaluated", 0)
    checked = [r for r in run.records if r["phase"] in ("untraced", "traced")]
    ok = [r for r in checked if r["ok"]]
    mean_untraced = statistics.fmean(untraced_ms)
    mean_traced = statistics.fmean(traced_ms)
    values = {
        "startup.interpreter_ms": (interp, INTERPRETER_SAMPLES),
        "startup.numpy_import_ms": (statistics.median(numpy_ms) if numpy_ms else 0.0,
                                    len(numpy_ms)),
        "startup.etherdrift_import_ms": (statistics.median(own_import), len(own_import)),
        "startup.numpy_loaded_frac": (
            sum(bool(s.get("numpy_loaded")) for s in stages) / len(stages), len(stages)),
        "cli.parse_config.self_ms": (self_ms("cli.parse_config"), n),
        "cli.render.self_ms": (self_ms("cli.render"), n),
        "cli.render.bytes": (counters.get("cli.render.bytes", 0), n),
        "cli.error_exits": (counters.get("cli.error_exits", 0), n),
        "interferometer.angle_scan.self_ms": (self_ms("interferometer.angle_scan"), n),
        "interferometer.angle_scan.rows": (counters.get("interferometer.angle_scan.rows", 0), n),
        "interferometer.delay_exact.calls": (calls("interferometer.delay_exact"), n),
        "kinematics.compose_lab_speed.calls": (calls("kinematics.compose_lab_speed"), n),
        "kinematics.compose_lab_speed.self_ms": (self_ms("kinematics.compose_lab_speed"), n),
        "proca.bessel_I0.calls": (calls("proca.bessel_I0"), n),
        "proca.bessel_I0.self_ms": (self_ms("proca.bessel_I0"), n),
        "proca.cylinder_potential_exact.self_ms": (self_ms("proca.cylinder_potential_exact"), n),
        "proca.series_overflow_errors": (
            sum(v for k, v in errors.items()
                if k.startswith("proca.") and k.endswith(":SeriesOverflowError")), n),
        "abphase.phase_line_integral.self_ms": (self_ms("abphase.phase_line_integral"), n),
        "abphase.field_evals": (calls("abphase.q_at"), n),
        "abphase.points_evaluated": (points, n),
        "abphase.points_per_segment": (points / segments if segments else 0.0, n),
        "abphase.convergence_errors": (
            errors.get("abphase.phase_line_integral:ConvergenceError", 0), n),
        "fieldmomentum.integrate_field_momentum.self_ms": (
            self_ms("fieldmomentum.integrate_field_momentum"), n),
        "fieldmomentum.convergence_study.self_ms": (self_ms("fieldmomentum.convergence_study"), n),
        "fieldmomentum.grid_points": (counters.get("fieldmomentum.grid_points", 0), n),
        "units.get_constants.calls": (calls("units.get_constants"), n),
        "trace.overhead_ms": (mean_traced - mean_untraced, n),
        "trace.overhead_frac": ((mean_traced - mean_untraced) / mean_untraced, n),
        "check.failed_frac": ((len(checked) - len(ok)) / len(checked), len(checked)),
        "check.error_to_tolerance_max": (max((r["ratio"] for r in ok), default=0.0), len(ok)),
    }
    notes = ["times are per traced request, counts are totals over pass 0",
             "fieldmomentum.grid_points is computed from the requested grids, not measured",
             f"untraced {mean_untraced:.3f} ms, traced {mean_traced:.3f} ms per request",
             f"dropped spans: {sum(s['dropped_spans'] for s in summaries)}"]
    return {"metrics": values, "units": LAYER_UNITS, "notes": notes}


# ---------------------------------------------------------------------------
# reporting

def self_test(workload, seed, tiny) -> list:
    """Checks that are miswired, found without running the program."""
    problems = []
    for request in workloads.make_pass(workload, seed, 0, tiny) + [
            workloads.warmup_request(workload)]:
        problems += [f"{request['kind']} {p}" for p in oracle.miswired(request)]
    return problems


def report(run, outcome, trace) -> dict:
    records = run.records
    failed = [r for r in records if not r["ok"]]
    unexplained = [r for r in failed if r["known"] is None]
    correct = bool(records) and not unexplained and not run.problems
    ok = [r for r in records if r["ok"]]
    causes = {}
    for r in failed:
        key = (f"known:{r['known']}" if r["known"]
               else f"unexplained: {r['kind']}: {r['cause'].split(':')[0]}")
        causes[key] = causes.get(key, 0) + 1
    print(f"# etherdrift benchmark  workload={run.workload} seed={run.seed} "
          f"seconds={run.seconds} trace={trace}")
    print(f"# environment {json.dumps(run.env_record)}")
    for name, (value, count) in outcome["metrics"].items():
        print(f"# {name:48s} {value:>16.6g} {outcome['units'][name]:<16s} n={count}")
    for note in outcome["notes"]:
        print(f"# note: {note}")
    print(f"# requests attempted={len(records)} failed={len(failed)} "
          f"failed_frac={len(failed) / max(1, len(records)):.4f} "
          f"error_to_tolerance_max={max((r['ratio'] for r in ok), default=0.0):.4g}")
    for cause, count in sorted(causes.items()):
        print(f"# failure x{count}: {cause}")
    for r in unexplained[:3]:
        print(f"# e.g. {r['kind']} {r['cause']}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{run.workload}-seed{run.seed}-trace{trace}.json").write_text(json.dumps({
        "environment": run.env_record, "metrics": outcome["metrics"], "notes": outcome["notes"],
        "control": outcome.get("control"),
        "failures": causes, "problems": run.problems, "records": records}, indent=1))
    return {"correct": correct, "attempted": len(records), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": outcome["units"][name]}
                        for name, (value, _) in outcome["metrics"].items()}}


def run_one(workload, seed, seconds, trace, tiny) -> dict:
    run = Run(workload, seed, seconds, tiny)
    outcome = run.traced() if trace else run.end_to_end()
    return report(run, outcome, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny request sizes (self-test of the benchmark)")
    args = parser.parse_args(argv)
    if not (SRC / "etherdrift" / "cli.py").is_file():
        print(f"error: no etherdrift source tree at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    problems = [p for name in names for p in self_test(name, args.seed, args.tiny)]
    if problems:
        for problem in problems:
            print(f"error: miswired check: {problem}", file=sys.stderr)
        return 3
    if args.workload == "all":
        incorrect = 0
        for name in names:
            for trace in (0, 1):
                result = run_one(name, args.seed, args.seconds, trace, args.tiny)
                print(json.dumps(result))
                incorrect += not result["correct"]
        return 1 if incorrect else 0
    result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
