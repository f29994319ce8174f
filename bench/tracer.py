"""Spans around the public functions of each etherdrift layer.

Wrapping happens from outside: after ``import etherdrift.cli``, every
module of the package that holds a reference to one of the TARGETS gets a
wrapper in its place, so calls between modules (cli -> interferometer ->
kinematics) pass through the spans.  Nothing in the package is edited.

Per span name the tracer keeps calls, total time and self time (duration
minus the time covered by its child spans, which nest because the program
is single-threaded).  Raw spans (request, name, start, end, parent) are
kept in memory up to SPAN_CAP and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPAN_CAP = 20000

# span name -> (module, attribute); a class attribute is "Class.method"
TARGETS = (
    ("cli.parse_config", "etherdrift.cli", "parse_config"),
    ("cli.render", "etherdrift.cli", "render_json"),
    ("cli.render", "etherdrift.cli", "render_csv"),
    ("interferometer.angle_scan", "etherdrift.interferometer", "angle_scan"),
    ("interferometer.delay_exact", "etherdrift.interferometer", "delay_exact"),
    ("kinematics.compose_lab_speed", "etherdrift.kinematics", "compose_lab_speed"),
    ("proca.bessel_I0", "etherdrift.proca", "bessel_I0"),
    ("proca.cylinder_potential_exact", "etherdrift.proca", "cylinder_potential_exact"),
    ("abphase.phase_line_integral", "etherdrift.abphase", "phase_line_integral"),
    ("abphase.q_at", "etherdrift.abphase", "UniformQ.q_at"),
    ("abphase.q_at", "etherdrift.abphase", "FresnelFlow.q_at"),
    ("abphase.q_at", "etherdrift.abphase", "SolenoidVectorPotential.q_at"),
    ("fieldmomentum.integrate_field_momentum", "etherdrift.fieldmomentum",
     "integrate_field_momentum"),
    ("fieldmomentum.convergence_study", "etherdrift.fieldmomentum", "convergence_study"),
    ("units.get_constants", "etherdrift.units", "get_constants"),
)


def _grid_points_integrate(geom):
    nr, nphi, nz = geom.grid
    return sum(max(2, nr // f) * max(2, nphi // f) * max(2, nz // f) for f in (1, 2, 4))


def _grid_points_study(geom, levels):
    nr, nphi, nz = geom.grid
    return sum(nr * nphi * max(2, round(nz * 2.0 ** (k - (levels - 1))))
               for k in range(levels))


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.counters = Counter()
        self.errors = Counter()  # "name:ExceptionType" at the innermost span
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._stack = []       # [child_time, span_index]

    def reset(self):
        """Forget everything recorded so far; wrappers hold on to the
        containers, so they are cleared in place."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.errors.clear()
        self.spans.clear()
        self.dropped = 0
        self.request = 0

    def wrap(self, name, fn, on_call=None, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self.counters, args, kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans) if len(spans) < SPAN_CAP else -1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not getattr(exc, "_bench_counted", False):
                    self.errors[f"{name}:{type(exc).__name__}"] += 1
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans.append((self.request, name, start, end, parent))
                else:
                    self.dropped += 1
            if on_return is not None:
                on_return(self.counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every TARGET wherever the etherdrift package refers to it."""
        hooks = {
            "cli.render": (None, lambda c, r: c.update({"cli.render.bytes": len(r.encode())})),
            "interferometer.angle_scan": (
                None, lambda c, r: c.update({"interferometer.angle_scan.rows": len(r)})),
            "abphase.phase_line_integral": (
                lambda c, a, k: c.update(
                    {"abphase.segments": len((k.get("path") or a[1]).vertices) - 1}), None),
            "abphase.q_at": (
                lambda c, a, k: c.update(
                    {"abphase.points_evaluated": _point_count(a[1] if len(a) > 1
                                                              else k["points"])}), None),
            "fieldmomentum.integrate_field_momentum": (
                lambda c, a, k: c.update(
                    {"fieldmomentum.grid_points": _grid_points_integrate(a[0])}), None),
            "fieldmomentum.convergence_study": (
                lambda c, a, k: c.update(
                    {"fieldmomentum.grid_points": _grid_points_study(a[0], a[1])}), None),
        }
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "etherdrift" or n.startswith("etherdrift."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            on_call, on_return = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), on_call, on_return))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, on_call, on_return)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters),
                "errors": dict(self.errors), "dropped_spans": self.dropped}


def _point_count(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return 1 if len(shape) < 2 else int(shape[0])


class ImportTimer:
    """Meta-path hook timing the first import of numpy (cumulative, with its
    submodules), wherever in the process it happens."""

    def __init__(self):
        self.numpy_s = None

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        import importlib.util
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        loader = spec.loader
        exec_module = loader.exec_module

        def timed_exec(module):
            start = time.perf_counter()
            try:
                exec_module(module)
            finally:
                self.numpy_s = time.perf_counter() - start

        loader.exec_module = timed_exec
        return spec
