"""The benchmark's tracer (bench/tracer.py) wraps the functions named in its
TARGETS from outside the package.  A change that removes or moves one of
them breaks ``bench/run.py --trace 1``; this test catches that in tier-1."""

import json
import pathlib
import subprocess
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# A fresh interpreter: the tracer looks its modules up in sys.modules after
# ``import etherdrift.cli`` alone, and other tests import more than that.
_CHECK = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import etherdrift.cli
missing = []
for _, module_name, attr in tracer.TARGETS:
    obj = sys.modules.get(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(module_name + ":" + attr)
if not callable(getattr(etherdrift.cli, "main", None)):
    missing.append("etherdrift.cli:main")
print(json.dumps({"targets": len(tracer.TARGETS), "missing": missing}))
"""


def test_tracer_targets_resolve_after_importing_the_cli():
    proc = subprocess.run([sys.executable, "-c", _CHECK, str(TRACER)],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["targets"] > 0
    assert report["missing"] == []


# numpy loads during the first array request, after the tracer is installed;
# the wrappers must still see the calls into the kernels that import it.  A
# fringe scan of up to 4096 rows runs in plain floats, without angle_scan,
# so the scan here is larger
_TRACE = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import etherdrift.cli
recorder = tracer.Tracer()
recorder.install()
numpy_at_install = "numpy" in sys.modules
requests = [
    ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
     "--lambda-nm", "633", "--steps", "5000"],
    ["abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1.0, 2.0, 3.0]}}',
     "--path", "[[0, 0, 0], [1, 0, 0], [1, 1, 0]]"],
    ["pmomentum", "--geometry",
     '{"a_cm": 1, "B_gauss": 100, "d_cm": 3, "q_esu": 1, "grid": [8, 16, 128]}',
     "--levels", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [etherdrift.cli.main(argv) for argv in requests]
print(json.dumps({"codes": codes, "numpy_at_install": numpy_at_install,
                  "calls": {name: stats[0] for name, stats in recorder.stats.items()},
                  "counters": dict(recorder.counters)}))
"""


def test_tracer_records_kernels_that_load_numpy_late():
    proc = subprocess.run([sys.executable, "-c", _TRACE, str(TRACER)],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["numpy_at_install"] is False
    assert report["calls"]["interferometer.angle_scan"] >= 1
    assert report["calls"]["abphase.phase_line_integral"] >= 1
    # the tracer still reads the geometry's grid: 8 x 16 x (64 + 128) points
    assert report["calls"]["fieldmomentum.convergence_study"] == 1
    assert report["counters"]["fieldmomentum.grid_points"] == 8 * 16 * (64 + 128)
