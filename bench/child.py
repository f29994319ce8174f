"""Benchmark-owned child process that runs etherdrift requests in a fresh interpreter.

    python3 bench/child.py [--trace]

Imports ``etherdrift.cli``, then reads one JSON command per line on stdin
and answers each with one JSON line on stdout:

* ``{"argv": [...], "stdout": path}`` runs ``etherdrift.cli.main(argv)``
  in-process with stdout written to the file at ``path``, as a CLI call
  writing to a file would, and stderr captured; it answers ``{"code",
  "ms", "stderr"}``.  ``ms`` is the wall time of ``main`` and the final
  flush of stdout.  The output is read, parsed and checked by the parent,
  so this process holds no copy of it and its peak memory is the
  program's.
* ``{"cmd": "reset"}`` clears the trace (after a warm-up request).
* ``{"cmd": "stats"}`` answers the peak resident memory, the import stages
  and, with ``--trace``, the span statistics and raw spans.

With ``--trace`` the import of numpy is timed by a meta-path hook and the
public functions of every layer are wrapped (tracer.py).  Without it the
program runs untouched.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

START = time.perf_counter()
TRACE = "--trace" in sys.argv[1:]

if TRACE:
    from tracer import ImportTimer, Tracer
    import_timer = ImportTimer()
    sys.meta_path.insert(0, import_timer)

_t0 = time.perf_counter()
import etherdrift.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0
NUMPY_AT_IMPORT = "numpy" in sys.modules

tracer = None
if TRACE:
    tracer = Tracer()
    tracer.install()


def run_request(command) -> dict:
    err = io.StringIO()
    clock = time.perf_counter
    with open(command["stdout"], "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            code = cli.main(command["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a real CLI call with a traceback
            traceback.print_exc()
            code = 1
        out.flush()
        elapsed = clock() - start
    reply = {"code": code, "ms": elapsed * 1e3, "stderr": err.getvalue()}
    if tracer is not None:
        tracer.request += 1
        if code != 0:
            tracer.counters["cli.error_exits"] += 1
    return reply


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    getrusage would also count the peak of the process that spawned this
    one, which exec records as inherited."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def stats() -> dict:
    numpy_s = import_timer.numpy_s if TRACE else None
    reply = {"peak_rss_kb": peak_rss_kb(), "etherdrift_import_ms": IMPORT_S * 1e3,
             "numpy_import_ms": None if numpy_s is None else numpy_s * 1e3,
             "numpy_at_import": NUMPY_AT_IMPORT, "numpy_loaded": "numpy" in sys.modules}
    if tracer is not None:
        reply["trace"] = tracer.summary()
        reply["spans"] = tracer.spans
    return reply


def main() -> int:
    channel = sys.stdout
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("cmd") == "stats":
            reply = stats()
        elif command.get("cmd") == "reset":
            if tracer is not None:
                tracer.reset()
            reply = {}
        else:
            reply = run_request(command)
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
