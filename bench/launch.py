"""Small launcher for cold CLI calls.

    python3 bench/launch.py

Reads one JSON command per line, ``{"argv": [...], "stdout": path,
"stderr": path, "timeout": seconds}``, starts the program with stdin from
/dev/null and both streams redirected to the files, waits for it and
answers ``{"code", "ms", "maxrss_kb"}``; ``code`` is null on timeout.

The program's peak memory comes from wait4.  A process started by exec
inherits, as its recorded peak, the peak of the process that spawned it, so
the spawning process must stay smaller than the program: this one imports
nothing beyond the standard library basics.
"""

import json
import os
import signal
import sys
import time


def _timeout(signum, frame):
    raise TimeoutError


def main() -> int:
    signal.signal(signal.SIGALRM, _timeout)
    env = dict(os.environ)
    for line in sys.stdin:
        command = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, command["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644),
            (os.POSIX_SPAWN_OPEN, 2, command["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644),
        ]
        argv = command["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, command["timeout"])
        try:
            _, status, usage = os.wait4(pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        sys.stdout.write(json.dumps({"code": code, "ms": elapsed * 1e3,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
