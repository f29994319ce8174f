"""How a CLI process ends: ``cli._console_main`` runs ``main`` on a
buffered stdout of its own and flushes it, turns a failed write into exit 1
(a broken pipe) or exit 120 and one JSON line on stderr (any other), runs
the atexit handlers, flushes stderr, then leaves by os._exit, skipping the
interpreter's teardown.  A report that stderr cannot take (closed or full)
is lost, and the call keeps its exit code.  ``cli.main`` itself only
returns its exit code.

Each request runs in a fresh ``python -m etherdrift.cli`` here, the path
the ``etherdrift`` script takes too."""

import atexit
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etherdrift import cli

CLI = [sys.executable, "-m", "etherdrift.cli"]

SPEED = ["speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "1e3"]

#: a DomainError: exit 2, nothing on stdout
REFUSED = ["speed", "--mode", "einstein", "--n", "nan", "--u-mps", "1e3"]


def scan(steps):
    return ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
            "--lambda-nm", "633", "--steps", str(steps)]


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def environment(buffered):
    """This environment, with stdout block-buffered or unbuffered."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [SPEED, REFUSED, scan(20000)], ids=["speed", "refused", "scan"])
def test_fresh_process_prints_what_main_prints(argv, buffered):
    # the 20000-row scan (1.7 MB) is streamed and outgrows a pipe's buffer,
    # so its last block still sits in stdout's buffer at the final flush
    proc = subprocess.run(CLI + argv, capture_output=True, env=environment(buffered))
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv)


def run_module_script(argv, handlers=1, log=None):
    """A script that registers atexit handlers, then runs the CLI module
    as __main__, as ``python -m`` does.  Each handler writes its line to
    stderr, or appends it to the file log."""
    if log is None:
        ran = "sys.stderr.write"
    else:
        ran = f"lambda line: open({str(log)!r}, 'a').write(line)"
    return (f"import atexit, runpy, sys\n"
            f"for i in range({handlers}):\n"
            f"    atexit.register({ran}, f'handler {{i}} ran\\n')\n"
            f"sys.argv = ['etherdrift', *{argv!r}]\n"
            f"runpy.run_module('etherdrift.cli', run_name='__main__')\n")


@pytest.mark.parametrize("argv", [SPEED, ["nosuch"], REFUSED], ids=["exit-0", "exit-1", "exit-2"])
def test_atexit_handlers_run_once(argv):
    proc = subprocess.run([sys.executable, "-c", run_module_script(argv, handlers=2)],
                          capture_output=True, text=True)
    code, stdout, stderr = in_process(argv)
    assert (proc.returncode, proc.stdout) == (code, stdout.decode())
    # handlers run last in, first out, after everything main wrote
    assert proc.stderr == stderr.decode() + "handler 1 ran\nhandler 0 ran\n"


#: the one stderr line of a call whose output cannot be written for lack of space
NO_SPACE = ('{"error":"OSError","message":"cannot write the output: '
            '[Errno 28] No space left on device"}\n')


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [SPEED, scan(3000), scan(20000)],
                         ids=["speed", "one-string", "streamed"])
def test_full_disk_ends_with_one_json_line_and_exit_120(argv, buffered):
    # the answer fits stdout's buffer (speed), outgrows it in one write
    # (3000 rows, 250 kB) or in a stream of blocks (20000 rows, 1.7 MB):
    # ENOSPC meets the final flush or main's own write, and every case ends
    # the same way, the atexit handler run once, after the report
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", run_module_script(argv)], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=environment(buffered))
    assert (proc.returncode, proc.stderr) == (120, NO_SPACE + "handler 0 ran\n")


@pytest.mark.parametrize("steps, buffered", [(3000, True), (20000, True), (3000, False),
                                             (20000, False)],
                         ids=["one-string", "streamed", "one-string-unbuffered",
                              "streamed-unbuffered"])
def test_reader_closing_the_pipe_exits_1_with_nothing_on_stderr(steps, buffered):
    # 3000 rows (250 kB) are one write, 20000 rows (1.7 MB) a stream of
    # blocks; both outgrow the pipe's buffer, so the writer is still
    # writing, or holds a full buffer, when the reader goes.  Unbuffered,
    # the reader cuts one write short, which the raw file reports only as a
    # short write: the process must still finish it or exit 1
    read_end, write_end = os.pipe()
    with subprocess.Popen(CLI + scan(steps), stdout=write_end, stderr=subprocess.PIPE,
                          env=environment(buffered)) as proc:
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            head = reader.read(40)
        stderr = proc.stderr.read()
    assert head == in_process(scan(steps))[1][:40]
    assert (proc.returncode, stderr) == (1, b"")


@pytest.mark.parametrize("buffered", [True, False], ids=["at-the-flush", "in-main"])
def test_pipe_closed_before_the_call_exits_1_with_nothing_on_stderr(buffered):
    # the answer fits stdout's buffer: buffered, the broken pipe shows only
    # at the last flush; unbuffered, at main's write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CLI + SPEED, stdout=write_end, stderr=subprocess.PIPE,
                              env=environment(buffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_closed_stdout_keeps_its_outcomes():
    # with fd 1 closed at start, sys.stdout is None: a call that writes
    # there ends as any failed write does, and an exit-2 call still exits 2
    def closed(argv):
        return subprocess.run(CLI + argv, stdin=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, preexec_fn=lambda: os.close(1))

    refused = closed(REFUSED)
    assert (refused.returncode, refused.stderr) == (2, in_process(REFUSED)[2].decode())
    for argv in (SPEED, scan(20000), ["--help"]):
        answered = closed(argv)
        assert (answered.returncode, answered.stderr) == (
            120, '{"error":"OSError","message":"cannot write the output: '
                 '[Errno 9] Bad file descriptor"}\n')


def test_closed_stderr_keeps_an_answer_and_its_exit_0():
    # with fd 2 closed at start, sys.stderr is None: a call that writes
    # nothing there still prints its answer and exits 0
    proc = subprocess.run(CLI + SPEED, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (0, in_process(SPEED)[1])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdout_full, code", [
    (REFUSED, False, 2), (["nosuch"], False, 1), (REFUSED, True, 2), (SPEED, True, 120),
], ids=["refused", "usage", "refused-both-full", "answer-both-full"])
def test_full_stderr_keeps_the_exit_code(argv, stdout_full, code, buffered, tmp_path):
    # a report that stderr cannot take is lost: the call still ends with
    # its own code, through os._exit, the atexit handler run once
    log = tmp_path / "handlers.log"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", run_module_script(argv, log=log)],
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              env=environment(buffered))
    assert proc.returncode == code
    if not stdout_full:
        assert proc.stdout == in_process(argv)[1]
    assert log.read_text() == "handler 0 ran\n"


@pytest.mark.parametrize("argv, code", [(REFUSED, 2), (["nosuch"], 1)], ids=["refused", "usage"])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # with fd 2 closed at start, sys.stderr is None: the report is lost,
    # and the exit code alone tells what happened
    proc = subprocess.run(CLI + argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_main_returns_in_process_and_runs_no_atexit_handler():
    ran = []
    atexit.register(ran.append, "handler")
    try:
        assert in_process(SPEED)[0] == 0
        assert in_process(REFUSED)[0] == 2
        assert in_process(["nosuch"])[0] == 1
    finally:
        atexit.unregister(ran.append)
    assert ran == []


def test_the_script_and_the_module_share_one_entry():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '[project.scripts]\netherdrift = "etherdrift.cli:_console_main"\n' in pyproject
    source = Path(cli.__file__).read_text()
    assert source.rstrip().endswith('if __name__ == "__main__":\n    _console_main()')
