"""The scalar subcommands never load numpy, and no call loads dataclasses.

numpy is imported only inside the functions that compute on arrays, so a
cold ``speed``, ``proca``, ``bounds`` or ``pmomentum`` call does not spend
its start-up importing it.  The records are NamedTuples, so importing the
package does not load ``dataclasses`` or the ``inspect`` it imports.  Each
case runs in a fresh interpreter, because this test session has these
modules loaded already."""

import functools
import json
import subprocess
import sys

import pytest

SCALAR_COMMANDS = {
    "speed": ["speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "3e4"],
    "sensitivity": ["sensitivity", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
                    "--u-mps", "1e3", "--lambda-nm", "633", "--resolution", "1e-3"],
    "proca-bound": ["proca", "bound", "--V-volts", "1e7", "--tau-s", "0.05",
                    "--R-cm", "27", "--epsilon", "1e-4"],
    "proca-potential": ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
                        "--m-gamma-inv-cm", "1e3", "--steps", "5"],
    "proca-phase": ["proca", "phase", "--V-volts", "1e7", "--tau-s", "0.05",
                    "--R-cm", "10", "--m-gamma-inv-cm", "1e3"],
    "bounds-json": ["bounds"],
    "bounds-text": ["bounds", "--format", "text"],
    "pmomentum": ["pmomentum", "--geometry",
                  '{"a_cm": 1, "B_gauss": 100, "d_cm": 3, "q_esu": 1, "grid": [8, 16, 128]}'],
    "constants-si": ["constants"],
    "constants-gaussian": ["constants", "--system", "gaussian"],
    "version": ["--version"],
}

_RUN = """
import contextlib, io, json, sys
from etherdrift import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "loaded": [name for name in ("numpy", "numpy.polynomial", "hashlib",
                                               "dataclasses", "inspect")
                             if name in sys.modules]}))
"""

#: the standard-library modules the records used to pull in
SKIPPED = ["dataclasses", "inspect"]


def _fresh(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@functools.cache
def _scalar_report(name):
    """What a fresh interpreter loads to run one scalar subcommand."""
    report = _fresh(_RUN, json.dumps(SCALAR_COMMANDS[name]))
    assert report["code"] == 0
    assert report["stdout"].strip()
    return report


@functools.cache
def _imported_by_package():
    return _fresh("import json, sys, etherdrift\n"
                  "print(json.dumps([name for name in ('numpy', 'dataclasses', 'inspect')\n"
                  "                  if name in sys.modules]))")


def test_importing_the_package_does_not_load_numpy():
    assert "numpy" not in _imported_by_package()


def test_importing_the_package_does_not_load_dataclasses():
    assert not set(SKIPPED) & set(_imported_by_package())


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_subcommand_does_not_load_numpy(name):
    assert "numpy" not in _scalar_report(name)["loaded"]


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_subcommand_does_not_load_dataclasses(name):
    assert not set(SKIPPED) & set(_scalar_report(name)["loaded"])


def test_array_subcommand_loads_numpy():
    # the check above can see numpy: a fringe scan does load it
    report = _fresh(_RUN, json.dumps(["fringe", "--L-m", "1", "--n1", "1.0006",
                                      "--n2", "1.0001", "--u-mps", "1e3",
                                      "--lambda-nm", "633", "--steps", "4"]))
    assert report["code"] == 0
    assert "numpy" in report["loaded"]


def test_hashlib_loads_only_for_the_version_line():
    # the constants fingerprint is the only hash; a computing call skips it
    assert "hashlib" not in _scalar_report("speed")["loaded"]
    assert "hashlib" in _scalar_report("version")["loaded"]
