"""Only a ``fringe`` scan of more than 4096 rows loads numpy and the numpy
"%.17g" that formats its cells (``etherdrift._g17``), only a JSON payload
loads json, and no call loads argparse or dataclasses.

numpy is imported only inside the functions that compute on arrays, so a
cold call of any other subcommand (the scalar ones, which compute in plain
floats: ``speed``, ``proca``, ``bounds``, ``pmomentum``, ``abphase`` of
every field kind) does not spend its start-up importing it, and neither
does a ``fringe`` scan of up to one block of 4096 rows, which is computed
in plain floats too, nor a request refused before its computation (an
``abphase`` path with a repeated vertex, a ``fringe`` of one step).  The
records are tuples built on the package's own ``Record`` base, so importing
the package does not load ``dataclasses`` or the ``inspect`` it imports,
and no module defines a class on ``typing.NamedTuple``, whose class
statements made up most of the package's import time.  ``numbers`` is read
only for a path or grid of other than plain floats and ints.  No call
compiles a pattern: float() tells a negative number.  json is imported
only to read a payload (``abphase``, ``pmomentum``) or to escape a string
that needs it.  Every argv, help, --version and usage errors included, is
parsed from the flag table, so no call loads argparse, or the gettext and
locale it imports.  Each case runs in a fresh interpreter, because this
test session has these modules loaded already."""

import ast
import functools
import json
import pathlib
import subprocess
import sys

import pytest

FRINGE = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
          "--lambda-nm", "633"]

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
    "abphase-uniform_q": ["abphase", "--field",
                          '{"kind": "uniform_q", "params": {"q": [0.3, -0.2, 0.5]}}',
                          "--path", "[[0, 0, 0], [2, 0, 0], [2, 1, 1]]"],
    "abphase-fresnel_flow": ["abphase", "--field",
                             '{"kind": "fresnel_flow", "params": {"omega_rad_s": 3e15, '
                             '"n": 1.33, "u_mps": [10, 0, 0]}}',
                             "--path", "[[0, 0, 0], [1, 0, 0]]"],
    "abphase-solenoid": ["abphase", "--field",
                         '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15}}',
                         "--path", "[[1,-1,0],[1,1,0],[-1,1,0],[-1,-1,0],[1,-1,0]]"],
    # refused by abphase.Path: exit 2 before any segment is integrated
    "abphase-repeated-vertex": ["abphase", "--field",
                                '{"kind": "uniform_q", "params": {"q": [1, 2, 3]}}',
                                "--path", "[[0, 0, 0], [0, 0, 0], [1, 1, 1]]"],
    # scans of up to one block (4096 rows), the default one of 32 steps among them
    "fringe-2": [*FRINGE, "--steps", "2"],
    "fringe-default": FRINGE,
    "fringe-4096": [*FRINGE, "--steps", "4096"],
    # refused before either scan is chosen
    "fringe-one-step": [*FRINGE, "--steps", "1"],
    "constants-si": ["constants"],
    "constants-gaussian": ["constants", "--system", "gaussian"],
    "version": ["--version"],
}

#: the requests above that exit 2, and a fragment of their error message
REFUSED = {"abphase-repeated-vertex": "consecutive path vertices must be distinct",
           "fringe-one-step": "angle scan needs at least 2 steps, got 1"}

_RUN = """
import contextlib, io, json, sys
from etherdrift import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "loaded": [name for name in ("numpy", "numpy.polynomial", "hashlib",
                                               "dataclasses", "inspect", "numbers",
                                               "argparse", "gettext", "locale",
                                               "etherdrift._g17")
                             if name in sys.modules]}))
"""

#: the standard-library modules the records used to pull in, and numbers,
#: which only a path or grid of numpy scalars needs
SKIPPED = ["dataclasses", "inspect", "numbers"]

#: argparse and the modules it imports to translate its messages
ARGPARSE = ["argparse", "gettext", "locale"]


def _fresh(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@functools.cache
def _scalar_report(name):
    """What a fresh interpreter loads to run one scalar subcommand."""
    report = _fresh(_RUN, json.dumps(SCALAR_COMMANDS[name]))
    if name in REFUSED:
        assert report["code"] == 2 and report["stdout"] == ""
        assert REFUSED[name] in report["stderr"]
    else:
        assert report["code"] == 0 and report["stderr"] == ""
        assert report["stdout"].strip()
    return report


@functools.cache
def _imported_by_package():
    return _fresh("import json, sys, etherdrift\n"
                  "print(json.dumps([name for name in ('numpy', 'dataclasses', 'inspect',\n"
                  "                                    'numbers')\n"
                  "                  if name in sys.modules]))")


def test_importing_the_package_does_not_load_numpy():
    assert "numpy" not in _imported_by_package()


def test_importing_the_package_does_not_load_dataclasses():
    assert not set(SKIPPED) & set(_imported_by_package())


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_subcommand_does_not_load_numpy(name):
    # nor the numpy "%.17g" of streamed scans, which the CLI's import
    # does not load either
    assert not {"numpy", "etherdrift._g17"} & set(_scalar_report(name)["loaded"])


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_subcommand_does_not_load_dataclasses(name):
    assert not set(SKIPPED) & set(_scalar_report(name)["loaded"])


def test_fringe_tangherlini_scan_does_not_load_numpy():
    report = _fresh(_RUN, json.dumps([*FRINGE, "--composition", "tangherlini",
                                      "--steps", "64"]))
    assert (report["code"], report["stderr"]) == (0, "")
    assert len(report["stdout"].splitlines()) == 1 + 64
    assert not {"numpy", *SKIPPED} & set(report["loaded"])


def test_array_subcommand_loads_numpy():
    # the checks above can see numpy and the formatter: a fringe scan of
    # more than one block does load them
    report = _fresh(_RUN, json.dumps([*FRINGE, "--steps", "4097"]))
    assert report["code"] == 0
    assert {"numpy", "etherdrift._g17"} <= set(report["loaded"])


def test_importing_the_cell_formatter_builds_no_table():
    # its tables are built by the first scan that formats a cell
    report = _fresh("import json, sys, etherdrift.cli\n"
                    "loaded = 'etherdrift._g17' in sys.modules\n"
                    "from etherdrift import _g17\n"
                    "print(json.dumps([loaded, _g17._tables.cache_info().currsize]))")
    assert report == [False, 0]


def test_hashlib_loads_only_for_the_version_line():
    # the constants fingerprint is the only hash; a computing call skips it
    assert "hashlib" not in _scalar_report("speed")["loaded"]
    assert "hashlib" in _scalar_report("version")["loaded"]


#: the requests above that carry no JSON payload
NO_PAYLOAD = [name for name in SCALAR_COMMANDS
              if not name.startswith(("abphase", "pmomentum"))]

# _RUN imports json itself; this script takes argv as it is and reports
# without json: the exit code and whether json is loaded
_BARE = """
import contextlib, io, sys
from etherdrift import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(repr((code, "json" in sys.modules)))
"""


@functools.cache
def _bare_report(argv):
    proc = subprocess.run([sys.executable, "-c", _BARE, *argv],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ""
    return ast.literal_eval(proc.stdout)


def test_importing_the_cli_does_not_load_json():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, etherdrift.cli; print('json' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", NO_PAYLOAD)
def test_call_without_a_payload_does_not_load_json(name):
    code, json_loaded = _bare_report(tuple(SCALAR_COMMANDS[name]))
    assert code == (2 if name in REFUSED else 0)
    assert not json_loaded


@pytest.mark.parametrize("name", sorted(set(SCALAR_COMMANDS) - set(NO_PAYLOAD)))
def test_payload_loads_json(name):
    # the check above can see json: a payload does load it
    code, json_loaded = _bare_report(tuple(SCALAR_COMMANDS[name]))
    assert code == (2 if name in REFUSED else 0)
    assert json_loaded


@pytest.mark.parametrize("name", sorted(set(SCALAR_COMMANDS) - {"version"}))
def test_well_formed_call_does_not_load_argparse(name):
    assert not set(ARGPARSE) & set(_scalar_report(name)["loaded"])


@pytest.mark.parametrize("argv, code", [(["speed", "--help"], 0), (["--version"], 0),
                                        (["speed", "--mode", "einstein"], 1)])
def test_help_version_and_usage_errors_do_not_load_argparse(argv, code):
    report = _fresh(_RUN, json.dumps(argv))
    assert report["code"] == code
    assert not set(ARGPARSE) & set(report["loaded"])


def test_argparse_is_seen_where_it_loads():
    # the checks above can see argparse: a script that formats an argparse
    # help text lists it, and the gettext and locale that translate it
    report = _fresh("import argparse\nargparse.ArgumentParser().format_help()\n" + _RUN,
                    json.dumps(SCALAR_COMMANDS["speed"]))
    assert set(ARGPARSE) <= set(report["loaded"])


# records the module that compiles each pattern, then reports the patterns
# the package compiled and whether argparse loaded; a second argument is a
# pattern compiled as the package would, to show that the record sees it
_COMPILES = """
import contextlib, io, json, re, sys
compiled = []
_compile = re._compile
def _recording(pattern, flags):
    # frame 1 is re.compile, re.match and the like; frame 2 called it
    compiled.append((sys._getframe(2).f_globals.get("__name__", ""), str(pattern)))
    return _compile(pattern, flags)
re._compile = _recording
from etherdrift import cli
for pattern in sys.argv[2:]:
    exec("import re; re.compile(%r)" % pattern, {"__name__": "etherdrift.probe"})
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "argparse": "argparse" in sys.modules,
                  "compiled": [pattern for module, pattern in compiled
                               if module.startswith("etherdrift")]}))
"""

#: a request with a negative value
NEGATIVE = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "-1e3",
            "--lambda-nm", "633"]


def test_cold_call_compiles_no_package_pattern():
    report = _fresh(_COMPILES, json.dumps(SCALAR_COMMANDS["speed"]))
    assert report == {"code": 0, "argparse": False, "compiled": []}


def test_negative_value_is_parsed_by_the_fast_parse():
    # the flag table's parse reads a negative value with float(), not a pattern
    report = _fresh(_COMPILES, json.dumps(NEGATIVE))
    assert report == {"code": 0, "argparse": False, "compiled": []}


def test_compiled_pattern_is_recorded():
    # the checks above can see a compiled pattern: the probe's is recorded
    report = _fresh(_COMPILES, json.dumps(NEGATIVE), "-[0-9]+")
    assert report == {"code": 0, "argparse": False, "compiled": ["-[0-9]+"]}


def _named_tuple_bases(tree):
    """The names of the classes in a module defined on typing.NamedTuple."""
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for base in node.bases
            if (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
            == "NamedTuple"]


def test_no_module_defines_a_named_tuple():
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "etherdrift"
    sources = sorted(package.glob("*.py"))
    assert sources
    assert _named_tuple_bases(ast.parse("class A(typing.NamedTuple): pass")) == ["A"]
    assert {path.name: _named_tuple_bases(ast.parse(path.read_text()))
            for path in sources} == {path.name: [] for path in sources}
