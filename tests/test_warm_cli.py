"""One interpreter, many requests.

Every call here goes through ``cli.main`` in this process.  A warm call
must match a fresh ``python -m etherdrift.cli`` byte for byte, in any
order.  Every bad number, in a flag or a JSON payload, must end in exit 2
with one stderr JSON line, and every extreme finite one in that or in
exit 0 with only finite numbers on stdout."""

import contextlib
import io
import itertools
import json
import math
import random
import shlex
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from etherdrift import cli
from test_readme import _cli_lines

WARM_CASES = [shlex.split(line)[1:] for line in _cli_lines()] + [
    ["--help"],
    ["--version"],
    ["speed", "--help"],
    # the usage errors of test_cli.test_usage_errors_exit_1
    [],
    ["nosuch"],
    ["speed", "--mode", "einstein", "--n", "abc"],
    ["speed", "--mode", "einstein", "--n", "1.5", "--bogus", "1"],
    # a DomainError and an InputError
    ["sensitivity", "--L-m", "1", "--n1", "0.5", "--n2", "1.0001", "--u-mps", "1e3",
     "--lambda-nm", "633", "--resolution", "1e-3"],
    ["speed", "--mode", "einstein", "--n", "nan"],
]


def _warm(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "etherdrift.cli", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_warm_calls_match_fresh_processes():
    expected = [_fresh(argv) for argv in WARM_CASES]
    assert {code for code, _, _ in expected} == {0, 1, 2}

    order = list(range(len(WARM_CASES)))
    for i in order + order[::-1]:
        assert _warm(WARM_CASES[i]) == expected[i], WARM_CASES[i]


def test_help_and_usage_errors_ignore_the_terminal_width(monkeypatch):
    outputs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        outputs.append([_warm(["fringe", "--help"]), _warm(["fringe", "--steps", "2.5"])])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# exit-2 fuzzing: one bad number at a time in an otherwise valid request

def _number_flags(command=cli._CLI, prefix=()):
    """(subcommand words, option string, type) of every int or float flag
    of the flag table."""
    for flag in command.flags:
        if flag.type in (int, float):
            yield prefix, flag.option, flag.type
    for name, sub in (command.commands or {}).items():
        yield from _number_flags(sub, prefix + (name,))


#: a valid request per subcommand; a flag it lacks is appended
VALID = {
    ("speed",): "--mode einstein --n 1.5 --u-mps 1e3",
    ("fringe",): "--L-m 1 --n1 1.0006 --n2 1.0001 --u-mps 1e3 --lambda-nm 633 --steps 32",
    ("sensitivity",): "--L-m 1 --n1 1.0006 --n2 1.0001 --u-mps 1e3 --lambda-nm 633 "
                      "--resolution 1e-3",
    ("proca", "bound"): "--V-volts 1e7 --tau-s 5e-2 --R-cm 27 --epsilon 1e-4",
    ("proca", "potential"): "--V-volts 1e7 --R-cm 10 --m-gamma-inv-cm 100 --steps 50",
    ("proca", "phase"): "--V-volts 1e7 --tau-s 5e-2 --R-cm 27 --m-gamma-inv-cm 3.72e13",
    ("pmomentum",): """--geometry '{"a_cm": 1, "B_gauss": 100, "d_cm": 3, "q_esu": 1}'""",
}

BAD_FLAG_VALUES = {float: ["nan", "inf", "-inf", "1e309"],
                   int: [str(10 ** 400), str(-10 ** 400)]}

FLAG_CASES = [(words, flag, value)
              for words, flag, kind in _number_flags()
              for value in BAD_FLAG_VALUES[kind]]


def _with_flags(words, settings, spaced=True):
    """The valid request with each (flag, value) of settings set, as "--flag
    value" or "--flag=value"."""
    argv = shlex.split(VALID[words])
    for flag, value in settings:
        if flag in argv:
            at = argv.index(flag)
            del argv[at:at + 2]
        argv += [flag, value] if spaced else [f"{flag}={value}"]
    return [*words, *argv]


def _assert_exit_2(argv, or_finite_answer=False):
    """Exit 2 with one stderr JSON line, or, where or_finite_answer, exit 0
    with only finite numbers on stdout: JSON, or CSV under a header line."""
    code, out, err = _warm(argv)
    if code == 0 and or_finite_answer:
        text, numbers = out.decode(), []
        if text.startswith("{"):
            json.loads(text, parse_float=lambda s: numbers.append(float(s)),
                       parse_constant=lambda s: numbers.append(float(s)))
        else:
            numbers = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
        assert all(map(math.isfinite, numbers)), (argv, text)
        return
    assert code == 2, (argv, code, err)
    assert out == b""
    assert b"Traceback" not in err
    lines = err.decode().splitlines()
    assert len(lines) == 1, argv
    assert set(json.loads(lines[0])) == {"error", "message"}


def test_every_number_flag_is_fuzzed():
    assert {words for words, _, _ in FLAG_CASES} == set(VALID)
    for words in VALID:
        assert _warm([*words, *shlex.split(VALID[words])])[0] == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLAG_CASES), st.booleans())
def test_bad_number_flag_exits_2(case, spaced):
    # a separate "-inf" used to read as an unknown option: exit 1
    words, flag, value = case
    _assert_exit_2(_with_flags(words, [(flag, value)], spaced))


FIELD_PARAMS = {
    "uniform_q": {"q": [1, 2, 3]},
    "fresnel_flow": {"omega_rad_s": 3e15, "n": 1.5, "u_mps": [10, 0, 0]},
    "solenoid": {"flux_wb": 2.067e-15, "coupling": 1.5e15, "center_m": [0, 0, 0]},
}
PATH = [[1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]
GEOMETRY = {"a_cm": 1, "B_gauss": 100, "d_cm": 3, "q_esu": 1, "lambda_cm": 150,
            "grid": [4, 4, 8]}

BAD_LEAVES = [math.nan, math.inf, -math.inf, True, 10 ** 399]


def _leaves(value, at=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, at + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, at + (index,))
    else:
        yield at


def _replaced(value, at, leaf):
    value = json.loads(json.dumps(value))
    holder = value
    for key in at[:-1]:
        holder = holder[key]
    holder[at[-1]] = leaf
    return value


#: each payload schema with a valid payload: the pmomentum geometry, the
#: params of each abphase field kind and the abphase path
PAYLOADS = {"pmomentum": GEOMETRY, **FIELD_PARAMS, "path": PATH}


def _payload_argv(name, payload):
    if name == "pmomentum":
        return ["pmomentum", "--geometry", json.dumps(payload)]
    if name == "path":
        field, path = {"kind": "uniform_q", "params": FIELD_PARAMS["uniform_q"]}, payload
    else:
        field, path = {"kind": name, "params": payload}, PATH
    return ["abphase", "--field", json.dumps(field), "--path", json.dumps(path)]


def test_every_payload_is_valid_unfuzzed():
    for name, payload in PAYLOADS.items():
        assert _warm(_payload_argv(name, payload))[0] == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bad_json_leaf_exits_2(data):
    name = data.draw(st.sampled_from(sorted(PAYLOADS)))
    at = data.draw(st.sampled_from(list(_leaves(PAYLOADS[name]))))
    leaf = data.draw(st.sampled_from(BAD_LEAVES))
    _assert_exit_2(_payload_argv(name, _replaced(PAYLOADS[name], at, leaf)))


# ---------------------------------------------------------------------------
# extreme finite numbers: every call ends in exit 0 with finite numbers on
# stdout, or in exit 2 with one stderr JSON line

EXTREME_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 1e-200, 1e-100,
                   1e100, 1e200, 1e300, sys.float_info.max, -sys.float_info.max,
                   299792458.0, math.nextafter(299792458.0, 0.0),
                   math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
#: an int flag is a count: below and at the least one taken, and past every cap
EXTREME_INTS = [-1, 0, 1, 2, 2 ** 63]
#: pairs drawn, of the flag pairs and of the leaf pairs; seeded, so that a
#: run is repeatable
PAIRS = 5000


def _draws(groups):
    """Every single substitution, and PAIRS seeded draws of two at two
    places of one request: groups maps each request to {place: values}."""
    singles, pairs = [], []
    for key, places in groups.items():
        singles += [(key, [(at, value)]) for at, values in places.items() for value in values]
        pairs += [(key, [(a, u), (b, v)]) for a, b in itertools.combinations(places, 2)
                  for u in places[a] for v in places[b]]
    return singles + random.Random(7).sample(pairs, PAIRS)


def test_extreme_number_flags_exit_0_or_2():
    groups = {}
    for words, flag, kind in _number_flags():
        groups.setdefault(words, {})[flag] = EXTREME_DOUBLES if kind is float else EXTREME_INTS
    for words, settings in _draws(groups):
        _assert_exit_2(_with_flags(words, [(flag, repr(value)) for flag, value in settings]), True)


def test_extreme_json_leaves_exit_0_or_2():
    groups = {name: dict.fromkeys(_leaves(payload), EXTREME_DOUBLES)
              for name, payload in PAYLOADS.items()}
    for name, settings in _draws(groups):
        payload = PAYLOADS[name]
        for at, leaf in settings:
            payload = _replaced(payload, at, leaf)
        _assert_exit_2(_payload_argv(name, payload), True)
