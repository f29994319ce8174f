"""The two parse paths agree.

For every argv, ``cli._fast_parse`` either declines it (None) or returns
the namespace that argparse's parser, ``cli._build_parser()``, returns:
the same keys in the same order, each with a value of the same type and
repr, so NaN equals NaN and -0.0 differs from 0.0.  The order matters,
because ``parse_config`` reports the first non-finite flag in namespace
order.  The argv are every corpus request, the parse forms below, and
hypothesis draws built from the flag table."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etherdrift import cli
from test_cli_corpus import CORPUS


def _items(ns):
    return [(key, type(value), repr(value)) for key, value in vars(ns).items()]


def _argparse(argv):
    """argparse's namespace items for argv, or None where it exits: help,
    --version or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _items(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _taken(argv) -> bool:
    """Whether the fast path takes argv, asserting that it then agrees with
    argparse."""
    fast = cli._fast_parse(argv)
    if fast is None:
        return False
    assert _items(fast) == _argparse(argv), argv
    return True


def _leaves(command=cli._CLI, words=()):
    """(subcommand words, flags) of every command that runs."""
    if command.commands is None:
        yield words, command.flags
    for name, sub in (command.commands or {}).items():
        yield from _leaves(sub, words + (name,))


LEAVES = list(_leaves())

#: option string -> namespace key, over the whole table
DESTS = {flag.option: flag.dest for words, flags in LEAVES
         for flag in (*cli._CLI.flags, *flags)}


def _repeats_a_flag(argv) -> bool:
    dests = [DESTS[token.partition("=")[0]] for token in argv
             if token.partition("=")[0] in DESTS]
    return len(dests) != len(set(dests))


def test_every_corpus_request_parses_alike():
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    for entry in entries:
        argv = entry["argv"]
        # the fast path declines only what argparse exits on (help,
        # --version, a usage error) and a repeated flag
        assert (_taken(argv) or _argparse(argv) is None or _repeats_a_flag(argv)), argv


SPEED = ["speed", "--mode", "einstein", "--n", "1.5"]
BOUND = ["proca", "bound", "--V-volts", "1e7", "--tau-s", "5e-2", "--R-cm", "27",
         "--epsilon", "1e-4"]
#: fringe's required flags but the arm length, and a wavelength
FRINGE = ["fringe", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "3e4", "--lambda-nm", "633"]

#: (argv, whether the fast path takes it)
FORMS = [
    # --flag value and --flag=value, negatives in every float() form
    ([*SPEED, "--u-mps", "-3e4"], True),
    (["speed", "--mode=einstein", "--n=1.5", "--u-mps=-3e4"], True),
    ([*SPEED, "--u-mps", "-1E3"], True),
    ([*SPEED, "--u-mps", "-.5e2"], True),
    ([*SPEED, "--u-mps", "-2.e+1"], True),
    ([*SPEED, "--u-mps", "-1_000"], True),
    ([*SPEED, "--u-mps", "-inf"], True),
    ([*SPEED, "--u-mps=-Infinity"], True),
    ([*SPEED, "--u-mps", "-nan"], True),
    ([*SPEED, "--u-mps", "nan", "--ef", "inf"], True),
    # every flag whose unit is a second word, in both forms
    ([*SPEED, "--u-mps", "-10"], True),
    ([*SPEED, "--u-mps=-10"], True),
    (["fringe", "--L-m", "2", "--n1", "1.0006", "--n2", "1.0001", "--u-mps=3e4",
      "--lambda-nm", "633"], True),
    ([*FRINGE, "--L-m=2"], True),
    (["proca", "bound", "--V-volts", "1e7", "--tau-s=5e-2", "--R-cm", "27", "--epsilon", "1e-4"],
     True),
    (["proca", "phase", "--V-volts=1e7", "--tau-s", "5e-2", "--R-cm", "27",
      "--m-gamma-inv-cm", "1e3"], True),
    # --profile before the subcommand, and after it
    (["--profile", "modern", *BOUND], True),
    (["--profile=modern", *BOUND], True),
    ([*BOUND, "--profile", "modern"], False),
    (["proca", "--profile=modern", *BOUND[1:]], False),
    # a repeated flag, in either form
    ([*SPEED, "--ef", "1", "--ef", "0.5"], False),
    ([*SPEED, "--u-mps", "1", "--u-mps=2"], False),
    (["--profile", "modern", "--profile", "paper", "constants"], False),
    # a missing required flag or subcommand
    (["speed", "--mode", "einstein"], False),
    (BOUND[:-2], False),
    (["proca"], False),
    (["proca", "bound"], False),
    ([], False),
    # unknown flags and words
    ([*SPEED, "--bogus", "1"], False),
    ([*SPEED, "-x"], False),
    ([*SPEED, "-3e4"], False),
    ([*SPEED, "extra"], False),
    (["nosuch"], False),
    ([*FRINGE, "--L-m", "1", "--lam", "633"], False),
    # a value that starts with "-" and is no negative number
    (["speed", "--mode", "einstein", "--n", "-abc"], False),
    (["speed", "--mode", "einstein", "--n", "-e3"], False),
    (["abphase", "--field", "-x", "--path", "[]"], False),
    (["abphase", "--field", "--help", "--path", "[]"], False),
    # a failed conversion or choice
    (["speed", "--mode", "nope", "--n", "1.5"], False),
    ([*FRINGE, "--L-m", "1", "--steps", "2.5"], False),
    ([*FRINGE, "--L-m", "1", "--steps", "-3e4"], False),
    ([*FRINGE, "--L-m", "1", "--steps", "-3"], True),
    ([*FRINGE, "--L-m", "1", "--steps", str(10 ** 400)], True),
    # empty values: a string flag takes one, a number flag does not
    (["abphase", "--field", "", "--path", ""], True),
    (["abphase", "--field=", "--path="], True),
    (["speed", "--mode", "einstein", "--n", ""], False),
    (["speed", "--mode", "einstein", "--n="], False),
    # a missing value
    (["speed", "--mode", "einstein", "--n"], False),
    # "--"
    ([*SPEED, "--"], False),
    (["--", *SPEED], False),
    (["speed", "--", "--mode", "einstein", "--n", "1.5"], False),
    # help and --version, anywhere
    (["--help"], False),
    (["speed", "-h"], False),
    ([*SPEED, "--help"], False),
    (["--version"], False),
    (["--profile", "modern", "--version"], False),
    (["constants", "--version"], False),
]


@pytest.mark.parametrize("argv, taken", FORMS)
def test_parse_form(argv, taken):
    assert _taken(argv) == taken


#: values that argparse and float() read in the more unusual ways
ODD_VALUES = ["-3e4", "-1E3", "-.5e2", "-2.e+1", "-1_000", "1_0", "-inf", "-Infinity", "-nan",
              "nan", "inf", "1e309", " 1.5 ", "+5", "0x10", "", "-", "--", "-x", "-e3", "- 1",
              "-h", "--help", "--version", "abc", "9" * 5000]

#: tokens put anywhere in a drawn argv
ODD_TOKENS = ["--", "-h", "--help", "--version", "--profile", "--profile=modern", "modern",
              "--bogus", "--bogus=1", "-x", "-3e4", "", "speed", "proca", "bound", "--u",
              "--steps=8"]


def _values(flag):
    odd = st.sampled_from(ODD_VALUES)
    if flag.choices is not None:
        return st.one_of(st.sampled_from(flag.choices), odd)
    if flag.type is float:
        return st.one_of(st.floats().map(repr), st.integers().map(str), odd, st.text())
    if flag.type is int:
        return st.one_of(st.integers().map(str), st.floats().map(repr), odd)
    return st.one_of(st.text(), odd)


@st.composite
def _argvs(draw):
    """An argv of one command from the flag table: most flags given, in any
    order and either form, sometimes one twice, sometimes an odd token
    anywhere."""
    words, flags = draw(st.sampled_from(LEAVES))
    head = []
    if draw(st.booleans()):
        head = draw(st.sampled_from([["--profile", "modern"], ["--profile=paper"],
                                     ["--profile", "nosuch"]]))
    chosen = draw(st.permutations([flag for flag in flags
                                   if draw(st.integers(0, 9)) < (9 if flag.required else 5)]))
    if chosen and draw(st.integers(0, 9)) == 0:
        chosen.append(draw(st.sampled_from(chosen)))
    body = []
    for flag in chosen:
        value = draw(_values(flag))
        body += [f"{flag.option}={value}"] if draw(st.booleans()) else [flag.option, value]
    argv = [*head, *words, *body]
    for _ in range(draw(st.integers(0, 4)) // 3):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD_TOKENS)))
    return argv


@settings(max_examples=600, deadline=None)
@given(_argvs())
def test_drawn_argv_parses_alike(argv):
    _taken(argv)
