"""The flag table's parse agrees with argparse.

``cli._parse`` reads every argv itself.  argparse, given a parser built
here from the same table ``cli._CLI``, is kept as its reference, the way
mpmath is for the numbers.  For every argv the two give the same outcome:
the same namespace, or an exit with the same code (0 for help and
--version, 1 for a usage error).  A namespace has the same keys in the
same order, each with a value of the same type and repr, so NaN equals NaN
and -0.0 differs from 0.0.  The order matters, because ``parse_config``
reports the first non-finite flag in namespace order.  The argv are every
corpus request, the parse forms below, and hypothesis draws built from the
flag table.

There is one exception, built into the reference (``_Reference``):
argparse reads "--flag=--" as no value and stores the empty list, which
the subcommand then fails on with a traceback.  The flag table's parse
reads "--" as the value, which a number flag or a choice refuses."""

import argparse
import contextlib
import io
import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etherdrift import cli
from test_cli_corpus import CORPUS

_DIGITS = r"\d(?:_?\d)*"

#: a negative number as float() reads it: exponent forms, underscores
#: between digits, and the infinities and NaN.  The CLI gave argparse this
#: pattern in place of its own, which took "-3e4" for an unknown option.
NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?"
    r"|inf(?:inity)?|nan)\Z", re.IGNORECASE)


class _Reference(argparse.ArgumentParser):
    """argparse's parser, with no abbreviations, the negative numbers above,
    and exit 1 for a usage error, as the CLI built it."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER

    def error(self, message):
        self.exit(1)

    def _get_values(self, action, arg_strings):
        # the one exception: "--flag=--" reaches here as ["--"], whose "--"
        # argparse strips; a separate "--" never is a flag's value
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _add(parser, command):
    """Give an argparse parser a command's flags, runner and subcommands."""
    for flag in command.flags:
        parser.add_argument(flag.option, type=flag.type, choices=flag.choices,
                            default=flag.default, required=flag.required)
    if command.run is not None:
        parser.set_defaults(run=command.run)
    if command.commands is not None:
        sub = parser.add_subparsers(dest=command.dest, required=True, metavar=command.dest)
        for name, subcommand in command.commands.items():
            _add(sub.add_parser(name), subcommand)


REFERENCE = _Reference(prog="etherdrift")
REFERENCE.add_argument("--version", action="version", version="etherdrift")
_add(REFERENCE, cli._CLI)


def _items(ns):
    return [(key, type(value), repr(value)) for key, value in vars(ns).items()]


def _reference(argv):
    """argparse's outcome for argv: the namespace's items, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _items(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _outcome(argv):
    """The flag table's outcome for argv, asserting that argparse's is the same."""
    try:
        outcome = _items(cli._parse(argv))
    except cli._Exit as exc:
        outcome = exc.args[0]
    assert outcome == _reference(argv), argv
    return outcome


def _leaves(command=cli._CLI, words=()):
    """(subcommand words, flags) of every command that runs."""
    if command.commands is None:
        yield words, command.flags
    for name, sub in (command.commands or {}).items():
        yield from _leaves(sub, words + (name,))


LEAVES = list(_leaves())


def test_every_corpus_request_parses_alike():
    for entry in json.loads(CORPUS.read_text(encoding="utf-8")):
        # a usage error is the corpus's exit 1, and only it
        assert (_outcome(entry["argv"]) == 1) == (entry["exit"] == 1), entry["argv"]


SPEED = ["speed", "--mode", "einstein", "--n", "1.5"]
BOUND = ["proca", "bound", "--V-volts", "1e7", "--tau-s", "5e-2", "--R-cm", "27",
         "--epsilon", "1e-4"]
#: fringe's required flags but the arm length, and a wavelength
FRINGE = ["fringe", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "3e4", "--lambda-nm", "633"]

#: (argv, whether it parses to a namespace; if not, the call exits 0 or 1)
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
    # a repeated flag, in either form: the last value counts
    ([*SPEED, "--ef", "1", "--ef", "0.5"], True),
    ([*SPEED, "--u-mps", "1", "--u-mps=2"], True),
    (["--profile", "modern", "--profile", "paper", "constants"], True),
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
    # "--" as a flag's value: argparse's one difference (see above)
    (["speed", "--mode=--", "--n", "1.5"], False),
    (["abphase", "--field=--", "--path=[]"], True),
    # a separate value with a space: taken, unless it is help's short form
    (["abphase", "--field", "-x y", "--path", "[]"], True),
    (["abphase", "--field", "-h y", "--path", "[]"], False),
]


@pytest.mark.parametrize("argv, parses", FORMS)
def test_parse_form(argv, parses):
    assert isinstance(_outcome(argv), list) == parses


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
    _outcome(argv)


#: tokens on either side of the negative-number pattern
NEGATIVE_FORMS = ["-3e4", "-1E3", "-.5e2", "-2.e+1", "-1_000", "-1e1_0", "-1.5e-3", "-0", "-inf",
                  "-Infinity", "-nan", "-NaN", "-٣", "-１", "-1__0", "-_1", "-1_", "-1_.5",
                  "-1._5", "-infinit", "-in", "-", "--", "--1", "-+1", "- 1", "-1 ", "-1\n", "-e3",
                  "-.", "-.e1", "-1e", "-1e+", "-0x10", "-1j", "-²", "-abc", "3e4"]


@pytest.mark.parametrize("token", NEGATIVE_FORMS)
def test_negative_number_form(token):
    assert cli._is_negative_number(token) == bool(NEGATIVE_NUMBER.match(token))


#: digits, Arabic-Indic digits, whitespace, and what else float() reads
_NUMBER_TEXT = (string.digits + "٠١٢٣٩" + " \t\n\x0b\x0c\r  "
                + "-+.eE_" + "infatyINFATY")


@settings(max_examples=2000, deadline=None)
@given(st.text(_NUMBER_TEXT, max_size=10))
def test_negative_number_check_matches_the_pattern(rest):
    token = "-" + rest
    assert cli._is_negative_number(token) == bool(NEGATIVE_NUMBER.match(token)), token
