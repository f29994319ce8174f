"""Replay the stdout corpus: each request of cli_corpus.json goes through
``cli.main`` in this process and must give the recorded exit code, stdout
and stderr byte for byte.

make_cli_corpus.py (in this directory) writes the file.  A change that
rewrites it says which requests changed, by how many lines, and why."""

import json
import pathlib
from itertools import zip_longest

import pytest

from test_warm_cli import _warm

CORPUS = pathlib.Path(__file__).with_name("cli_corpus.json")

#: the streams of an entry, each a list of lines as str.split("\n") gives them
STREAMS = ("stdout", "stderr")


def record(argv) -> dict:
    """The corpus entry of one in-process request."""
    code, out, err = _warm(argv)
    return {"argv": list(argv), "exit": code,
            **{name: text.decode().split("\n") for name, text in zip(STREAMS, (out, err))}}


def _first_difference(expected: dict, got: dict) -> str:
    if got["exit"] != expected["exit"]:
        return f"exit {got['exit']}, recorded {expected['exit']}"
    for name in STREAMS:
        want, have = expected[name], got[name]
        for line, (a, b) in enumerate(zip_longest(want, have)):
            if a != b:
                return f"{name} line {line + 1}: got {b!r}, recorded {a!r}"
    return ""


def _replay():
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert {entry["exit"] for entry in entries} == {0, 1, 2}
    for index, expected in enumerate(entries):
        difference = _first_difference(expected, record(expected["argv"]))
        if difference:
            pytest.fail(f"request {index} {expected['argv']}: {difference}", pytrace=False)


def test_corpus_holds_the_generator_requests():
    # the file is make_cli_corpus.requests(), in order: a request list
    # edited without rewriting the corpus fails here
    from make_cli_corpus import requests

    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in entries] == requests()


def test_corpus_replays_byte_for_byte():
    _replay()


def test_corpus_ignores_a_profile_in_the_environment(monkeypatch):
    # only --profile names a profile: ETHERDRIFT_PROFILE changes no byte
    monkeypatch.setenv("ETHERDRIFT_PROFILE", "modern")
    _replay()
