"""The README's examples run as written: its ``>>>`` session as a doctest,
and every ``etherdrift ...`` line of its CLI block through ``cli.main``."""

import doctest
import pathlib
import re
import shlex

import pytest

from etherdrift import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _cli_lines():
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("etherdrift "):
                lines.append(line)
    return lines


def test_readme_session_doctest():
    (session,) = _blocks("python")
    test = doctest.DocTestParser().get_doctest(session, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
    assert test.examples


def test_readme_has_cli_examples():
    assert len(_cli_lines()) >= 10


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_example_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert captured.err == ""
