"""The README's library tour and command line examples run as written."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from braidtel import cli
from test_golden import CASES, golden_name

README = Path(__file__).parents[1] / "README.md"


def readme_tour() -> str:
    """The source of the README's one python block, the library tour."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def run_readme_tour():
    exec(compile(readme_tour(), str(README), "exec"), {"__name__": "readme_tour"})


def test_library_tour_runs():
    run_readme_tour()


def _cli_examples() -> list[list[str]]:
    """The argv of every `braidtel ...` line of the README's CLI block, comments dropped."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
              if "braidtel verify" in b]
    assert len(blocks) == 1
    lines = [line.split("#")[0] for line in blocks[0].splitlines() if line.startswith("braidtel ")]
    return [shlex.split(line)[1:] for line in lines]


EXAMPLES = _cli_examples()


def test_the_cli_block_holds_every_example():
    assert len(EXAMPLES) == 15


@pytest.mark.parametrize(
    "argv",
    EXAMPLES + [[*argv, "--format", "json"] for argv in CASES],
    ids=[" ".join(argv) for argv in EXAMPLES] + [golden_name(argv)[:-5] for argv in CASES],
)
def test_canonical_argv_never_reach_argparse(argv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    monkeypatch.setattr(type(cli._parser()), "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert cli.main(argv) == 0
