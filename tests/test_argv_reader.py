"""cli._known_args against argparse: whatever the one-pass reader accepts, parse_args reads the same way."""

import argparse
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel import cli

# values each option type reads, and words that no option reads
_GOOD = {float: ["0.3", "0", "-3", "-.5", "-6e-05", "-1E-7", "1e3", "inf", "nan", "-inf", "-nan"],
         int: ["7", "0", "2", "-3"], None: ["", "out.json"]}
_BAD = ["x", "-", "-x", "--", "--version"]


def _grammar_words():
    """Option strings with the values worth drawing for them, and every word of the grammar."""
    options, words = {}, set(cli._grammar()) | set(_BAD) | {value for values in _GOOD.values() for value in values}
    for sub, _, positionals in cli._grammar().values():
        for option, action in sub._option_string_actions.items():
            good = [str(c) for c in action.choices] if action.choices else _GOOD.get(action.type, [""])
            options.setdefault(option, set()).update(good)
            words |= {option, option[:3], option[:4], f"{option}=", f"{option}={good[0]}", *good}
        for action in positionals:
            words |= set(action.choices)
    return {option: sorted(values) for option, values in sorted(options.items())}, sorted(words)


OPTIONS, WORDS = _grammar_words()

_WORD = st.sampled_from(WORDS)


def _command_argv(command: str):
    """command, then option-value pairs, its positionals and at most one stray word, in any order."""
    sub, _, positionals = cli._grammar()[command]
    stored = sorted(o for o, action in sub._option_string_actions.items() if not isinstance(action, argparse._HelpAction))
    pair = st.sampled_from(stored).flatmap(
        lambda option: st.one_of(*[st.sampled_from(OPTIONS[option])] * 3, _WORD).map(lambda value: [option, value])
    )
    chunks = st.tuples(
        st.lists(pair, max_size=4),
        st.tuples(*(st.sampled_from(sorted(a.choices)).map(lambda word: [word]) for a in positionals)),
        st.one_of(st.just([]), st.just([]), st.just([]), _WORD.map(lambda word: [[word]])),
    ).flatmap(lambda drawn: st.permutations([*drawn[0], *drawn[1], *drawn[2]]))
    return chunks.map(lambda chunks: [command, *itertools.chain.from_iterable(chunks)])


_ARGV = st.one_of(*[st.sampled_from(sorted(cli._grammar())).flatmap(_command_argv)] * 3, st.lists(_WORD, max_size=6))


def _reprs(namespace) -> dict:
    return {key: repr(value) for key, value in vars(namespace).items()}


@settings(max_examples=600, deadline=None)
@given(_ARGV)
def test_what_the_reader_accepts_argparse_reads_the_same(argv):
    known = cli._known_args(argv)
    if known is None:
        return
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = cli._parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}, which the reader accepted")
    assert _reprs(known) == _reprs(parsed)


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--version"], ["frobnicate"], ["verify"], ["verify", "-h"], ["verify", "bmw", "--help"],
        ["verify", "bmw", "--ph", "0.3"], ["verify", "bmw", "--phi=0.3"], ["verify", "bmw", "--phi"],
        ["verify", "bmw", "--phi", "--sites"], ["verify", "bmw", "--phi", "-x"], ["verify", "bmw", "--phi", "x"],
        ["verify", "bmw", "--mn", "22"], ["verify", "bmw", "brauer"], ["verify", "--", "bmw"],
        ["verify", "bmw", "--version"], ["solve", "bmw"], ["teleport", "gate", "--gate", "Q"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_the_reader_leaves_help_usage_and_errors_to_argparse(argv):
    assert cli._known_args(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--phi", "-6e-05", "--sites", "4", "bmw", "--format", "json"],
        ["teleport", "gate", "--gate", "R", "--count", "5", "--seed", "0", "--phi", "-.5"],
        ["analyze", "--output", "", "--tolerance", "1e-9"],
        ["solve", "--mn", "11", "--mn", "01"],
        ["verify", "general", "--class", "3", "--basis", "bell-like"],
        ["solve", "--phi", "-Infinity", "--tolerance", "-nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_the_reader_reads_canonical_argv_as_argparse_does(argv):
    known = cli._known_args(argv)
    assert known is not None
    assert _reprs(known) == _reprs(cli._parser().parse_args(argv))
