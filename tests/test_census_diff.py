"""The row comparison of tests/census_diff.py, on two synthetic reports."""

import json

import pytest

from census_diff import Pair, compare, summary

ARGV = "verify brauer --phi 0.3 --format json"


def _run(residual: str, swap_passes: bool) -> dict[str, list]:
    """One census run holding one report: a residual row and a row whose pass is swap_passes."""
    document = {
        "command": "verify brauer",
        "config": {"phi": "0.3"},
        "results": [
            {"label": "state-identity-projector", "residual": residual, "pass": True},
            {"label": "state-identity-swap", "residual": "0.5", "pass": swap_passes},
        ],
        "pass": swap_passes,
    }
    return {ARGV: [0 if swap_passes else 1, json.dumps(document)]}


def test_a_moved_residual_and_a_flipped_pass_are_each_read_off_their_own_row():
    pairs = compare(_run("2e-16", True), _run("3e-16", False))
    projector, swap, report = (pairs["verify brauer", label] for label in
                               ("state-identity-projector", "state-identity-swap", "(report)"))
    assert (projector.rows, projector.moved, projector.pass_changes) == (1, 1, 0)
    assert projector.largest == pytest.approx(1e-16)
    assert (swap.moved, swap.largest, swap.pass_changes) == (1, 0.0, 1)
    assert (report.moved, report.pass_changes, report.exit_changes) == (1, 1, 1)
    assert (projector.exit_changes, swap.exit_changes) == (0, 0)
    assert summary(pairs)[-1] == "3 pairs, 3 rows: 3 moved, largest move 1e-16, 2 pass changes, 1 exit-code changes"


def test_identical_runs_move_nothing():
    pairs = compare(_run("2e-16", True), _run("2e-16", True))
    assert all(pair == Pair(rows=1) for pair in pairs.values())
    assert summary(pairs)[-1] == "3 pairs, 3 rows: 0 moved, largest move 0, 0 pass changes, 0 exit-code changes"


def test_a_report_that_printed_nothing_is_read_by_its_exit_code():
    pairs = compare({ARGV: [2, ""]}, _run("2e-16", True))
    report = pairs["verify brauer", "(report)"]
    assert (report.moved, report.exit_changes) == (1, 1)
    swap = pairs["verify brauer", "state-identity-swap"]
    assert (swap.rows, swap.moved) == (1, 1)
