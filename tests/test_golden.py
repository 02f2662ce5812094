"""Byte-for-byte JSON reports for a fixed matrix of CLI runs.

Each case runs ``braidtel.cli.main(argv + ["--format", "json"])`` and
compares stdout with ``tests/golden/<name>.json``, where the name is the
argv joined with dashes.  The files lock the report format and the
numbers in it, so a refactor that claims "same behaviour" is checked
mechanically.  Residuals are printed to 15 significant digits, so the
residual strings pin the numpy/BLAS build that generated the files at
the 1e-16 level: a different BLAS may move a last digit with no change
in the maths.  Changing a golden file is a reviewed act.
"""

from pathlib import Path

import pytest

from braidtel.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_PHI = ["--phi", "0.3"]


def _basis_cases(kind: str) -> list[list[str]]:
    cases = [["verify", kind, *_PHI, "--mn", mn, "--class", "1"] for mn in ("00", "01", "10", "11")]
    cases += [["verify", kind, *_PHI, "--mn", "00", "--class", c] for c in ("2", "3")]
    cases.append(["verify", kind, *_PHI, "--basis", "bell-like", "--mn", "00"])
    return cases


CASES = (
    [["verify", "constraints", "--phi", phi] for phi in ("0", "0.3")]
    + [case for kind in ("spectral", "general", "skew-transpose") for case in _basis_cases(kind)]
    + [["solve", "--mn", mn] for mn in ("00", "01", "10", "11")]
    + [["analyze", "--gate", gate, *_PHI] for gate in ("B", "B0", "I", "SWAP", "CZ")]
)


def golden_name(argv: list[str]) -> str:
    return "-".join(arg.lstrip("-") for arg in argv) + ".json"


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_name(argv)[:-5])
def test_report_matches_golden(argv, capsys):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / golden_name(argv)).read_text(encoding="utf-8")
