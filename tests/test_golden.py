"""Byte-for-byte JSON reports for a fixed matrix of CLI runs.

Each case runs ``braidtel.cli.main(argv + ["--format", "json"])`` and
compares stdout with ``tests/golden/<name>.json``, where the name is the
argv joined with dashes.  The files lock the report format and the
numbers in it, so a refactor that claims "same behaviour" is checked
mechanically.  Residuals are printed to 15 significant digits, so the
residual strings pin the numpy/BLAS build that generated the files at
the 1e-16 level: a different BLAS may move a last digit with no change
in the maths.  Changing a golden file is a reviewed act: regenerate the
files in a commit of its own, with the moved reports and the reason in
CHANGES.md.

Regenerate with:  PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from braidtel.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_PHI = ["--phi", "0.3"]
_TELEPORT = [*_PHI, "--seed", "7", "--count", "32"]


def _basis_cases(kind: str) -> list[list[str]]:
    cases = [["verify", kind, *_PHI, "--mn", mn, "--class", "1"] for mn in ("00", "01", "10", "11")]
    cases += [["verify", kind, *_PHI, "--mn", "00", "--class", c] for c in ("2", "3")]
    cases.append(["verify", kind, *_PHI, "--basis", "bell-like", "--mn", "00"])
    cases += [["verify", kind, "--phi", "-2.1", "--mn", mn, "--class", c] for mn in ("01", "10", "11") for c in ("2", "3")]
    return cases


CASES = (
    [["verify", "constraints", "--phi", phi] for phi in ("0", "0.3")]
    + [case for kind in ("spectral", "general", "skew-transpose") for case in _basis_cases(kind)]
    + [["solve", "--mn", mn] for mn in ("00", "01", "10", "11")]
    + [["analyze", "--gate", gate, *_PHI] for gate in ("B", "B0", "I", "SWAP", "CZ")]
    + [["verify", "bmw", "--sites", n, "--phi", phi] for n in ("3", "4") for phi in ("0.3", "-2.1")]
    + [["verify", "brauer", "--sites", n] for n in ("2", "3", "4")]
    + [["verify", "bmw", "--sites", "2", *_PHI]]
    + [["verify", "bmw", "--sites", "64", *_PHI], ["verify", "brauer", "--sites", "64"]]
    + [["verify", "b-forms", *_PHI]]
    + [["teleport", variant, *_TELEPORT] for variant in ("standard", "bell-like", "yang-baxter", "two-qubit")]
    + [["teleport", "gate", "--gate", gate, *_TELEPORT] for gate in ("H", "T", "R")]
    + [["teleport", "yang-baxter", "--phi", "3e6", "--seed", "7", "--count", "32"]]
)


def golden_name(argv: list[str]) -> str:
    return "-".join(arg.removeprefix("--") for arg in argv) + ".json"


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_name(argv)[:-5])
def test_report_matches_golden(argv, capsys):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / golden_name(argv)).read_text(encoding="utf-8")


def write_goldens() -> None:
    """Rewrite tests/golden/ from CASES: one file per case, and no file that no case names."""
    names = set()
    for argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "json"])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        names.add(golden_name(argv))
        (GOLDEN_DIR / golden_name(argv)).write_text(out.getvalue(), encoding="utf-8")
    for stale in {path.name for path in GOLDEN_DIR.glob("*.json")} - names:
        (GOLDEN_DIR / stale).unlink()


if __name__ == "__main__":
    write_goldens()
