"""The command line contract: exit code, stdout and stderr of fixed argv, byte for byte.

Each case runs ``python -m braidtel.cli ARGV`` in a fresh process with
``COLUMNS=80`` (argparse wraps help to the terminal width) and without
``BMW_TOL`` unless the case sets it, and compares the three results with
``tests/cli_contract.json``.  The table covers help, version and usage
errors from argparse, the usage errors ``main`` raises itself, and a few
good argv in the forms argparse accepts.  The help and error texts are
argparse's, so the table pins the Python minor version it was taken on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidtel

TABLE = Path(__file__).parent / "cli_contract.json"

# (argv, extra environment)
CASES = [
    ([], {}),
    (["-h"], {}),
    (["--version"], {}),
    *(([command, "-h"], {}) for command in ("verify", "teleport", "solve", "analyze")),
    (["frobnicate"], {}),
    (["verify", "nope"], {}),
    (["teleport", "nope"], {}),
    (["verify", "bmw", "--ph", "0.3"], {}),
    (["verify", "bmw", "--phi=0.3"], {}),
    (["verify", "bmw", "--phi"], {}),
    (["verify", "spectral", "--mn", "22"], {}),
    (["teleport", "gate", "--gate", "Q"], {}),
    (["teleport", "standard", "--count", "x"], {}),
    (["verify", "bmw", "brauer"], {}),
    (["verify", "--", "bmw"], {}),
    (["verify", "bmw", "--version"], {}),
    (["verify", "--phi", "0.3", "--sites", "4", "b-forms"], {}),
    (["analyze", "--gate", "I", "--phi", "-6e-05"], {}),
    (["verify", "bmw", "--phi", "-inf"], {}),
    (["verify", "bmw"], {"BMW_TOL": "abc"}),
    (["verify", "bmw", "--tolerance", "0"], {}),
    (["verify", "bmw", "--phi", "nan"], {}),
    (["teleport", "standard", "--seed", "-1"], {}),
    (["verify", "bmw", "--sites", "1"], {}),
    (["teleport", "standard", "--count", "0"], {}),
    (["analyze", "--output", "/nonexistent/report.json"], {}),
    (["analyze", "--gate", "I", "--output", "."], {}),
]


def _case_id(case) -> str:
    argv, env = case
    return " ".join([*(f"{k}={v}" for k, v in env.items()), *argv]) or "no-arguments"


def run_cli(argv: list[str], env: dict[str, str], cwd) -> dict:
    """Exit code, stdout and stderr of braidtel ARGV in a fresh process started in cwd."""
    src = str(Path(braidtel.__file__).parents[1])
    full_env = {key: value for key, value in os.environ.items() if key != "BMW_TOL"}
    full_env.update(env, COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "braidtel.cli", *argv], capture_output=True, text=True, env=full_env, cwd=cwd, timeout=60
    )
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def _table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_holds_every_case():
    assert [[row["argv"], row["env"]] for row in _table()["cases"]] == [[argv, env] for argv, env in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_case_id(case) for case in CASES])
def test_cli_contract(index, tmp_path):
    table = _table()
    row = table["cases"][index]
    if tuple(table["python"]) != sys.version_info[:2]:
        assert run_cli(row["argv"], row["env"], tmp_path)["exit"] == row["exit"]
        return
    assert run_cli(row["argv"], row["env"], tmp_path) == {key: row[key] for key in ("exit", "stdout", "stderr")}
