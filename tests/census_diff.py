"""Row-level diff of the census's JSON reports: the package at a git revision against the working tree.

The census (tests/census.json) locks each report by a hash, so a failure says which reports moved and
not where.  This script explains such a failure.  It extracts src/ at REV with `git archive REV src |
tar -x` into a temporary directory, runs every JSON argv of the census once per side, each side in one
subprocess, and compares the `results` rows of each report by (command, label).  Everything outside
`results` (the config and the report's pass) is compared as one more row, labelled "(report)", which
also counts a change of exit code.  For each pair it prints the rows compared, the rows moved, the
largest move of a numeric value and any change of `pass` or exit code.  The hash stays the lock; this
script prints, it does not judge.

Run from anywhere in the repository:  python tests/census_diff.py REV
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CENSUS = ROOT / "tests" / "census.json"

# Reads a JSON list of argvs on stdin; writes {argv joined by spaces: [exit code, stdout]} to stdout.
_RUNNER = """
import contextlib, io, json, sys
from braidtel import cli
runs = {}
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs[" ".join(argv)] = [code, out.getvalue()]
json.dump(runs, sys.stdout)
"""


def json_argvs() -> list[list[str]]:
    """The census's JSON argvs, in file order; no census argv holds a space."""
    return [key.split(" ") for key in json.loads(CENSUS.read_text(encoding="utf-8")) if key.endswith("--format json")]


def run_reports(src: Path, argvs: list[list[str]]) -> dict[str, list]:
    """{argv: [exit code, stdout]} of each argv, run in one subprocess on the package under src."""
    done = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(argvs), capture_output=True,
                          text=True, check=True, cwd=src, env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(done.stdout)


def extract_src(rev: str, into: Path) -> Path:
    """src/ at rev, written under into by git archive and tar; the repository's .git is only read."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


@dataclass
class Pair:
    """What moved in the rows of one (command, label) pair."""

    rows: int = 0
    moved: int = 0
    largest: float = 0.0
    pass_changes: int = 0
    exit_changes: int = 0


def _number(value):
    """value as a float if it is a number or a numeric string (reports print residuals as strings), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _leaves(value, path=()):
    """{path: leaf} of a nested row."""
    if isinstance(value, dict):
        return {p: leaf for key, item in value.items() for p, leaf in _leaves(item, (*path, key)).items()}
    return {path: value}


def _move(old, new) -> float:
    """The largest |old - new| over the numeric leaves the two rows share; 0 if none moved."""
    a, b = _leaves(old), _leaves(new)
    pairs = ((_number(a[path]), _number(b[path])) for path in a.keys() & b.keys())
    return max((abs(x - y) for x, y in pairs if x is not None and y is not None), default=0.0)


def _rows(stdout: str) -> tuple[str | None, dict]:
    """(command, {label: row}) of one JSON report, with everything outside results as the row "(report)".

    A run that printed nothing, as a usage error does, is one empty "(report)" row of no command.
    """
    document = json.loads(stdout) if stdout else {"results": []}
    rows = {"(report)": {key: value for key, value in document.items() if key != "results"}}
    rows.update((row["label"], row) for row in document["results"])
    return document.get("command"), rows


def compare(old: dict[str, list], new: dict[str, list]) -> dict[tuple[str, str], Pair]:
    """{(command, label): Pair} over the argvs both runs hold; a row only one side prints counts as moved.

    A change of exit code is counted once per report, on its "(report)" row.
    """
    pairs: dict[tuple[str, str], Pair] = {}
    for argv in old.keys() & new.keys():
        (old_code, old_out), (new_code, new_out) = old[argv], new[argv]
        (old_command, old_rows), (new_command, new_rows) = _rows(old_out), _rows(new_out)
        command = new_command or old_command or argv
        for label in old_rows.keys() | new_rows.keys():
            pair = pairs.setdefault((command, label), Pair())
            a, b = old_rows.get(label), new_rows.get(label)
            pair.rows += 1
            pair.moved += a != b
            pair.exit_changes += label == "(report)" and old_code != new_code
            if a is not None and b is not None:
                pair.largest = max(pair.largest, _move(a, b))
                pair.pass_changes += a.get("pass") != b.get("pass")
    return pairs


def summary(pairs: dict[tuple[str, str], Pair]) -> list[str]:
    """One line per (command, label), sorted, then the totals."""
    lines = [f"{command:<22} {label:<40} {p.rows:>4} rows  {p.moved:>4} moved  largest {p.largest:.3g}"
             f"  pass changes {p.pass_changes}  exit changes {p.exit_changes}"
             for (command, label), p in sorted(pairs.items())]
    total = Pair(sum(p.rows for p in pairs.values()), sum(p.moved for p in pairs.values()),
                 max((p.largest for p in pairs.values()), default=0.0),
                 sum(p.pass_changes for p in pairs.values()), sum(p.exit_changes for p in pairs.values()))
    lines.append(f"{len(pairs)} pairs, {total.rows} rows: {total.moved} moved, largest move {total.largest:.3g}, "
                 f"{total.pass_changes} pass changes, {total.exit_changes} exit-code changes")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/census_diff.py REV", file=sys.stderr)
        return 2
    argvs = json_argvs()
    with tempfile.TemporaryDirectory() as tmp:
        old = run_reports(extract_src(argv[0], Path(tmp)), argvs)
    new = run_reports(ROOT / "src", argvs)
    print(f"{len(argvs)} JSON reports, {argv[0]} against the working tree")
    print("\n".join(summary(compare(old, new))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
