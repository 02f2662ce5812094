"""A census of report bytes: the exit code and a sha256 prefix of stdout for every report form.

The goldens lock a few reports as readable diffs; the census is the wide net.
It runs the 64 forms of test_phi_range._report_forms, the bell-like
spectral and general forms that exit 1 and the bmw and brauer chains at
--sites 2, 5 and 64, each at every phi and seed of the grid below, in JSON
and in text, with teleport at --count 64.  Like the goldens it pins the
numpy/BLAS build.  Changing an entry is a reviewed act: regenerate the file
in a commit of its own, with the moved forms and the reason in CHANGES.md.

Regenerate with:  PYTHONPATH=src python tests/test_census.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

from braidtel import cli
from test_phi_range import _report_forms

CENSUS = Path(__file__).parent / "census.json"
PHIS = (0.0, 0.3, -2.1, math.pi / 4, math.pi / 8, 1e300)
SEEDS = (42, 5)
FORMATS = ("json", "text")
DIGEST_CHARS = 16


def _forms() -> list[list[str]]:
    forms = _report_forms()
    forms += [["verify", kind, "--basis", "bell-like", "--mn", mn] for kind in ("spectral", "general")
              for mn in ("01", "10", "11")]
    return forms + [["verify", kind, "--sites", n] for kind in ("bmw", "brauer") for n in ("2", "5", "64")]


def census_argvs() -> list[list[str]]:
    """Every argv of the census, in file order."""
    grid = itertools.product(_forms(), PHIS, SEEDS, FORMATS)
    return [[*form, *(["--count", "64"] if form[0] == "teleport" else []),
             "--phi", repr(phi), "--seed", str(seed), "--format", fmt] for form, phi, seed, fmt in grid]


def take_census() -> dict[str, list]:
    """{argv joined by spaces: [exit code, sha256 prefix of stdout]}, run in-process."""
    entries = {}
    for argv in census_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        entries[" ".join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:DIGEST_CHARS]]
    return entries


def write_census(entries: dict[str, list]) -> None:
    """One entry per line, so a regenerated file diffs by argv."""
    lines = [f"{json.dumps(argv)}: {json.dumps(entry)}" for argv, entry in entries.items()]
    CENSUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_every_census_report_keeps_its_bytes_and_exit_code():
    want = json.loads(CENSUS.read_text(encoding="utf-8"))
    got = take_census()
    assert sorted(set(want) ^ set(got)) == []
    moved = [argv for argv in got if got[argv] != want[argv]]
    assert not moved, f"{len(moved)} reports moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    write_census(take_census())
