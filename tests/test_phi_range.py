"""Every report form runs at every finite --phi, from 0 and +-pi up to the largest floats."""

import itertools
import math
import sys

import numpy as np
import pytest

from braidtel import cli, teleport
from braidtel.teleport import BIT_PAIRS

EDGE_PHIS = (0.0, math.pi, -math.pi, math.pi / 2, 5e-324, 3e6, -7.5e8, 1e15, 1e300, -1e300,
             sys.float_info.max, -sys.float_info.max)

# the verify kinds that read --basis, --mn and --class; every other kind runs at its defaults
_BASIS_KINDS = ("spectral", "general", "skew-transpose")


def _choices(command: str, dest: str) -> tuple:
    """The values the parser accepts for one option of a command."""
    sub = cli._grammar()[command][0]
    return next(a for a in sub._actions if a.dest == dest).choices


def _report_forms() -> list[list[str]]:
    """argv of every report form, read off cli's own kinds, variants and gates."""
    pauli = [["--mn", mn, "--class", str(c)]
             for mn, c in itertools.product(_choices("verify", "mn"), _choices("verify", "class_id"))]
    forms = [["verify", kind, *options] for kind in cli.VERIFY_KINDS
             for options in ((*pauli, ["--basis", "bell-like"]) if kind in _BASIS_KINDS else ([],))]
    forms += [["teleport", variant] for variant in cli.TELEPORT_VARIANTS if variant != "gate"]
    forms += [["teleport", "gate", "--gate", gate] for gate in cli.TELEPORT_GATES]
    forms += [["solve", "--mn", mn] for mn in _choices("solve", "mn")]
    return forms + [["analyze", "--gate", gate] for gate in cli.ANALYZE_GATES]


def test_the_sweep_covers_every_kind_variant_and_gate():
    forms = _report_forms()
    assert set(_BASIS_KINDS) <= set(cli.VERIFY_KINDS)
    assert {f[1] for f in forms if f[0] == "verify"} == set(cli.VERIFY_KINDS)
    assert {f[1] for f in forms if f[0] == "teleport"} == set(cli.TELEPORT_VARIANTS)
    assert len(forms) == 64


def test_every_report_form_passes_at_every_edge_phi(capsys):
    failed = []
    for form, phi in itertools.product(_report_forms(), EDGE_PHIS):
        argv = [*form, "--phi", repr(phi), "--count", "8"] if form[0] == "teleport" else [*form, "--phi", repr(phi)]
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is a failure of the form, named below
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            failed.append((" ".join(argv), code))
    capsys.readouterr()
    assert failed == []


@pytest.mark.parametrize("phi", EDGE_PHIS)
def test_closed_form_phases_match_the_fit_at_edge_phi(phi):
    closed, fitted = teleport.phase_table(phi), teleport.extract_phases(phi)
    for name in ("alpha_b", "alpha_b_dagger"):
        a, b = getattr(closed, name), getattr(fitted, name)
        assert max(abs(np.exp(1j * a[ij]) - np.exp(1j * b[ij])) for ij in BIT_PAIRS) <= 1e-12
    assert teleport._braid_protocol(phi).every_branch <= 1e-12
