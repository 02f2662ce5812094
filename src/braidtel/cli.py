"""Command line driver for the verification suites and protocol simulations.

Subcommands:
    verify    relation suites and constraint systems, pass/fail per check
    teleport  seeded protocol runs with fidelity and outcome statistics
    solve     eigenvalue classes that make the Pauli basis teleportable
    analyze   nonlocal parameters and entangling power of a two-qubit gate

Reports go to stdout (or --output) as text or as schema-stable JSON with
keys {command, config, results, pass}.  Residuals are serialized as
15-significant-digit decimal strings, all randomness flows from --seed,
and identical configs produce byte-identical JSON.  --seed is read by
teleport's sampling and by verify skew-transpose's random pairs alone.
Exit codes: 0 every check passed, 1 a check failed, 2 usage error.

argv is read in one pass by _known_args, off the cached argparse parser's own
option actions, types and choices; help, --version, abbreviations and every
argv that argparse has to reject or resolve go to parse_args unchanged.  The
parsed Namespace, with _CONFIG_DEFAULTS for the options a command does not
take, is the config every report reads; _REPORTS is the one dispatch table,
from verify kind or command to report.

Report parts that read neither --phi nor --seed are computed once per process
and kept as immutable values: _brauer_rows (the verify brauer relation rows
and state identities, by --sites), _solve_rows (solve, by --mn) and
_fixed_analysis (analyze of the phi-free gates).  _diagonal_table, the
constraint table that verify spectral and verify general both print, is kept
per (--basis, --mn, --class, --phi), and the operators that several reports
at one phi read (E_00, B and the Bell-like protocol) are cached per phi in
their own modules.  No cache holds a pass flag: each report compares the
cached residuals with its own --tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType

import numpy as np

from . import __version__
from .algebra import brauer_teleportation_residuals, check_all, check_brauer, derive_params
from .entanglement import braid_projector_forms, canonical_params
from .gate_teleport import _double_protocol, _gate_protocol, clifford_check
from .gates import (
    B_EIGENVALUES,
    CZ,
    FIXED_GATES,
    SWAP,
    decompose_b,
    phase_shift,
    tl_projector,
    yb_clifford,
    yb_gate,
)
from .linalg import DEFAULT_TOL, conj, max_abs_diff, transpose
from .tangles import (
    EigenAssignment,
    GateCoefficients,
    UnitaryBasis,
    _pattern_residuals,
    concrete_constraint_residuals,
    eigenvalue_sum,
    matched_form,
    projector_teleportation_residuals,
    scalar_system_residual,
    skew_agreement_deviation,
    skew_transpose,
    solve_pauli_eigenvalues,
    spectral_constraint_residuals,
)
from .teleport import BIT_PAIRS, _bell_like_protocol, _braid_protocol, _standard_protocol, _teleport

# phi grid used to validate solved eigenvalue classes across the family
_PHI_GRID = tuple(0.1 + 0.3 * k for k in range(10))
_BLOCK = 1024  # instances per kernel call, gathered 64 KiB of branch matrices at a time: memory stays flat at any --count

TELEPORT_VARIANTS = ("standard", "bell-like", "yang-baxter", "gate", "two-qubit")
TELEPORT_GATES = (*FIXED_GATES, "R")
ANALYZE_GATES = ("B", "B0", "I", "SWAP", "CZ")
# the config echo of the options a command does not take
_CONFIG_DEFAULTS = {"basis": "pauli", "mn": "00", "class_id": 1, "gate": "", "count": 100}


def _fmt(x: float) -> str:
    """15-significant-digit decimal string; keeps JSON reports diffable."""
    return f"{float(x):.15g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _check(label: str, residual: float, tol: float, **extra) -> dict:
    return {"label": label, "residual": _fmt(residual), "pass": bool(residual <= tol), **extra}


def _info(label: str, **fields) -> dict:
    return {"label": label, **fields}


# ---------------------------------------------------------------- verify


def _relation_rows(reports) -> tuple:
    """(family, max residual, relations, worst id) per relation report, its max taken once, by worst()."""
    return tuple((r.family, top, r.relations, worst) for r in reports for worst, top in [r.worst()])


def _report_entries(rows, tol: float) -> list[dict]:
    return [_check(family, top, tol, relations=relations, worst=worst) for family, top, relations, worst in rows]


@functools.lru_cache(maxsize=64)
def _brauer_rows(sites: int) -> tuple:
    """check_brauer(n=sites)'s _relation_rows and the (name, residual) state identities, which read no option."""
    return _relation_rows(check_brauer(n=sites)), tuple(brauer_teleportation_residuals().items())


def _verify_bmw(cfg: argparse.Namespace) -> list[dict]:
    e = tl_projector(0, 0, cfg.phi)
    b = yb_gate(cfg.phi)
    params = derive_params(b)
    results = [
        _info(
            "parameters",
            sigma=_fmt_complex(params.sigma),
            w=_fmt_complex(params.w),
            d=_fmt(params.d),
            consistency=_fmt(params.constraint_residual()),
        )
    ]
    reports = check_all(e, b, params, n=cfg.sites)
    results.extend(_report_entries(_relation_rows(reports), cfg.tolerance))
    return results


def _verify_brauer(cfg: argparse.Namespace) -> list[dict]:
    rows, identities = _brauer_rows(cfg.sites)
    results = _report_entries(rows, cfg.tolerance)
    for name, residual in identities:
        results.append(_check(f"state-identity-{name}", residual, cfg.tolerance))
    return results


def _constraint_entries(table: dict, tol: float, worst: bool = False) -> list[dict]:
    """A constraint-c check per constraint of table: its worst cell, its cell count and, if asked, the worst ij."""
    entries = []
    for c in sorted(table):
        extra = {"worst": "ij={}{}".format(*max(table[c], key=table[c].get))} if worst else {}
        entries.append(_check(f"constraint-{c}", max(table[c].values()), tol, cells=len(table[c]), **extra))
    return entries


def _verify_constraints(cfg: argparse.Namespace) -> list[dict]:
    results = _constraint_entries(concrete_constraint_residuals(cfg.phi), cfg.tolerance, worst=True)
    transfers = projector_teleportation_residuals(cfg.phi)
    for c in sorted(transfers):
        results.append(_check(f"transfer-identity-{c}", transfers[c], cfg.tolerance))
    return results


def _assignment(basis: str, mn: str, class_id: int, phi: float):
    """(basis, eigenvalue assignment, m, n, description) of the --basis, --mn, --class and --phi options.

    The pauli basis takes its assignment from the solved class picked by
    --class; bell-like pairs the braid eigenvalues with the rotated Bell
    basis, which satisfies the constraints at their native --mn 00.
    """
    m, n = int(mn[0]), int(mn[1])
    if basis == "pauli":
        sol = solve_pauli_eigenvalues(m, n)[class_id - 1]
        return UnitaryBasis.pauli(), sol.mu_of_phi(phi), m, n, sol.describe()
    mu = EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS])
    return UnitaryBasis.bell_like(phi), mu, m, n, "braid eigenvalues"


def _basis_assignment(cfg: argparse.Namespace, label: str = "assignment", prefix: str = ""):
    """(basis, eigenvalue assignment, m, n, and an info entry named label that shows them) from the config."""
    basis, mu, m, n, desc = _assignment(cfg.basis, cfg.mn, cfg.class_id, cfg.phi)
    return basis, mu, m, n, _info(label, value=prefix + desc, mn=cfg.mn, basis=cfg.basis)


@functools.lru_cache(maxsize=8)
def _diagonal_table(basis: str, mn: str, class_id: int, phi: float) -> MappingProxyType:
    """The constraint residuals of the diagonal gate of _assignment(basis, mn, class_id, phi), read-only.

    verify spectral and verify general print this one table, so a round at one phi evaluates it once.
    """
    basis, mu, m, n, _ = _assignment(basis, mn, class_id, phi)
    table = spectral_constraint_residuals(basis, mu, m, n)
    return MappingProxyType({c: MappingProxyType(cells) for c, cells in table.items()})


def _verify_spectral(cfg: argparse.Namespace) -> list[dict]:
    basis, mu, m, n, info = _basis_assignment(cfg)
    table = _diagonal_table(cfg.basis, cfg.mn, cfg.class_id, cfg.phi)
    results = [info, *_constraint_entries(table, cfg.tolerance)]
    results.append(_check("completeness-sum", abs(eigenvalue_sum(mu, m, n) - 1), cfg.tolerance))
    if cfg.basis == "pauli":
        results.append(_check("scalar-system", scalar_system_residual(mu, m, n), cfg.tolerance))
    return results


def _verify_general(cfg: argparse.Namespace) -> list[dict]:
    basis, mu, _, _, info = _basis_assignment(cfg, "coefficients", "diagonal: ")
    table = _diagonal_table(cfg.basis, cfg.mn, cfg.class_id, cfg.phi)
    results = [info, *_constraint_entries(table, cfg.tolerance)]
    unitary = GateCoefficients.diagonal(mu).is_gate(basis)
    results.append({"label": "assembled-gate-unitary", "value": bool(unitary), "pass": bool(unitary)})
    return results


def _b_checks(phi: float):
    """B's projector-form residuals by name, and its elementary product's residual, factor names and phase."""
    residuals = braid_projector_forms(phi)
    phase, factors, drift = decompose_b(phi)
    forms = [(name, residuals[name]) for name in ("projector-sum", "dyad-sum", "unitary-part")]
    return forms, drift, " | ".join(name for name, _ in factors), phase


def _verify_b_forms(cfg: argparse.Namespace) -> list[dict]:
    forms, residual, names, phase = _b_checks(cfg.phi)
    results = [_check(name, value, cfg.tolerance) for name, value in forms]
    results.append(_check("elementary-product", residual, cfg.tolerance, factors=names, phase=_fmt_complex(phase)))
    return results


def _verify_skew(cfg: argparse.Namespace) -> list[dict]:
    basis, mu, m, n, info = _basis_assignment(cfg)
    # both readings evaluate GateCoefficients.diagonal(mu), so both rows print one value
    deviation = skew_agreement_deviation(basis, GateCoefficients.diagonal(mu), m, n)
    results = [
        info,
        _check("spectral-agreement", deviation, cfg.tolerance),
        _check("general-agreement", deviation, cfg.tolerance),
    ]
    d = np.random.default_rng(cfg.seed).normal(size=(20, 4, 2, 2))  # per pair: re b, im b, re c, im c
    b, c = d[:, 0] + 1j * d[:, 1], d[:, 2] + 1j * d[:, 3]
    worst = max_abs_diff(skew_transpose(b, c), transpose(c @ b))
    results.append(_check("definition-on-random-pairs", worst, cfg.tolerance, pairs=20))
    return results


# --------------------------------------------------------------- teleport


def _protocol(cfg: argparse.Namespace):
    """(protocol, correction label, extra results) of a teleport variant."""
    if cfg.action == "standard":
        return _standard_protocol(), "W^dag_{key}", []
    if cfg.action == "bell-like":
        return _bell_like_protocol(cfg.phi), "(M_00 conj(M_{key}))^dag", []
    if cfg.action == "yang-baxter":
        return _braid_protocol(cfg.phi), "W^dag_{key}{res}", []
    if cfg.action == "gate":
        protocol = _gate_protocol(phase_shift(cfg.phi) if cfg.gate == "R" else FIXED_GATES[cfg.gate])
        # row 0 of u K u^dag is [u XZ u^dag, u Z u^dag, u X u^dag, -1] up to signs, which cancel in C P C^dag; -1 is
        # Clifford and u XZ u^dag the X image times the Z image, so those two decide the row: X first, where R(phi) fails
        clifford = _info("correction-clifford", gate=cfg.gate, value=all(clifford_check(c)[0] for c in protocol.table[0, [2, 1]]))
        return protocol, f"R({cfg.gate})^dag_{{key}}{{res}}", [clifford]
    return _double_protocol(), "(Q x P)^dag", []


def _pairs(index: int, count: int) -> str:
    """index as count comma-separated bit pairs, most significant first."""
    return ",".join(f"{index >> 2 * q & 3:02b}" for q in reversed(range(count)))


@functools.lru_cache(maxsize=None)
def _report_keys(label: str, outcomes: int, resources: int) -> tuple[tuple, tuple]:
    """The outcome keys, and the corrections map's (key, correction) at m R + r, of a teleport report form."""
    pairs, nbits = outcomes.bit_length() // 2, resources.bit_length() - 1
    key, res = [_pairs(m, pairs) for m in range(outcomes)], [_pairs(r, nbits // 2) for r in range(resources)]
    rows = tuple((f"{key[m]}|{res[r]}" if nbits else key[m], label.format(key=key[m], res=res[r]))
                 for m in range(outcomes) for r in range(resources))
    return tuple(key), rows


@functools.lru_cache(maxsize=64)
def _streams(seed: int) -> tuple:
    """The two seed sequences spawned from seed: the input kets and resource bits, and the measurement draws."""
    return tuple(np.random.SeedSequence(seed).spawn(2))


def _cmd_teleport(cfg: argparse.Namespace) -> list[dict]:
    protocol, label, extra = _protocol(cfg)
    # R = 2^nbits resources, inputs of dim amplitudes, M outcomes
    resources, _, dim = protocol.branch.shape
    outcomes, nbits = len(protocol.kets), resources.bit_length() - 1
    counts = np.zeros(outcomes, dtype=int)
    expected = 1 / outcomes
    ket_rng, measure_rng = (np.random.default_rng(s) for s in _streams(cfg.seed))
    seen = np.zeros(outcomes * resources, dtype=bool)  # the (outcome m, resource r) branches met, at m R + r
    min_fid, prob_dev = 1.0, 0.0  # worst fidelity and deviation
    weights = 1 << np.arange(nbits)[::-1]  # resource bits, most significant first, to r
    for start in range(0, cfg.count, _BLOCK):
        n = min(_BLOCK, cfg.count - start)
        real, imag = ket_rng.standard_normal((2, n, dim))  # the bits of two (n, dim) draws, one after the other
        amps = real + 1j * imag
        inputs = amps / np.linalg.norm(amps, axis=1, keepdims=True)
        # one resource has no bits to draw, and a draw of none would take nothing from the stream
        r = ket_rng.integers(0, 2, size=(n, nbits)) @ weights if nbits else np.zeros(n, dtype=int)
        m, p, _, corrected = _teleport(protocol, inputs, r, measure_rng.random(n))
        fid = np.abs(np.einsum("ij,nj,ni->n", conj(protocol.gate), conj(inputs), corrected)) ** 2  # |<gate input|corrected>|^2
        counts += np.bincount(m, minlength=len(counts))
        seen[m * resources + r] = True
        min_fid = min(min_fid, float(fid.min()))
        prob_dev = max(prob_dev, float(np.abs(p - expected).max()))
    key, rows = _report_keys(label, outcomes, resources)
    return [
        _info("instances", value=cfg.count),
        {"label": "min-fidelity", "value": _fmt(min_fid), "pass": bool(min_fid >= 1 - cfg.tolerance)},
        {"label": "max-probability-deviation", "value": _fmt(prob_dev), "pass": bool(prob_dev <= cfg.tolerance),
         "expected": _fmt(expected)},
        # every branch against the protocol's identity, sampled or not, as an equality of maps: --seed plays no part
        _check("every-branch", protocol.every_branch, cfg.tolerance, branches=outcomes * resources),
        _info("outcomes", histogram={key[m]: c for m, c in enumerate(counts.tolist()) if c}),
        # keys are fixed-width and m R + r ascends with (m, r), so the map is in sorted key order
        _info("corrections", map=dict(map(rows.__getitem__, np.flatnonzero(seen).tolist()))),
        *extra,
    ]


# ------------------------------------------------------------------ solve


@functools.lru_cache(maxsize=None)
def _solve_rows(m: int, n: int) -> tuple:
    """(class, description, worst _PHI_GRID residual, completeness residual, printed form) per class of (m, n)."""
    classes = solve_pauli_eigenvalues(m, n)
    grid = _pattern_residuals(m, n, _PHI_GRID, [sol.pattern for sol in classes]).max(axis=1).tolist()
    complete = [max(abs(eigenvalue_sum(sol.mu_of_phi(p), m, n) - 1) for p in _PHI_GRID) for sol in classes]
    return tuple((sol, sol.describe(), w, c, matched_form(sol)) for sol, w, c in zip(classes, grid, complete))


def _cmd_solve(cfg: argparse.Namespace) -> list[dict]:
    rows = _solve_rows(int(cfg.mn[0]), int(cfg.mn[1]))
    results = [{"label": "class-count", "value": len(rows), "pass": len(rows) == 3}]
    for sol, pattern, worst, completeness, form in rows:
        mu_here = sol.mu_of_phi(cfg.phi)
        results.append(
            {
                "label": f"class-{sol.class_id}",
                "pattern": pattern,
                "mu": {f"{i}{j}": _fmt_complex(mu_here.mu[k]) for k, (i, j) in enumerate(BIT_PAIRS)},
                "constraint-residual": _fmt(worst),
                "completeness-residual": _fmt(completeness),
                "printed-form": form,
                "pass": bool(worst <= cfg.tolerance and completeness <= cfg.tolerance),
            }
        )
    return results


# ---------------------------------------------------------------- analyze


@functools.lru_cache(maxsize=None)
def _fixed_analysis(name: str):
    """canonical_params and, for B0, clifford_check of a phi-free target, once per process and read-only."""
    u = yb_clifford() if name == "B0" else {"I": np.eye(4, dtype=complex), "SWAP": SWAP, "CZ": CZ}[name]
    ok, table = clifford_check(u) if name == "B0" else (None, {})
    return canonical_params(u), ok, MappingProxyType(table)


def _cmd_analyze(cfg: argparse.Namespace) -> list[dict]:
    if cfg.gate == "B":
        u = yb_gate(cfg.phi)
        params, (ok, table) = canonical_params(u), clifford_check(u)
    else:
        params, ok, table = _fixed_analysis(cfg.gate)
    pi = math.pi
    results = [
        _info("gate", value=cfg.gate, phi=_fmt(cfg.phi)),
        _info(
            "canonical-params",
            a=_fmt(params.a),
            b=_fmt(params.b),
            c=_fmt(params.c),
            in_pi_units=f"({_fmt(params.a / pi)}, {_fmt(params.b / pi)}, {_fmt(params.c / pi)})",
        ),
        _info("entangling-power", value=_fmt(params.entangling_power())),
    ]
    if cfg.gate in ("B", "B0"):
        if ok:
            rows = {f"{name}_{site}": str(image) for (name, site), image in sorted(table.items())}
            results.append(_info("pauli-conjugation", map=rows))
        else:
            results.append(_info("pauli-conjugation", value="not a Clifford gate"))
    if cfg.gate == "B":
        forms, residual, names, _ = _b_checks(cfg.phi)
        results.append(_check("decomposition", residual, cfg.tolerance, factors=names))
        results.extend(_check(f"form-{name}", value, cfg.tolerance) for name, value in forms)
    return results


# --------------------------------------------------------------- plumbing


def _document(cfg: argparse.Namespace, results: list[dict], overall: bool) -> dict:
    command = f"{cfg.command} {cfg.action}" if cfg.action else cfg.command
    config = {
        "tool_version": __version__,
        "phi": _fmt(cfg.phi),
        "sites": cfg.sites,
        "seed": cfg.seed,
        "tolerance": _fmt(cfg.tolerance),
        "basis": cfg.basis,
        "mn": cfg.mn,
        "class": cfg.class_id,
        "gate": cfg.gate,
        "count": cfg.count,
    }
    return {"command": command, "config": config, "results": results, "pass": overall}


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), lines after the first prefixed by pad[1:], in about half json's time.

    Writes str keys and str, int, bool, None, dict and list values of exactly those types; anything else goes
    to json.dumps, whose raw newlines are all structural, so indenting its output is one replace."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if (kind is dict or kind is list) and value:
        inner = pad + "  "
        try:
            if kind is dict:
                items = [f"{_quote(k)}: {_quote(v) if type(v) is str else _json(v, inner)}" for k, v in value.items()]
            else:
                items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        except TypeError:  # a key that is not a str, or a value json.dumps rejects as well
            return json.dumps(value, indent=2).replace("\n", pad)
        brackets = "{}" if kind is dict else "[]"
        return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]
    return json.dumps(value, indent=2).replace("\n", pad)


def _render_json(doc: dict) -> str:
    return _json(doc) + "\n"


def _entry_line(entry: dict) -> str:
    tag = "info"
    if "pass" in entry:
        tag = "pass" if entry["pass"] else "FAIL"
    parts = []
    for key, value in entry.items():
        if key in ("label", "pass"):
            continue
        if isinstance(value, dict):
            inner = " ".join(f"{k}:{v}" for k, v in value.items())
            parts.append(f"{key}=[{inner}]")
        else:
            parts.append(f"{key}={'null' if value is None else value}")
    line = f"  [{tag}] {entry['label']}"
    if parts:
        line += "  " + "  ".join(parts)
    return line


def _render_text(doc: dict) -> str:
    cfg = doc["config"]
    lines = [f"braidtel {cfg['tool_version']}  {doc['command']}"]
    lines.append("  ".join(f"{k}={v}" for k, v in cfg.items() if k != "tool_version"))
    lines.extend(_entry_line(entry) for entry in doc["results"])
    lines.append(f"overall: {'PASS' if doc['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads exponent-form negatives such as -6e-05, and -inf and -nan, as values.

    argparse takes only -12 or -1.5 for a negative number and -6e-05 or -inf for an option, but repr(float)
    writes small phases that way, and main names what is wrong with an infinite or nan value.  The
    subcommand parsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--phi", type=float, default=0.0, help="phase of the rotated-basis family (default 0)")
    common.add_argument("--sites", type=int, default=3, help="tensor sites for relation suites, at least 2 (default 3)")
    common.add_argument("--seed", type=int, default=42, help="seed for all randomness (default 42)")
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="pass threshold for residuals (default 1e-10; env BMW_TOL overrides)",
    )
    common.add_argument("--format", choices=("text", "json"), default="text", dest="fmt", help="report format")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")

    parser = _Parser(
        prog="braidtel",
        description="verify braid/projector algebra relations and run the teleportation protocols they encode",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run a relation or constraint suite")
    p_verify.add_argument("kind", choices=VERIFY_KINDS)
    p_verify.add_argument(
        "--basis",
        choices=("pauli", "bell-like"),
        default="pauli",
        help="two-qubit basis for spectral/general/skew-transpose (bell-like expects --mn 00)",
    )
    p_verify.add_argument("--mn", choices=("00", "01", "10", "11"), default="00", help="fixed index pair of the constraint system")
    p_verify.add_argument(
        "--class",
        dest="class_id",
        type=int,
        choices=(1, 2, 3),
        default=1,
        help="eigenvalue class used with the pauli basis",
    )

    p_teleport = sub.add_parser("teleport", parents=[common], help="simulate a protocol on seeded random inputs")
    p_teleport.add_argument("variant", choices=TELEPORT_VARIANTS)
    p_teleport.add_argument(
        "--gate",
        choices=TELEPORT_GATES,
        default="T",
        help="single-qubit gate for the gate variant (R takes its angle from --phi)",
    )
    p_teleport.add_argument("--count", type=int, default=100, help="number of protocol instances (default 100)")

    p_solve = sub.add_parser("solve", parents=[common], help="solve the eigenvalue constraints for the Pauli basis")
    p_solve.add_argument("--mn", choices=("00", "01", "10", "11"), default="00", help="fixed index pair of the constraint system")

    p_analyze = sub.add_parser("analyze", parents=[common], help="nonlocal parameters and entangling power of a gate")
    p_analyze.add_argument("--gate", choices=ANALYZE_GATES, default="B")

    return parser


_parser = functools.lru_cache(maxsize=None)(build_parser)  # one parser per process; parse_args leaves it as is


@functools.lru_cache(maxsize=None)
def _grammar() -> dict:
    """{command: (subparser, its defaults, its positional actions)}, read off the cached parser."""
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {
        name: (sub, {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS},
               [a for a in sub._actions if not a.option_strings])
        for name, sub in commands.items()
    }


def _known_args(argv) -> argparse.Namespace | None:
    """The Namespace parse_args(argv) returns, read in one pass; None wherever argparse has to decide.

    Reads a command, then exact option strings each followed by a separate value, and the positional
    anywhere among them.  Help, abbreviations, --opt=value, a missing value, a value that starts with -
    but is not a number, a failed type or choice, a missing or second positional and -- return None."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _grammar():
        return None
    sub, defaults, positionals = _grammar()[argv[0]]
    values, pending, tokens = {"command": argv[0], **defaults}, list(positionals), iter(argv[1:])
    for token in tokens:
        action = sub._option_string_actions.get(token)
        if action is None and pending and pending[0].nargs is None:
            action = pending.pop(0)
        elif type(action) is argparse._StoreAction and action.nargs is None:
            token = next(tokens, None)
        else:
            return None
        if token is None or token.startswith("-") and (
            sub._has_negative_number_optionals or not sub._negative_number_matcher.match(token)
        ):
            return None
        try:
            value = action.type(token) if action.type else token
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return None if pending else argparse.Namespace(**values)


_VERIFY = {
    "bmw": _verify_bmw,
    "brauer": _verify_brauer,
    "constraints": _verify_constraints,
    "spectral": _verify_spectral,
    "general": _verify_general,
    "b-forms": _verify_b_forms,
    "skew-transpose": _verify_skew,
}
VERIFY_KINDS = tuple(_VERIFY)
_REPORTS = {**_VERIFY, "teleport": _cmd_teleport, "solve": _cmd_solve, "analyze": _cmd_analyze}


def main(argv=None) -> int:
    parser = _parser()
    args = _known_args(argv) or parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        raw = os.environ.get("BMW_TOL", "")
        if raw:
            try:
                tolerance = float(raw)
            except ValueError:
                parser.error(f"BMW_TOL is not a number: {raw!r}")
        else:
            tolerance = DEFAULT_TOL
    action = getattr(args, "kind", None) or getattr(args, "variant", "")
    cfg = argparse.Namespace(**{**_CONFIG_DEFAULTS, **vars(args), "action": action, "tolerance": tolerance})
    if not (math.isfinite(tolerance) and tolerance > 0):
        parser.error(f"tolerance must be positive and finite, got {tolerance}")
    if not math.isfinite(cfg.phi):
        parser.error(f"phi must be finite, got {cfg.phi}")
    if cfg.seed < 0:
        parser.error(f"seed must be non-negative, got {cfg.seed}")
    if cfg.sites < 2:
        parser.error(f"sites must be at least 2, got {cfg.sites}")
    if cfg.count < 1:
        parser.error("count must be at least 1")
    if cfg.output:
        if os.path.isdir(cfg.output):
            parser.error(f"cannot write --output {cfg.output}: Is a directory")
        directory = os.path.dirname(os.path.abspath(cfg.output))
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            parser.error(f"cannot write --output {cfg.output}: {directory} is not a writable directory")

    results = _REPORTS[getattr(args, "kind", cfg.command)](cfg)
    overall = all(entry.get("pass", True) for entry in results)
    doc = _document(cfg, results, overall)
    rendered = _render_json(doc) if cfg.fmt == "json" else _render_text(doc)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            parser.error(f"cannot write --output {cfg.output}: {exc.strerror}")
    else:
        sys.stdout.write(rendered)
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
