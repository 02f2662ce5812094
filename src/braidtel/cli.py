"""Command line driver for the verification suites and protocol simulations.

Subcommands:
    verify    relation suites and constraint systems, pass/fail per check
    teleport  seeded protocol runs with fidelity and outcome statistics
    solve     eigenvalue classes that make the Pauli basis teleportable
    analyze   nonlocal parameters and entangling power of a two-qubit gate

Reports go to stdout (or --output) as text or as schema-stable JSON with
keys {command, config, results, pass}.  Residuals are serialized as
15-significant-digit decimal strings, all randomness flows from --seed,
and identical configs produce byte-identical JSON.  Exit codes: 0 every
check passed, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import brauer_teleportation_residuals, check_all, check_brauer, derive_params
from .entanglement import braid_projector_forms, canonical_params
from .gate_teleport import clifford_check, r_gate, teleport_single_gate, teleport_two_qubit
from .gates import (
    B_EIGENVALUES,
    CZ,
    SWAP,
    decompose_b,
    elementary,
    tl_projector,
    yb_clifford,
    yb_gate,
)
from .linalg import fidelity, max_abs_diff, mul, transpose
from .tangles import (
    EigenAssignment,
    GateCoefficients,
    UnitaryBasis,
    concrete_constraint_residuals,
    eigenvalue_sum,
    general_constraint_residuals,
    matched_form,
    projector_teleportation_residuals,
    scalar_system_residual,
    skew_agreement_deviation,
    skew_transpose,
    solve_pauli_eigenvalues,
    spectral_constraint_residuals,
    table_max,
)
from .teleport import (
    BIT_PAIRS,
    random_ket,
    teleport_bell_like,
    teleport_standard,
    teleport_with_yb,
)

_DEFAULT_TOL = 1e-10
# phi grid used to validate solved eigenvalue classes across the family
_PHI_GRID = tuple(0.1 + 0.3 * k for k in range(10))
_SEED_STRIDE = 100003  # prime, keeps per-instance seeds distinct

VERIFY_KINDS = (
    "bmw",
    "brauer",
    "constraints",
    "spectral",
    "general",
    "b-forms",
    "skew-transpose",
)
TELEPORT_VARIANTS = ("standard", "bell-like", "yang-baxter", "gate", "two-qubit")
TELEPORT_GATES = ("H", "S", "T", "X", "Y", "Z", "I", "R")
ANALYZE_GATES = ("B", "B0", "I", "SWAP", "CZ")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; echoed verbatim into the report."""

    command: str
    action: str
    phi: float
    sites: int
    seed: int
    tolerance: float
    fmt: str
    output: str | None
    basis: str
    mn: tuple[int, int]
    class_id: int
    gate: str
    count: int


def _fmt(x: float) -> str:
    """15-significant-digit decimal string; keeps JSON reports diffable."""
    return f"{float(x):.15g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _check(label: str, residual: float, tol: float, **extra) -> dict:
    entry: dict = {"label": label, "residual": _fmt(residual), "pass": bool(residual <= tol)}
    entry.update(extra)
    return entry


def _info(label: str, **fields) -> dict:
    entry: dict = {"label": label}
    entry.update(fields)
    return entry


# ---------------------------------------------------------------- verify


def _report_entries(reports, tol: float) -> list[dict]:
    out = []
    for report in reports:
        worst_id, _ = report.worst()
        out.append(
            _check(
                report.family,
                report.max_residual,
                tol,
                relations=len(report.entries),
                worst=worst_id,
            )
        )
    return out


def _verify_bmw(cfg: RunConfig) -> list[dict]:
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
    results.extend(_report_entries(check_all(e, b, params, n=cfg.sites, tol=cfg.tolerance), cfg.tolerance))
    return results


def _verify_brauer(cfg: RunConfig) -> list[dict]:
    results = _report_entries(check_brauer(n=cfg.sites, tol=cfg.tolerance), cfg.tolerance)
    identities = brauer_teleportation_residuals(seed=cfg.seed)
    for name in ("projector", "swap", "tangle", "cup-cap"):
        results.append(_check(f"state-identity-{name}", identities[name], cfg.tolerance))
    return results


def _verify_constraints(cfg: RunConfig) -> list[dict]:
    results = []
    table = concrete_constraint_residuals(cfg.phi)
    for c in sorted(table):
        worst_pair = max(table[c], key=table[c].get)
        results.append(
            _check(
                f"constraint-{c}",
                max(table[c].values()),
                cfg.tolerance,
                cells=len(table[c]),
                worst=f"ij={worst_pair[0]}{worst_pair[1]}",
            )
        )
    transfers = projector_teleportation_residuals(cfg.phi, seed=cfg.seed)
    for c in sorted(transfers):
        results.append(_check(f"transfer-identity-{c}", transfers[c], cfg.tolerance))
    return results


def _basis_assignment(cfg: RunConfig):
    """Resolve (basis, eigenvalue assignment, description) from the config.

    The pauli basis takes its assignment from the solved class picked by
    --class; bell-like pairs the braid eigenvalues with the rotated Bell
    basis, which satisfies the constraints at their native --mn 00.
    """
    m, n = cfg.mn
    if cfg.basis == "pauli":
        classes = solve_pauli_eigenvalues(m, n)
        sol = classes[cfg.class_id - 1]
        return UnitaryBasis.pauli(), sol.mu_of_phi(cfg.phi), sol.describe()
    basis = UnitaryBasis.bell_like(cfg.phi)
    return basis, EigenAssignment(dict(B_EIGENVALUES)), "braid eigenvalues"


def _verify_spectral(cfg: RunConfig) -> list[dict]:
    m, n = cfg.mn
    basis, mu, desc = _basis_assignment(cfg)
    results = [_info("assignment", value=desc, mn=f"{m}{n}", basis=cfg.basis)]
    table = spectral_constraint_residuals(basis, mu, m, n)
    for c in sorted(table):
        results.append(_check(f"constraint-{c}", max(table[c].values()), cfg.tolerance, cells=len(table[c])))
    results.append(_check("completeness-sum", abs(eigenvalue_sum(mu, m, n) - 1), cfg.tolerance))
    if cfg.basis == "pauli":
        results.append(_check("scalar-system", scalar_system_residual(mu, m, n), cfg.tolerance))
    return results


def _verify_general(cfg: RunConfig) -> list[dict]:
    m, n = cfg.mn
    basis, mu, desc = _basis_assignment(cfg)
    coeffs = GateCoefficients.diagonal(mu)
    results = [_info("coefficients", value=f"diagonal: {desc}", mn=f"{m}{n}", basis=cfg.basis)]
    table = general_constraint_residuals(coeffs, basis, m, n)
    for c in sorted(table):
        results.append(_check(f"constraint-{c}", max(table[c].values()), cfg.tolerance, cells=len(table[c])))
    unitary = coeffs.is_gate(basis)
    results.append({"label": "assembled-gate-unitary", "value": bool(unitary), "pass": bool(unitary)})
    return results


def _verify_b_forms(cfg: RunConfig) -> list[dict]:
    results = []
    forms = braid_projector_forms(cfg.phi)
    for name in ("projector-sum", "dyad-sum", "unitary-part"):
        results.append(_check(name, forms[name], cfg.tolerance))
    phase, factors = decompose_b(cfg.phi)
    product = phase * mul(*[mat for _, mat in factors])
    results.append(
        _check(
            "elementary-product",
            max_abs_diff(product, yb_gate(cfg.phi)),
            cfg.tolerance,
            factors=" | ".join(name for name, _ in factors),
            phase=_fmt_complex(phase),
        )
    )
    return results


def _verify_skew(cfg: RunConfig) -> list[dict]:
    m, n = cfg.mn
    basis, mu, desc = _basis_assignment(cfg)
    results = [_info("assignment", value=desc, mn=f"{m}{n}", basis=cfg.basis)]
    results.append(_check("spectral-agreement", skew_agreement_deviation(basis, mu, m, n), cfg.tolerance))
    coeffs = GateCoefficients.diagonal(mu)
    results.append(_check("general-agreement", skew_agreement_deviation(basis, coeffs, m, n), cfg.tolerance))
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(20):
        bmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        worst = max(worst, max_abs_diff(skew_transpose(bmat, cmat), transpose(cmat @ bmat)))
    results.append(_check("definition-on-random-pairs", worst, cfg.tolerance, pairs=20))
    return results


_VERIFY_HANDLERS = {
    "bmw": _verify_bmw,
    "brauer": _verify_brauer,
    "constraints": _verify_constraints,
    "spectral": _verify_spectral,
    "general": _verify_general,
    "b-forms": _verify_b_forms,
    "skew-transpose": _verify_skew,
}


def _cmd_verify(cfg: RunConfig) -> list[dict]:
    return _VERIFY_HANDLERS[cfg.action](cfg)


# --------------------------------------------------------------- teleport


def _run_instance(cfg: RunConfig, index: int):
    """One protocol run; returns (outcome key, correction key, label, p, fidelity)."""
    inst_seed = cfg.seed * _SEED_STRIDE + index
    rng = np.random.default_rng(inst_seed)
    variant = cfg.action
    if variant == "standard":
        alpha = random_ket(rng)
        outcome, corrected = teleport_standard(alpha, rng_seed=inst_seed)
        key = f"{outcome.i}{outcome.j}"
        return key, key, f"W^dag_{key}", outcome.probability, fidelity(alpha, corrected)
    if variant == "bell-like":
        alpha = random_ket(rng)
        outcome, corrected = teleport_bell_like(alpha, cfg.phi, rng_seed=inst_seed)
        key = f"{outcome.i}{outcome.j}"
        return key, key, f"(M_00 conj(M_{key}))^dag", outcome.probability, fidelity(alpha, corrected)
    if variant == "yang-baxter":
        alpha = random_ket(rng)
        k, l = (int(bit) for bit in rng.integers(0, 2, size=2))
        outcome, corrected = teleport_with_yb(alpha, k, l, cfg.phi, rng_seed=inst_seed)
        key = f"{outcome.i}{outcome.j}"
        return key, f"{key}|{k}{l}", f"W^dag_{key}{k}{l}", outcome.probability, fidelity(alpha, corrected)
    if variant == "gate":
        u = elementary(cfg.gate, cfg.phi)
        alpha = random_ket(rng)
        k, l = (int(bit) for bit in rng.integers(0, 2, size=2))
        outcome, corrected = teleport_single_gate(u, alpha, k, l, rng_seed=inst_seed)
        key = f"{outcome.i}{outcome.j}"
        label = f"R({cfg.gate})^dag_{key}{k}{l}"
        return key, f"{key}|{k}{l}", label, outcome.probability, fidelity(u @ alpha, corrected)
    # two-qubit
    alphabeta = random_ket(rng, dim=4)
    k1, l1, k2, l2 = (int(bit) for bit in rng.integers(0, 2, size=4))
    outcome, corrected = teleport_two_qubit(alphabeta, k1, l1, k2, l2, rng_seed=inst_seed)
    i1, j1 = outcome.first
    i2, j2 = outcome.second
    key = f"{i1}{j1},{i2}{j2}"
    target = yb_clifford() @ alphabeta
    return key, f"{key}|{k1}{l1},{k2}{l2}", "(Q x P)^dag", outcome.probability, fidelity(target, corrected)


def _cmd_teleport(cfg: RunConfig) -> list[dict]:
    expected = 1 / 16 if cfg.action == "two-qubit" else 1 / 4
    histogram: dict[str, int] = {}
    corrections: dict[str, str] = {}
    min_fid = 1.0
    prob_dev = 0.0
    for index in range(cfg.count):
        key, ckey, label, prob, fid = _run_instance(cfg, index)
        histogram[key] = histogram.get(key, 0) + 1
        corrections[ckey] = label
        min_fid = min(min_fid, fid)
        prob_dev = max(prob_dev, abs(prob - expected))
    results = [
        _info("instances", value=cfg.count),
        {"label": "min-fidelity", "value": _fmt(min_fid), "pass": bool(min_fid >= 1 - cfg.tolerance)},
        {
            "label": "max-probability-deviation",
            "value": _fmt(prob_dev),
            "pass": bool(prob_dev <= cfg.tolerance),
            "expected": _fmt(expected),
        },
        _info("outcomes", histogram={k: histogram[k] for k in sorted(histogram)}),
        _info("corrections", map={k: corrections[k] for k in sorted(corrections)}),
    ]
    if cfg.action == "gate":
        u = elementary(cfg.gate, cfg.phi)
        bits = (0, 1)
        all_clifford = all(
            clifford_check(r_gate(u, i, j, k, l))[0]
            for i in bits
            for j in bits
            for k in bits
            for l in bits
        )
        results.append(_info("correction-clifford", gate=cfg.gate, value=bool(all_clifford)))
    return results


# ------------------------------------------------------------------ solve


def _cmd_solve(cfg: RunConfig) -> list[dict]:
    m, n = cfg.mn
    basis = UnitaryBasis.pauli()
    classes = solve_pauli_eigenvalues(m, n)
    results = [{"label": "class-count", "value": len(classes), "pass": len(classes) == 3}]
    for sol in classes:
        worst = 0.0
        completeness = 0.0
        for p in _PHI_GRID:
            mu = sol.mu_of_phi(p)
            worst = max(worst, table_max(spectral_constraint_residuals(basis, mu, m, n)))
            completeness = max(completeness, abs(eigenvalue_sum(mu, m, n) - 1))
        mu_here = sol.mu_of_phi(cfg.phi)
        results.append(
            {
                "label": f"class-{sol.class_id}",
                "pattern": sol.describe(),
                "mu": {f"{i}{j}": _fmt_complex(mu_here.mu[(i, j)]) for i, j in BIT_PAIRS},
                "constraint-residual": _fmt(worst),
                "completeness-residual": _fmt(completeness),
                "printed-form": matched_form(sol),
                "pass": bool(worst <= cfg.tolerance and completeness <= cfg.tolerance),
            }
        )
    return results


# ---------------------------------------------------------------- analyze


def _analysis_target(name: str, phi: float) -> np.ndarray:
    if name == "B":
        return yb_gate(phi)
    if name == "B0":
        return yb_clifford()
    if name == "I":
        return np.eye(4, dtype=complex)
    if name == "SWAP":
        return SWAP.copy()
    return CZ.copy()


def _cmd_analyze(cfg: RunConfig) -> list[dict]:
    u = _analysis_target(cfg.gate, cfg.phi)
    params = canonical_params(u)
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
        ok, table = clifford_check(u)
        if ok:
            rows = {f"{name}_{site}": str(image) for (name, site), image in sorted(table.items())}
            results.append(_info("pauli-conjugation", map=rows))
        else:
            results.append(_info("pauli-conjugation", value="not a Clifford gate"))
    if cfg.gate == "B":
        phase, factors = decompose_b(cfg.phi)
        product = phase * mul(*[mat for _, mat in factors])
        results.append(
            _check(
                "decomposition",
                max_abs_diff(product, u),
                cfg.tolerance,
                factors=" | ".join(name for name, _ in factors),
            )
        )
        forms = braid_projector_forms(cfg.phi)
        for name in ("projector-sum", "dyad-sum", "unitary-part"):
            results.append(_check(f"form-{name}", forms[name], cfg.tolerance))
    return results


# --------------------------------------------------------------- plumbing


def _document(cfg: RunConfig, results: list[dict], overall: bool) -> dict:
    command = cfg.command if not cfg.action else f"{cfg.command} {cfg.action}"
    config = {
        "tool_version": __version__,
        "phi": _fmt(cfg.phi),
        "sites": cfg.sites,
        "seed": cfg.seed,
        "tolerance": _fmt(cfg.tolerance),
        "basis": cfg.basis,
        "mn": f"{cfg.mn[0]}{cfg.mn[1]}",
        "class": cfg.class_id,
        "gate": cfg.gate,
        "count": cfg.count,
    }
    return {"command": command, "config": config, "results": results, "pass": overall}


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


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
            parts.append(f"{key}={value}")
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--phi", type=float, default=0.0, help="phase of the rotated-basis family (default 0)")
    common.add_argument("--sites", type=int, default=3, help="tensor sites for relation suites, 2..10 (default 3)")
    common.add_argument("--seed", type=int, default=42, help="seed for all randomness (default 42)")
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="pass threshold for residuals (default 1e-10; env BMW_TOL overrides)",
    )
    common.add_argument("--format", choices=("text", "json"), default="text", dest="fmt", help="report format")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
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


_COMMAND_HANDLERS = {
    "verify": _cmd_verify,
    "teleport": _cmd_teleport,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        raw = os.environ.get("BMW_TOL", "")
        if raw:
            try:
                tolerance = float(raw)
            except ValueError:
                parser.error(f"BMW_TOL is not a number: {raw!r}")
        else:
            tolerance = _DEFAULT_TOL
    if not (math.isfinite(tolerance) and tolerance > 0):
        parser.error(f"tolerance must be positive and finite, got {tolerance}")
    if not math.isfinite(args.phi):
        parser.error(f"phi must be finite, got {args.phi}")
    if args.seed < 0:
        parser.error(f"seed must be non-negative, got {args.seed}")
    if not 2 <= args.sites <= 10:
        parser.error("sites must be between 2 and 10")
    count = getattr(args, "count", 100)
    if count < 1:
        parser.error("count must be at least 1")

    mn_raw = getattr(args, "mn", "00")
    cfg = RunConfig(
        command=args.command,
        action=getattr(args, "kind", None) or getattr(args, "variant", None) or "",
        phi=args.phi,
        sites=args.sites,
        seed=args.seed,
        tolerance=tolerance,
        fmt=args.fmt,
        output=args.output,
        basis=getattr(args, "basis", "pauli"),
        mn=(int(mn_raw[0]), int(mn_raw[1])),
        class_id=getattr(args, "class_id", 1),
        gate=getattr(args, "gate", ""),
        count=count,
    )

    results = _COMMAND_HANDLERS[cfg.command](cfg)
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
