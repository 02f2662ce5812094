"""Acceptance gate: one check per release criterion, one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; every test prints
`criterion NN <name>: PASS|FAIL` (visible with -s or on failure) and the
test name itself carries the criterion number for the -v listing.
"""

import cmath
import itertools
import json
import math

import numpy as np

from braidtel.algebra import (
    BmwParams,
    brauer_teleportation_residuals,
    check_all,
    check_brauer,
    derive_params,
)
from braidtel.cli import main as cli_main
from braidtel.entanglement import (
    braid_projector_forms,
    canonical_gate,
    canonical_params,
    entangling_power,
)
from braidtel.gate_teleport import (
    _gate_protocol,
    b0_reverse_residual,
    clifford_check,
    r_gate,
    r_gate_hadamard,
)
from braidtel.gates import (
    B_EIGENVALUES,
    H,
    I2,
    T,
    decompose_b,
    tl_projector,
    yb_clifford,
    yb_gate,
)
from braidtel.linalg import fidelity, max_abs_diff, mul, transpose
from braidtel.tangles import (
    EigenAssignment,
    GateCoefficients,
    UnitaryBasis,
    build_representation,
    concrete_constraint_residuals,
    eigenvalue_sum,
    matched_form,
    printed_gate_forms,
    printed_projector,
    projector_teleportation_residuals,
    skew_agreement_deviation,
    skew_transpose,
    solve_pauli_eigenvalues,
    spectral_constraint_residuals,
)
from braidtel.teleport import (
    BIT_PAIRS,
    _braid_protocol,
    teleport_bell_like,
    teleport_standard,
    teleport_with_yb,
)
from registers import identity_residual, random_ket
from tables import table_max

QUARTER = math.pi / 4

SECTION_PARAMS = BmwParams(
    sigma=cmath.exp(1j * 5 * math.pi / 4),
    w=math.sqrt(2) * 1j,
    d=2.0,
    lambdas=(
        cmath.exp(1j * 5 * math.pi / 4),
        cmath.exp(1j * 3 * math.pi / 4),
        cmath.exp(1j * math.pi / 4),
    ),
)

PRINTED_CLASSES = (
    ((1, 1), (1, -1), (1, -1), (-1, 1)),
    ((1, 1), (1, -1), (-1, 1), (1, -1)),
    ((1, 1), (-1, 1), (1, -1), (1, -1)),
)


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name}"


def test_criterion_01_relation_suite():
    ok = True
    for phi in (0.0, math.pi / 8, 1.234):
        e = tl_projector(0, 0, phi)
        b = yb_gate(phi)
        for report in check_all(e, b, SECTION_PARAMS, n=3):
            ok = ok and report.passed
    _verdict(1, "relation suite", ok)


def test_criterion_02_parameter_extraction():
    ok = True
    for phi in (0.0, math.pi / 8, 1.234):
        params = derive_params(yb_gate(phi))
        ok = ok and abs(params.sigma - SECTION_PARAMS.sigma) <= 1e-10
        ok = ok and abs(params.w - SECTION_PARAMS.w) <= 1e-10
        ok = ok and abs(params.d - 2.0) <= 1e-10
        _, lam2, lam3 = params.lambdas
        ok = ok and abs(lam2 * lam3 + 1) <= 1e-12
    _verdict(2, "parameter extraction", ok)


def test_criterion_03_decomposition_fidelity():
    ok = True
    for phi in (0.0, 0.4, 1.0, 1.9, 2.8):
        phase, factors, _ = decompose_b(phi)
        product = phase * mul(*[m for _, m in factors])
        ok = ok and max_abs_diff(product, yb_gate(phi)) <= 1e-12
        forms = braid_projector_forms(phi)
        ok = ok and forms["projector-sum"] <= 1e-10
        ok = ok and forms["dyad-sum"] <= 1e-10
    _verdict(3, "decomposition fidelity", ok)


def test_criterion_04_entangling_power():
    ok = abs(entangling_power(yb_gate(0.7)) - 1.0) <= 1e-10
    got = canonical_params(yb_gate(0.7)).as_tuple()
    ok = ok and max(abs(g - w) for g, w in zip(got, (QUARTER, QUARTER, 0.0))) <= 1e-9
    ok = ok and entangling_power(np.eye(4, dtype=complex)) <= 1e-12
    rng = np.random.default_rng(404)
    for _ in range(50):
        triple = np.sort(rng.uniform(0.02, QUARTER - 0.02, size=3))[::-1]
        recovered = canonical_params(canonical_gate(*triple)).as_tuple()
        ok = ok and max(abs(g - w) for g, w in zip(recovered, triple)) <= 1e-8
    _verdict(4, "entangling power", ok)


def test_criterion_05_teleportation_protocols():
    ok = True
    for index in range(100):
        seed = 42 * 100003 + index
        rng = np.random.default_rng(seed)
        alpha = random_ket(rng)
        outcome, corrected = teleport_standard(alpha, rng_seed=seed)
        ok = ok and fidelity(alpha, corrected) >= 1 - 1e-10
        ok = ok and abs(outcome.probability - 0.25) <= 1e-10

        outcome, corrected = teleport_bell_like(alpha, 0.6, rng_seed=seed)
        ok = ok and fidelity(alpha, corrected) >= 1 - 1e-10
        ok = ok and abs(outcome.probability - 0.25) <= 1e-10

        k, l = (int(bit) for bit in rng.integers(0, 2, size=2))
        outcome, corrected = teleport_with_yb(alpha, k, l, 0.6, rng_seed=seed)
        ok = ok and fidelity(alpha, corrected) >= 1 - 1e-10
        ok = ok and abs(outcome.probability - 0.25) <= 1e-10
    _verdict(5, "teleportation protocols", ok)


def test_criterion_06_teleportation_equations():
    variants = (
        "standard",
        "standard-transpose",
        "bell-like",
        "bell-like-transpose",
        "projector-channel",
        "projector-channel-transpose",
    )
    ok = all(identity_residual(v, 0.9) <= 1e-10 for v in variants)
    ok = ok and _braid_protocol(0.9).every_branch <= 1e-10
    ok = ok and _gate_protocol(I2).every_branch <= 1e-10
    ok = ok and b0_reverse_residual() <= 1e-10
    _verdict(6, "teleportation equations", ok)


def test_criterion_07_clifford_structure():
    flag, table = clifford_check(yb_clifford())
    rows = {key: str(val) for key, val in table.items()}
    ok = flag and rows == {
        ("X", 1): "-I.X",
        ("X", 2): "-X.I",
        ("Z", 1): "+X.Z",
        ("Z", 2): "+Z.X",
    }
    for bits in itertools.product((0, 1), repeat=4):
        ok = ok and clifford_check(r_gate(T, *bits))[0]
        ok = ok and max_abs_diff(r_gate(H, *bits), r_gate_hadamard(*bits)) <= 1e-12
    _verdict(7, "clifford structure", ok)


def test_criterion_08_concrete_constraints():
    ok = True
    for phi in (0.2, 0.9, 2.1):
        table = concrete_constraint_residuals(phi)
        ok = ok and table_max(table) <= 1e-10
        transfers = projector_teleportation_residuals(phi)
        ok = ok and max(transfers.values()) <= 1e-10
    _verdict(8, "concrete constraints", ok)


def test_criterion_09_eigenvalue_classes():
    basis = UnitaryBasis.pauli()
    classes = solve_pauli_eigenvalues(0, 0)
    ok = tuple(sol.pattern for sol in classes) == PRINTED_CLASSES
    phis = tuple(0.1 + 0.3 * k for k in range(10))
    for m, n in BIT_PAIRS:
        for sol in solve_pauli_eigenvalues(m, n):
            for phi in phis:
                mu = sol.mu_of_phi(phi)
                ok = ok and table_max(spectral_constraint_residuals(basis, mu, m, n)) <= 1e-10
                ok = ok and abs(eigenvalue_sum(mu, m, n) - 1) <= 1e-10
    _verdict(9, "eigenvalue classes", ok)


def test_criterion_10_built_representations():
    ok = True
    for m, n in BIT_PAIRS:
        for sol in solve_pauli_eigenvalues(m, n):
            for phi in (0.3, 1.1):
                e4, u4 = build_representation(sol, phi)
                ok = ok and max_abs_diff(e4, printed_projector(m, n)) <= 1e-12
                printed = printed_gate_forms(m, n, phi)[matched_form(sol)]
                ok = ok and max_abs_diff(u4, printed) <= 1e-12
                params = derive_params(u4)
                ok = ok and abs(params.d - 2) <= 1e-9
                ok = ok and all(report.passed for report in check_all(e4, u4, params, n=3))
    _verdict(10, "built representations", ok)


def test_criterion_11_skew_transpose_forms():
    basis = UnitaryBasis.pauli()
    ok = True
    for m, n in BIT_PAIRS:
        for sol in solve_pauli_eigenvalues(m, n):
            coeffs = GateCoefficients.diagonal(sol.mu_of_phi(0.7))
            ok = ok and skew_agreement_deviation(basis, coeffs, m, n) <= 1e-12
    rotated = UnitaryBasis.bell_like(0.4)
    lam = EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS])
    ok = ok and skew_agreement_deviation(rotated, GateCoefficients.diagonal(lam), 0, 0) <= 1e-12
    rng = np.random.default_rng(1100)
    for _ in range(20):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ok = ok and max_abs_diff(skew_transpose(b, c), transpose(c @ b)) <= 1e-12
    _verdict(11, "skew-transpose forms", ok)


def test_criterion_12_brauer_suite():
    ok = all(report.passed for report in check_brauer(n=3))  # held to DEFAULT_TOL, 1e-10
    residuals = brauer_teleportation_residuals()
    ok = ok and max(residuals.values()) <= 1e-10
    _verdict(12, "brauer suite", ok)


def test_criterion_13_deterministic_reports(tmp_path, capsys):
    ok = True
    configs = (
        ["verify", "bmw", "--phi", "0.3", "--format", "json"],
        ["teleport", "two-qubit", "--count", "15", "--seed", "9", "--format", "json"],
        ["solve", "--mn", "01", "--format", "json"],
    )
    for idx, argv in enumerate(configs):
        first = tmp_path / f"a{idx}.json"
        second = tmp_path / f"b{idx}.json"
        cli_main(argv + ["--output", str(first)])
        cli_main(argv + ["--output", str(second)])
        ok = ok and first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    _verdict(13, "deterministic reports", ok)


def test_criterion_14_batched_teleport_reports(capsys):
    ok = True
    variants = ("standard", "bell-like", "yang-baxter", "gate", "two-qubit")
    for variant, phi in itertools.product(variants, ("0", "0.3", "-2.1")):
        argv = ["teleport", variant, "--phi", phi, "--count", "1000", "--format", "json"]
        ok = ok and cli_main(argv + (["--gate", "R"] if variant == "gate" else [])) == 0
        results = {entry["label"]: entry for entry in json.loads(capsys.readouterr().out)["results"]}
        ok = ok and float(results["max-probability-deviation"]["value"]) <= 1e-12
        ok = ok and float(results["min-fidelity"]["value"]) >= 1 - 1e-12
        ok = ok and sum(results["outcomes"]["histogram"].values()) == 1000
    _verdict(14, "batched teleport reports", ok)
