"""The phi-fixed protocol operators and report parts: cached, read-only, still self-checked."""

import importlib
import itertools
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import braidtel
from braidtel import algebra, cli, entanglement, gate_teleport, gates, tangles, teleport
from braidtel.gate_teleport import teleport_single_gate, teleport_two_qubit
from braidtel.gates import H
from braidtel.linalg import kron
from braidtel.teleport import BIT_PAIRS, phase_table, teleport_bell_like, teleport_with_yb
from registers import basis_ket, double_input
from tables import w_braid_correction
from test_golden import CASES, GOLDEN_DIR, golden_name


def _module_caches():
    """Every lru_cache wrapper defined at module level in the braidtel package."""
    found = {}
    for info in pkgutil.iter_modules(braidtel.__path__):
        module = importlib.import_module(f"braidtel.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return tuple(found[name] for name in sorted(found))


CACHES = _module_caches()

ALPHA = np.array([0.6, 0.8j])


@pytest.fixture
def cold_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def _wrong(phi):
    return np.eye(4, dtype=complex)


@pytest.mark.parametrize(
    "run",
    [
        lambda: teleport_bell_like(ALPHA, 0.3),
        lambda: teleport_with_yb(ALPHA, 0, 1, 0.3),
        lambda: teleport_single_gate(H, ALPHA, 1, 0),
        lambda: teleport_two_qubit(np.array([1, 0, 0, 0]), 0, 1, 1, 0),
    ],
    ids=["bell-like", "yang-baxter", "single-gate", "two-qubit"],
)
def test_protocols_run_the_closed_form_self_checks(run, cold_caches, monkeypatch):
    monkeypatch.setattr(gates, "_tl_closed_form", _wrong)
    monkeypatch.setattr(gates, "_yb_closed_form", _wrong)
    with pytest.raises((AssertionError, ValueError)):
        run()


def test_phase_table_is_extracted_once_per_braid_protocol_build(cold_caches, monkeypatch):
    calls = []
    real = teleport.phase_table
    monkeypatch.setattr(teleport, "phase_table", lambda phi: calls.append(phi) or real(phi))
    for seed in range(3):
        teleport_with_yb(ALPHA, 1, 1, 0.3, rng_seed=seed)
    teleport_with_yb(ALPHA, 1, 1, -2.1)
    assert calls == [0.3, 0.3, 0.3, -2.1]


def test_cache_scan_finds_the_protocol_caches():
    expected = {
        teleport._pauli_basis,
        teleport._bell_like_basis,
        teleport._standard_protocol,
        teleport._bell_like_protocol,
        gates._m_gates,
        gates._tl_projector,
        gates.yb_gate,
        gate_teleport._double_protocol,
        gate_teleport._b0_layers,
        gate_teleport._kl_tables,
        cli._solve_rows,
        cli._fixed_analysis,
        cli._brauer_rows,
        cli._diagonal_table,
    }
    assert expected <= set(CACHES)


@pytest.mark.parametrize(
    "constant",
    [
        lambda: teleport._standard_protocol()[2],
        lambda: teleport._braid_protocol(0.3)[2],
        lambda: teleport.UnitaryBasis.bell_like(0.3).states,
        lambda: teleport._braid_protocol(0.3)[0],
        lambda: teleport._braid_protocol(0.3)[1],
        lambda: gate_teleport._b0_layers()[0],
        lambda: gate_teleport._b0_layers()[1],
        lambda: teleport._bell_like_protocol(0.3)[1],
        lambda: teleport._standard_protocol()[1],
        lambda: gate_teleport._kl_tables()[0],
        lambda: gate_teleport._kl_tables()[1],
        *(lambda k=k: tangles.UnitaryBasis.pauli().u[k] for k in range(4)),
        lambda: tangles.UnitaryBasis.pauli().states,
        lambda: teleport._standard_protocol().branch,
        lambda: teleport._bell_like_protocol(0.3).branch,
        lambda: teleport._braid_protocol(0.3).branch,
        lambda: gate_teleport._gate_protocol(H).branch,
        lambda: gate_teleport._double_protocol().branch,
        lambda: teleport._standard_protocol()[0],
        lambda: teleport._bell_like_protocol(0.3)[0],
        lambda: gate_teleport._gate_protocol(H)[0],
        lambda: gate_teleport._gate_protocol(H)[1],
        lambda: gate_teleport._double_protocol()[0],
        lambda: gate_teleport._double_protocol().gate,
        lambda: gates._m_gates(0.3),
        lambda: gates.m_gate(1, 1, 0.3),
        lambda: gates.yb_gate(0.3),
        lambda: gates.tl_projector(0, 0, 0.3),
        lambda: gates.tl_projector(1, 0, 0.3),
        lambda: gates._HZ_HZ,
        lambda: entanglement.MAGIC,
        lambda: entanglement._MAGIC_DAGGER,
        lambda: entanglement._FLIPPED,
    ],
    ids=["bell", "product", "bell-like", "braid-op", "braid-w", "b0-front", "b0-back",
         "bell-like-front", "pauli", "k", "l",
         "pauli-basis-00", "pauli-basis-01", "pauli-basis-10", "pauli-basis-11", "pauli-states",
         "standard-branch", "bell-like-branch", "braid-branch", "gate-branch", "double-branch",
         "standard-op", "bell-like-op", "gate-op", "gate-table", "double-op", "double-gate",
         "m-stack", "m-11", "b", "e-00", "e-10", "hz-hz", "magic", "magic-dagger", "flipped"],
)
def test_cached_constants_are_read_only(constant):
    array = constant()
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 0


def test_b0_layers_are_the_three_qubit_krons():
    front, back = gate_teleport._b0_layers()
    assert np.array_equal(front, kron(gates.yb_clifford(), gates.I2))
    assert np.array_equal(back, kron(gates.I2, gates.yb_clifford()))


def test_measurement_bases_must_be_orthonormal(cold_caches, monkeypatch):
    with pytest.raises(ValueError, match="orthonormal"):
        teleport.UnitaryBasis([gates.I2, gates.I2, gates.X, gates.Z])
    # off by 1e-11 the M_ij basis passes the general bound, DEFAULT_TOL, but not the protocols' STRICT_TOL
    real = teleport._m_gates
    monkeypatch.setattr(teleport, "_m_gates", lambda phi: real(phi) * np.array([1, 1, 1, 1 + 1e-11])[:, None, None])
    assert teleport.UnitaryBasis(teleport._m_gates(0.3)).residual > 1e-12
    with pytest.raises(ValueError, match="not orthonormal"):
        teleport.UnitaryBasis.bell_like(0.3)


def test_measurement_bases_must_be_unitary_and_finite():
    # sqrt 2 E_11, E_12, E_21, E_22 are orthonormal under (1/2) tr, but not one is unitary
    with pytest.raises(ValueError, match="not unitary"):
        teleport.UnitaryBasis(np.sqrt(2) * np.eye(4).reshape(4, 2, 2))
    with pytest.raises(ValueError, match="not orthonormal"):
        teleport.UnitaryBasis(np.full((4, 2, 2), np.nan))


def test_braid_corrections_are_stacked_by_resource_then_outcome():
    table = phase_table(-2.1)
    _, stacked, _ = teleport._braid_protocol(-2.1)
    for (k, l), (i, j) in itertools.product(BIT_PAIRS, repeat=2):
        assert np.array_equal(stacked[2 * k + l, 2 * i + j], w_braid_correction(i, j, k, l, table))


def test_double_input_matches_the_summed_layout():
    alphabeta = np.array([0.1, 0.7j, -0.5, 0.5 + 0.0j])
    alphabeta /= np.linalg.norm(alphabeta)
    coeff = alphabeta.reshape(2, 2)
    for k1, l1, k2, l2 in itertools.product((0, 1), repeat=4):
        anc = kron(basis_ket(2 * k1 + l1, 4), basis_ket(2 * k2 + l2, 4))
        expected = sum(
            coeff[a, b] * kron(basis_ket(a, 2), anc, basis_ket(b, 2)) for a in (0, 1) for b in (0, 1)
        )
        assert np.array_equal(double_input(alphabeta, k1, l1, k2, l2), expected)


def test_closed_form_phases_agree_with_the_fit():
    """Over 241 phi the closed form and the fit agree as unit phasors and as W tables."""
    worst_phasor = worst_table = 0.0
    for phi in np.linspace(-3.1, 3.1, 241):
        closed, fitted = phase_table(float(phi)), teleport.extract_phases(float(phi))
        for name in ("alpha_b", "alpha_b_dagger"):
            a, b = getattr(closed, name), getattr(fitted, name)
            worst_phasor = max(worst_phasor, *(abs(np.exp(1j * a[ij]) - np.exp(1j * b[ij])) for ij in BIT_PAIRS))
        tables = [teleport._correction_table(w_braid_correction, t) for t in (closed, fitted)]
        worst_table = max(worst_table, float(np.max(np.abs(tables[0] - tables[1]))))
    assert worst_phasor <= 1e-15
    assert worst_table <= 1e-15


def test_a_wrong_closed_form_phase_fails_the_rebuild_check(cold_caches, monkeypatch):
    monkeypatch.setitem(teleport._ALPHA_B, (1, 1), (-np.pi / 4, -1.0))
    with pytest.raises(ValueError, match="does not reproduce B"):
        teleport._braid_protocol(0.3)


# A phase of B moves V_ij, a phase of B^dag moves U_ij: each half of the rebuild check is read.
@pytest.mark.parametrize("ij", BIT_PAIRS, ids=[f"{i}{j}" for i, j in BIT_PAIRS])
@pytest.mark.parametrize("name", ["_ALPHA_B", "_ALPHA_B_DAGGER"])
def test_a_phase_off_by_a_micro_radian_fails_the_rebuild_check(cold_caches, monkeypatch, name, ij):
    phases = getattr(teleport, name)
    offset, slope = phases[ij]
    monkeypatch.setitem(phases, ij, (offset + 1e-6, slope))
    with pytest.raises(ValueError, match="does not reproduce B"):
        teleport._braid_protocol(0.3)


@pytest.mark.parametrize(
    "mapping",
    [lambda: cli._fixed_analysis("B0")[2],
     lambda: cli._diagonal_table("pauli", "01", 1, 0.3),
     lambda: cli._diagonal_table("pauli", "01", 1, 0.3)[1]],
    ids=["b0-conjugation", "diagonal-table", "diagonal-table-row"],
)
def test_cached_mappings_are_read_only(mapping):
    table = mapping()
    assert isinstance(table, MappingProxyType)
    with pytest.raises(TypeError):
        table[(0, 0)] = None


def test_the_pauli_basis_is_built_once_and_keeps_the_general_residuals():
    basis = tangles.UnitaryBasis.pauli()
    assert basis is tangles.UnitaryBasis.pauli()
    fresh = tangles.UnitaryBasis([gates.pauli_w(*p) for p in BIT_PAIRS])
    coeffs = tangles.GateCoefficients(np.random.default_rng(5).normal(size=(4, 4)) + 0.5j)
    for m, n in BIT_PAIRS:
        assert tangles.general_constraint_residuals(coeffs, basis, m, n) == \
            tangles.general_constraint_residuals(coeffs, fresh, m, n)
    assert np.array_equal(coeffs.assemble(basis), coeffs.assemble(fresh))
    assert np.array_equal(basis.states, fresh.states)


# Reports at other phi, gates, index pairs and classes, run before a golden case in the warm variant.
WARM_UP = (
    [["solve", "--mn", mn, "--phi", "1.7"] for mn in ("00", "01", "10", "11")]
    + [["analyze", "--gate", gate, "--phi", "-2.1"] for gate in cli.ANALYZE_GATES]
    + [["verify", kind, "--mn", mn, "--class", "2", "--phi", "2.9"]
       for kind in ("spectral", "general", "skew-transpose") for mn in ("01", "11")]
    + [["teleport", variant, "--phi", "-0.4", "--seed", "3", "--count", "5"] for variant in cli.TELEPORT_VARIANTS]
    + [["verify", "constraints", "--phi", "1.1"], ["verify", "bmw", "--phi", "0.9"], ["verify", "b-forms"]]
)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_name(argv)[:-5])
def test_golden_reports_from_cold_and_warm_caches(argv, warm, cold_caches, capsys):
    for other in WARM_UP if warm else ():
        assert cli.main([*other, "--format", "json"]) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden_name(argv)).read_text(encoding="utf-8")


def _wrong_forms(m, n, phi):
    return {"rotating:+": np.eye(4, dtype=complex)}


def _wrong_canonical_gate(a, b, c, real=entanglement.canonical_gate):
    return real(a + 0.3, b, c)


@pytest.mark.parametrize(
    "module, name, fake, argv",
    [(tangles, "printed_gate_forms", _wrong_forms, ["solve", "--mn", mn]) for mn in ("00", "01", "10", "11")]
    + [(entanglement, "canonical_gate", _wrong_canonical_gate, ["analyze", "--gate", gate])
       for gate in ("B0", "I", "SWAP", "CZ")],
    ids=[f"solve-{mn}" for mn in ("00", "01", "10", "11")] + [f"analyze-{gate}" for gate in ("B0", "I", "SWAP", "CZ")],
)
def test_cached_report_parts_still_run_their_self_checks(module, name, fake, argv, cold_caches, monkeypatch, capsys):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(AssertionError):
        cli.main([*argv, "--format", "json"])


def test_phi_free_report_parts_are_computed_once(cold_caches, monkeypatch, capsys):
    calls = []
    for name in ("matched_form", "canonical_params", "clifford_check"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for phi in ("0.3", "-2.1", "1.7"):
        assert cli.main(["solve", "--mn", "01", "--phi", phi, "--format", "json"]) == 0
        for gate in ("B0", "I", "SWAP", "CZ"):
            assert cli.main(["analyze", "--gate", gate, "--phi", phi, "--format", "json"]) == 0
    assert sorted(calls) == ["canonical_params"] * 4 + ["clifford_check"] + ["matched_form"] * 3


def _fresh_interpreter(script: str) -> str:
    """The stdout of script, run by a new interpreter that imports braidtel from this checkout."""
    src = str(Path(braidtel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
                          timeout=60).stdout


def test_importing_the_cli_generates_no_code():
    """Records are tuples, so a fresh import of the CLI loads neither dataclasses nor the copy module it brings."""
    script = "import sys, braidtel.cli\nprint(sorted({'dataclasses', 'copy'} & set(sys.modules)))\n"
    assert _fresh_interpreter(script) == "[]\n"


def test_importing_the_cli_fills_no_cache():
    """Nothing is precomputed at import, so a fresh process pays for each constant on first use only."""
    script = (
        "import importlib, pkgutil, braidtel, braidtel.cli\n"
        "for info in pkgutil.iter_modules(braidtel.__path__):\n"
        "    module = importlib.import_module('braidtel.' + info.name)\n"
        "    for obj in vars(module).values():\n"
        "        if hasattr(obj, 'cache_info') and obj.__module__ == module.__name__:\n"
        "            print(module.__name__ + '.' + obj.__qualname__, obj.cache_info().currsize)\n"
    )
    sizes = dict(line.rsplit(" ", 1) for line in _fresh_interpreter(script).splitlines())
    assert {"braidtel.cli._solve_rows", "braidtel.cli._fixed_analysis", "braidtel.cli._grammar",
            "braidtel.teleport._pauli_basis", "braidtel.teleport._bell_like_basis"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size != "0"} == {}


def test_protocols_and_their_every_branch_rows_are_built_once(cold_caches, monkeypatch, capsys):
    """Once per process for standard and two-qubit, once per phi for bell-like, once per report for yang-baxter and gate."""
    calls = []
    real = teleport._protocol_residual
    monkeypatch.setattr(teleport, "_protocol_residual", lambda *args: calls.append(len(args[0][2])) or real(*args))
    per_report = {variant: [] for variant in cli.TELEPORT_VARIANTS}
    for seed in ("1", "2", "3"):
        for variant in cli.TELEPORT_VARIANTS:
            before = len(calls)
            assert cli.main(["teleport", variant, "--phi", "0.3", "--seed", seed, "--count", "5", "--format", "json"]) == 0
            per_report[variant].append(len(calls) - before)
    assert per_report == {"standard": [1, 0, 0], "bell-like": [1, 0, 0], "yang-baxter": [1, 1, 1],
                          "gate": [1, 1, 1], "two-qubit": [1, 0, 0]}
    assert sorted(calls) == [4] * 8 + [16]
    assert teleport._standard_protocol() is teleport._standard_protocol()
    assert teleport._bell_like_protocol(0.3) is teleport._bell_like_protocol(0.3)
    assert gate_teleport._double_protocol() is gate_teleport._double_protocol()


def _strict_brauer(strict, monkeypatch):
    """Run verify brauer --sites 8 at tolerance 1e-20, by --tolerance or by BMW_TOL."""
    if strict == "env":
        monkeypatch.setenv("BMW_TOL", "1e-20")
        return cli.main(["verify", "brauer", "--sites", "8", "--format", "json"])
    return cli.main(["verify", "brauer", "--sites", "8", "--tolerance", "1e-20", "--format", "json"])


@pytest.mark.parametrize("strict", ["flag", "env"])
def test_warm_brauer_rows_keep_each_calls_tolerance(strict, cold_caches, monkeypatch, capsys):
    """The relation rows are cached by --sites alone, so every pass flag is set from the call's own tolerance."""
    monkeypatch.delenv("BMW_TOL", raising=False)
    assert _strict_brauer(strict, monkeypatch) == 1
    cold = capsys.readouterr().out
    monkeypatch.delenv("BMW_TOL", raising=False)
    for cache in CACHES:
        cache.cache_clear()
    assert cli.main(["verify", "brauer", "--sites", "8", "--format", "json"]) == 0
    capsys.readouterr()
    assert _strict_brauer(strict, monkeypatch) == 1
    warm = capsys.readouterr().out
    assert warm == cold
    failed = {entry["label"] for entry in json.loads(warm)["results"] if entry["pass"] is False}
    assert {"TL", "Tangle", "state-identity-cup-cap"} <= failed


WARM_RERUN_CASES = [argv for argv in CASES if argv[:2] in (["verify", "brauer"], ["teleport", "gate"])]


@pytest.mark.parametrize("argv", WARM_RERUN_CASES, ids=lambda argv: golden_name(argv)[:-5])
def test_a_warm_rerun_of_a_brauer_or_gate_report_matches_its_golden(argv, cold_caches, capsys):
    golden = (GOLDEN_DIR / golden_name(argv)).read_text(encoding="utf-8")
    for _ in range(2):
        assert cli.main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == golden


def test_warm_rerun_cases_are_every_brauer_and_gate_golden():
    names = {path.name for path in GOLDEN_DIR.glob("*.json") if path.name.startswith(("verify-brauer-", "teleport-gate-"))}
    assert {golden_name(argv) for argv in WARM_RERUN_CASES} == names


def test_constraints_and_bell_like_teleport_share_one_front_flow_residual(cold_caches, monkeypatch, capsys):
    """verify constraints' transfer identity 1 is the Bell-like protocol's every_branch, so teleport bell-like at the
    same phi reads it without evaluating it again; the mirror flow, identity 2, is built per call."""
    calls = []
    real = teleport._protocol_residual
    monkeypatch.setattr(teleport, "_protocol_residual", lambda protocol: calls.append(protocol) or real(protocol))
    assert cli.main(["verify", "constraints", "--phi", "0.3", "--format", "json"]) == 0
    assert cli.main(["teleport", "bell-like", "--phi", "0.3", "--count", "5", "--format", "json"]) == 0
    front = teleport._bell_like_protocol(0.3)
    assert [protocol is front for protocol in calls] == [True, False]


@pytest.mark.parametrize("basis, mn", [("pauli", "01"), ("bell-like", "00")])
def test_spectral_and_general_read_one_constraint_table(basis, mn, cold_caches, monkeypatch, capsys):
    calls = []
    real = tangles._constraint_table
    monkeypatch.setattr(tangles, "_constraint_table", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    for kind in ("spectral", "general"):
        assert cli.main(["verify", kind, "--basis", basis, "--mn", mn, "--phi", "0.3", "--format", "json"]) == 0
    assert len(calls) == 1


# Each report that reads E_00 or B, and the closed forms it checks them against.
SELF_CHECKED = {
    "verify-bmw": (["verify", "bmw"], ("_tl_closed_form", "_yb_closed_form")),
    "verify-b-forms": (["verify", "b-forms"], ("_tl_closed_form", "_yb_closed_form")),
    "analyze-B": (["analyze", "--gate", "B"], ("_tl_closed_form", "_yb_closed_form")),
    "verify-constraints": (["verify", "constraints"], ("_tl_closed_form",)),
    "teleport-bell-like": (["teleport", "bell-like", "--count", "5"], ("_tl_closed_form",)),
    "teleport-yang-baxter": (["teleport", "yang-baxter", "--count", "5"], ("_yb_closed_form",)),
}


def _fails(argv) -> bool:
    """Whether a report raises on a failed self-check or exits 1 on a failed row."""
    try:
        return cli.main([*argv, "--format", "json"]) == 1
    except (AssertionError, ValueError):
        return True


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("report, form", [(report, form) for report, (_, forms) in SELF_CHECKED.items() for form in forms],
                         ids=lambda value: value)
def test_cached_operators_keep_their_closed_form_checks(report, form, warm, cold_caches, monkeypatch, capsys):
    """A wrong closed form fails every report that reads it at a phi not yet built, also after every report has
    warmed the caches at another phi: each build and its check run once per phi, not once per process."""
    for argv, _ in SELF_CHECKED.values() if warm else ():
        assert cli.main([*argv, "--phi", "0.3", "--format", "json"]) == 0
    monkeypatch.setattr(gates, form, _wrong)
    assert _fails([*SELF_CHECKED[report][0], "--phi", "-2.1"])


def _table_bytes(table) -> bytes:
    return np.array([list(cells.values()) for cells in table.values()]).tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda phi: gates.yb_gate(phi).tobytes(),
        lambda phi: gates.tl_projector(0, 0, phi).tobytes(),
        lambda phi: teleport._bell_like_protocol(phi).branch.tobytes(),
        lambda phi: teleport._bell_like_protocol(phi)[1].tobytes(),
        lambda phi: _table_bytes(cli._diagonal_table("pauli", "01", 1, phi)),
        lambda phi: _table_bytes(cli._diagonal_table("bell-like", "00", 1, phi)),
    ],
    ids=["b", "e-00", "bell-like-branch", "bell-like-table", "pauli-table", "bell-like-basis-table"],
)
def test_signed_zero_phases_build_the_same_bytes(build, cold_caches):
    """lru_cache takes 0.0 and -0.0 for one key, so a report at -0.0 may read the entry built at 0.0."""
    at_zero = build(0.0)
    for cache in CACHES:
        cache.cache_clear()
    assert build(-0.0) == at_zero
