"""The phi-fixed protocol operators and report parts: cached, read-only, still self-checked."""

import importlib
import itertools
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
from braidtel.linalg import basis_ket, kron
from braidtel.teleport import BIT_PAIRS, phase_table, teleport_bell_like, teleport_with_yb, w_braid_correction
from registers import double_input
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


def test_phase_table_is_extracted_once_per_phi(cold_caches, monkeypatch):
    calls = []
    real = teleport.phase_table
    monkeypatch.setattr(teleport, "phase_table", lambda phi: calls.append(phi) or real(phi))
    for seed in range(3):
        teleport_with_yb(ALPHA, 1, 1, 0.3, rng_seed=seed)
    teleport_with_yb(ALPHA, 1, 1, -2.1)
    assert calls == [0.3, -2.1]


def test_cache_scan_finds_the_protocol_caches():
    expected = {
        teleport._bell_kets,
        teleport._product_kets,
        teleport._pauli_table,
        teleport._bell_like_kets,
        teleport._bell_like_corrections,
        teleport._braid_protocol,
        gates._b0,
        gate_teleport._b0_layers,
        gate_teleport._kl_tables,
        gate_teleport._qp_table,
        gate_teleport._double_layers,
        algebra._brauer_operators,
        tangles._pauli_basis,
        tangles._pauli_states,
        cli._solve_rows,
        cli._fixed_analysis,
    }
    assert expected <= set(CACHES)


@pytest.mark.parametrize(
    "constant",
    [
        teleport._bell_kets,
        teleport._product_kets,
        lambda: teleport._bell_like_kets(0.3),
        lambda: teleport._braid_protocol(0.3)[0],
        lambda: teleport._braid_protocol(0.3)[1],
        gates._b0,
        lambda: gate_teleport._b0_layers()[0],
        lambda: gate_teleport._b0_layers()[1],
        gate_teleport._double_layers,
        lambda: gate_teleport._double_layers(True),
        lambda: teleport._bell_like_corrections(0.3)[0],
        lambda: teleport._bell_like_corrections(0.3)[1],
        teleport._pauli_table,
        lambda: gate_teleport._kl_tables()[0],
        lambda: gate_teleport._kl_tables()[1],
        gate_teleport._qp_table,
        *(lambda k=k: algebra._brauer_operators()[k] for k in range(7)),
        *(lambda p=p: tangles.UnitaryBasis.pauli().u[p] for p in BIT_PAIRS),
        tangles._pauli_states,
    ],
    ids=["bell", "product", "bell-like", "braid-op", "braid-w", "b0", "b0-front", "b0-back", "double",
         "double-middle", "bell-like-front", "bell-like-mirror", "pauli", "k", "l", "qp",
         "brauer-e", "brauer-p", "brauer-bells", "brauer-project", "brauer-swap", "brauer-tangle", "brauer-nested",
         "pauli-basis-00", "pauli-basis-01", "pauli-basis-10", "pauli-basis-11", "pauli-states"],
)
def test_cached_constants_are_read_only(constant):
    array = constant()
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 0


def test_b0_layers_are_the_three_qubit_krons():
    front, back = gate_teleport._b0_layers()
    assert np.array_equal(front, kron(gates._b0(), gates.I2))
    assert np.array_equal(back, kron(gates.I2, gates._b0()))


def test_measurement_bases_must_be_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        teleport._basis([[1, 0], [1, 0]])


def test_braid_corrections_are_stacked_by_resource_then_outcome():
    table = phase_table(-2.1)
    _, stacked = teleport._braid_protocol(-2.1)
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


@pytest.mark.parametrize(
    "mapping",
    [lambda: tangles.UnitaryBasis.pauli().u, lambda: cli._fixed_analysis("B0")[2]],
    ids=["pauli-basis", "b0-conjugation"],
)
def test_cached_mappings_are_read_only(mapping):
    table = mapping()
    assert isinstance(table, MappingProxyType)
    with pytest.raises(TypeError):
        table[(0, 0)] = None


def test_the_pauli_basis_is_built_once_and_keeps_the_general_residuals():
    basis = tangles.UnitaryBasis.pauli()
    assert basis is tangles.UnitaryBasis.pauli()
    fresh = tangles.UnitaryBasis({p: gates.pauli_w(*p) for p in BIT_PAIRS})
    coeffs = tangles.GateCoefficients.from_matrix(np.random.default_rng(5).normal(size=(4, 4)) + 0.5j)
    for m, n in BIT_PAIRS:
        assert tangles.general_constraint_residuals(coeffs, basis, m, n) == \
            tangles.general_constraint_residuals(coeffs, fresh, m, n)
    assert np.array_equal(coeffs.assemble(basis), coeffs.assemble(fresh))
    assert np.array_equal(tangles._pauli_states(), np.stack([fresh.state(*p) for p in BIT_PAIRS]))


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
    src = str(Path(braidtel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True, timeout=60)
    sizes = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())
    assert {"braidtel.cli._solve_rows", "braidtel.cli._fixed_analysis", "braidtel.cli._grammar",
            "braidtel.tangles._pauli_basis", "braidtel.tangles._pauli_states"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size != "0"} == {}
