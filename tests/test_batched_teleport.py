"""The batched measure-and-correct kernel against the per-instance loop it replaced.

The reference below is the runner the package had before teleport reports
were batched: one protocol instance at a time, the state built with kron,
the outcome drawn by Generator.choice, the keys and labels written per
instance.  Fed the same input kets, resource bits and measurement draws,
the kernel and the CLI report must agree with it.
"""

import argparse
import json
import math

import numpy as np
import pytest

from braidtel import cli, gate_teleport, teleport
from braidtel.gate_teleport import teleport_single_gate, teleport_two_qubit
from braidtel.gates import EPR, phase_shift, yb_clifford
from braidtel.linalg import conj, dagger, fidelity, identity, kron, mul
from braidtel.teleport import BIT_PAIRS, teleport_bell_like, teleport_standard, teleport_with_yb
from registers import basis_ket, double_input
from tables import w_braid_correction

VARIANTS = cli.TELEPORT_VARIANTS
BITS = {"standard": 0, "bell-like": 0, "yang-baxter": 2, "gate": 2, "two-qubit": 4}
GATE = "R"


# ------------------------------------------------------------ the reference


def _sample_index(rng: np.random.Generator, probabilities) -> int:
    total = float(np.sum(probabilities))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return int(rng.choice(len(probabilities), p=np.asarray(probabilities) / total))


def _measure(branches: np.ndarray, rng: np.random.Generator):
    """Row m of branches is the unnormalized survivor of outcome m: (m, p_m, normalized survivor)."""
    probs = np.sum(np.abs(branches) ** 2, axis=1)
    m = _sample_index(rng, probs)
    p = float(probs[m])
    return m, p, branches[m] / math.sqrt(p)


def _tables(variant: str, phi: float):
    """The uncached tables the reference reads: the double layers and Q x P, or the braid protocol at phi.

    They are built once per variant and phi, outside the instance loop, and passed to every instance.
    """
    if variant == "two-qubit":
        return gate_teleport._double_layers(), gate_teleport._qp_table()
    return teleport._braid_protocol(phi) if variant == "yang-baxter" else None


def _loop_instance(variant: str, phi: float, alpha, bits, rng, tables):
    """One instance as the per-instance protocols ran it, reading _tables(variant, phi): (m, p, survivor, corrected)."""
    r = int(sum(bit << (len(bits) - 1 - q) for q, bit in enumerate(bits)))
    if variant == "two-qubit":
        layers, qp = tables
        state = layers @ double_input(alpha, *bits)
        m, p, middle = _measure(state.reshape(4, 4, 4).transpose(0, 2, 1).reshape(16, 4), rng)
        return m, p, middle, dagger(qp[r, m]) @ middle
    if variant == "standard":
        basis = teleport.UnitaryBasis.pauli()
        state, kets, corrections = kron(alpha, EPR), basis.states, basis.u
    elif variant == "bell-like":
        basis = teleport.UnitaryBasis.bell_like(phi)
        kets = basis.states
        state, corrections = kron(alpha, kets[0]), basis.u[0] @ conj(basis.u)
    elif variant == "yang-baxter":
        kets = tables.kets
        state, corrections = tables.op @ kron(alpha, basis_ket(r, 4)), tables.table[r]
    else:
        u = phase_shift(phi)  # GATE is R
        front, back = gate_teleport._b0_layers()
        state = mul(front, kron(identity(4), u), back) @ kron(alpha, basis_ket(r, 4))
        kets, corrections = identity(4), u @ gate_teleport._kl_tables()[0][r] @ dagger(u)
    m, p, bob = _measure(conj(kets) @ state.reshape(4, -1), rng)
    return m, p, bob, dagger(corrections[m]) @ bob


def _run_instance(variant: str, phi: float, alpha, bits, rng, tables):
    """One report row as the per-instance runner wrote it: (outcome key, correction key, label, p, fidelity)."""
    m, p, _, corrected = _loop_instance(variant, phi, alpha, bits, rng, tables)
    resource = ",".join(f"{bits[q]}{bits[q + 1]}" for q in range(0, len(bits), 2))
    if variant == "two-qubit":
        key = "{}{},{}{}".format(*BIT_PAIRS[m // 4], *BIT_PAIRS[m % 4])
        return key, f"{key}|{resource}", "(Q x P)^dag", p, fidelity(yb_clifford() @ alpha, corrected)
    key = "{}{}".format(*BIT_PAIRS[m])
    if variant == "standard":
        return key, key, f"W^dag_{key}", p, fidelity(alpha, corrected)
    if variant == "bell-like":
        return key, key, f"(M_00 conj(M_{key}))^dag", p, fidelity(alpha, corrected)
    if variant == "yang-baxter":
        return key, f"{key}|{resource}", f"W^dag_{key}{resource}", p, fidelity(alpha, corrected)
    u = phase_shift(phi)  # GATE is R
    return key, f"{key}|{resource}", f"R({GATE})^dag_{key}{resource}", p, fidelity(u @ alpha, corrected)


def _draw_block(ket_rng, n: int, variant: str):
    """The input kets, then the resource bits, of one block, drawn from the report's ket stream."""
    dim = 4 if variant == "two-qubit" else 2
    amps = ket_rng.standard_normal((n, dim)) + 1j * ket_rng.standard_normal((n, dim))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True), ket_rng.integers(0, 2, size=(n, BITS[variant]))


def _loop_report(variant: str, phi: float, seed: int, count: int):
    """(histogram, corrections, min fidelity, max probability deviation) from the per-instance runner."""
    ket_rng, measure_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    expected = 1 / 16 if variant == "two-qubit" else 1 / 4
    histogram, corrections, min_fid, prob_dev = {}, {}, 1.0, 0.0
    tables = _tables(variant, phi)
    for start in range(0, count, cli._BLOCK):
        kets, bits = _draw_block(ket_rng, min(cli._BLOCK, count - start), variant)
        for alpha, row in zip(kets, bits):
            key, ckey, label, prob, fid = _run_instance(variant, phi, alpha, row.tolist(), measure_rng, tables)
            histogram[key] = histogram.get(key, 0) + 1
            corrections[ckey] = label
            min_fid = min(min_fid, fid)
            prob_dev = max(prob_dev, abs(prob - expected))
    return dict(sorted(histogram.items())), dict(sorted(corrections.items())), min_fid, prob_dev


def _protocol(variant: str, phi: float):
    return cli._protocol(argparse.Namespace(action=variant, phi=phi, gate=GATE))[0]


# ----------------------------------------------------------------- the tests


@pytest.mark.parametrize("phi", [0.3, -2.1])
@pytest.mark.parametrize("variant", VARIANTS)
def test_kernel_matches_the_loop_on_the_same_draws(variant, phi):
    kets, bits = _draw_block(np.random.default_rng(5), 64, variant)
    r = bits @ (1 << np.arange(bits.shape[1])[::-1])
    draws = np.random.default_rng(6).random(64)
    m, p, survivors, corrected = teleport._teleport(_protocol(variant, phi), kets, r, draws)
    # the reference consumes the same uniforms one Generator.choice call at a time
    rng, tables = np.random.default_rng(6), _tables(variant, phi)
    for n, (alpha, row) in enumerate(zip(kets, bits)):
        want = _loop_instance(variant, phi, alpha, row.tolist(), rng, tables)
        assert m[n] == want[0]
        assert abs(p[n] - want[1]) <= 1e-15
        assert np.max(np.abs(survivors[n] - want[2])) <= 1e-15
        assert np.max(np.abs(corrected[n] - want[3])) <= 1e-15


@pytest.mark.parametrize(
    "variant, count",
    [(variant, 40) for variant in VARIANTS] + [("yang-baxter", 2 * cli._BLOCK + 3)],
)
def test_report_matches_the_loop_runner(variant, count, capsys):
    argv = ["teleport", variant, "--phi", "0.3", "--seed", "11", "--count", str(count), "--gate", GATE]
    assert cli.main(argv + ["--format", "json"]) == 0
    results = {entry["label"]: entry for entry in json.loads(capsys.readouterr().out)["results"]}
    histogram, corrections, min_fid, prob_dev = _loop_report(variant, 0.3, 11, count)
    assert list(results["outcomes"]["histogram"].items()) == list(histogram.items())
    assert list(results["corrections"]["map"].items()) == list(corrections.items())
    assert abs(float(results["min-fidelity"]["value"]) - min_fid) <= 1e-15
    assert abs(float(results["max-probability-deviation"]["value"]) - prob_dev) <= 1e-15


_ALPHA = np.array([0.6, 0.8j])
_ALPHABETA = np.array([0.5, 0.5j, -0.5, 0.5])
_PUBLIC = {
    "standard": (lambda seed: teleport_standard(_ALPHA, rng_seed=seed), _ALPHA, []),
    "bell-like": (lambda seed: teleport_bell_like(_ALPHA, -2.1, rng_seed=seed), _ALPHA, []),
    "yang-baxter": (lambda seed: teleport_with_yb(_ALPHA, 1, 0, -2.1, rng_seed=seed), _ALPHA, [1, 0]),
    "gate": (lambda seed: teleport_single_gate(phase_shift(-2.1), _ALPHA, 0, 1, rng_seed=seed), _ALPHA, [0, 1]),
    "two-qubit": (lambda seed: teleport_two_qubit(_ALPHABETA, 1, 0, 0, 1, rng_seed=seed), _ALPHABETA, [1, 0, 0, 1]),
}


def _outcome_index(outcome) -> int:
    if hasattr(outcome, "first"):
        return 4 * BIT_PAIRS.index(outcome.first) + BIT_PAIRS.index(outcome.second)
    return BIT_PAIRS.index((outcome.i, outcome.j))


@pytest.mark.parametrize("variant", VARIANTS)
def test_public_functions_keep_the_choice_outcomes(variant):
    run, alpha, bits = _PUBLIC[variant]
    tables = _tables(variant, -2.1)
    for seed in range(200):
        outcome, corrected = run(seed)
        m, p, survivor, want = _loop_instance(variant, -2.1, alpha, bits, np.random.default_rng(seed), tables)
        assert _outcome_index(outcome) == m, f"rng_seed {seed}"
        assert abs(outcome.probability - p) <= 1e-15
        assert np.max(np.abs(outcome.post_state - survivor)) <= 1e-15
        assert np.max(np.abs(corrected - want)) <= 1e-15


@pytest.mark.parametrize("n", [1, 4, 1025])
@pytest.mark.parametrize("dim", [2, 4])
def test_one_normal_draw_gives_the_bits_of_two(dim, n):
    """A report draws a block's real and imaginary parts in one call, and a one-resource block draws no bits.

    Both keep the ket stream of two (n, dim) draws and a draw of (n, 0) bits, so the next block reads the
    same bits either way."""
    fused, split = np.random.default_rng(17), np.random.default_rng(17)
    real, imag = fused.standard_normal((2, n, dim))
    assert np.array_equal(real, split.standard_normal((n, dim)))
    assert np.array_equal(imag, split.standard_normal((n, dim)))
    assert split.integers(0, 2, size=(n, 0)).size == 0
    assert np.array_equal(fused.standard_normal((2, n, dim)), split.standard_normal((2, n, dim)))
    assert np.array_equal(fused.integers(0, 2, size=(n, 2)), split.integers(0, 2, size=(n, 2)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocks_bound_the_kernel_batch(variant, monkeypatch, capsys):
    sizes = []
    kernel = cli._teleport

    def recording(protocol, inputs, r, draws):
        sizes.append(len(inputs))
        return kernel(protocol, inputs, r, draws)

    monkeypatch.setattr(cli, "_teleport", recording)
    count = 2 * cli._BLOCK + 3
    assert cli.main(["teleport", variant, "--count", str(count), "--format", "json"]) == 0
    results = {entry["label"]: entry for entry in json.loads(capsys.readouterr().out)["results"]}
    assert sum(results["outcomes"]["histogram"].values()) == count
    assert sizes == [cli._BLOCK, cli._BLOCK, 3]


def test_kernel_checks_that_every_row_sums_to_one():
    protocol = _protocol("standard", 0.0)
    kets = np.array([[1, 0], [0.6, 0.8], [1, 1]], dtype=complex)
    with pytest.raises(ValueError, match="probabilities sum to 1.999"):
        teleport._teleport(protocol, kets, np.zeros(3, dtype=int), np.full(3, 0.5))
    with pytest.raises(ValueError, match="probabilities sum to nan"):
        teleport._teleport(protocol, np.array([[np.nan, 1]], dtype=complex), np.zeros(1, dtype=int), np.full(1, 0.5))


def test_braid_table_is_the_per_entry_product_bit_for_bit():
    for phi in np.linspace(-3.1, 3.1, 41):
        phi = float(phi)
        per_entry = teleport._correction_table(w_braid_correction, teleport.phase_table(phi))
        assert np.array_equal(teleport._braid_protocol(phi).table, per_entry), phi


def test_a_draw_on_a_cumulative_boundary_takes_the_next_outcome():
    """searchsorted(cdf, draw, side="right"), as Generator.choice: a zero-probability outcome is never taken."""
    protocol = teleport.Protocol(identity(4), np.ones((1, 4, 1, 1), dtype=complex), identity(4), np.eye(1))
    quarters = np.full((4, 4), 0.5, dtype=complex)
    m, *_ = teleport._teleport(protocol, quarters, np.zeros(4, dtype=int), np.array([0.0, 0.25, 0.5, 0.75]))
    assert m.tolist() == [0, 1, 2, 3]
    gap = np.array([[0, 0.6, 0, 0.8]], dtype=complex)
    m, p, *_ = teleport._teleport(protocol, gap, np.zeros(1, dtype=int), np.zeros(1))
    assert m.tolist() == [1] and p[0] > 0
