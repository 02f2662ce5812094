"""Gate teleportation through the phase-free braid gate.

Oracles come from the simulated protocols themselves: closed-form
correction operators are compared against brute-force expansions of the
layered circuits, never against copies of their own formulas.
"""

import itertools

import numpy as np
import pytest

from braidtel import gate_teleport, gates, teleport
from braidtel.gate_teleport import (
    DoubleOutcome,
    PauliString,
    b0_reverse_residual,
    clifford_check,
    k_gate,
    l_gate,
    p_correction,
    q_correction,
    qp_factorization_residual,
    r_gate,
    r_gate_hadamard,
    r_gate_t,
    recognize_pauli,
    single_gate_closed_form_residuals,
    teleport_single_gate,
    teleport_two_qubit,
)
from braidtel.gates import EPR, FIXED_GATES, I2, H, S, T, X, Z, pauli_w, phase_shift, yb_clifford
from braidtel.linalg import dagger, embed, fidelity, identity, is_unitary, kron, max_abs_diff, mul
from braidtel.teleport import BIT_PAIRS
from registers import basis_ket, double_input, pauli_matrix, random_ket

ALL_TUPLES = list(itertools.product((0, 1), repeat=4))


def test_pauli_string_matrix_and_repr():
    ps = PauliString(-1j, ("X", "Z"))
    assert str(ps) == "-iX.Z"
    assert max_abs_diff(pauli_matrix(ps), -1j * kron(X, Z)) == 0.0
    assert len(ps.factors) == 2


def test_pauli_string_rejects_bad_phase():
    with pytest.raises(ValueError):
        PauliString(0.5, ("X",))
    with pytest.raises(ValueError):
        PauliString(2, ("X",))
    with pytest.raises(ValueError):
        PauliString(1, ("Q",))


def test_recognize_pauli_round_trip():
    found = recognize_pauli(1j * kron(X, Z))
    assert found is not None
    assert found.phase == 1j and found.factors == ("X", "Z")
    assert recognize_pauli(H) is None


def test_clifford_table_of_the_braid_point():
    ok, table = clifford_check(yb_clifford())
    assert ok
    rows = {key: str(val) for key, val in table.items()}
    assert rows == {
        ("X", 1): "-I.X",
        ("X", 2): "-X.I",
        ("Z", 1): "+X.Z",
        ("Z", 2): "+Z.X",
    }


def test_clifford_check_on_single_qubit_gates():
    ok, table = clifford_check(H)
    assert ok
    assert str(table[("X", 1)]) == "+Z"
    assert str(table[("Z", 1)]) == "+X"
    ok_s, _ = clifford_check(S)
    assert ok_s
    ok_t, table_t = clifford_check(T)
    assert not ok_t and table_t == {}


def test_clifford_check_rejects_non_unitary():
    with pytest.raises(ValueError):
        clifford_check(np.ones((2, 2)))
    with pytest.raises(ValueError, match="1..3 qubits"):
        clifford_check(np.array(1.0))


def test_k_at_origin_is_xz():
    assert max_abs_diff(k_gate(0, 0, 0, 0), X @ Z) == 0.0


def test_forward_closed_form_against_protocol():
    # K_{ijkl} is only correct if the expanded two-layer circuit agrees
    assert gate_teleport._gate_protocol(I2).every_branch < 1e-12


def test_reverse_closed_form_against_protocol():
    assert b0_reverse_residual() < 1e-12


@pytest.mark.parametrize("i,j,k,l", ALL_TUPLES)
def test_k_and_l_are_signed_paulis(i, j, k, l):
    for op in (k_gate(i, j, k, l), l_gate(i, j, k, l)):
        found = recognize_pauli(op)
        assert found is not None
        assert found.phase in (1, -1)


@pytest.mark.parametrize("i,j,k,l", ALL_TUPLES)
def test_conjugated_correction_closed_forms(i, j, k, l):
    assert max_abs_diff(r_gate(H, i, j, k, l), r_gate_hadamard(i, j, k, l)) < 1e-14
    assert max_abs_diff(r_gate(T, i, j, k, l), r_gate_t(i, j, k, l)) < 1e-14


@pytest.mark.parametrize("i,j,k,l", ALL_TUPLES)
def test_t_correction_stays_clifford(i, j, k, l):
    ok, _ = clifford_check(r_gate(T, i, j, k, l))
    assert ok


@pytest.mark.parametrize("i,j,k,l", ALL_TUPLES)
def test_hadamard_correction_is_a_signed_pauli(i, j, k, l):
    assert recognize_pauli(r_gate_hadamard(i, j, k, l)) is not None


def test_single_gate_closed_form_residuals():
    residuals = single_gate_closed_form_residuals()
    assert residuals["hadamard"] < 1e-12
    assert residuals["t"] < 1e-12


@pytest.mark.parametrize("name", ["H", "S", "T", "X"])
def test_single_gate_teleportation(name):
    u = FIXED_GATES[name]
    alpha = random_ket(np.random.default_rng(13))
    outcome, corrected = teleport_single_gate(u, alpha, 1, 0, rng_seed=13)
    assert fidelity(u @ alpha, corrected) == pytest.approx(1.0, abs=1e-12)
    assert outcome.probability == pytest.approx(0.25, abs=1e-12)


def test_single_gate_teleportation_input_validation():
    alpha = random_ket(np.random.default_rng(1))
    with pytest.raises(ValueError):
        teleport_single_gate(np.eye(4), alpha, 0, 0)
    with pytest.raises(ValueError):
        teleport_single_gate(np.ones((2, 2)), alpha, 0, 0)


def test_l_is_k_with_both_bit_pairs_swapped():
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        closed_form = (-1) ** (i * k + i * j + l) * mul(np.linalg.matrix_power(X, i + l + 1),
                                                        np.linalg.matrix_power(Z, j + k + 1))
        assert np.array_equal(l_gate(i, j, k, l), closed_form)
        assert np.array_equal(l_gate(i, j, k, l), k_gate(j, i, l, k))


def test_corrections_reject_bit_indices_outside_zero_one():
    corrections = (k_gate, l_gate, lambda *bits: r_gate(np.eye(2), *bits))
    for correction, bad in itertools.product(corrections, ((5, 0, 0, 0), (0, 2, 0, 0), (0, 0, -1, 0), (0, 0, 0, 3))):
        with pytest.raises(ValueError, match="bit index"):
            correction(*bad)
    for correction, position in itertools.product((q_correction, p_correction), range(8)):
        bits = [0] * 8
        bits[position] = 2
        with pytest.raises(ValueError, match="bit index"):
            correction(*bits)


def test_two_qubit_correction_factorization():
    # Q (x) P must equal B0 (K (x) L) B0^dag over all 256 index tuples
    assert qp_factorization_residual() < 1e-12


def test_q_and_p_are_signed_paulis():
    for bits in itertools.product((0, 1), repeat=8):
        q = q_correction(*bits)
        p = p_correction(*bits)
        assert recognize_pauli(q) is not None
        assert recognize_pauli(p) is not None
        assert is_unitary(q) and is_unitary(p)


def test_double_protocol_bracketing():
    residuals = _double_protocol_residuals()
    # a single middle braid layer closes the identity; doubling it does not
    assert residuals["single-middle"] < 1e-10
    assert residuals["doubled-middle"] > 0.1


def test_two_qubit_teleportation_on_product_input():
    rng = np.random.default_rng(21)
    alphabeta = kron(random_ket(rng), random_ket(rng))
    outcome, corrected = teleport_two_qubit(alphabeta, 0, 1, 1, 0, rng_seed=21)
    assert isinstance(outcome, DoubleOutcome)
    assert outcome.first in BIT_PAIRS and outcome.second in BIT_PAIRS
    assert outcome.probability == pytest.approx(1 / 16, abs=1e-12)
    assert fidelity(yb_clifford() @ alphabeta, corrected) == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_teleportation_on_entangled_input():
    outcome, corrected = teleport_two_qubit(EPR, 1, 1, 0, 0, rng_seed=3)
    assert outcome.probability == pytest.approx(1 / 16, abs=1e-12)
    assert fidelity(yb_clifford() @ EPR, corrected) == pytest.approx(1.0, abs=1e-12)


def test_recognize_pauli_rejects_operators_on_no_qubits():
    with pytest.raises(ValueError, match="power-of-two"):
        recognize_pauli(np.array([[1]]))
    with pytest.raises(ValueError, match="power-of-two"):
        recognize_pauli(np.array(1.0))


# ---------------------------------------------------------- stacked tables


def _qp_from_conjugation(i1, j1, k1, l1, i2, j2, k2, l2):
    """Per-tuple B_0 (K x L) B_0^dag, the route the stacked factorization replaced."""
    b0 = gates.yb_clifford()
    return b0 @ kron(k_gate(i1, j1, k1, l1), l_gate(i2, j2, k2, l2)) @ dagger(b0)


def _double_layers_by_embed(doubled_middle):
    """The double-protocol operator as a product of dense 6-qubit embeds, the route the Kronecker layers replaced."""
    b0 = gates.yb_clifford()
    prepare = mul(embed(b0, 2, 6), embed(b0, 4, 6))
    if doubled_middle:
        prepare = mul(embed(b0, 3, 6), prepare)
    return mul(embed(b0, 1, 6), embed(b0, 3, 6), embed(b0, 5, 6), prepare)


def test_kronecker_layers_give_the_values_of_the_embed_product():
    assert np.array_equal(gate_teleport._double_layers(), _double_layers_by_embed(False))


def _double_protocol_residuals():
    """Both bracketing readings of the double protocol: the package's, and the doubled-middle negative control.

    The doubled reading, with the 3-4 gate also applied during preparation, is built from the embed
    product and laid out as _double_protocol lays out its op, with the same table, kets and gate.
    """
    op = _double_layers_by_embed(True).reshape(4, 4, 4, 64).transpose(0, 2, 1, 3).reshape(64, 64)
    doubled = teleport.Protocol(op, gate_teleport._qp_table(), identity(16), yb_clifford())
    return {"single-middle": gate_teleport._double_protocol().every_branch, "doubled-middle": doubled.every_branch}


def _double_protocol_oracle():
    """The per-term double-protocol expansion on the four basis kets: 2,048 kron calls per reading.

    Per resource setting, the root-sum-square of the residual over the basis kets is the Frobenius
    norm of the residual map; the worst setting is taken.
    """
    b0 = gates.yb_clifford()
    out = {}
    for name, doubled in (("single-middle", False), ("doubled-middle", True)):
        op = _double_layers_by_embed(doubled)
        worst = 0.0
        for k1, l1, k2, l2 in ALL_TUPLES:
            squares = 0.0
            for alphabeta in np.eye(4):
                rotated = b0 @ alphabeta
                lhs = op @ double_input(alphabeta, k1, l1, k2, l2)
                rhs = np.zeros(64, dtype=complex)
                for i1, j1, i2, j2 in ALL_TUPLES:
                    q = q_correction(i1, j1, k1, l1, i2, j2, k2, l2)
                    p = p_correction(i1, j1, k1, l1, i2, j2, k2, l2)
                    rhs += 0.25 * kron(basis_ket(2 * i1 + j1, 4), kron(q, p) @ rotated, basis_ket(2 * i2 + j2, 4))
                squares += float(np.linalg.norm(lhs - rhs)) ** 2
            worst = max(worst, squares**0.5)
        out[name] = worst
    return out


def test_double_protocol_residuals_match_the_per_term_expansion():
    stacked, oracle = _double_protocol_residuals(), _double_protocol_oracle()
    assert stacked.keys() == oracle.keys()
    for name in oracle:
        assert abs(stacked[name] - oracle[name]) <= 1e-15, name
    # a Frobenius norm over four basis kets, where the bound of 1e-15 held one probe ket
    assert stacked["single-middle"] <= 4e-15
    assert stacked["doubled-middle"] > 0.1


def test_qp_factorization_matches_the_per_tuple_conjugation():
    worst = max(
        max_abs_diff(kron(q_correction(*bits), p_correction(*bits)), _qp_from_conjugation(*bits))
        for bits in itertools.product((0, 1), repeat=8)
    )
    assert abs(qp_factorization_residual() - worst) <= 1e-15


def test_qp_table_holds_every_closed_form_product():
    table = gate_teleport._qp_table()
    assert table.shape == (16, 16, 4, 4)
    for i1, j1, k1, l1, i2, j2, k2, l2 in itertools.product((0, 1), repeat=8):
        bits = (i1, j1, k1, l1, i2, j2, k2, l2)
        entry = table[8 * k1 + 4 * l1 + 2 * k2 + l2, 8 * i1 + 4 * j1 + 2 * i2 + j2]
        assert np.array_equal(entry, kron(q_correction(*bits), p_correction(*bits))), bits


def test_kl_tables_hold_k_and_l():
    k_table, l_table = gate_teleport._kl_tables()
    for i, j, k, l in ALL_TUPLES:
        assert np.array_equal(k_table[2 * k + l, 2 * i + j], k_gate(i, j, k, l))
        assert np.array_equal(l_table[2 * k + l, 2 * i + j], l_gate(i, j, k, l))


def test_pauli_basis_holds_w():
    table = teleport.UnitaryBasis.pauli().u
    for i, j in BIT_PAIRS:
        assert np.array_equal(table[2 * i + j], pauli_w(i, j))


@pytest.mark.parametrize("u", [H, T, S, phase_shift(0.3), phase_shift(-2.1)],
                         ids=["H", "T", "S", "R(0.3)", "R(-2.1)"])
def test_stacked_corrections_match_r_gate(u):
    rows = u @ gate_teleport._kl_tables()[0] @ dagger(u)
    alpha = random_ket(np.random.default_rng(4))
    for i, j, k, l in ALL_TUPLES:
        assert max_abs_diff(rows[2 * k + l, 2 * i + j], r_gate(u, i, j, k, l)) <= 1e-15
    # the sampled run undoes the R of the outcome it drew
    for (k, l), seed in itertools.product(BIT_PAIRS, range(4)):
        outcome, corrected = teleport_single_gate(u, alpha, k, l, rng_seed=seed)
        expected = dagger(r_gate(u, outcome.i, outcome.j, k, l)) @ outcome.post_state
        assert max_abs_diff(corrected, expected) <= 1e-15


def test_two_qubit_correction_is_the_closed_form_of_the_outcome():
    alphabeta = random_ket(np.random.default_rng(30), dim=4)
    for (k1, l1, k2, l2), seed in itertools.product(ALL_TUPLES, range(2)):
        outcome, corrected = teleport_two_qubit(alphabeta, k1, l1, k2, l2, rng_seed=seed)
        bits = (*outcome.first, k1, l1, *outcome.second, k2, l2)
        expected = dagger(kron(q_correction(*bits), p_correction(*bits))) @ outcome.post_state
        assert np.array_equal(corrected, expected), bits
        assert fidelity(gates.yb_clifford() @ alphabeta, corrected) == pytest.approx(1.0, abs=1e-12)
