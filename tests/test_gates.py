"""Gate constructors: Pauli algebra, Bell bases, and the braid gate family."""

import cmath
import math

import numpy as np
import pytest

from braidtel.cli import TELEPORT_GATES
from braidtel.gates import (
    B_EIGENVALUES,
    B_GLOBAL_PHASE,
    CZ,
    EPR,
    H,
    I2,
    S,
    SWAP,
    X,
    Y,
    Z,
    bell_like_state,
    bell_state,
    brauer_projector,
    FIXED_GATES,
    T,
    decompose_b,
    m_gate,
    pauli_w,
    permutation_p,
    tl_projector,
    yb_clifford,
    yb_gate,
    yb_spectral,
    x_pow,
    z_pow,
)
from braidtel.gate_teleport import _PAULI_BY_LABEL
from braidtel.linalg import (
    approx_eq,
    dagger,
    is_unitary,
    kron,
    max_abs_diff,
    mul,
)
from registers import basis_ket

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def test_pauli_algebra():
    assert approx_eq(X @ X, I2)
    assert approx_eq(Z @ Z, I2)
    assert approx_eq(Y, Z @ X)
    # convention: Y = ZX, which is i times the textbook Pauli Y
    assert approx_eq(Y, 1j * np.array([[0, -1j], [1j, 0]]))
    assert approx_eq(X @ Z, -(Z @ X))


def test_phase_gate_tower():
    assert approx_eq(H @ H, I2)
    assert approx_eq(S @ S, Z)
    assert approx_eq(T @ T, S)
    assert approx_eq(np.linalg.matrix_power(T, 4), Z)


def test_fixed_gates_are_the_teleport_gates_but_r():
    assert (*FIXED_GATES, "R") == TELEPORT_GATES
    assert FIXED_GATES["T"] is T


@pytest.mark.parametrize("i,j", BITS)
def test_pauli_w_is_x_then_z(i, j):
    expected = np.linalg.matrix_power(X, i) @ np.linalg.matrix_power(Z, j)
    assert approx_eq(pauli_w(i, j), expected)


def test_bell_basis_orthonormal():
    states = [bell_state(i, j) for i, j in BITS]
    gram = np.array([[np.vdot(u, v) for v in states] for u in states])
    assert max_abs_diff(gram, np.eye(4)) < 1e-14


def test_epr_is_bell_00():
    assert approx_eq(bell_state(0, 0), EPR)


@pytest.mark.parametrize("phi", [0.0, 0.37, 2.5])
@pytest.mark.parametrize("i,j", BITS)
def test_m_gates_are_unitary(i, j, phi):
    assert is_unitary(m_gate(i, j, phi))


@pytest.mark.parametrize("phi", [0.0, 0.9])
def test_bell_like_basis_orthonormal(phi):
    states = [bell_like_state(i, j, phi) for i, j in BITS]
    gram = np.array([[np.vdot(u, v) for v in states] for u in states])
    assert max_abs_diff(gram, np.eye(4)) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 1.234])
def test_tl_projector_is_rank_one_idempotent(phi):
    for i, j in BITS:
        e = tl_projector(i, j, phi)
        assert max_abs_diff(e @ e, e) < 1e-12
        assert abs(np.trace(e) - 1) < 1e-12
        assert approx_eq(dagger(e), e)


@pytest.mark.parametrize("phi", [0.0, 0.7, 1.9])
def test_yb_gate_unitary_with_fixed_spectrum(phi):
    b = yb_gate(phi)
    assert is_unitary(b)
    eigs, rebuilt = yb_spectral(phi)
    assert max_abs_diff(rebuilt, b) < 1e-12
    # spectrum is phi independent: sigma once, the degenerate pair, and
    # the opposite corner
    got = sorted(np.linalg.eigvals(b), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted(eigs.values(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_eigenvalue_table_values():
    assert B_EIGENVALUES[(0, 0)] == pytest.approx(cmath.exp(1j * 5 * math.pi / 4))
    assert B_EIGENVALUES[(0, 1)] == B_EIGENVALUES[(1, 0)]
    # the two distinct non-sigma eigenvalues multiply to -1
    assert B_EIGENVALUES[(0, 1)] * B_EIGENVALUES[(1, 1)] == pytest.approx(-1)


@pytest.mark.parametrize("phi", [0.0, 0.5, 1.1])
def test_braid_relation_on_three_sites(phi):
    b = yb_gate(phi)
    left = mul(kron(b, I2), kron(I2, b), kron(b, I2))
    right = mul(kron(I2, b), kron(b, I2), kron(I2, b))
    assert max_abs_diff(left, right) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.2, 0.8, 1.6, 3.1])
def test_decompose_b_reproduces_the_gate(phi):
    phase, factors, drift = decompose_b(phi)
    product = phase * mul(*[m for _, m in factors])
    assert max_abs_diff(product, yb_gate(phi)) == drift < 1e-12
    names = [name for name, _ in factors]
    assert names.count("CZ") == 2


def test_clifford_point_matches_phase_stripped_gate():
    b0 = yb_clifford()
    assert max_abs_diff(B_GLOBAL_PHASE * b0, yb_gate(0.0)) < 1e-12
    assert np.allclose(b0.imag, 0.0)


def test_permutation_p_swaps():
    p = permutation_p()
    assert approx_eq(p, SWAP)
    for i, j in BITS:
        in_state = kron(basis_ket(i, 2), basis_ket(j, 2))
        out_state = kron(basis_ket(j, 2), basis_ket(i, 2))
        assert approx_eq(p @ in_state, out_state)


def test_brauer_projector_annihilates_orthogonal_bells():
    e = brauer_projector()
    assert max_abs_diff(e @ e, e) < 1e-14
    assert abs(np.trace(e) - 1) < 1e-14
    orthogonal = kron(I2, Z) @ EPR
    assert np.linalg.norm(e @ orthogonal) < 1e-14


def test_cz_diagonal():
    assert approx_eq(CZ, np.diag([1, 1, 1, -1]).astype(complex))


def test_shared_gate_constants_are_read_only():
    shared = [I2, X, Y, Z, H, S, T, CZ, SWAP, EPR, permutation_p(), x_pow(1), z_pow(0)]
    shared += [*FIXED_GATES.values(), *_PAULI_BY_LABEL.values(), *(m for name, m in decompose_b(0.3)[1] if name == "CZ")]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]  # the same values, so a writable array is left as it was
