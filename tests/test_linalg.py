"""Unit checks for the dense matrix helpers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel.linalg import (
    approx_eq,
    dagger,
    embed,
    fidelity,
    identity,
    is_unitary,
    ket,
    kron,
    mat,
    max_abs_diff,
    mul,
    outer,
    transpose,
)
from braidtel import teleport
from braidtel.gates import yb_gate
from registers import basis_ket

X = mat([[0, 1], [1, 0]])
Z = mat([[1, 0], [0, -1]])


def test_ket_normalizes_and_validates():
    v = ket([3, 4], normalize=True)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ket([0, 0], normalize=True)


def test_basis_ket_is_one_hot():
    v = basis_ket(2, 4)
    assert v[2] == 1 and np.count_nonzero(v) == 1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_phase_extraction_roundtrip(theta):
    """A global phase e^{i theta} on B is read back by the inner products: +theta on B, -theta on B^dag."""
    phase = cmath.exp(1j * theta)
    plain = teleport.extract_phases(0.7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(teleport, "yb_gate", lambda phi: phase * yb_gate(phi))
        phased = teleport.extract_phases(0.7)
    assert phased.max_residual < 1e-12
    for pair, alpha in plain.alpha_b.items():
        assert abs(cmath.exp(1j * phased.alpha_b[pair]) - phase * cmath.exp(1j * alpha)) < 1e-9
    for pair, alpha in plain.alpha_b_dagger.items():
        assert abs(cmath.exp(1j * phased.alpha_b_dagger[pair]) - cmath.exp(1j * alpha) / phase) < 1e-9


def test_mul_is_left_to_right():
    a = mat([[1, 1], [0, 1]])
    b = mat([[1, 0], [1, 1]])
    assert approx_eq(mul(a, b), a @ b)
    assert not approx_eq(mul(a, b), b @ a)


def test_embed_matches_manual_kron():
    op = np.arange(16, dtype=complex).reshape(4, 4)
    manual = np.kron(identity(2), np.kron(op, identity(2)))
    assert max_abs_diff(embed(op, 2, 4), manual) == 0.0


def test_embed_rejects_out_of_range_site():
    with pytest.raises(ValueError):
        embed(identity(4), 3, 3)


def test_outer_shape_and_rank():
    u = basis_ket(0, 2)
    v = basis_ket(1, 4)
    m = outer(u, v)
    assert m.shape == (2, 4)
    assert np.linalg.matrix_rank(m) == 1


def test_dagger_transpose_conjugate():
    a = mat([[1j, 2], [3, 4j]])
    assert approx_eq(dagger(a), transpose(a).conj())


def test_is_unitary():
    assert is_unitary(X)
    assert not is_unitary(X + Z)


def test_fidelity_of_orthogonal_states_is_zero():
    assert fidelity(basis_ket(0, 2), basis_ket(1, 2)) == 0.0
    assert fidelity(basis_ket(0, 2), basis_ket(0, 2)) == pytest.approx(1.0)


def test_kron_is_associative_here():
    a, b, c = X, Z, identity(2)
    assert max_abs_diff(kron(a, b, c), np.kron(np.kron(a, b), c)) == 0.0
