"""Nonlocal invariants, canonical interaction triples, entangling power."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel.entanglement import (
    CanonicalParams,
    braid_projector_forms,
    canonical_gate,
    canonical_params,
    entangling_power,
    local_invariants,
)
from braidtel.gates import CZ, H, I2, SWAP, yb_clifford, yb_gate
from braidtel.linalg import dagger, is_unitary, kron, max_abs_diff

QUARTER = math.pi / 4

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _random_local(rng) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _expm_oracle(a: float, b: float, c: float) -> np.ndarray:
    """exp(i(a XX + b YY + c ZZ)) via Hermitian eigendecomposition."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    h = a * kron(sx, sx) + b * kron(sy, sy) + c * kron(sz, sz)
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(1j * vals)) @ dagger(vecs)


@pytest.mark.parametrize("triple", [(0.3, 0.2, 0.1), (QUARTER, QUARTER, 0.0), (0.6, 0.0, 0.0)])
def test_canonical_gate_matches_exponential(triple):
    built = canonical_gate(*triple)
    assert is_unitary(built)
    assert max_abs_diff(built, _expm_oracle(*triple)) < 1e-12


def test_local_invariants_ignore_phase_and_locals():
    rng = np.random.default_rng(14)
    base = yb_gate(0.5)
    ref = local_invariants(base)
    dressed = kron(_random_local(rng), _random_local(rng)) @ base
    dressed = dressed @ kron(_random_local(rng), _random_local(rng))
    dressed = cmath.exp(1j * 1.2) * dressed
    got = local_invariants(dressed)
    assert abs(got[0] - ref[0]) < 1e-10
    assert abs(got[1] - ref[1]) < 1e-10


def test_local_invariants_require_a_two_qubit_unitary():
    with pytest.raises(ValueError):
        local_invariants(np.eye(2))
    with pytest.raises(ValueError):
        local_invariants(np.ones((4, 4)))


@pytest.mark.parametrize(
    "gate,expected",
    [
        (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
        (CZ, (QUARTER, 0.0, 0.0)),
        (CNOT, (QUARTER, 0.0, 0.0)),
        (SWAP, (QUARTER, QUARTER, QUARTER)),
    ],
)
def test_canonical_params_of_named_gates(gate, expected):
    params = canonical_params(gate)
    assert params.as_tuple() == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("phi", [0.0, 0.9, 2.2])
def test_braid_gate_sits_at_the_double_cnot_point(phi):
    params = canonical_params(yb_gate(phi))
    assert params.as_tuple() == pytest.approx((QUARTER, QUARTER, 0.0), abs=1e-9)


def test_clifford_point_equivalent_to_full_gate():
    assert canonical_params(yb_clifford()).as_tuple() == pytest.approx(
        (QUARTER, QUARTER, 0.0), abs=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(
        st.floats(min_value=0.02, max_value=QUARTER - 0.02),
        st.floats(min_value=0.02, max_value=QUARTER - 0.02),
        st.floats(min_value=0.02, max_value=QUARTER - 0.02),
    )
)
def test_round_trip_through_the_chamber(raw):
    a, b, c = sorted(raw, reverse=True)
    recovered = canonical_params(canonical_gate(a, b, c))
    assert recovered.as_tuple() == pytest.approx((a, b, c), abs=1e-8)


def test_entangling_power_extremes():
    assert entangling_power(yb_gate(0.7)) == pytest.approx(1.0, abs=1e-12)
    assert entangling_power(CZ) == pytest.approx(1.0, abs=1e-12)
    assert entangling_power(SWAP) == pytest.approx(0.0, abs=1e-12)
    assert entangling_power(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-12)
    assert entangling_power(kron(H, H)) == pytest.approx(0.0, abs=1e-12)


def test_entangling_power_is_locally_invariant():
    rng = np.random.default_rng(77)
    gate = canonical_gate(0.31, 0.17, 0.05)
    dressed = kron(_random_local(rng), _random_local(rng)) @ gate
    dressed = dressed @ kron(_random_local(rng), _random_local(rng))
    assert entangling_power(dressed) == pytest.approx(entangling_power(gate), abs=1e-9)


def test_canonical_params_namedtuple_interface():
    params = CanonicalParams(0.3, 0.2, 0.1)
    assert params.as_tuple() == (0.3, 0.2, 0.1)


@pytest.mark.parametrize("gate", [yb_gate(0.0), CZ], ids=["B", "CZ"])
def test_canonical_params_are_python_floats(gate):
    assert [type(x) for x in canonical_params(gate).as_tuple()] == [float, float, float]


@pytest.mark.parametrize("phi", [0.0, 0.45, 1.7, 3.0])
def test_braid_projector_forms(phi):
    forms = braid_projector_forms(phi)
    assert set(forms) == {"projector-sum", "dyad-sum", "unitary-part"}
    for name, residual in forms.items():
        assert residual < 1e-12, name
