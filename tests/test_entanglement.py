"""Nonlocal invariants, canonical interaction triples, entangling power."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel import entanglement
from braidtel.entanglement import (
    MAGIC,
    CanonicalParams,
    braid_projector_forms,
    canonical_gate,
    canonical_params,
    entangling_power,
)
from braidtel.gates import CZ, H, I2, SWAP, yb_clifford, yb_gate
from braidtel.linalg import dagger, is_unitary, kron, max_abs_diff
from registers import local_invariants

QUARTER = math.pi / 4

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _random_local(rng, dim: int = 2) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
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


def test_local_invariants_accept_nested_lists():
    assert local_invariants(yb_gate(0.4).tolist()) == local_invariants(yb_gate(0.4))
    with pytest.raises(ValueError):
        local_invariants(np.ones((4, 4)).tolist())


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


_EVEN_FLIPS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))


def _orbit_chamber_point(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Largest chamber point among the 96 permuted, sign-flipped, folded copies."""
    fold = entanglement._fold
    best = None
    for perm in itertools.permutations((a, b, c)):
        for flips in _EVEN_FLIPS:
            first = [fold(s * x) for s, x in zip(flips, perm)]
            for flips2 in _EVEN_FLIPS:
                x, y, z = (fold(s * v) for s, v in zip(flips2, first))
                if x >= y - 1e-9 and y >= abs(z) - 1e-9 and (best is None or (x, y, abs(z)) > best):
                    best = (x, y, abs(z))
    return best


def _searched_params(u: np.ndarray, tol: float = 1e-8) -> tuple[float, float, float]:
    """The exhaustive search the closed-form rule replaced, kept as its oracle.

    Tries the 24 ordered picks x 8 pi shifts of the halved eigenphases until a
    rebuilt gate matches the local invariants, then reduces that triple over
    its Weyl orbit.
    """
    su = u / np.linalg.det(u) ** 0.25
    target = local_invariants(su)
    m = dagger(MAGIC) @ su @ MAGIC
    phases = np.angle(np.linalg.eigvals(m.T @ m)) / 2.0
    for combo in itertools.permutations(range(4), 3):
        for shifts in itertools.product((0.0, math.pi), repeat=3):
            l1, l2, l4 = (phases[k] + s for k, s in zip(combo, shifts))
            triple = ((l1 + l4) / 2.0, (l2 + l4) / 2.0, (l1 + l2) / 2.0)
            rebuilt = local_invariants(canonical_gate(*triple))
            if abs(rebuilt[0] - target[0]) <= tol and abs(rebuilt[1] - target[1]) <= tol:
                return _orbit_chamber_point(*triple)
    raise AssertionError("no phase assignment reproduced the local invariants")


def _oracle_gates():
    rng = np.random.default_rng(2003)
    for _ in range(500):
        yield _random_local(rng, 4)  # Haar-random two-qubit gate
    faces = [
        (0.0, 0.0, 0.0), (QUARTER, 0.0, 0.0), (QUARTER, QUARTER, 0.0), (QUARTER, QUARTER, QUARTER),
        (0.3, 0.3, 0.0), (0.3, 0.0, 0.0), (0.3, 0.3, 0.3), (QUARTER, 0.3, 0.0),
        (QUARTER, 0.3, 0.3), (QUARTER, QUARTER, 0.3), (0.5, 0.2, 0.2), (0.5, 0.5, 0.2),
    ]
    for triple in faces:
        for _ in range(10):
            dressed = kron(_random_local(rng), _random_local(rng)) @ canonical_gate(*triple)
            yield cmath.exp(1j * rng.uniform(-math.pi, math.pi)) * dressed @ kron(
                _random_local(rng), _random_local(rng)
            )
    yield canonical_gate(0.5, 0.3, -0.1)
    for phi in np.linspace(-math.pi, math.pi, 41):
        yield yb_gate(float(phi))


def test_closed_form_matches_the_searched_triple():
    worst = 0.0
    for gate in _oracle_gates():
        got = canonical_params(gate).as_tuple()
        worst = max(worst, max(abs(g - w) for g, w in zip(got, _searched_params(gate))))
    assert worst <= 2e-15


_WEYL_MOVES = st.tuples(
    st.permutations(range(3)),
    st.sampled_from(_EVEN_FLIPS),
    st.tuples(*[st.sampled_from((-1, 0, 1))] * 3),
)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 3),
    _WEYL_MOVES,
)
def test_weyl_moves_keep_the_triple(triple, move):
    perm, flips, shifts = move
    moved = [flips[k] * triple[perm[k]] + shifts[k] * math.pi / 2 for k in range(3)]
    got = canonical_params(canonical_gate(*moved)).as_tuple()
    assert got == pytest.approx(canonical_params(canonical_gate(*triple)).as_tuple(), abs=1e-12)


def test_invariant_check_rejects_a_wrong_rebuild(monkeypatch):
    monkeypatch.setattr(entanglement, "canonical_gate", lambda a, b, c: np.eye(4, dtype=complex))
    with pytest.raises(AssertionError):
        canonical_params(CZ)


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
    assert tuple(params) == params.as_tuple()
    assert params._fields == ("a", "b", "c")


@pytest.mark.parametrize("gate", [yb_gate(0.0), CZ], ids=["B", "CZ"])
def test_canonical_params_are_python_floats(gate):
    assert [type(x) for x in canonical_params(gate).as_tuple()] == [float, float, float]


@pytest.mark.parametrize("phi", [0.0, 0.45, 1.7, 3.0])
def test_braid_projector_forms(phi):
    forms = braid_projector_forms(phi)
    assert set(forms) == {"projector-sum", "dyad-sum", "unitary-part"}
    for name, residual in forms.items():
        assert residual < 1e-12, name
