"""Gate teleportation built on the phase-free braid gate B_0.

B_0 = CZ (HZ x HZ) CZ is a Clifford gate and a Bell transform at once, so
sandwiching an unknown state between two copies of it teleports the state
up to a signed Pauli correction.  Routing a target gate U through the
resource leg turns the correction into R = U K U^dag, which stays Clifford
even when U is the non-Clifford T gate.  A six-qubit double protocol
performs B_0 itself on an unknown two-qubit state.

The corrections K, L and Q x P are stacked tables indexed [resource,
outcome], read by the sampled runs and the residuals alike.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    dagger,
    frozen,
    identity,
    is_unitary,
    kron,
    max_abs_diff,
    mul,
)
from .gates import I2, T, X, Y, Z, H, _check_bits, pauli_w, x_pow, yb_clifford, z_pow
from .teleport import BIT_PAIRS, Protocol, _correction_table, _one, _one_qubit

PAULI_LABELS = ("I", "X", "Y", "Z")

_PAULI_BY_LABEL = {"I": I2, "X": X, "Y": Y, "Z": Z}

_UNIT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


class PauliString(NamedTuple("PauliString", [("phase", complex), ("factors", tuple[str, ...])])):
    """A signed tensor product of one-qubit Pauli factors.

    phase is one of +1, -1, +i, -i and factors is one label per qubit.
    The Y label means the product ZX, matching the convention used for
    the Bell-basis corrections elsewhere in this package.
    """

    __slots__ = ()

    def __new__(cls, phase: complex, factors: tuple[str, ...]):
        if phase not in _UNIT_PHASES:
            raise ValueError(f"phase {phase!r} is not a fourth root of unity")
        bad = [f for f in factors if f not in PAULI_LABELS]
        if bad:
            raise ValueError(f"unknown Pauli labels {bad}")
        return super().__new__(cls, phase, factors)

    def __str__(self) -> str:
        sign = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return sign + ".".join(self.factors)


@functools.lru_cache(maxsize=None)
def _pauli_strings(n: int) -> tuple[tuple, np.ndarray]:
    """Every unsigned n-qubit Pauli string: the labels in itertools.product order and the read-only stack."""
    names = tuple(itertools.product(PAULI_LABELS, repeat=n))
    return names, frozen(np.array([kron(*(_PAULI_BY_LABEL[f] for f in labels)) for labels in names]))


def recognize_pauli(op: np.ndarray) -> PauliString | None:
    """Match op against a PauliString, or return None.

    op is projected onto all 4^n strings P of 1..3 qubits (a cached stack of at most 64 8x8),
    c_P = tr(P^dag op) / 2^n.  The string with the largest |c_P| and the unit phase u in
    {1, -1, i, -i} nearest its c_P match when max |op - u P| <= DEFAULT_TOL.  That is exactly
    "op is within DEFAULT_TOL of a signed Pauli string": there every other |c_P| is at most
    DEFAULT_TOL, and two signed strings differ by at least 1 in some entry, so at most one matches.
    """
    op = np.asarray(op, dtype=complex)
    n = op.shape[0].bit_length() - 1 if op.ndim == 2 else 0
    if not 1 <= n <= 3 or op.shape != (2**n, 2**n):
        raise ValueError("expected a square power-of-two operator on 1..3 qubits")
    names, strings = _pauli_strings(n)
    coeffs = np.conj(strings.reshape(len(names), -1)) @ op.reshape(-1) / 2**n
    best = int(np.argmax(np.abs(coeffs)))
    phase = min(_UNIT_PHASES, key=lambda u: abs(u - coeffs[best]))
    return PauliString(phase, names[best]) if max_abs_diff(op, phase * strings[best]) <= DEFAULT_TOL else None


def clifford_check(u: np.ndarray):
    """Decide whether u maps every Pauli generator to a signed Pauli.

    Conjugates the single-site X and Z generators by u and tries to
    recognize each image.  Returns (flag, table) where table maps
    (label, site) to the recognized PauliString; the table is empty when
    the check fails.  Sites are 1-based with qubit 1 the most significant.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0].bit_length() - 1 if u.ndim == 2 else 0
    if u.shape != (2**n, 2**n) or n < 1 or n > 3:
        raise ValueError("expected a unitary on 1..3 qubits")
    if not is_unitary(u):
        raise ValueError("clifford_check needs a unitary input")
    table: dict[tuple[str, int], PauliString] = {}
    for site in range(1, n + 1):
        for label, index in (("X", 1), ("Z", 3)):
            # the string with this label at site and I elsewhere; qubit 1 is the leading base-4 digit
            image = mul(u, _pauli_strings(n)[1][index << 2 * (n - site)], dagger(u))
            found = recognize_pauli(image)
            if found is None:
                return False, {}
            table[(label, site)] = found
    return True, table


def _sign(exponent: int) -> float:
    return -1.0 if exponent % 2 else 1.0


def k_gate(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Forward correction (-1)^{jl+ij+k} X^{j+k+1} Z^{i+l+1}."""
    _check_bits(i, j, k, l)
    return _sign(j * l + i * j + k) * pauli_w((j + k + 1) % 2, (i + l + 1) % 2)


def l_gate(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Reverse correction (-1)^{ik+ij+l} X^{i+l+1} Z^{j+k+1}, which is K with i <-> j and k <-> l."""
    return k_gate(j, i, l, k)


def r_gate(u: np.ndarray, i: int, j: int, k: int, l: int) -> np.ndarray:
    """Correction R = U K U^dag picked up when U rides along the resource."""
    return mul(u, k_gate(i, j, k, l), dagger(u))


def r_gate_hadamard(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Closed form of R for U = H: (-1)^{jl+ij+k} Z^{j+k+1} X^{i+l+1}."""
    return _sign(j * l + i * j + k) * mul(z_pow(j + k + 1), x_pow(i + l + 1))


def r_gate_t(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Closed form of R for U = T.

    The X factor of K is rotated to (X - iY)/sqrt(2), which squares to the
    identity, so the exponent arithmetic stays mod 2.  Any global phase on
    T cancels in the conjugation.
    """
    rotated = (X - 1j * Y) / math.sqrt(2)
    front = rotated if (j + k + 1) % 2 else I2
    return _sign(j * l + i * j + k) * mul(front, z_pow(i + l + 1))


@functools.lru_cache(maxsize=None)
def _b0_layers() -> tuple[np.ndarray, np.ndarray]:
    """The three-qubit layers (B_0 x 1, 1 x B_0), built once and shared read-only."""
    b0 = yb_clifford()
    return frozen(kron(b0, I2)), frozen(kron(I2, b0))


@functools.lru_cache(maxsize=None)
def _kl_tables() -> tuple[np.ndarray, np.ndarray]:
    """K and L stacked at [2k + l, 2i + j], built once and shared read-only."""
    return frozen(_correction_table(k_gate)), frozen(_correction_table(l_gate))


def b0_reverse_residual() -> float:
    """Largest Frobenius norm, over resource pairs, of the reversed protocol identity's residual map.

    The forward identity, with the K corrections, is _gate_protocol(I2).every_branch.  Here the
    unknown state enters on the right:
    (1 x B_0)(B_0 x 1)|kl>|alpha> = (1/2) sum_ij L_{i,j,k,l}|alpha> (x) |ij>.
    Read with the qubits of its input and of its output rotated |a k l> -> |k l a>,
    the operator takes alpha in front and leaves |ij> in front, as a protocol does.
    """
    front, back = _b0_layers()
    rotated = mul(back, front).reshape((2,) * 6).transpose(1, 2, 0, 5, 3, 4).reshape(8, 8)
    return Protocol(rotated, _kl_tables()[1], identity(4), I2).every_branch


def _gate_protocol(u: np.ndarray) -> Protocol:
    """Gate teleportation of the checked 2x2 unitary u: op front (1 x 1 x u) back, table u K u^dag, product kets."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u):
        raise ValueError("gate must be a 2x2 unitary")
    front, back = _b0_layers()
    return Protocol(mul(front, kron(identity(4), u), back), u @ _kl_tables()[0] @ dagger(u), identity(4), u)


def teleport_single_gate(u: np.ndarray, alpha: np.ndarray, k: int, l: int,
                         rng_seed: int = 42):
    """Teleport alpha while applying the gate u, then undo the correction.

    Simulates (B_0 x 1)(1 x 1 x u)(1 x B_0)|alpha>|kl>, measures the front
    pair in the computational basis and applies R^dag on the survivor.
    Returns (MeasurementOutcome, corrected qubit); the corrected qubit
    equals u|alpha> up to numerical noise.
    """
    _check_bits(k, l)
    return _one_qubit(_gate_protocol(u), alpha, 2 * k + l, rng_seed)


class DoubleOutcome(NamedTuple):
    """Joint record of the two Bell-register measurements."""

    first: tuple[int, int]
    second: tuple[int, int]
    probability: float
    post_state: np.ndarray


def q_correction(i1, j1, k1, l1, i2, j2, k2, l2) -> np.ndarray:
    """Left middle-register correction of the double protocol."""
    _check_bits(i1, j1, k1, l1, i2, j2, k2, l2)
    sign = _sign((k1 + 1) * (i1 + l1 + 1) + 1)
    return sign * mul(x_pow(i1 + i2 + l1 + l2), z_pow(j2 + k2 + 1))


def p_correction(i1, j1, k1, l1, i2, j2, k2, l2) -> np.ndarray:
    """Right middle-register correction of the double protocol."""
    _check_bits(i1, j1, k1, l1, i2, j2, k2, l2)
    sign = _sign(i2 * (k2 + j2 + 1) + 1)
    return sign * mul(z_pow(i1 + l1 + 1), x_pow(j1 + k1 + j2 + k2))


def _qp_table() -> np.ndarray:
    """Q x P stacked at [8 k1 + 4 l1 + 2 k2 + l2, 8 i1 + 4 j1 + 2 i2 + j2]: the Q and P stacks' per-entry kron."""
    q, p = (np.array([correction(i1, j1, k1, l1, i2, j2, k2, l2)
                      for k1, l1, k2, l2, i1, j1, i2, j2 in itertools.product((0, 1), repeat=8)]).reshape(16, 16, 2, 2)
            for correction in (q_correction, p_correction))
    return (q[..., :, None, :, None] * p[..., None, :, None, :]).reshape(16, 16, 4, 4)


def qp_factorization_residual() -> float:
    """Max difference between the closed forms Q x P and B_0 (K x L) B_0^dag.

    Covers all 256 index tuples in one stacked comparison.
    """
    k_table, l_table = _kl_tables()
    kl = np.einsum("abpq,cdrs->acbdprqs", k_table, l_table).reshape(16, 16, 4, 4)
    b0 = yb_clifford()
    return max_abs_diff(_qp_table(), b0 @ kl @ dagger(b0))


def _double_layers() -> np.ndarray:
    """Operator for the full double protocol on 6 qubits.

    Layer one entangles each resource pair internally (sites 2-3 and 4-5);
    layer two couples state-to-resource at sites 1-2 and 5-6 and fuses the
    two resources at sites 3-4.  The gates of a layer act on disjoint sites,
    so each layer is one Kronecker product.
    """
    b0 = yb_clifford()
    return kron(b0, b0, b0) @ kron(I2, b0, b0, I2)


@functools.lru_cache(maxsize=None)
def _double_protocol() -> Protocol:
    """The double protocol, built once: op leaves the end registers, outcome 4 m1 + m2, in front.

    Its every_branch is the largest Frobenius norm, over resource settings, of the map from alphabeta
    to the circuit's output minus (1/4) sum |i1 j1> (x) (Q x P) B_0|alphabeta> (x) |i2 j2>.
    """
    op = _double_layers().reshape(4, 4, 4, 64).transpose(0, 2, 1, 3).reshape(64, 64)
    return Protocol(op, _qp_table(), identity(16), yb_clifford())


def teleport_two_qubit(alphabeta: np.ndarray, k1: int, l1: int,
                       k2: int, l2: int, rng_seed: int = 42):
    """Perform B_0 on an unknown two-qubit state by double teleportation.

    Runs the 6-qubit circuit, measures the outer Bell registers and applies
    (Q x P)^dag to the middle pair.  Returns (DoubleOutcome, corrected);
    corrected equals B_0|alphabeta>.
    """
    _check_bits(k1, l1, k2, l2)
    m, p, middle, corrected = _one(_double_protocol(), alphabeta, 8 * k1 + 4 * l1 + 2 * k2 + l2, rng_seed)
    return DoubleOutcome(BIT_PAIRS[m // 4], BIT_PAIRS[m % 4], p, middle), corrected


def single_gate_closed_form_residuals() -> dict[str, float]:
    """Compare the stacked R = U K U^dag against the printed closed forms for H and T."""
    k_table = _kl_tables()[0]
    return {
        "hadamard": max_abs_diff(H @ k_table @ dagger(H), _correction_table(r_gate_hadamard)),
        "t": max_abs_diff(T @ k_table @ dagger(T), _correction_table(r_gate_t)),
    }
