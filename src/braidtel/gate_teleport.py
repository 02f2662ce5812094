"""Gate teleportation built on the phase-free braid gate B_0.

B_0 = CZ (HZ x HZ) CZ is a Clifford gate and a Bell transform at once, so
sandwiching an unknown state between two copies of it teleports the state
up to a signed Pauli correction.  Routing a target gate U through the
resource leg turns the correction into R = U K U^dag, which stays Clifford
even when U is the non-Clifford T gate.  A six-qubit double protocol
performs B_0 itself on an unknown two-qubit state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    approx_eq_phase,
    basis_ket,
    conj,
    dagger,
    embed,
    frozen,
    identity,
    is_unitary,
    ket,
    kron,
    max_abs_diff,
    mul,
)
from .gates import I2, X, Y, Z, H, _b0, _check_bits, t_gate, pauli_w, x_pow, z_pow
from .teleport import (
    BIT_PAIRS,
    MeasurementOutcome,
    _correction_table,
    _measure,
    _product_kets,
    _resource_residual,
    probe_states,
    random_ket,
)

PAULI_LABELS = ("I", "X", "Y", "Z")

_PAULI_BY_LABEL = {"I": I2, "X": X, "Y": Y, "Z": Z}

_UNIT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of one-qubit Pauli factors.

    phase is one of +1, -1, +i, -i and factors is one label per qubit.
    The Y label means the product ZX, matching the convention used for
    the Bell-basis corrections elsewhere in this package.
    """

    phase: complex
    factors: tuple[str, ...]

    def __post_init__(self):
        if self.phase not in _UNIT_PHASES:
            raise ValueError(f"phase {self.phase!r} is not a fourth root of unity")
        bad = [f for f in self.factors if f not in PAULI_LABELS]
        if bad:
            raise ValueError(f"unknown Pauli labels {bad}")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        return self.phase * kron(*(_PAULI_BY_LABEL[f] for f in self.factors))

    def __str__(self) -> str:
        sign = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return sign + ".".join(self.factors)


def recognize_pauli(op: np.ndarray, tol: float = DEFAULT_TOL) -> PauliString | None:
    """Match op against a PauliString by enumeration, or return None.

    The phase must land within tol of a fourth root of unity and the
    remaining matrix residual must stay below tol as well.
    """
    op = np.asarray(op, dtype=complex)
    n = op.shape[0].bit_length() - 1
    if op.shape != (2**n, 2**n):
        raise ValueError("operator is not square with power-of-two size")
    for labels in itertools.product(PAULI_LABELS, repeat=n):
        base = kron(*(_PAULI_BY_LABEL[f] for f in labels))
        theta = approx_eq_phase(op, base, tol)
        if theta is None:
            continue
        snapped = min(_UNIT_PHASES, key=lambda u: abs(u - theta))
        if abs(snapped - theta) > tol:
            return None
        return PauliString(snapped, labels)
    return None


def clifford_check(u: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide whether u maps every Pauli generator to a signed Pauli.

    Conjugates the single-site X and Z generators by u and tries to
    recognize each image.  Returns (flag, table) where table maps
    (label, site) to the recognized PauliString; the table is empty when
    the check fails.  Sites are 1-based with qubit 1 the most significant.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0].bit_length() - 1
    if u.shape != (2**n, 2**n) or n < 1 or n > 3:
        raise ValueError("expected a unitary on 1..3 qubits")
    if not is_unitary(u, tol):
        raise ValueError("clifford_check needs a unitary input")
    table: dict[tuple[str, int], PauliString] = {}
    for site in range(1, n + 1):
        for label, gen in (("X", X), ("Z", Z)):
            wide = kron(*(gen if q == site else I2 for q in range(1, n + 1)))
            image = mul(u, wide, dagger(u))
            found = recognize_pauli(image, tol)
            if found is None:
                return False, {}
            table[(label, site)] = found
    return True, table


def _sign(exponent: int) -> float:
    return -1.0 if exponent % 2 else 1.0


def k_gate(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Forward correction (-1)^{jl+ij+k} X^{j+k+1} Z^{i+l+1}."""
    return _sign(j * l + i * j + k) * pauli_w((j + k + 1) % 2, (i + l + 1) % 2)


def l_gate(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Reverse correction (-1)^{ik+ij+l} X^{i+l+1} Z^{j+k+1}."""
    return _sign(i * k + i * j + l) * pauli_w((i + l + 1) % 2, (j + k + 1) % 2)


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
    b0 = _b0()
    return frozen(kron(b0, I2)), frozen(kron(I2, b0))


def b0_forward_residual(seed: int = 42) -> float:
    """Worst 2-norm of the forward protocol identity's residual over probes.

    Checks (B_0 x 1)(1 x B_0)|alpha>|kl> against the Pauli-corrected sum
    (1/2) sum_ij |ij> (x) K_{i,j,k,l}|alpha> for every resource pair.
    """
    front, back = _b0_layers()
    return _resource_residual(mul(front, back), _correction_table(k_gate), np.array(probe_states(seed)))


def b0_reverse_residual(seed: int = 42) -> float:
    """Same check, with the same 2-norm, for the reversed order and the L corrections.

    Here the unknown state enters on the right:
    (1 x B_0)(B_0 x 1)|kl>|alpha> = (1/2) sum_ij L_{i,j,k,l}|alpha> (x) |ij>.
    """
    front, back = _b0_layers()
    return _resource_residual(mul(back, front), _correction_table(l_gate), np.array(probe_states(seed)), front=False)


def teleport_single_gate(u: np.ndarray, alpha: np.ndarray, k: int, l: int,
                         rng_seed: int = 42):
    """Teleport alpha while applying the gate u, then undo the correction.

    Simulates (B_0 x 1)(1 x 1 x u)(1 x B_0)|alpha>|kl>, measures the front
    pair in the computational basis and applies R^dag on the survivor.
    Returns (MeasurementOutcome, corrected qubit); the corrected qubit
    equals u|alpha> up to numerical noise.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u):
        raise ValueError("gate must be a 2x2 unitary")
    _check_bits(k, l)
    front, back = _b0_layers()
    state = mul(front, kron(identity(4), u), back) @ kron(ket(alpha), basis_ket(2 * k + l, 4))
    m, p, survivor = _measure(conj(_product_kets()) @ state.reshape(4, -1), np.random.default_rng(rng_seed))
    i, j = BIT_PAIRS[m]
    return MeasurementOutcome(i, j, p, survivor), dagger(r_gate(u, i, j, k, l)) @ survivor


@dataclass(frozen=True)
class DoubleOutcome:
    """Joint record of the two Bell-register measurements."""

    first: tuple[int, int]
    second: tuple[int, int]
    probability: float
    post_state: np.ndarray


def q_correction(i1, j1, k1, l1, i2, j2, k2, l2) -> np.ndarray:
    """Left middle-register correction of the double protocol."""
    sign = _sign((k1 + 1) * (i1 + l1 + 1) + 1)
    return sign * mul(x_pow(i1 + i2 + l1 + l2), z_pow(j2 + k2 + 1))


def p_correction(i1, j1, k1, l1, i2, j2, k2, l2) -> np.ndarray:
    """Right middle-register correction of the double protocol."""
    sign = _sign(i2 * (k2 + j2 + 1) + 1)
    return sign * mul(z_pow(i1 + l1 + 1), x_pow(j1 + k1 + j2 + k2))


def qp_from_conjugation(i1, j1, k1, l1, i2, j2, k2, l2) -> np.ndarray:
    """The same correction via B_0 (K x L) B_0^dag."""
    b0 = _b0()
    inner = kron(k_gate(i1, j1, k1, l1), l_gate(i2, j2, k2, l2))
    return mul(b0, inner, dagger(b0))


def qp_factorization_residual() -> float:
    """Max difference between the closed forms and the conjugation route.

    Scans all 256 index tuples.
    """
    worst = 0.0
    for bits in itertools.product((0, 1), repeat=8):
        q = q_correction(*bits)
        p = p_correction(*bits)
        worst = max(worst, max_abs_diff(kron(q, p), qp_from_conjugation(*bits)))
    return worst


def _double_input(alphabeta: np.ndarray, k1, l1, k2, l2) -> np.ndarray:
    """Lay out a 6-qubit register: state qubit, pair A, pair B, state qubit.

    The unknown two-qubit state may be entangled, so its two halves are
    routed to registers 1 and 6 around the product ancillas.
    """
    coeff = ket(alphabeta).reshape(2, 2)
    anc = kron(basis_ket(2 * k1 + l1, 4), basis_ket(2 * k2 + l2, 4))
    return np.einsum("ab,m->amb", coeff, anc).reshape(64)


@functools.lru_cache(maxsize=None)
def _double_layers(doubled_middle: bool = False) -> np.ndarray:
    """Operator for the full double protocol on 6 qubits.

    Layer one entangles each resource pair internally (sites 2-3 and 4-5);
    layer two couples state-to-resource at sites 1-2 and 5-6 and fuses the
    two resources at sites 3-4.  With doubled_middle the 3-4 gate is also
    applied during preparation, which tests the alternative reading of the
    protocol description.  Built once per reading and shared read-only.
    """
    b0 = _b0()
    prepare = mul(embed(b0, 2, 6), embed(b0, 4, 6))
    if doubled_middle:
        prepare = mul(embed(b0, 3, 6), prepare)
    fuse = mul(embed(b0, 1, 6), embed(b0, 3, 6), embed(b0, 5, 6))
    return frozen(mul(fuse, prepare))


def double_protocol_residuals(seed: int = 42) -> dict[str, float]:
    """Residuals of both bracketing readings of the double protocol.

    Returns worst-case norms against the corrected sum
    (1/4) sum |i1 j1> (x) (Q x P) B_0|alphabeta> (x) |i2 j2> over probe
    states and all resource settings.  Only one reading should vanish.
    """
    b0 = _b0()
    ops = {
        "single-middle": _double_layers(doubled_middle=False),
        "doubled-middle": _double_layers(doubled_middle=True),
    }
    probes = [ket([1, 0, 0, 0]), random_ket(np.random.default_rng(seed), dim=4)]
    out = {}
    for name, op in ops.items():
        worst = 0.0
        for alphabeta in probes:
            rotated = b0 @ alphabeta
            for k1, l1, k2, l2 in itertools.product((0, 1), repeat=4):
                lhs = op @ _double_input(alphabeta, k1, l1, k2, l2)
                rhs = np.zeros(64, dtype=complex)
                for i1, j1, i2, j2 in itertools.product((0, 1), repeat=4):
                    q = q_correction(i1, j1, k1, l1, i2, j2, k2, l2)
                    p = p_correction(i1, j1, k1, l1, i2, j2, k2, l2)
                    rhs += 0.25 * kron(
                        basis_ket(2 * i1 + j1, 4),
                        kron(q, p) @ rotated,
                        basis_ket(2 * i2 + j2, 4),
                    )
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        out[name] = worst
    return out


def teleport_two_qubit(alphabeta: np.ndarray, k1: int, l1: int,
                       k2: int, l2: int, rng_seed: int = 42):
    """Perform B_0 on an unknown two-qubit state by double teleportation.

    Runs the 6-qubit circuit, measures the outer Bell registers and applies
    (Q x P)^dag to the middle pair.  Returns (DoubleOutcome, corrected);
    corrected equals B_0|alphabeta>.
    """
    alphabeta = ket(alphabeta)
    if alphabeta.size != 4:
        raise ValueError("expected a 2-qubit state")
    _check_bits(k1, l1, k2, l2)
    state = _double_layers() @ _double_input(alphabeta, k1, l1, k2, l2)
    # row 4 m1 + m2 holds the middle pair left by end outcomes |m1> and |m2>
    ends = state.reshape(4, 4, 4).transpose(0, 2, 1).reshape(16, 4)
    m, p, middle = _measure(ends, np.random.default_rng(rng_seed))
    (i1, j1), (i2, j2) = BIT_PAIRS[m // 4], BIT_PAIRS[m % 4]
    bits = (i1, j1, k1, l1, i2, j2, k2, l2)
    corrected = dagger(kron(q_correction(*bits), p_correction(*bits))) @ middle
    return DoubleOutcome((i1, j1), (i2, j2), p, middle), corrected


def single_gate_closed_form_residuals() -> dict[str, float]:
    """Compare r_gate against the printed closed forms for H and T."""
    worst_h = 0.0
    worst_t = 0.0
    t = t_gate()
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        via_h = r_gate(H, i, j, k, l)
        via_t = r_gate(t, i, j, k, l)
        worst_h = max(worst_h, max_abs_diff(via_h, r_gate_hadamard(i, j, k, l)))
        worst_t = max(worst_t, max_abs_diff(via_t, r_gate_t(i, j, k, l)))
    return {"hadamard": worst_h, "t": worst_t}
