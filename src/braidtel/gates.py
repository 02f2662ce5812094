"""Gate, state, and projector catalog for the two spin-1/2 construction.

The central objects are the phase-parameterized Temperley-Lieb projector
family E_ij and the Yang-Baxter gate B.  Each carries two independent
definitions (a closed-form matrix and a compositional build from
single-qubit gates), and the constructors cross-check one against the
other rather than trusting either alone.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import (
    STRICT_TOL,
    approx_eq,
    dagger,
    identity,
    ket,
    kron,
    mat,
    max_abs_diff,
    mul,
    outer,
)

I2 = identity(2)
X = mat([[0, 1], [1, 0]])
Z = mat([[1, 0], [0, -1]])
# Y = ZX here, which is -i times the textbook Pauli Y.  All closed forms
# downstream assume this convention.
Y = Z @ X
H = mat([[1, 1], [1, -1]]) / math.sqrt(2)
S = mat([[1, 0], [0, 1j]])
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def x_pow(n: int) -> np.ndarray:
    """X^n: the module's own X or I2 array, which callers must not modify."""
    return X if n % 2 else I2


def z_pow(n: int) -> np.ndarray:
    """Z^n: the module's own Z or I2 array, which callers must not modify."""
    return Z if n % 2 else I2


EPR = ket([1, 0, 0, 1], normalize=True)

# Eigenvalues of B indexed like the projectors E_ij; the (0,1)/(1,0) pair
# is degenerate.
B_EIGENVALUES = {
    (0, 0): cmath.exp(1j * 5 * math.pi / 4),
    (0, 1): cmath.exp(1j * 3 * math.pi / 4),
    (1, 0): cmath.exp(1j * 3 * math.pi / 4),
    (1, 1): cmath.exp(1j * math.pi / 4),
}

B_GLOBAL_PHASE = cmath.exp(1j * 3 * math.pi / 4)


def phase_shift(phi: float) -> np.ndarray:
    """R_phi = diag(1, e^{i phi})."""
    return np.diag([1.0, cmath.exp(1j * phi)]).astype(complex)


def t_gate(eighth_pi_phase: bool = False) -> np.ndarray:
    """The T gate, diag(1, e^{i pi/4}) by default.

    The name "pi/8 gate" is sometimes read literally as diag(1, e^{i pi/8});
    pass eighth_pi_phase=True for that variant.  T^4 = Z only holds for the
    conventional phase.
    """
    return phase_shift(math.pi / 8 if eighth_pi_phase else math.pi / 4)


_FIXED_GATES = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "CZ": CZ,
    "SWAP": SWAP,
}


def elementary(name: str, phi: float | None = None) -> np.ndarray:
    """Look up a named gate; R requires phi, the rest ignore it."""
    key = name.upper()
    if key == "R":
        if phi is None:
            raise ValueError("the phase shift gate R needs a phi value")
        return phase_shift(phi)
    if key == "T":
        return t_gate()
    if key in _FIXED_GATES:
        return _FIXED_GATES[key].copy()
    raise ValueError(f"unknown gate name {name!r}")


def pauli_w(i: int, j: int) -> np.ndarray:
    """W_ij = X^i Z^j, the Pauli corrections labelling the Bell basis."""
    _check_bits(i, j)
    return mul(np.linalg.matrix_power(X, i), np.linalg.matrix_power(Z, j))


def bell_state(i: int, j: int) -> np.ndarray:
    """|psi(ij)> = (1 (x) W_ij) |Psi> with |Psi> the EPR pair."""
    _check_bits(i, j)
    return kron(I2, pauli_w(i, j)) @ EPR


def state_with_gate(m: np.ndarray) -> np.ndarray:
    """(1 (x) M)|Psi>: the EPR pair with a local gate on the second qubit."""
    return kron(I2, np.asarray(m, dtype=complex)) @ EPR


def m_gate(i: int, j: int, phi: float) -> np.ndarray:
    """The single-qubit gates whose Bell-like states diagonalize B."""
    _check_bits(i, j)
    r = phase_shift(phi)
    if (i, j) == (0, 0):
        return mul(r, H, S, H, r)
    if (i, j) == (0, 1):
        return mul(r, Z, r)
    if (i, j) == (1, 0):
        return mul(X, Z)
    return mul(r, H, dagger(S), H, r)


def bell_like_state(i: int, j: int, phi: float) -> np.ndarray:
    """|Psi_{M_ij}> = (1 (x) M_ij)|Psi>."""
    return state_with_gate(m_gate(i, j, phi))


def _tl_closed_form(phi: float) -> np.ndarray:
    e_p = cmath.exp(1j * phi)
    e_m = cmath.exp(-1j * phi)
    return mat(
        [
            [1, 1j * e_m, 1j * e_m, e_m * e_m],
            [-1j * e_p, 1, 1, -1j * e_m],
            [-1j * e_p, 1, 1, -1j * e_m],
            [e_p * e_p, 1j * e_p, 1j * e_p, 1],
        ]
    ) / 4.0


def tl_projector(i: int, j: int, phi: float) -> np.ndarray:
    """Rank-1 projector E_ij onto the Bell-like state of M_ij.

    E_00 is additionally asserted against its closed-form matrix, which ties
    the compositional M_00 = R H S H R route to the printed entries.
    """
    _check_bits(i, j)
    state = bell_like_state(i, j, phi)
    proj = outer(state, state)
    if (i, j) == (0, 0):
        drift = max_abs_diff(proj, _tl_closed_form(phi))
        if drift > STRICT_TOL:
            raise AssertionError(f"E_00 closed form mismatch: {drift:.3e}")
    return proj


def _yb_closed_form(phi: float) -> np.ndarray:
    e_p = cmath.exp(1j * phi)
    e_m = cmath.exp(-1j * phi)
    return (
        B_GLOBAL_PHASE
        / 2.0
        * mat(
            [
                [1, -e_m, -e_m, -e_m * e_m],
                [e_p, 1, -1, e_m],
                [e_p, -1, 1, e_m],
                [-e_p * e_p, -e_p, -e_p, 1],
            ]
        )
    )


def yb_gate(phi: float) -> np.ndarray:
    """The Yang-Baxter gate B at phase phi (closed form)."""
    return _yb_closed_form(phi)


def yb_spectral(phi: float):
    """Return (eigenvalue table, B) with B rebuilt as sum lambda_ij E_ij.

    The spectral sum must reproduce the closed form to 1e-12; a mismatch
    means either the projectors or the closed form are corrupted.
    """
    total = np.zeros((4, 4), dtype=complex)
    for (i, j), lam in B_EIGENVALUES.items():
        total = total + lam * tl_projector(i, j, phi)
    drift = max_abs_diff(total, _yb_closed_form(phi))
    if drift > STRICT_TOL:
        raise AssertionError(f"spectral sum disagrees with closed form: {drift:.3e}")
    return dict(B_EIGENVALUES), total


def yb_clifford() -> np.ndarray:
    """B_0 = CZ (HZ (x) HZ) CZ, the phi=0 gate stripped of its global phase."""
    hz = H @ Z
    b0 = mul(CZ, kron(hz, hz), CZ)
    if not approx_eq(B_GLOBAL_PHASE * b0, _yb_closed_form(0.0), STRICT_TOL):
        raise AssertionError("B_0 does not match yb_gate(0) up to the fixed phase")
    return b0


def decompose_b(phi: float):
    """Factor B into (scalar phase, list of (name, matrix)) with 2 CZ gates.

    Multiplying the factors left to right and scaling by the phase
    reproduces yb_gate(phi) exactly (to 1e-12), phase included.
    """
    r = phase_shift(phi)
    hz = H @ Z
    factors = [
        ("R(phi) x R(phi)", kron(r, r)),
        ("CZ", CZ.copy()),
        ("HZ x HZ", kron(hz, hz)),
        ("CZ", CZ.copy()),
        ("R(phi)^dag x R(phi)^dag", kron(dagger(r), dagger(r))),
    ]
    product = B_GLOBAL_PHASE * mul(*[m for _, m in factors])
    drift = max_abs_diff(product, _yb_closed_form(phi))
    if drift > STRICT_TOL:
        raise AssertionError(f"decomposition drifted from closed form: {drift:.3e}")
    return B_GLOBAL_PHASE, factors


def permutation_p() -> np.ndarray:
    """The SWAP gate P with P|ij> = |ji>."""
    return SWAP.copy()


def brauer_projector() -> np.ndarray:
    """Rank-1 projector onto the EPR pair; pairs with SWAP as generators."""
    return outer(EPR, EPR)


def _check_bits(*bits: int) -> None:
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit index must be 0 or 1, got {b}")
