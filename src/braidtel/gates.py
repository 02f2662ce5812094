"""Gate, state, and projector catalog for the two spin-1/2 construction.

The central objects are the phase-parameterized Temperley-Lieb projector
family E_ij and the Yang-Baxter gate B.  Each carries two independent
definitions (a closed-form matrix and a compositional build from
single-qubit gates), and the constructors cross-check one against the
other rather than trusting either alone.  Both are cached per phi and
read-only, so each build and self-check runs once per phi for every report
that reads it.  FIXED_GATES maps each fixed
--gate name of teleport gate to its matrix, T among them.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .linalg import (
    STRICT_TOL,
    approx_eq,
    dagger,
    frozen,
    identity,
    ket,
    kron,
    mat,
    max_abs_diff,
    mul,
    outer,
)

# The fixed gates and EPR are read-only: every module shares these arrays.
I2 = frozen(identity(2))
X = frozen(mat([[0, 1], [1, 0]]))
Z = frozen(mat([[1, 0], [0, -1]]))
# Y = ZX here, which is -i times the textbook Pauli Y.  All closed forms
# downstream assume this convention.
Y = frozen(Z @ X)
H = frozen(mat([[1, 1], [1, -1]]) / math.sqrt(2))
S = frozen(mat([[1, 0], [0, 1j]]))
CZ = frozen(np.diag([1, 1, 1, -1]).astype(complex))
SWAP = frozen(mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))


def x_pow(n: int) -> np.ndarray:
    """X^n: the module's own read-only X or I2 array."""
    return X if n % 2 else I2


def z_pow(n: int) -> np.ndarray:
    """Z^n: the module's own read-only Z or I2 array."""
    return Z if n % 2 else I2


EPR = frozen(ket([1, 0, 0, 1], normalize=True))

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


def reduced_phase(phi: float) -> float:
    """phi itself when |phi| <= pi, else the angle of e^{i phi}: the same phase, of size at most pi.

    A phase formed from phi in floats, offset + slope phi or 2 phi, is formed from the reduced phase so that
    the offset keeps its bits and the product stays finite at every finite phi.
    """
    return phi if abs(phi) <= math.pi else cmath.phase(cmath.exp(1j * phi))


# The T gate, diag(1, e^{i pi/4}), the "pi/8 gate" up to a global phase; T^4 = Z.
T = frozen(phase_shift(math.pi / 4))

# The fixed single-qubit gates of teleport gate --gate, in its help order; R takes its angle from --phi.
FIXED_GATES = {"H": H, "S": S, "T": T, "X": X, "Y": Y, "Z": Z, "I": I2}


def pauli_w(i: int, j: int) -> np.ndarray:
    """W_ij = X^i Z^j, the Pauli corrections labelling the Bell basis."""
    _check_bits(i, j)
    return mul(x_pow(i), z_pow(j))


def bell_state(i: int, j: int) -> np.ndarray:
    """|psi(ij)> = (1 (x) W_ij) |Psi> with |Psi> the EPR pair."""
    return state_with_gate(pauli_w(i, j))


def state_with_gate(m: np.ndarray) -> np.ndarray:
    """(1 (x) M)|Psi>: the EPR pair with a local gate on the second qubit; a stack of M gives rows."""
    return kron(I2, np.asarray(m, dtype=complex)) @ EPR


def m_gate(i: int, j: int, phi: float) -> np.ndarray:
    """The single-qubit gates whose Bell-like states diagonalize B, read-only:

    M_00 = R H S H R, M_01 = R Z R, M_10 = X Z and M_11 = R H S^dag H R, with R = R_phi.
    """
    _check_bits(i, j)
    return _m_gates(phi)[2 * i + j]


# The middle factors of M_00, M_01 and M_11, an identity where a gate has fewer: multiplying by it keeps every
# bit of the per-gate chain.  M_10 = X Z, free of phi, keeps its own product, whose zero signs a padded stack
# would flip.
_M_MIDDLE = tuple(frozen(np.array(factors)) for factors in ((H, Z, H), (S, I2, dagger(S)), (H, I2, H)))
_M_10 = frozen(mul(X, Z))


@functools.lru_cache(maxsize=8)
def _m_gates(phi: float) -> np.ndarray:
    """M_ij stacked at 2i + j, read-only: the three phi-dependent gates as one stacked product, left to right."""
    r = phase_shift(phi)
    m00, m01, m11 = mul(r, *_M_MIDDLE, r)
    return frozen(np.array([m00, m01, _M_10, m11]))


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
    """Rank-1 projector E_ij onto the Bell-like state of M_ij, read-only.

    E_00 is additionally asserted against its closed-form matrix, which ties
    the compositional M_00 = R H S H R route to the printed entries.
    """
    return _tl_projector(i, j, phi)


@functools.lru_cache(maxsize=8)
def _tl_projector(i: int, j: int, phi: float) -> np.ndarray:
    """tl_projector, built and self-checked once per (i, j, phi): the Bell-like basis and several reports read E_00."""
    _check_bits(i, j)
    state = bell_like_state(i, j, phi)
    proj = outer(state, state)
    if (i, j) == (0, 0):
        drift = max_abs_diff(proj, _tl_closed_form(phi))
        if drift > STRICT_TOL:
            raise AssertionError(f"E_00 closed form mismatch: {drift:.3e}")
    return frozen(proj)


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


@functools.lru_cache(maxsize=8)
def yb_gate(phi: float) -> np.ndarray:
    """The Yang-Baxter gate B at phase phi (closed form), read-only: one build per phi for every report that reads it."""
    return frozen(_yb_closed_form(phi))


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


# HZ (x) HZ, the middle layer of B_0 and of B's elementary product
_HZ_HZ = frozen(kron(H @ Z, H @ Z))


def yb_clifford() -> np.ndarray:
    """B_0 = CZ (HZ (x) HZ) CZ, the phi=0 gate stripped of its global phase."""
    b0 = mul(CZ, _HZ_HZ, CZ)
    if not approx_eq(B_GLOBAL_PHASE * b0, _yb_closed_form(0.0), STRICT_TOL):
        raise AssertionError("B_0 does not match yb_gate(0) up to the fixed phase")
    return b0


def decompose_b(phi: float):
    """Factor B into (scalar phase, list of (name, matrix), drift) with 2 CZ gates.

    Multiplying the factors left to right and scaling by the phase
    reproduces yb_gate(phi) exactly (to 1e-12), phase included; drift is
    the max abs entry of that product minus yb_gate(phi).
    """
    r = phase_shift(phi)
    factors = [
        ("R(phi) x R(phi)", kron(r, r)),
        ("CZ", CZ),
        ("HZ x HZ", _HZ_HZ),
        ("CZ", CZ),
        ("R(phi)^dag x R(phi)^dag", kron(dagger(r), dagger(r))),
    ]
    product = B_GLOBAL_PHASE * mul(*[m for _, m in factors])
    drift = max_abs_diff(product, yb_gate(phi))
    if drift > STRICT_TOL:
        raise AssertionError(f"decomposition drifted from closed form: {drift:.3e}")
    return B_GLOBAL_PHASE, factors, drift


def permutation_p() -> np.ndarray:
    """The read-only SWAP gate P with P|ij> = |ji>."""
    return SWAP


def brauer_projector() -> np.ndarray:
    """Rank-1 projector onto the EPR pair; pairs with SWAP as generators."""
    return outer(EPR, EPR)


def _check_bits(*bits: int) -> None:
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit index must be 0 or 1, got {b}")
