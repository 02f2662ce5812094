"""Constraint-table helpers that only the tests read."""

import numpy as np

from braidtel.linalg import transpose
from braidtel.tangles import EigenAssignment, GateCoefficients, _pauli_signs
from braidtel.teleport import PhaseTable, u_gate, v_gate
from registers import haar_unitary


def table_max(table) -> float:
    """Largest residual in a {constraint: {pair: value}} table."""
    return max(table[c][p] for c in table for p in table[c])


def pauli_scalar_coefficient(i: int, j: int, k: int, l: int, m: int, n: int) -> int:
    """Sign carried by the (k,l) term when the basis gates are X^i Z^j.

    With Pauli basis gates the first constraint collapses to a scalar
    equation per (i,j); this extracts the plus-minus coefficient by a
    trace against the expected right-hand side.
    """
    return int(_pauli_signs(m, n)[2 * i + j, 2 * k + l])


def unimodularity_residual(assignment: EigenAssignment) -> float:
    """max_ij ||mu_ij| - 1|: zero when every eigenvalue of the assignment lies on the unit circle."""
    return float(np.abs(np.abs(assignment.mu) - 1.0).max())


def random_gate_coefficients(rng: np.random.Generator) -> GateCoefficients:
    """Coefficients of a Haar-random gate in a Bell-like basis."""
    return GateCoefficients(haar_unitary(rng, 4))


def w_braid_correction(i: int, j: int, k: int, l: int, table: PhaseTable) -> np.ndarray:
    """W_{i,j,k,l} = V_kl U^T_ij, the correction in the braid protocol, one entry at a time."""
    return v_gate(k, l, table) @ transpose(u_gate(i, j, table))
