"""Register layouts, random states and operator readings that only the tests build, one at a time."""

import numpy as np

from braidtel.entanglement import _local_invariants, _special_unitary
from braidtel.gate_teleport import _PAULI_BY_LABEL, PauliString
from braidtel.linalg import is_unitary, ket, kron
from braidtel.teleport import _bell_like_protocol, _standard_protocol, check_teleportation_identity


def basis_ket(index: int, dim: int) -> np.ndarray:
    """The computational basis state |index> of a dim-dimensional register."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def random_ket(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random state via normalized complex Gaussian amplitudes."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket(amps, normalize=True)


def double_input(alphabeta: np.ndarray, k1, l1, k2, l2) -> np.ndarray:
    """Lay out a 6-qubit register: state qubit, pair A, pair B, state qubit.

    The unknown two-qubit state may be entangled, so its two halves are
    routed to registers 1 and 6 around the product ancillas.
    """
    coeff = ket(alphabeta).reshape(2, 2)
    anc = kron(basis_ket(2 * k1 + l1, 4), basis_ket(2 * k2 + l2, 4))
    return np.einsum("ab,m->amb", coeff, anc).reshape(64)


def local_invariants(u) -> tuple[complex, complex]:
    """The two numbers of a 4x4 unitary conserved by one-qubit gates on either side."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u):
        raise ValueError("expected a 4x4 unitary")
    return _local_invariants(_special_unitary(u))


def identity_residual(variant: str, phi: float) -> float:
    """The residual of a teleportation identity by variant name, front flows included.

    The standard and bell-like front flows are the every-branch rows of their report protocols;
    every other variant is check_teleportation_identity's.
    """
    if variant == "standard":
        return _standard_protocol().every_branch
    if variant == "bell-like":
        return _bell_like_protocol(phi).every_branch
    return check_teleportation_identity(variant, phi)


def pauli_matrix(string: PauliString) -> np.ndarray:
    """The signed tensor product that a PauliString names."""
    return string.phase * kron(*(_PAULI_BY_LABEL[f] for f in string.factors))
