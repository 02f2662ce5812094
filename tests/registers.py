"""Register layouts and random states that only the tests build, one state at a time."""

import numpy as np

from braidtel.linalg import basis_ket, ket, kron


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
