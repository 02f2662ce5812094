"""Register layouts, random states and operator readings that only the tests build, one at a time."""

import numpy as np

from braidtel import gates, teleport
from braidtel.entanglement import _local_invariants, _magic_gram, _special_unitary
from braidtel.gate_teleport import _PAULI_BY_LABEL, PauliString
from braidtel.linalg import is_unitary, ket, kron, transpose


def basis_ket(index: int, dim: int) -> np.ndarray:
    """The computational basis state |index> of a dim-dimensional register."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def random_ket(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random state via normalized complex Gaussian amplitudes."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket(amps, normalize=True)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random dim x dim unitary: the QR factor of a complex Gaussian matrix, its phases fixed by R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def haar_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random dim x dim real orthogonal matrix: the QR factor of a real Gaussian matrix, its signs fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


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
    return _local_invariants(_magic_gram(_special_unitary(u)))


# The teleportation identities by name: the front flows, their -transpose mirrors, the projector channels and flow.
IDENTITY_VARIANTS = ("standard", "standard-transpose", "bell-like", "bell-like-transpose",
                     "projector-channel", "projector-channel-transpose", "flow")


def identity_residual(variant: str, phi: float) -> float:
    """The residual of a teleportation identity by variant name, the Frobenius norm of its map x -> lhs - rhs.

    The standard and bell-like front flows are the every-branch rows of their report protocols.  The
    -transpose variants are the mirror flows v_0 (x) x = 1/2 sum_m C_m x (x) v_m, the every_branch of
    _basis_protocol(basis, False).  The projector-channel forms (E00 (x) 1)(a (x) E00) = 1/2 |psi (x) a><psi|
    and their mirror are the vector identity times <psi|, because E00 = |psi><psi|: _projector_channel of
    the complete Bell-like basis, where only branch 0 survives, uncorrected.  flow compares (1 (x) u)|EPR> with
    (u^T (x) 1)|EPR> for the four W_ij and takes the root-sum-square: the identity is linear in u and
    a unitary u is sum_ij c_ij W_ij with sum_ij |c_ij|^2 = 1, so that bounds its residual at every u.
    The builders and EPR are read as module attributes, so a test that patches them is read here.
    """
    if variant == "standard":
        return teleport._standard_protocol().every_branch
    if variant == "bell-like":
        return teleport._bell_like_protocol(phi).every_branch
    if variant == "flow":
        epr, i2 = gates.EPR, gates.I2
        return float(np.linalg.norm([kron(i2, u) @ epr - kron(transpose(u), i2) @ epr
                                     for u in teleport.UnitaryBasis.pauli().u]))
    if variant not in IDENTITY_VARIANTS:
        raise ValueError(f"unknown identity variant {variant!r}")
    family, front = variant.removesuffix("-transpose"), not variant.endswith("-transpose")
    basis = teleport.UnitaryBasis.pauli() if family == "standard" else teleport.UnitaryBasis.bell_like(phi)
    if family == "projector-channel":
        return teleport._projector_channel(basis, gates.tl_projector(0, 0, phi), front).every_branch
    return teleport._basis_protocol(basis, front).every_branch


def pauli_matrix(string: PauliString) -> np.ndarray:
    """The signed tensor product that a PauliString names."""
    return string.phase * kron(*(_PAULI_BY_LABEL[f] for f in string.factors))
