"""Dense complex linear algebra for small qubit registers.

Everything is a plain numpy array of dtype complex128: matrices are 2-d,
kets are 1-d.  Qubit 1 is the most significant bit of the index, so the
two-qubit basis order is |00>, |01>, |10>, |11> and |ij> sits at index 2i+j.
All helpers are pure functions; nothing here mutates its arguments.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
STRICT_TOL = 1e-12


def mat(rows) -> np.ndarray:
    """Build a complex matrix from nested rows (finite entries required)."""
    a = np.array(rows, dtype=complex)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def ket(amps, normalize: bool = False) -> np.ndarray:
    """Build a state vector. Dimension must be a power of 2 and norm 1.

    With normalize=True the input is rescaled; otherwise a norm deviating
    from 1 by more than 1e-12 is an error.
    """
    v = np.asarray(amps, dtype=complex).reshape(-1)
    if v.size == 0 or v.size & (v.size - 1):
        raise ValueError(f"ket dimension {v.size} is not a power of 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("ket amplitudes must be finite")
    norm = np.linalg.norm(v)
    if normalize:
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return v / norm
    if abs(norm - 1.0) > STRICT_TOL:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return v


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more matrices/vectors/stacks, left to right, with np.kron's bits.

    Each step is np.kron's one broadcast multiply and reshape, without its axis bookkeeping: the
    shorter shape is padded with leading ones and axis t of the result has length a_t * b_t.
    """
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        pad = out.ndim - op.ndim
        a, b = (1,) * -pad + out.shape, (1,) * pad + op.shape
        lead, tail = [1] * (2 * len(a)), [1] * (2 * len(b))
        lead[::2], tail[1::2] = a, b
        out = (out.reshape(lead) * op.reshape(tail)).reshape([s * t for s, t in zip(a, b)])
    return out


def mul(*ops: np.ndarray) -> np.ndarray:
    """Matrix product of one or more factors, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = out @ op
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(transpose(a))


def transpose(a: np.ndarray) -> np.ndarray:
    """Matrix transpose; a stack of matrices is transposed matrix by matrix."""
    a = np.asarray(a)
    return a.swapaxes(-1, -2) if a.ndim > 2 else a.T


def conj(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a))


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u><v| including the conjugation of v."""
    return np.outer(u, np.conj(v))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, for arrays that a cache shares between callers."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Place a 4x4 operator on neighbouring qubits (site, site+1) of n_sites.

    Sites count from 1 and qubit 1 is the most significant bit, so the
    result is 1^(site-1) (x) op (x) 1^(n_sites-site-1), a dense
    2^n_sites x 2^n_sites matrix: callers keep n_sites to a small window.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise ValueError(f"embed expects a 4x4 operator, got {op.shape}")
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2, got {n_sites}")
    if not 1 <= site <= n_sites - 1:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    left = identity(2 ** (site - 1))
    right = identity(2 ** (n_sites - site - 1))
    return kron(left, op, right)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def approx_eq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise max-distance comparison."""
    return max_abs_diff(a, b) <= tol


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return approx_eq(a @ dagger(a), identity(a.shape[0]), tol)


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>|^2 for normalized kets."""
    return float(abs(np.vdot(u, v)) ** 2)
