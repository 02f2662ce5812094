"""Nonlocal content of two-qubit gates.

Every two-qubit unitary is locally equivalent to exp(i(a XX + b YY + c ZZ))
for a real triple in the Weyl alcove.  The triple is recovered from the
spectrum of m^T m with m the gate written in the magic basis, validated by
matching local invariants of a reconstructed gate, and reduced to the
chamber pi/4 >= a >= b >= c >= 0 (chirality is folded away; the mirror
class with c < 0 shares all quantities computed here).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, dagger, is_unitary, kron, mat, outer
from .gates import EPR, B_GLOBAL_PHASE, I2, X, bell_state, phase_shift, tl_projector, yb_gate

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

XX = kron(_SX, _SX)
YY = kron(_SY, _SY)
ZZ = kron(_SZ, _SZ)

# Columns are the Bell-phase states; conjugating into this basis turns the
# canonical exponential into a diagonal matrix.
MAGIC = (
    np.column_stack(
        [
            [1, 0, 0, 1],
            [-1j, 0, 0, 1j],
            [0, 1, -1, 0],
            [0, -1j, -1j, 0],
        ]
    )
    / math.sqrt(2)
)

_QUARTER = math.pi / 4
_HALF = math.pi / 2

_EVEN_FLIPS = (
    (1, 1, 1),
    (-1, -1, 1),
    (-1, 1, -1),
    (1, -1, -1),
)


@dataclass(frozen=True)
class CanonicalParams:
    """Interaction coefficients (a, b, c), chamber-reduced."""

    a: float
    b: float
    c: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def entangling_power(self) -> float:
        """1 - cos^2 cos^2 cos^2 - sin^2 sin^2 sin^2 of the doubled triple.

        Ranges over [0, 1]; 1 for perfect entanglers that also maximize the
        average, 0 for local gates and SWAP.
        """
        a2, b2, c2 = 2 * self.a, 2 * self.b, 2 * self.c
        value = (
            1.0
            - math.cos(a2) ** 2 * math.cos(b2) ** 2 * math.cos(c2) ** 2
            - math.sin(a2) ** 2 * math.sin(b2) ** 2 * math.sin(c2) ** 2
        )
        return min(1.0, max(0.0, value))


# Simultaneous eigenvalue signs of (XX, YY, ZZ) on each magic column.
_MAGIC_SIGNS = ((1, -1, 1), (-1, 1, 1), (-1, -1, -1), (1, 1, -1))


def canonical_gate(a: float, b: float, c: float) -> np.ndarray:
    """exp(i(a XX + b YY + c ZZ)); the three terms commute."""
    phases = [
        cmath.exp(1j * (sx * a + sy * b + sz * c)) for sx, sy, sz in _MAGIC_SIGNS
    ]
    return MAGIC @ np.diag(phases) @ dagger(MAGIC)


def _special_unitary(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u / det ** 0.25


def _local_invariants(su: np.ndarray) -> tuple[complex, complex]:
    m = dagger(MAGIC) @ su @ MAGIC
    gram = m.T @ m
    t = np.trace(gram)
    return (t * t / 16.0, (t * t - np.trace(gram @ gram)) / 4.0)


def local_invariants(u: np.ndarray) -> tuple[complex, complex]:
    """The two numbers conserved by one-qubit gates on either side."""
    if u.shape != (4, 4) or not is_unitary(u):
        raise ValueError("expected a 4x4 unitary")
    return _local_invariants(_special_unitary(np.asarray(u, dtype=complex)))


def _fold(x: float) -> float:
    """Reduce a coefficient into (-pi/4, pi/4] by half-pi shifts."""
    y = (x + _QUARTER) % _HALF - _QUARTER
    if y <= -_QUARTER + 1e-14:
        y = _QUARTER
    return y


def _chamber_candidates(a: float, b: float, c: float):
    """Orbit of a triple under the moves that preserve the local class."""
    for perm in itertools.permutations((a, b, c)):
        for flips in _EVEN_FLIPS:
            first = tuple(_fold(s * x) for s, x in zip(flips, perm))
            for flips2 in _EVEN_FLIPS:
                yield tuple(_fold(s * x) for s, x in zip(flips2, first))


def _reduce_to_chamber(a: float, b: float, c: float, tol: float = 1e-9):
    best = None
    for cand in _chamber_candidates(a, b, c):
        x, y, z = cand
        if x >= y - tol and y >= abs(z) - tol:
            folded = (x, y, abs(z))
            if best is None or folded > best:
                best = folded
    if best is None:
        raise AssertionError("chamber reduction found no representative")
    return best


def canonical_params(u: np.ndarray, tol: float = 1e-8) -> CanonicalParams:
    """Recover the interaction triple of a two-qubit gate.

    Works from the eigenphases of m^T m in the magic basis; every
    assignment of phases to the linear system is tried and kept only if a
    gate rebuilt from the solved triple reproduces the local invariants.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u):
        raise ValueError("expected a 4x4 unitary")
    su = _special_unitary(u)
    target = _local_invariants(su)
    m = dagger(MAGIC) @ su @ MAGIC
    phases = np.angle(np.linalg.eigvals(m.T @ m)) / 2.0
    for combo in itertools.permutations(range(4), 3):
        for shifts in itertools.product((0.0, math.pi), repeat=3):
            l1 = phases[combo[0]] + shifts[0]
            l2 = phases[combo[1]] + shifts[1]
            l4 = phases[combo[2]] + shifts[2]
            a = (l1 + l4) / 2.0
            b = (l2 + l4) / 2.0
            c = (l1 + l2) / 2.0
            rebuilt = _local_invariants(canonical_gate(a, b, c))
            if abs(rebuilt[0] - target[0]) <= tol and abs(rebuilt[1] - target[1]) <= tol:
                x, y, z = _reduce_to_chamber(a, b, c)
                return CanonicalParams(x, y, z)
    raise AssertionError("no phase assignment reproduced the local invariants")


def entangling_power(u: np.ndarray) -> float:
    """Entangling power of a two-qubit gate; see CanonicalParams.entangling_power."""
    return canonical_params(u).entangling_power()


def _resource_states(phi: float) -> tuple[np.ndarray, np.ndarray]:
    flipped = bell_state(1, 0)
    rotated = kron(I2, phase_shift(2 * phi)) @ EPR
    return flipped, rotated


def braid_projector_forms(phi: float) -> dict[str, float]:
    """Residuals of the two projector expansions of the braid gate.

    The first writes the gate as a unitary part plus a scaled projector;
    the second absorbs everything into five Bell-type dyads.  Also checks
    that the unitary part is actually unitary.
    """
    b = yb_gate(phi)
    e = tl_projector(0, 0, phi)
    flipped, rotated = _resource_states(phi)
    u_tilde = B_GLOBAL_PHASE * np.eye(4) + math.sqrt(2) * (
        outer(flipped, flipped) + outer(rotated, rotated)
    )
    first = float(np.max(np.abs(b - (u_tilde + 2j * B_GLOBAL_PHASE * e))))
    second_form = B_GLOBAL_PHASE * (
        np.eye(4)
        - outer(flipped, flipped)
        - outer(rotated, rotated)
        - cmath.exp(-1j * phi) * outer(rotated, flipped)
        + cmath.exp(1j * phi) * outer(flipped, rotated)
    )
    second = float(np.max(np.abs(b - second_form)))
    unitary_part = float(
        np.max(np.abs(u_tilde @ dagger(u_tilde) - np.eye(4)))
    )
    return {"projector-sum": first, "dyad-sum": second, "unitary-part": unitary_part}
