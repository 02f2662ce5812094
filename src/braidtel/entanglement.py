"""Nonlocal content of two-qubit gates.

Every two-qubit unitary is locally equivalent to exp(i(a XX + b YY + c ZZ))
for a real triple in the Weyl alcove (Kraus & Cirac, PRA 63, 062309, 2001;
Zhang, Vala, Sastry & Whaley, PRA 67, 042313, 2003).  With m the special
unitary written in the magic basis, the eigenvalues of m^T m are
exp(2i(a - b + c)), exp(2i(-a + b + c)), exp(-2i(a + b + c)) and
exp(2i(a + b - c)), so the triple is read off three halved eigenphases in
closed form.  Any order of the eigenvalues, and any pi on a halved phase,
only permutes the triple, flips an even number of its signs or shifts two
coefficients by pi/2; all are local moves, so folding each coefficient into
(-pi/4, pi/4] and sorting the magnitudes gives the chamber point
pi/4 >= a >= b >= c >= 0 (chirality is folded away; the mirror class with
c < 0 shares all quantities computed here).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .linalg import dagger, frozen, identity, is_unitary, max_abs_diff, outer
from .gates import B_GLOBAL_PHASE, bell_state, phase_shift, reduced_phase, state_with_gate, tl_projector, yb_gate

# Columns are the Bell-phase states; conjugating into this basis turns the
# canonical exponential into a diagonal matrix.
MAGIC = frozen(
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
_MAGIC_DAGGER = frozen(dagger(MAGIC))

_QUARTER = math.pi / 4
_HALF = math.pi / 2

class CanonicalParams(NamedTuple):
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
    return MAGIC @ np.diag(phases) @ _MAGIC_DAGGER


def _special_unitary(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u / det ** 0.25


def _magic_gram(su: np.ndarray) -> np.ndarray:
    """m^T m, with m the special unitary su written in the magic basis."""
    m = _MAGIC_DAGGER @ su @ MAGIC
    return m.T @ m


def _local_invariants(gram: np.ndarray) -> tuple[complex, complex]:
    """The two local invariants of a gate, read off its _magic_gram."""
    t = np.trace(gram)
    return (t * t / 16.0, (t * t - np.trace(gram @ gram)) / 4.0)


def _fold(x: float) -> float:
    """Reduce a coefficient into (-pi/4, pi/4] by half-pi shifts."""
    y = (x + _QUARTER) % _HALF - _QUARTER
    if y <= -_QUARTER + 1e-14:
        y = _QUARTER
    return float(y)


def canonical_params(u: np.ndarray) -> CanonicalParams:
    """Recover the chamber-reduced interaction triple of a two-qubit gate.

    Three of the halved eigenphases l1, l2, l4 of m^T m, in the order the
    solver returns them, give (a, b, c) = ((l1 + l4)/2, (l2 + l4)/2,
    (l1 + l2)/2); det(m^T m) = 1 fixes the fourth.  Any other order or pi
    branch is a local move of that triple (see the module docstring), so a
    gate rebuilt from it must share the local invariants of u; that is
    checked once, to 1e-8, and the folded magnitudes are sorted into the chamber.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u):
        raise ValueError("expected a 4x4 unitary")
    gram = _magic_gram(_special_unitary(u))
    target = _local_invariants(gram)
    l1, l2, _, l4 = np.angle(np.linalg.eigvals(gram)) / 2.0
    a, b, c = (l1 + l4) / 2.0, (l2 + l4) / 2.0, (l1 + l2) / 2.0
    rebuilt = _local_invariants(_magic_gram(canonical_gate(a, b, c)))
    if abs(rebuilt[0] - target[0]) > 1e-8 or abs(rebuilt[1] - target[1]) > 1e-8:
        raise AssertionError("the eigenphase triple does not reproduce the local invariants")
    return CanonicalParams(*sorted((abs(_fold(x)) for x in (a, b, c)), reverse=True))


def entangling_power(u: np.ndarray) -> float:
    """Entangling power of a two-qubit gate; see CanonicalParams.entangling_power."""
    return canonical_params(u).entangling_power()


_FLIPPED = frozen(bell_state(1, 0))  # |psi(10)>, the phi-free dyad of both expansions


def braid_projector_forms(phi: float) -> dict[str, float]:
    """Residuals of the two projector expansions of the braid gate.

    The first writes the gate as a unitary part plus a scaled projector;
    the second absorbs everything into five Bell-type dyads.  Also checks
    that the unitary part is actually unitary.
    """
    b = yb_gate(phi)
    e = tl_projector(0, 0, phi)
    flipped, rotated = _FLIPPED, state_with_gate(phase_shift(2 * reduced_phase(phi)))
    u_tilde = B_GLOBAL_PHASE * np.eye(4) + math.sqrt(2) * (
        outer(flipped, flipped) + outer(rotated, rotated)
    )
    first = max_abs_diff(b, u_tilde + 2j * B_GLOBAL_PHASE * e)
    second_form = B_GLOBAL_PHASE * (
        np.eye(4)
        - outer(flipped, flipped)
        - outer(rotated, rotated)
        - cmath.exp(-1j * phi) * outer(rotated, flipped)
        + cmath.exp(1j * phi) * outer(flipped, rotated)
    )
    second = max_abs_diff(b, second_form)
    unitary_part = max_abs_diff(u_tilde @ dagger(u_tilde), identity(4))
    return {"projector-sum": first, "dyad-sum": second, "unitary-part": unitary_part}
