"""Tangle-relation constraints on Bell-like bases, and their solutions.

The tangle relations that couple the rank-one projector to the braid gate
reduce, on two qubits, to quadratic matrix constraints on the one-qubit
basis gates that label the Bell-like states.  This module evaluates those
constraints for the concrete basis, for arbitrary orthonormal bases with a
spectral eigenvalue assignment, and for a general 16-coefficient gate; it
also solves the Pauli-basis eigenvalue system by sign-pattern enumeration
and rebuilds the resulting projector/gate pairs.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    STRICT_TOL,
    conj,
    dagger,
    kron,
    mat,
    max_abs_diff,
    mul,
    outer,
    transpose,
)
from .gates import EPR, I2, B_EIGENVALUES, bell_state, m_gate, pauli_w
from .teleport import BIT_PAIRS

CONSTRAINT_IDS = (1, 2, 3, 4)


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Four one-qubit gates labelling an orthonormal Bell-like basis.

    Orthonormality means (1/2) tr(U_ab^dag U_cd) = delta delta; it makes
    the four states (1 x U_ij)|Psi> an orthonormal two-qubit basis.
    """

    u: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        missing = [p for p in BIT_PAIRS if p not in self.u]
        if missing:
            raise ValueError(f"basis is missing entries {missing}")
        res = self.orthonormality_residual()
        if res > DEFAULT_TOL:
            raise ValueError(f"basis is not orthonormal, residual {res:.3e}")

    @classmethod
    def pauli(cls) -> "UnitaryBasis":
        return cls({(i, j): pauli_w(i, j) for i, j in BIT_PAIRS})

    @classmethod
    def bell_like(cls, phi: float) -> "UnitaryBasis":
        return cls({(i, j): m_gate(i, j, phi) for i, j in BIT_PAIRS})

    def state(self, i: int, j: int) -> np.ndarray:
        return kron(I2, self.u[(i, j)]) @ EPR

    def orthonormality_residual(self) -> float:
        worst = 0.0
        for a in BIT_PAIRS:
            for b in BIT_PAIRS:
                value = 0.5 * np.trace(dagger(self.u[b]) @ self.u[a])
                want = 1.0 if a == b else 0.0
                worst = max(worst, abs(value - want))
        return float(worst)


@dataclass(frozen=True, eq=False)
class EigenAssignment:
    """Eigenvalues, one per basis label, for a spectral-sum gate."""

    mu: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        missing = [p for p in BIT_PAIRS if p not in self.mu]
        if missing:
            raise ValueError(f"assignment is missing entries {missing}")

    def unimodularity_residual(self) -> float:
        return max(abs(abs(self.mu[p]) - 1.0) for p in BIT_PAIRS)

    def values(self) -> tuple[complex, ...]:
        return tuple(complex(self.mu[p]) for p in BIT_PAIRS)


def _as_mu(assignment) -> dict[tuple[int, int], complex]:
    if isinstance(assignment, EigenAssignment):
        return {p: complex(assignment.mu[p]) for p in BIT_PAIRS}
    return {p: complex(assignment[p]) for p in BIT_PAIRS}


@dataclass(frozen=True, eq=False)
class GateCoefficients:
    """16 coefficients of a two-qubit gate expanded over a Bell-like basis.

    g maps ((i,j),(k,l)) to the coefficient of |Psi_ij><Psi_kl|.
    """

    g: Mapping[tuple[tuple[int, int], tuple[int, int]], complex]

    def __post_init__(self):
        missing = [
            (a, b) for a in BIT_PAIRS for b in BIT_PAIRS if (a, b) not in self.g
        ]
        if missing:
            raise ValueError(f"coefficients are missing entries {missing[:4]}...")

    @classmethod
    def diagonal(cls, assignment) -> "GateCoefficients":
        mu = _as_mu(assignment)
        return cls({(a, b): mu[a] if a == b else 0.0 for a in BIT_PAIRS for b in BIT_PAIRS})

    @classmethod
    def from_matrix(cls, mat4: np.ndarray) -> "GateCoefficients":
        """Read coefficients off a 4x4 array indexed by flattened bit pairs."""
        mat4 = np.asarray(mat4, dtype=complex)
        return cls({
            (a, b): complex(mat4[2 * a[0] + a[1], 2 * b[0] + b[1]])
            for a in BIT_PAIRS for b in BIT_PAIRS
        })

    def assemble(self, basis: UnitaryBasis) -> np.ndarray:
        total = np.zeros((4, 4), dtype=complex)
        for a in BIT_PAIRS:
            for b in BIT_PAIRS:
                total += self.g[(a, b)] * outer(basis.state(*a), basis.state(*b))
        return total

    def is_gate(self, basis: UnitaryBasis, tol: float = DEFAULT_TOL) -> bool:
        g = self.assemble(basis)
        return bool(np.max(np.abs(g @ dagger(g) - np.eye(4))) <= tol)


def _constraint_table(g, forms, scale: float = 0.5):
    """Residuals of the four quadratic constraints for a coefficient table.

    forms maps each constraint id to per-pair tables (left, mid, right, rhs);
    the first three hold factor tuples.  At free index ij1 the constraint is
    sum scale g[ij1,kl1] g[ij2,kl2] left[ij2] mid[kl1] right[kl2] = rhs[ij1],
    summed over the non-zero coefficient pairs in lexicographic order.
    Returns {constraint id: {ij1: max-entry residual}}.
    """
    terms = [(a, b, g[(a, b)]) for a in BIT_PAIRS for b in BIT_PAIRS if g[(a, b)] != 0]
    table: dict[int, dict[tuple[int, int], float]] = {}
    for c, (left, mid, right, rhs) in forms.items():
        table[c] = {}
        for ij1 in BIT_PAIRS:
            acc = np.zeros((2, 2), dtype=complex)
            for row, kl1, g1 in terms:
                if row != ij1:
                    continue
                for ij2, kl2, g2 in terms:
                    acc += scale * g1 * g2 * mul(*left[ij2], *mid[kl1], *right[kl2])
            table[c][ij1] = max_abs_diff(acc, rhs[ij1])
    return table


def _chain_forms(a, b, c, d):
    """Constraint tables from four per-pair factor tables.

    The constraints chain a.d.c, b.c.d, a.b.c and b.a.d; each right-hand
    side is the product of the middle factors at the free index.
    """
    def product(t):
        return {p: mul(*t[p]) for p in BIT_PAIRS}

    return {
        1: (a, d, c, product(d)),
        2: (b, c, d, product(c)),
        3: (a, b, c, product(b)),
        4: (b, a, d, product(a)),
    }


def _u_forms(basis: UnitaryBasis, m: int, n: int):
    """The constraints in the U_ab notation, with U_mn as separate factors."""
    u = {p: np.asarray(basis.u[p], dtype=complex) for p in BIT_PAIRS}
    umn = u[(m, n)]
    return _chain_forms(
        {p: (dagger(umn), u[p]) for p in BIT_PAIRS},
        {p: (conj(umn), transpose(u[p])) for p in BIT_PAIRS},
        {p: (dagger(u[p]), umn) for p in BIT_PAIRS},
        {p: (conj(u[p]), transpose(umn)) for p in BIT_PAIRS},
    )


def _o_forms(basis: UnitaryBasis, m: int, n: int):
    """The same constraints through O_ab = U_mn^dag U_ab and its skew-transpose."""
    u = {p: np.asarray(basis.u[p], dtype=complex) for p in BIT_PAIRS}
    umn = u[(m, n)]
    o = {p: dagger(umn) @ u[p] for p in BIT_PAIRS}
    ost = {p: skew_transpose(dagger(umn), u[p]) for p in BIT_PAIRS}
    return _chain_forms(
        {p: (o[p],) for p in BIT_PAIRS},
        {p: (ost[p],) for p in BIT_PAIRS},
        {p: (dagger(o[p]),) for p in BIT_PAIRS},
        {p: (dagger(ost[p]),) for p in BIT_PAIRS},
    )


@functools.lru_cache(maxsize=None)
def _pauli_forms(m: int, n: int):
    """U-notation tables of the Pauli basis, shared by every caller; never mutated."""
    return _u_forms(UnitaryBasis.pauli(), m, n)


def concrete_constraint_residuals(phi: float, lambdas=None):
    """Residuals of the four quadratic constraints for the concrete basis.

    Uses the phase-angle basis gates and the braid-gate eigenvalues; the
    lambdas override exists so a broken premise can be fed in on purpose.
    Returns {constraint id: {(i,j): max-entry residual}}.
    """
    lam = dict(B_EIGENVALUES if lambdas is None else lambdas)
    m = {p: m_gate(*p, phi) for p in BIT_PAIRS}
    m00 = m[(0, 0)]

    def constraint(*rules):
        """(left, mid, right, rhs) tables, each rule applied to every M_ij."""
        return tuple({p: rule(m[p]) for p in BIT_PAIRS} for rule in rules)

    forms = {
        1: constraint(lambda a: (a,), lambda a: (conj(a), transpose(m00)),
                      lambda a: (dagger(a),), lambda a: 2.0 * m00 @ conj(a)),
        2: constraint(lambda a: (transpose(a),), lambda a: (dagger(a), m00),
                      lambda a: (conj(a),), lambda a: 2.0 * transpose(m00) @ dagger(a)),
        3: constraint(lambda a: (a,), lambda a: (conj(m00), transpose(a)),
                      lambda a: (dagger(a),), lambda a: 2.0 * transpose(a) @ dagger(m00)),
        4: constraint(lambda a: (transpose(a),), lambda a: (dagger(m00), a),
                      lambda a: (conj(a),), lambda a: 2.0 * a @ conj(m00)),
    }
    return _constraint_table(GateCoefficients.diagonal(lam).g, forms, scale=1.0)


def projector_teleportation_residuals(phi: float, seed: int = 42) -> dict[int, float]:
    """The four state-level identities tied to the quadratic constraints.

    Two are ket equations moving an unknown state across the Bell-like
    resource; the other two are their bra counterparts.  Residuals are
    worst-case norms over a probe set.
    """
    from .teleport import probe_states

    m = {p: m_gate(*p, phi) for p in BIT_PAIRS}
    states = {p: kron(I2, m[p]) @ EPR for p in BIT_PAIRS}
    s00 = states[(0, 0)]
    m00 = m[(0, 0)]
    worst = {c: 0.0 for c in CONSTRAINT_IDS}
    for alpha in probe_states(seed):
        lhs1 = kron(alpha, s00)
        rhs1 = sum(
            0.5 * kron(states[p], mul(m00, conj(m[p])) @ alpha) for p in BIT_PAIRS
        )
        lhs2 = kron(s00, alpha)
        rhs2 = sum(
            0.5 * kron(mul(transpose(m00), dagger(m[p])) @ alpha, states[p])
            for p in BIT_PAIRS
        )
        bra = conj(alpha)
        lhs3 = kron(bra, conj(s00))
        rhs3 = sum(
            0.5 * kron(conj(states[p]), bra @ mul(transpose(m[p]), dagger(m00)))
            for p in BIT_PAIRS
        )
        lhs4 = kron(conj(s00), bra)
        rhs4 = sum(
            0.5 * kron(bra @ mul(m[p], conj(m00)), conj(states[p]))
            for p in BIT_PAIRS
        )
        for c, (lhs, rhs) in enumerate(
            ((lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3), (lhs4, rhs4)), start=1
        ):
            worst[c] = max(worst[c], float(np.linalg.norm(lhs - rhs)))
    return worst


def spectral_constraint_residuals(basis: UnitaryBasis, assignment, m: int, n: int):
    """Constraint residuals for a spectral-sum gate over an arbitrary basis.

    The gate is sum mu_ij |Psi_ij><Psi_ij| and the projector singles out
    the (m,n) basis state.  Returns {constraint id: {(i,j): residual}}.
    """
    return general_constraint_residuals(GateCoefficients.diagonal(assignment), basis, m, n)


def general_constraint_residuals(coeffs: GateCoefficients, basis: UnitaryBasis,
                                 m: int, n: int):
    """Constraint residuals for a 16-coefficient gate expansion.

    Each constraint carries a double sum over coefficient pairs; the free
    index is the first one.  Returns {constraint id: {(i1,j1): residual}}.
    """
    return _constraint_table(coeffs.g, _u_forms(basis, m, n))


def skew_transpose(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Transpose both factors of a product without swapping them."""
    return transpose(b) @ transpose(c)


def skew_agreement_deviation(basis: UnitaryBasis, assignment_or_coeffs,
                             m: int, n: int) -> float:
    """Largest cell-wise gap between the O-notation and original residuals."""
    coeffs = assignment_or_coeffs
    if not isinstance(coeffs, GateCoefficients):
        coeffs = GateCoefficients.diagonal(coeffs)
    original = _constraint_table(coeffs.g, _u_forms(basis, m, n))
    simplified = _constraint_table(coeffs.g, _o_forms(basis, m, n))
    return max(
        abs(original[c][p] - simplified[c][p])
        for c in CONSTRAINT_IDS
        for p in BIT_PAIRS
    )


def skew_transpose_check(basis: UnitaryBasis, assignment_or_coeffs, m: int, n: int,
                         tol: float = STRICT_TOL) -> bool:
    """Confirm the O-notation constraint forms agree with the originals.

    Evaluates both formulations cell by cell and requires the residuals to
    match within tol.
    """
    return skew_agreement_deviation(basis, assignment_or_coeffs, m, n) <= tol


def table_max(table) -> float:
    """Largest residual in a {constraint: {pair: value}} table."""
    return max(table[c][p] for c in table for p in table[c])


def eigenvalue_sum(assignment, m: int, n: int) -> complex:
    """(1/2) mu_mn sum_kl mu_kl; equals 1 whenever the constraints hold."""
    mu = _as_mu(assignment)
    return 0.5 * mu[(m, n)] * sum(mu[p] for p in BIT_PAIRS)


def pauli_scalar_coefficient(i: int, j: int, k: int, l: int,
                             m: int, n: int) -> int:
    """Sign carried by the (k,l) term when the basis gates are X^i Z^j.

    With Pauli basis gates the first constraint collapses to a scalar
    equation per (i,j); this extracts the plus-minus coefficient by a
    trace against the expected right-hand side.
    """
    left, mid, right, rhs = _pauli_forms(m, n)[1]
    chain = mul(*left[(k, l)], *mid[(i, j)], *right[(k, l)])
    value = 0.5 * np.trace(dagger(rhs[(i, j)]) @ chain)
    rounded = int(round(value.real))
    if abs(value - rounded) > STRICT_TOL or rounded not in (-1, 1):
        raise AssertionError("scalar reduction does not produce a sign")
    return rounded


def scalar_system_residual(assignment, m: int, n: int) -> float:
    """Residual of the scalar eigenvalue system sum mu mu (sign) = 2."""
    mu = _as_mu(assignment)
    worst = 0.0
    for ij in BIT_PAIRS:
        total = sum(
            mu[ij] * mu[kl] * pauli_scalar_coefficient(*ij, *kl, m, n)
            for kl in BIT_PAIRS
        )
        worst = max(worst, abs(total - 2.0))
    return float(worst)


@dataclass(frozen=True)
class SolutionClass:
    """A sign-pattern family mu_ij = s_ij exp(i f_ij phi) solving the system.

    pattern holds (s_ij, f_ij) with s, f in {+1,-1}, aligned with the
    lexicographic bit pairs; epsilon records the projector sign (-1)^n.
    """

    class_id: int
    base_index: tuple[int, int]
    epsilon: int
    pattern: tuple[tuple[int, int], ...]

    def mu_of_phi(self, phi: float) -> EigenAssignment:
        table = {}
        for (s, f), p in zip(self.pattern, BIT_PAIRS):
            table[p] = s * cmath.exp(1j * f * phi)
        return EigenAssignment(table)

    def describe(self) -> str:
        bits = []
        for (s, f), p in zip(self.pattern, BIT_PAIRS):
            sign = "+" if s > 0 else "-"
            freq = "+" if f > 0 else "-"
            bits.append(f"mu{p[0]}{p[1]}={sign}e^({freq}i.phi)")
        return ", ".join(bits)


_SAMPLE_PHIS = (0.3, 0.7, 1.9)

_DEDUP_PHI = 0.3


def solve_pauli_eigenvalues(m: int, n: int, tol: float = DEFAULT_TOL
                            ) -> list[SolutionClass]:
    """Enumerate sign-pattern solutions of the Pauli-basis constraints.

    mu_00 is normalized to exp(i phi); the remaining entries range over
    all sign and frequency choices.  A pattern survives only if all four
    constraints hold at every sampled phi.  Surviving patterns are
    deduplicated by their value at phi=0.3 and sorted by that value,
    flattened to (real, imag) pairs, in descending order.
    """
    if (m, n) not in BIT_PAIRS:
        raise ValueError("base index must be a bit pair")
    forms = _pauli_forms(m, n)
    survivors = []
    for tail in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=3):
        pattern = ((1, 1),) + tail
        probe = SolutionClass(0, (m, n), (-1) ** n, pattern)
        if all(
            table_max(_constraint_table(GateCoefficients.diagonal(probe.mu_of_phi(phi)).g, forms))
            <= tol
            for phi in _SAMPLE_PHIS
        ):
            survivors.append(pattern)

    def footprint(pattern):
        values = SolutionClass(0, (m, n), (-1) ** n, pattern).mu_of_phi(_DEDUP_PHI)
        flat = []
        for v in values.values():
            flat.extend((round(v.real, 12), round(v.imag, 12)))
        return tuple(flat)

    unique = {}
    for pattern in survivors:
        unique.setdefault(footprint(pattern), pattern)
    ordered = sorted(unique.items(), key=lambda kv: kv[0], reverse=True)
    return [
        SolutionClass(idx, (m, n), (-1) ** n, pattern)
        for idx, (_, pattern) in enumerate(ordered, start=1)
    ]


def printed_projector(m: int, n: int) -> np.ndarray:
    """Closed form of the Bell-state projector |psi(mn)><psi(mn)|."""
    eps = (-1) ** n
    if m == 0:
        return 0.5 * mat([[1, 0, 0, eps], [0, 0, 0, 0], [0, 0, 0, 0], [eps, 0, 0, 1]])
    return 0.5 * mat([[0, 0, 0, 0], [0, 1, eps, 0], [0, eps, 1, 0], [0, 0, 0, 0]])


def printed_gate_forms(m: int, n: int, phi: float) -> dict[str, np.ndarray]:
    """The closed-form gate matrices that accompany each projector family.

    Keys name the structure: two rotating forms differing by the sign of
    the off-diagonal cosine block, and one exchange form with pure phases.
    """
    eps = (-1) ** n
    c, s = np.cos(phi), np.sin(phi)
    ep, em = cmath.exp(1j * phi), cmath.exp(-1j * phi)
    if m == 0:
        rot_plus = mat([
            [c, 0, 0, 1j * s],
            [0, -1j * eps * s, c, 0],
            [0, c, -1j * eps * s, 0],
            [1j * s, 0, 0, c],
        ])
        rot_minus = mat([
            [c, 0, 0, 1j * s],
            [0, -1j * eps * s, -c, 0],
            [0, -c, -1j * eps * s, 0],
            [1j * s, 0, 0, c],
        ])
        exchange = mat([
            [0, 0, 0, ep],
            [0, eps * em, 0, 0],
            [0, 0, eps * em, 0],
            [ep, 0, 0, 0],
        ])
    else:
        rot_plus = mat([
            [1j * s, 0, 0, c],
            [0, c, -1j * eps * s, 0],
            [0, -1j * eps * s, c, 0],
            [c, 0, 0, 1j * s],
        ])
        rot_minus = mat([
            [1j * s, 0, 0, c],
            [0, -c, -1j * eps * s, 0],
            [0, -1j * eps * s, -c, 0],
            [c, 0, 0, 1j * s],
        ])
        exchange = mat([
            [ep, 0, 0, 0],
            [0, 0, eps * em, 0],
            [0, eps * em, 0, 0],
            [0, 0, 0, ep],
        ])
    return {"rotating:+": rot_plus, "rotating:-": rot_minus, "exchange": exchange}


def build_representation(solution: SolutionClass, phi: float,
                         epsilon: int | None = None):
    """Assemble the projector and gate for a solution class at angle phi.

    Both matrices are built from Bell-state projectors, never by
    eigendecomposition, and are checked against their printed closed
    forms.  Returns (projector 4x4, gate 4x4).
    """
    m, n = solution.base_index
    if epsilon is not None and epsilon != solution.epsilon:
        raise ValueError("epsilon does not match the solution's base index")
    e4 = outer(bell_state(m, n), bell_state(m, n))
    if max_abs_diff(e4, printed_projector(m, n)) > STRICT_TOL:
        raise AssertionError("projector deviates from its closed form")
    mu = solution.mu_of_phi(phi)
    u4 = np.zeros((4, 4), dtype=complex)
    for p in BIT_PAIRS:
        b = bell_state(*p)
        u4 += mu.mu[p] * outer(b, b)
    forms = printed_gate_forms(m, n, phi)
    if all(max_abs_diff(u4, f) > STRICT_TOL for f in forms.values()):
        raise AssertionError("gate deviates from every printed closed form")
    return e4, u4


def matched_form(solution: SolutionClass, phi: float = 0.3) -> str:
    """Name of the printed closed form this solution class reproduces."""
    _, u4 = build_representation(solution, phi)
    forms = printed_gate_forms(*solution.base_index, phi)
    for name, f in forms.items():
        if max_abs_diff(u4, f) <= STRICT_TOL:
            return name
    raise AssertionError("no printed form matched")


def random_gate_coefficients(rng: np.random.Generator) -> GateCoefficients:
    """Coefficients of a Haar-ish random gate in a Bell-like basis."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return GateCoefficients.from_matrix(q)
