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
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    STRICT_TOL,
    conj,
    dagger,
    frozen,
    identity,
    is_unitary,
    mat,
    max_abs_diff,
    outer,
    transpose,
)
from .gates import B_EIGENVALUES, bell_state, m_gate, pauli_w, state_with_gate
from .teleport import BIT_PAIRS, _bell_like_corrections, _bell_like_kets, _flow_residual, probe_states

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
        """The W_ij basis, one read-only instance per process."""
        return _pauli_basis()

    @classmethod
    def bell_like(cls, phi: float) -> "UnitaryBasis":
        return cls({(i, j): m_gate(i, j, phi) for i, j in BIT_PAIRS})

    def state(self, i: int, j: int) -> np.ndarray:
        return state_with_gate(self.u[(i, j)])

    def orthonormality_residual(self) -> float:
        u = np.stack([np.asarray(self.u[p], dtype=complex) for p in BIT_PAIRS])
        gram = 0.5 * np.einsum("bji,aji->ab", conj(u), u)  # (1/2) tr(U_b^dag U_a)
        return max_abs_diff(gram, identity(4))


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


@functools.lru_cache(maxsize=None)
def _pauli_basis() -> UnitaryBasis:
    return UnitaryBasis(MappingProxyType({(i, j): frozen(pauli_w(i, j)) for i, j in BIT_PAIRS}))


def _states(basis: UnitaryBasis) -> np.ndarray:
    return np.stack([basis.state(*p) for p in BIT_PAIRS])


@functools.lru_cache(maxsize=None)
def _pauli_states() -> np.ndarray:
    """The four states of the shared Pauli basis as rows, once per process and read-only."""
    return frozen(_states(_pauli_basis()))


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
        if mat4.shape != (4, 4):
            raise ValueError(f"expected a 4x4 coefficient array, got shape {mat4.shape}")
        return cls({
            (a, b): complex(mat4[2 * a[0] + a[1], 2 * b[0] + b[1]])
            for a in BIT_PAIRS for b in BIT_PAIRS
        })

    def matrix(self) -> np.ndarray:
        """The 4x4 array from_matrix reads, indexed by flattened bit pairs."""
        return np.array([[self.g[(a, b)] for b in BIT_PAIRS] for a in BIT_PAIRS], dtype=complex)

    def assemble(self, basis: UnitaryBasis) -> np.ndarray:
        """sum g_ab |Psi_a><Psi_b|, as S^T G conj(S) with the states as rows of S."""
        states = _pauli_states() if basis is _pauli_basis() else _states(basis)
        return transpose(states) @ self.matrix() @ conj(states)

    def is_gate(self, basis: UnitaryBasis, tol: float = DEFAULT_TOL) -> bool:
        return is_unitary(self.assemble(basis), tol)


def _constraint_table(g: np.ndarray, forms, scale: float = 0.5):
    """Residuals of the four quadratic constraints for a coefficient matrix.

    g is the 4x4 coefficient matrix (GateCoefficients.matrix) and forms the
    stacked tables (left, mid, right, rhs), each of shape (4 constraints,
    4 pairs, 2, 2).  At constraint e and free index a the constraint is
    scale sum_{b,c,d} g[a,b] g[c,d] left[e,c] mid[e,b] right[e,d] = rhs[e,a],
    contracted in two steps:
        t[e,i,j,k,l] = sum_{c,d} g[c,d] left[e,c,i,j] right[e,d,k,l]
        s[e,a,i,l] = sum_{b,j,k} g[a,b] mid[e,b,j,k] t[e,i,j,k,l]
    (a single five-operand einsum runs without a contraction path and is
    slower than the loop it replaced).  Returns {constraint id: {pair:
    max-entry residual of scale s - rhs}}.
    """
    left, mid, right, rhs = forms
    t = np.einsum("cd,ecij,edkl->eijkl", g, left, right)
    cells = scale * np.einsum("ab,ebjk,eijkl->eail", g, mid, t) - rhs
    worst = np.abs(cells).max(axis=(2, 3))
    return {c: dict(zip(BIT_PAIRS, row)) for c, row in zip(CONSTRAINT_IDS, worst.tolist())}


def _chain_forms(a, b, c, d):
    """Stacked constraint tables from four (4, 2, 2) per-pair factor tables.

    The constraints chain a.d.c, b.c.d, a.b.c and b.a.d; each right-hand
    side is the middle factor at the free index.
    """
    mid = np.stack((d, c, b, a))
    return np.stack((a, b, a, b)), mid, np.stack((c, d, c, d)), mid


def _stacked_basis(basis: UnitaryBasis, m: int, n: int):
    """The basis gates as one (4, 2, 2) array, and U_mn."""
    u = np.stack([np.asarray(basis.u[p], dtype=complex) for p in BIT_PAIRS])
    return u, u[2 * m + n]


def _u_forms(basis: UnitaryBasis, m: int, n: int):
    """The constraints in the U_ab notation, each factor pair multiplied out."""
    u, umn = _stacked_basis(basis, m, n)
    return _chain_forms(dagger(umn) @ u, conj(umn) @ transpose(u),
                        dagger(u) @ umn, conj(u) @ transpose(umn))


def _o_forms(basis: UnitaryBasis, m: int, n: int):
    """The same constraints through O_ab = U_mn^dag U_ab and its skew-transpose."""
    u, umn = _stacked_basis(basis, m, n)
    o = dagger(umn) @ u
    ost = skew_transpose(dagger(umn), u)
    return _chain_forms(o, ost, dagger(o), dagger(ost))


@functools.lru_cache(maxsize=None)
def _pauli_forms(m: int, n: int):
    """Stacked U-notation tables of the Pauli basis, shared read-only."""
    return tuple(frozen(t) for t in _u_forms(UnitaryBasis.pauli(), m, n))


def concrete_constraint_residuals(phi: float, lambdas=None):
    """Residuals of the four quadratic constraints for the concrete basis.

    Uses the phase-angle basis gates and the braid-gate eigenvalues; the
    lambdas override exists so a broken premise can be fed in on purpose.
    Returns {constraint id: {(i,j): max-entry residual}}.
    """
    lam = dict(B_EIGENVALUES if lambdas is None else lambdas)
    m = np.stack([m_gate(*p, phi) for p in BIT_PAIRS])
    m00 = m[0]
    mt, mc, md = transpose(m), conj(m), dagger(m)
    forms = (
        np.stack((m, mt, m, mt)),
        np.stack((mc @ transpose(m00), md @ m00, conj(m00) @ mt, dagger(m00) @ m)),
        np.stack((md, mc, md, mc)),
        2.0 * np.stack((m00 @ mc, transpose(m00) @ md, mt @ dagger(m00), m @ conj(m00))),
    )
    return _constraint_table(GateCoefficients.diagonal(lam).matrix(), forms, scale=1.0)


def projector_teleportation_residuals(phi: float, seed: int = 42) -> dict[int, float]:
    """The four state-level identities tied to the quadratic constraints.

    Identities 1 and 2 are ket equations moving an unknown state across the
    Bell-like resource in either direction; 3 and 4 are their bra
    counterparts, the same equations with every ket, probe and correction
    conjugated.  Conjugation is exact in floating point, so 3 and 4 return
    the same bits as 1 and 2: they restate the bra form, they add no
    independent check.  Residuals are worst 2-norms over a probe set.
    """
    kets, probes = _bell_like_kets(phi), probe_states(seed)
    flows = np.stack(_bell_like_corrections(phi))  # the front and mirror corrections
    values = [
        _flow_residual(v, gates, x, front)
        for v, x, stacks in ((kets, probes, flows), (conj(kets), conj(probes), conj(flows)))
        for front, gates in zip((True, False), stacks)
    ]
    return dict(zip(CONSTRAINT_IDS, values))


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
    forms = _pauli_forms(m, n) if basis is _pauli_basis() else _u_forms(basis, m, n)
    return _constraint_table(coeffs.matrix(), forms)


def skew_transpose(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Transpose both factors of a product without swapping them."""
    return transpose(b) @ transpose(c)


def skew_agreement_deviation(basis: UnitaryBasis, assignment_or_coeffs,
                             m: int, n: int) -> float:
    """Largest cell-wise gap between the O-notation and original residuals."""
    coeffs = assignment_or_coeffs
    if not isinstance(coeffs, GateCoefficients):
        coeffs = GateCoefficients.diagonal(coeffs)
    g = coeffs.matrix()
    original = _constraint_table(g, _u_forms(basis, m, n))
    simplified = _constraint_table(g, _o_forms(basis, m, n))
    return max(abs(original[c][p] - simplified[c][p]) for c in CONSTRAINT_IDS for p in BIT_PAIRS)


def eigenvalue_sum(assignment, m: int, n: int) -> complex:
    """(1/2) mu_mn sum_kl mu_kl; equals 1 whenever the constraints hold."""
    mu = _as_mu(assignment)
    return 0.5 * mu[(m, n)] * sum(mu[p] for p in BIT_PAIRS)


def scalar_system_residual(assignment, m: int, n: int) -> float:
    """Residual of the scalar eigenvalue system sum mu mu (sign) = 2."""
    mu = _as_mu(assignment)
    worst = 0.0
    for ij, row in zip(BIT_PAIRS, _pauli_signs(m, n).tolist()):
        total = sum(mu[ij] * mu[kl] * sign for kl, sign in zip(BIT_PAIRS, row))
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

# mu_00 = exp(i phi); the other three entries take every (sign, frequency)
_PATTERNS = tuple(
    ((1, 1),) + tail
    for tail in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=3)
)


@functools.lru_cache(maxsize=None)
def _pauli_chain(m: int, n: int):
    """Read-only Pauli chain[c, p, q] = left[q] mid[p] right[q], shape (4, 4, 4, 2, 2), and rhs."""
    left, mid, right, rhs = _pauli_forms(m, n)
    return frozen(np.einsum("eqij,epjk,eqkl->epqil", left, mid, right)), rhs


@functools.lru_cache(maxsize=None)
def _pauli_signs(m: int, n: int) -> np.ndarray:
    """The scalar system's 4x4 sign matrix, (1/2) tr(rhs[p]^dag chain[p, q]) of constraint 1."""
    chain, rhs = _pauli_chain(m, n)
    values = 0.5 * np.einsum("pil,pqil->pq", conj(rhs[0]), chain[0])
    signs = np.round(values.real)
    if max_abs_diff(values, signs) > STRICT_TOL or not np.all(np.abs(signs) == 1):
        raise AssertionError("scalar reduction does not produce a sign")
    return frozen(signs.astype(int))


def _pattern_residuals(m: int, n: int, phis=_SAMPLE_PHIS, patterns=_PATTERNS) -> np.ndarray:
    """Worst Pauli-basis constraint residual of each sign pattern at each phi.

    With g diagonal the constraint at free index p reads
    (1/2) mu_p sum_q mu_q chain[c, p, q] = rhs[c, p], so every pattern and
    phi is tested in one einsum over mu.  Returns shape (len(patterns), len(phis)).
    """
    chain, rhs = _pauli_chain(m, n)
    signs, freqs = np.array(patterns).transpose(2, 0, 1)
    mu = (signs[:, None] * np.exp(1j * freqs[:, None] * np.asarray(phis)[:, None])).reshape(-1, 4)
    cells = 0.5 * np.einsum("xp,xq,cpqij->xcpij", mu, mu, chain) - rhs
    return np.abs(cells).max(axis=(1, 2, 3, 4)).reshape(len(patterns), len(phis))


@functools.lru_cache(maxsize=None)
def _solved_classes(m: int, n: int, tol: float) -> tuple[SolutionClass, ...]:
    passed = (_pattern_residuals(m, n) <= tol).all(axis=1)
    unique = {}  # survivors keyed by their rounded mu at _DEDUP_PHI
    for pattern in itertools.compress(_PATTERNS, passed):
        mu = SolutionClass(0, (m, n), (-1) ** n, pattern).mu_of_phi(_DEDUP_PHI).values()
        unique.setdefault(tuple(round(x, 12) for v in mu for x in (v.real, v.imag)), pattern)
    ordered = sorted(unique.items(), reverse=True)
    return tuple(SolutionClass(idx, (m, n), (-1) ** n, pattern)
                 for idx, (_, pattern) in enumerate(ordered, start=1))


def solve_pauli_eigenvalues(m: int, n: int, tol: float = DEFAULT_TOL
                            ) -> list[SolutionClass]:
    """Enumerate sign-pattern solutions of the Pauli-basis constraints.

    mu_00 is normalized to exp(i phi); the remaining entries range over
    all sign and frequency choices.  A pattern survives only if all four
    constraints hold at every sampled phi.  Surviving patterns are
    deduplicated by their value at phi=0.3 and sorted by that value,
    flattened to (real, imag) pairs, in descending order.

    Three samples decide the identity exactly.  With Pauli factors every
    chain and right-hand side is constant in phi, and mu_p mu_q =
    s_p s_q z^(f_p + f_q) with z = exp(i phi), so each constraint entry is
    a Laurent polynomial A z^-2 + B + C z^2.  Times z^2 it is a quadratic in
    w = z^2, which vanishes identically once it vanishes at three distinct
    w; phi = 0.3, 0.7 and 1.9 give three distinct exp(2 i phi).  The classes
    are computed once per (m, n, tol); each call returns a fresh list.
    """
    if (m, n) not in BIT_PAIRS:
        raise ValueError("base index must be a bit pair")
    return list(_solved_classes(m, n, tol))


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
