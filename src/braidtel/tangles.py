"""Tangle-relation constraints on Bell-like bases, and their solutions.

The tangle relations that couple the rank-one projector to the braid gate
reduce, on two qubits, to quadratic matrix constraints on the one-qubit
basis gates that label the Bell-like states.  This module evaluates those
constraints for the concrete basis, for arbitrary orthonormal bases with a
spectral eigenvalue assignment, and for a general 16-coefficient gate; it
also solves the Pauli-basis eigenvalue system by sign-pattern enumeration
and rebuilds the resulting projector/gate pairs.

The basis is teleport's UnitaryBasis, re-exported here: the concrete
constraints read the same per-phi M_ij instance as the Bell-like protocol,
and the Pauli-basis system the W_ij instance of the standard protocol.

Every per-bit-pair table is a stacked array indexed 2i + j, in BIT_PAIRS
order: the basis gates U_ij, the eigenvalues mu_ij, the rows and columns
of the 4x4 coefficient matrix, and the factor tables of the constraints.
Only the residual tables that the evaluators return are keyed by bit pair.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    STRICT_TOL,
    conj,
    dagger,
    frozen,
    is_unitary,
    mat,
    max_abs_diff,
    outer,
    transpose,
)
from .gates import B_EIGENVALUES, bell_state
from .teleport import BIT_PAIRS, UnitaryBasis, _basis_protocol, _bell_like_protocol, _stack

CONSTRAINT_IDS = (1, 2, 3, 4)


class EigenAssignment(NamedTuple("EigenAssignment", [("mu", np.ndarray)])):
    """Eigenvalues mu[2i + j] = mu_ij, one per basis label, for a spectral-sum gate; compared by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, mu):
        return super().__new__(cls, _stack(mu, (4,), "assignment"))


class GateCoefficients(NamedTuple("GateCoefficients", [("g", np.ndarray)])):
    """16 coefficients of a two-qubit gate expanded over a Bell-like basis; compared by identity.

    g[2i + j, 2k + l] is the coefficient of |Psi_ij><Psi_kl|.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, g):
        return super().__new__(cls, _stack(g, (4, 4), "coefficients"))

    @classmethod
    def diagonal(cls, assignment: EigenAssignment) -> "GateCoefficients":
        return cls(np.diag(assignment.mu))

    def assemble(self, basis: UnitaryBasis) -> np.ndarray:
        """sum g_ab |Psi_a><Psi_b|, as S^T G conj(S) with the states as rows of S."""
        return transpose(basis.states) @ self.g @ conj(basis.states)

    def is_gate(self, basis: UnitaryBasis) -> bool:
        return is_unitary(self.assemble(basis))


def _constraint_table(g: np.ndarray, forms, scale: float = 0.5):
    """Residuals of the four quadratic constraints for a coefficient matrix.

    g is the 4x4 coefficient matrix (GateCoefficients.g) and forms the
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


def _u_forms(basis: UnitaryBasis, m: int, n: int):
    """The constraints in the U_ab notation, each factor pair multiplied out."""
    u, umn = basis.u, basis.u[2 * m + n]
    return _chain_forms(dagger(umn) @ u, conj(umn) @ transpose(u),
                        dagger(u) @ umn, conj(u) @ transpose(umn))


def _o_forms(basis: UnitaryBasis, m: int, n: int):
    """The same constraints through O_ab = U_mn^dag U_ab and its skew-transpose."""
    u, umn = basis.u, basis.u[2 * m + n]
    o = dagger(umn) @ u
    ost = skew_transpose(dagger(umn), u)
    return _chain_forms(o, ost, dagger(o), dagger(ost))


@functools.lru_cache(maxsize=None)
def _pauli_forms(m: int, n: int):
    """Stacked U-notation tables of the Pauli basis, shared read-only."""
    return tuple(frozen(t) for t in _u_forms(UnitaryBasis.pauli(), m, n))


def concrete_constraint_residuals(phi: float):
    """Residuals of the four quadratic constraints for the concrete basis.

    Uses the phase-angle basis gates and the braid-gate eigenvalues.
    Returns {constraint id: {(i,j): max-entry residual}}.
    """
    lam = EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS])
    m = UnitaryBasis.bell_like(phi).u
    m00 = m[0]
    mt, mc, md = transpose(m), conj(m), dagger(m)
    forms = (
        np.stack((m, mt, m, mt)),
        np.stack((mc @ transpose(m00), md @ m00, conj(m00) @ mt, dagger(m00) @ m)),
        np.stack((md, mc, md, mc)),
        2.0 * np.stack((m00 @ mc, transpose(m00) @ md, mt @ dagger(m00), m @ conj(m00))),
    )
    return _constraint_table(GateCoefficients.diagonal(lam).g, forms, scale=1.0)


def projector_teleportation_residuals(phi: float) -> dict[int, float]:
    """The four state-level identities tied to the quadratic constraints.

    Identities 1 and 2 move an unknown state across the Bell-like resource in either direction:
    they are the every_branch of the front flow, the cached _bell_like_protocol(phi) that teleport
    bell-like reads too, and of the mirror flow, _basis_protocol(UnitaryBasis.bell_like(phi), False).
    3 and 4 are their bra forms, with every ket, input and correction conjugated; conjugation is
    exact in floating point, so they are the values of 1 and 2 and add no independent check.
    Residuals are Frobenius norms of the residual maps.
    """
    ket = _bell_like_protocol(phi).every_branch
    mirror = _basis_protocol(UnitaryBasis.bell_like(phi), False).every_branch
    return dict(zip(CONSTRAINT_IDS, (ket, mirror, ket, mirror)))


def spectral_constraint_residuals(basis: UnitaryBasis, assignment: EigenAssignment, m: int, n: int):
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
    forms = _pauli_forms(m, n) if basis is UnitaryBasis.pauli() else _u_forms(basis, m, n)
    return _constraint_table(coeffs.g, forms)


def skew_transpose(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Transpose both factors of a product without swapping them."""
    return transpose(b) @ transpose(c)


def skew_agreement_deviation(basis: UnitaryBasis, coeffs: GateCoefficients, m: int, n: int) -> float:
    """Largest cell-wise gap between the O-notation and original residuals."""
    original = _constraint_table(coeffs.g, _u_forms(basis, m, n))
    simplified = _constraint_table(coeffs.g, _o_forms(basis, m, n))
    return max(abs(original[c][p] - simplified[c][p]) for c in CONSTRAINT_IDS for p in BIT_PAIRS)


def eigenvalue_sum(assignment: EigenAssignment, m: int, n: int) -> complex:
    """(1/2) mu_mn sum_kl mu_kl; equals 1 whenever the constraints hold."""
    mu = assignment.mu.tolist()
    return 0.5 * mu[2 * m + n] * sum(mu)


def scalar_system_residual(assignment: EigenAssignment, m: int, n: int) -> float:
    """Residual of the scalar eigenvalue system sum mu mu (sign) = 2."""
    mu = assignment.mu.tolist()
    worst = 0.0
    for mu_p, row in zip(mu, _pauli_signs(m, n).tolist()):
        total = sum(mu_p * mu_q * sign for mu_q, sign in zip(mu, row))
        worst = max(worst, abs(total - 2.0))
    return float(worst)


class SolutionClass(NamedTuple):
    """A sign-pattern family mu_ij = s_ij exp(i f_ij phi) solving the system.

    pattern holds (s_ij, f_ij) with s, f in {+1,-1}, aligned with the
    lexicographic bit pairs.
    """

    class_id: int
    base_index: tuple[int, int]
    pattern: tuple[tuple[int, int], ...]

    def mu_of_phi(self, phi: float) -> EigenAssignment:
        return EigenAssignment([s * cmath.exp(1j * f * phi) for s, f in self.pattern])

    def describe(self) -> str:
        bits = []
        for (s, f), p in zip(self.pattern, BIT_PAIRS):
            sign = "+" if s > 0 else "-"
            freq = "+" if f > 0 else "-"
            bits.append(f"mu{p[0]}{p[1]}={sign}e^({freq}i.phi)")
        return ", ".join(bits)


_SAMPLE_PHIS = (0.3, 0.7, 1.9)

_ORDER_PHI = 0.3

# mu_00 = exp(i phi); the other three entries take every (sign, frequency)
_PATTERNS = tuple(
    ((1, 1),) + tail
    for tail in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=3)
)


def _pauli_chain(m: int, n: int):
    """The Pauli chain[c, p, q] = left[q] mid[p] right[q], shape (4, 4, 4, 2, 2), and rhs."""
    left, mid, right, rhs = _pauli_forms(m, n)
    return np.einsum("eqij,epjk,eqkl->epqil", left, mid, right), rhs


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
def _solved_classes(m: int, n: int) -> tuple[SolutionClass, ...]:
    passed = (_pattern_residuals(m, n) <= DEFAULT_TOL).all(axis=1)
    survivors = [SolutionClass(0, (m, n), pattern) for pattern in itertools.compress(_PATTERNS, passed)]
    survivors.sort(key=lambda c: c.mu_of_phi(_ORDER_PHI).mu.view(float).tolist(), reverse=True)  # (re, im) pairs
    return tuple(c._replace(class_id=idx) for idx, c in enumerate(survivors, start=1))


def solve_pauli_eigenvalues(m: int, n: int) -> list[SolutionClass]:
    """Enumerate sign-pattern solutions of the Pauli-basis constraints.

    mu_00 is normalized to exp(i phi); the remaining entries range over
    all sign and frequency choices.  A pattern survives only if all four
    constraints hold within DEFAULT_TOL at every sampled phi.  Surviving
    patterns are sorted by their value at phi=0.3, flattened to (real, imag)
    pairs, in descending order; any two patterns differ there by at least
    2 sin 0.3 in some entry, so no two classes tie.

    Three samples decide the identity exactly.  With Pauli factors every
    chain and right-hand side is constant in phi, and mu_p mu_q =
    s_p s_q z^(f_p + f_q) with z = exp(i phi), so each constraint entry is
    a Laurent polynomial A z^-2 + B + C z^2.  Times z^2 it is a quadratic in
    w = z^2, which vanishes identically once it vanishes at three distinct
    w; phi = 0.3, 0.7 and 1.9 give three distinct exp(2 i phi).  The classes
    are computed once per (m, n); each call returns a fresh list.
    """
    if (m, n) not in BIT_PAIRS:
        raise ValueError("base index must be a bit pair")
    return list(_solved_classes(m, n))


def printed_projector(m: int, n: int) -> np.ndarray:
    """Closed form of the Bell-state projector |psi(mn)><psi(mn)|; m = 1 flips the second qubit of m = 0."""
    eps = (-1) ** n
    flip = [m, 1 - m, 2 + m, 3 - m]  # |a b> -> |a, b xor m>
    return (0.5 * mat([[1, 0, 0, eps], [0, 0, 0, 0], [0, 0, 0, 0], [eps, 0, 0, 1]]))[np.ix_(flip, flip)]


def printed_gate_forms(m: int, n: int, phi: float) -> dict[str, np.ndarray]:
    """The closed-form gate matrices that accompany each projector family.

    Keys name the structure: two rotating forms differing by the sign of
    the off-diagonal cosine block, and one exchange form with pure phases.
    The m = 1 forms are the m = 0 forms with their rows reversed, (X x X) F.
    """
    eps = (-1) ** n
    c, s = np.cos(phi), np.sin(phi)
    ep, em = cmath.exp(1j * phi), cmath.exp(-1j * phi)
    rot_plus = mat([
        [c, 0, 0, 1j * s],
        [0, -1j * eps * s, c, 0],
        [0, c, -1j * eps * s, 0],
        [1j * s, 0, 0, c],
    ])
    rot_minus = rot_plus.copy()
    rot_minus[[1, 2], [2, 1]] = -c
    exchange = mat([
        [0, 0, 0, ep],
        [0, eps * em, 0, 0],
        [0, 0, eps * em, 0],
        [ep, 0, 0, 0],
    ])
    forms = {"rotating:+": rot_plus, "rotating:-": rot_minus, "exchange": exchange}
    return {name: f[::-1] if m else f for name, f in forms.items()}


def _matched_name(u4: np.ndarray, forms: dict[str, np.ndarray]) -> str:
    """Name of the first of forms within STRICT_TOL of u4; AssertionError if there is none."""
    for name, f in forms.items():
        if max_abs_diff(u4, f) <= STRICT_TOL:
            return name
    raise AssertionError("gate deviates from every printed closed form")


def build_representation(solution: SolutionClass, phi: float):
    """Assemble the projector and gate for a solution class at angle phi.

    The projector is its Bell state's outer product and the gate the spectral sum
    GateCoefficients.diagonal(mu).assemble over the Pauli basis, never an eigendecomposition;
    both are checked against their printed closed forms.  Returns (projector 4x4, gate 4x4).
    """
    m, n = solution.base_index
    e4 = outer(bell_state(m, n), bell_state(m, n))
    if max_abs_diff(e4, printed_projector(m, n)) > STRICT_TOL:
        raise AssertionError("projector deviates from its closed form")
    u4 = GateCoefficients.diagonal(solution.mu_of_phi(phi)).assemble(UnitaryBasis.pauli())
    _matched_name(u4, printed_gate_forms(m, n, phi))
    return e4, u4


def matched_form(solution: SolutionClass) -> str:
    """Name of the printed closed form this solution class reproduces, read at phi = 0.3."""
    _, u4 = build_representation(solution, 0.3)
    return _matched_name(u4, printed_gate_forms(*solution.base_index, 0.3))
