"""Relation checking for tensor-product braid/Temperley-Lieb representations.

A representation on n sites is the family e_i = 1 (x) E (x) 1 and
b_i = 1 (x) B (x) 1, with a single 4x4 projector E and a 4x4 braid matrix B
on sites (i, i+1).  Every relation is local, so it is evaluated on its
minimal window and never on 2^n x 2^n matrices: relations on one generator
use E and B themselves, relations on adjacent generators use their two
placements on 3 sites (8x8), and far commutators use a disjoint pair on 4
sites (16x16), where they vanish exactly.  On the chain a window relation
reads 1 (x) X (x) 1 = 1 (x) Y (x) 1, and max|1 (x) (X - Y) (x) 1| =
max|X - Y|, so the window residual is the chain residual; every site
carries the same (E, B), so one window residual serves every site.  The
checkers still list one residual per relation and site in RelationReport
records with stable relation-id strings, so reports can be diffed across
runs; the cost no longer grows exponentially with n.

Relation families:
  TL      e^2 = e, e_i e_{i+-1} e_i = d^-2 e_i, far commutation
  Braid   b_i b_{i+-1} b_i = b_{i+-1} b_i b_{i+-1}, far commutation
  Mixed   b - b^-1 = w(1 - d e), e b = b e = sigma e, wing conjugation
  Tangle  b_{i+-1} b_i e_{i+-1} = e_i b_{i+-1} b_i = d e_i e_{i+-1}
  Brauer  the undeformed case: E = EPR projector, B = SWAP, d = 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gates import EPR, I2, bell_state, brauer_projector, permutation_p
from .teleport import BIT_PAIRS, _paired, _transfer_residual, _worst_norm, random_ket
from .linalg import (
    DEFAULT_TOL,
    dagger,
    embed,
    identity,
    is_unitary,
    kron,
    max_abs_diff,
    mul,
    outer,
    transpose,
)


@dataclass(frozen=True)
class BmwParams:
    """The algebra parameters read off a braid matrix spectrum."""

    sigma: complex
    w: complex
    d: float
    lambdas: tuple[complex, complex, complex]  # (lambda1, lambda2, lambda3)

    def constraint_residual(self) -> float:
        """|d - (1 - (sigma - 1/sigma)/w)|, zero for a consistent triple."""
        return abs(self.d - (1 - (self.sigma - 1 / self.sigma) / self.w))


@dataclass
class RelationReport:
    family: str
    site_count: int
    tolerance: float
    entries: list[tuple[str, float]] = field(default_factory=list)

    def add(self, relation_id: str, residual: float) -> None:
        self.entries.append((relation_id, float(residual)))

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def worst(self) -> tuple[str, float]:
        return max(self.entries, key=lambda item: item[1])


@dataclass(frozen=True)
class Representation:
    """Generators e_i = 1 (x) E (x) 1 and b_i = 1 (x) B (x) 1 on n sites.

    Only the 4x4 E and B are stored, with their adjacent placements on a
    3-site window; no 2^n x 2^n generator is ever built, so n is unbounded.
    """

    n: int
    E: np.ndarray
    B: np.ndarray

    @cached_property
    def e_pairs(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{j - i: (e_i, e_j)} for adjacent generators, on their 3-site window."""
        return _pairs(self.E)

    @cached_property
    def b_pairs(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{j - i: (b_i, b_j)} for adjacent generators, on their 3-site window."""
        return _pairs(self.B)


def build_rep(E: np.ndarray, B: np.ndarray, n: int) -> Representation:
    if n < 2:
        raise ValueError(f"sites must be at least 2, got {n}")
    E = np.asarray(E, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if E.shape != (4, 4) or B.shape != (4, 4):
        raise ValueError(f"expected 4x4 E and B, got {E.shape} and {B.shape}")
    return Representation(n=n, E=E, B=B)


def derive_params(B: np.ndarray, tol: float = 1e-8) -> BmwParams:
    """Read (sigma, w, d) off the eigenvalues of a 4x4 braid matrix.

    The matrix must have exactly three distinct eigenvalues.  sigma is the
    one whose complementary pair multiplies to -1; that selection must be
    unique, otherwise the spectrum does not fit the three-eigenvalue
    pattern and we refuse to guess.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {B.shape}")
    eigvals = np.linalg.eigvals(B)
    clusters: list[list[complex]] = []
    for lam in eigvals:
        for cluster in clusters:
            if abs(lam - cluster[0]) <= tol:
                cluster.append(lam)
                break
        else:
            clusters.append([lam])
    if len(clusters) != 3:
        raise ValueError(
            f"expected 3 distinct eigenvalues, found {len(clusters)} "
            f"(tolerance {tol:g})"
        )
    means = [complex(np.mean(c)) for c in clusters]

    candidates = []
    for k in range(3):
        sigma = means[k]
        lam2, lam3 = (means[m] for m in range(3) if m != k)
        if abs(lam2 * lam3 + 1) > tol:
            continue
        w = lam2 + lam3
        if abs(w) <= tol:
            continue
        d = 1 - (sigma - 1 / sigma) / w
        if abs(d.imag) > tol:
            continue
        candidates.append(BmwParams(sigma=sigma, w=w, d=float(d.real), lambdas=(sigma, lam2, lam3)))
    if len(candidates) != 1:
        raise ValueError(
            f"eigenvalue pattern is ambiguous: {len(candidates)} candidate "
            "sigma assignments satisfy lambda2*lambda3 = -1 with real d"
        )
    return candidates[0]


def _inverse(b: np.ndarray) -> np.ndarray:
    # unitary fast path, LU fallback for non-unitary braid matrices
    if is_unitary(b, 1e-12):
        return dagger(b)
    return np.linalg.inv(b)


def _neighbours(n: int) -> list[tuple[int, int]]:
    """Adjacent generator pairs (i, j = i +- 1) on n sites, in report order."""
    return [(i, j) for i in range(1, n) for j in (i + 1, i - 1) if 1 <= j <= n - 1]


def _pairs(op: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{j - i: (x_i, x_j)}: op as adjacent generators i, j on their 3-site window."""
    left, right = embed(op, 1, 3), embed(op, 2, 3)
    return {1: (left, right), -1: (right, left)}


def check_temperley_lieb(rep: Representation, d: float, tol: float = DEFAULT_TOL) -> RelationReport:
    report = RelationReport(family="TL", site_count=rep.n, tolerance=tol)
    E = rep.E
    square = max_abs_diff(E @ E, E)
    for i in range(1, rep.n):
        report.add(f"TL.e{i}^2=e{i}", square)
    dinv2 = 1.0 / (d * d)
    wing = {step: max_abs_diff(mul(ei, ej, ei), dinv2 * ei) for step, (ei, ej) in rep.e_pairs.items()}
    for i, j in _neighbours(rep.n):
        report.add(f"TL.e{i}e{j}e{i}=d^-2.e{i}", wing[j - i])
    _far_commutators(report, "TL", E, "e")
    return report


def check_braid(rep: Representation, tol: float = DEFAULT_TOL) -> RelationReport:
    report = RelationReport(family="Braid", site_count=rep.n, tolerance=tol)
    b1, b2 = rep.b_pairs[1]
    residual = max_abs_diff(mul(b1, b2, b1), mul(b2, b1, b2))
    for i in range(1, rep.n - 1):
        report.add(f"braid.b{i}b{i + 1}b{i}=b{i + 1}b{i}b{i + 1}", residual)
    _far_commutators(report, "braid", rep.B, "b")
    return report


def check_mixed(rep: Representation, params: BmwParams, tol: float = DEFAULT_TOL) -> RelationReport:
    report = RelationReport(family="Mixed", site_count=rep.n, tolerance=tol)
    E, B = rep.E, rep.B
    B_inv = _inverse(B)
    skein = max_abs_diff(B - B_inv, params.w * (identity(4) - params.d * E))
    absorb_left = max_abs_diff(E @ B, params.sigma * E)
    absorb_right = max_abs_diff(B @ E, params.sigma * E)
    for i in range(1, rep.n):
        report.add(f"mixed.b{i}-b{i}^-1=w(1-d.e{i})", skein)
        report.add(f"mixed.e{i}b{i}=sigma.e{i}", absorb_left)
        report.add(f"mixed.b{i}e{i}=sigma.e{i}", absorb_right)
    inverse_pairs = _pairs(B_inv)
    wing = {}
    for step, (ei, ej) in rep.e_pairs.items():
        (_, bj), (bi_inv, _) = rep.b_pairs[step], inverse_pairs[step]
        wing[step] = max_abs_diff(mul(bj, ei, bj), mul(bi_inv, ej, bi_inv))
    for i, j in _neighbours(rep.n):
        report.add(f"mixed.b{j}e{i}b{j}=b{i}^-1e{j}b{i}^-1", wing[j - i])
    return report


def check_tangle(rep: Representation, d: float, tol: float = DEFAULT_TOL) -> RelationReport:
    """Tangle relations on the chain, plus their 3-site matrix forms.

    The chain relations are b_{i+-1} b_i e_{i+-1} = e_i b_{i+-1} b_i
    = d e_i e_{i+-1}.  On 3 sites with local matrices (E, B) they are
    equivalent to four explicit 8x8 identities, which are re-checked
    independently as a guard against index bookkeeping errors.
    """
    report = RelationReport(family="Tangle", site_count=rep.n, tolerance=tol)
    left, right = {}, {}
    for step, (ei, ej) in rep.e_pairs.items():
        bi, bj = rep.b_pairs[step]
        rhs = d * (ei @ ej)
        left[step] = max_abs_diff(mul(bj, bi, ej), rhs)
        right[step] = max_abs_diff(mul(ei, bj, bi), rhs)
    for i, j in _neighbours(rep.n):
        label = f"{j - i:+d}"
        report.add(f"tangle.{label}.left.b{j}b{i}e{j}", left[j - i])
        report.add(f"tangle.{label}.right.e{i}b{j}b{i}", right[j - i])
    _append_matrix_tangle_forms(report, rep, d)
    return report


def _append_matrix_tangle_forms(report: RelationReport, rep: Representation, d: float) -> None:
    if rep.n < 3:
        return
    e1, e2 = rep.e_pairs[1]
    b1, b2 = rep.b_pairs[1]
    forms = [
        ("tangle.matrix.1", mul(b1, b2, e1), d * mul(e2, e1)),
        ("tangle.matrix.2", mul(b2, b1, e2), d * mul(e1, e2)),
        ("tangle.matrix.3", mul(e1, b2, b1), d * mul(e1, e2)),
        ("tangle.matrix.4", mul(e2, b1, b2), d * mul(e2, e1)),
    ]
    for relation_id, lhs, rhs in forms:
        report.add(relation_id, max_abs_diff(lhs, rhs))


def check_all(
    E: np.ndarray,
    B: np.ndarray,
    params: BmwParams,
    n: int = 3,
    tol: float = DEFAULT_TOL,
) -> list[RelationReport]:
    """Run the four braid/TL/mixed/tangle families for one (E, B) pair."""
    rep = build_rep(E, B, n)
    return [
        check_temperley_lieb(rep, params.d, tol),
        check_braid(rep, tol),
        check_mixed(rep, params, tol),
        check_tangle(rep, params.d, tol),
    ]


def check_brauer(n: int = 3, tol: float = DEFAULT_TOL) -> list[RelationReport]:
    """Relation suite for the undeformed pair (EPR projector, SWAP).

    The swap generators square to one and commute with the projectors
    pointwise (e v = v e = e), so the mixed family is replaced by those
    two identities; everything else matches the deformed case with d = 2.
    """
    rep = build_rep(brauer_projector(), permutation_p(), n)
    reports = [
        check_temperley_lieb(rep, 2.0, tol),
        check_braid(rep, tol),
        check_tangle(rep, 2.0, tol),
    ]
    mixed = RelationReport(family="Brauer", site_count=n, tolerance=tol)
    E, V = rep.E, rep.B
    involution = max_abs_diff(V @ V, identity(4))
    absorb_left = max_abs_diff(E @ V, E)
    absorb_right = max_abs_diff(V @ E, E)
    for i in range(1, n):
        mixed.add(f"brauer.v{i}^2=1", involution)
        mixed.add(f"brauer.e{i}v{i}=e{i}", absorb_left)
        mixed.add(f"brauer.v{i}e{i}=e{i}", absorb_right)
    reports.append(mixed)
    return reports


def swap_cup_cap_expansion() -> np.ndarray:
    """SWAP written as a signed sum of dressed Bell cups and caps."""
    return sum((-1) ** (i * j) * outer(bell_state(i, j), bell_state(i, j)) for i, j in BIT_PAIRS)


def brauer_teleportation_residuals(seed: int = 42, count: int = 20) -> dict:
    """State-level identities of the swap representation.

    Checks, over random one-qubit states: the Bell projector pulling a
    state through the resource with weight 1/2; the double swap moving a
    state across a basis pair; and the tangle product collapsing to twice
    the nested projector action.  Also reports the cup-cap expansion of
    SWAP as a matrix identity.  Each residual is a worst 2-norm.
    """
    rng = np.random.default_rng(seed)
    alphas = np.array([random_ket(rng) for _ in range(count)])
    E, P = brauer_projector(), permutation_p()
    # |alpha>|kl> and |kl>|alpha> for every state and basis pair kl
    pairs = np.einsum("pi,qj->pqij", alphas, identity(4)).reshape(-1, 8)
    swapped = np.einsum("pi,qj->pqji", alphas, identity(4)).reshape(-1, 8)
    ahead, behind = _paired(alphas, EPR), _paired(alphas, EPR, front=False)
    return {
        "projector": _transfer_residual(ahead @ transpose(kron(E, I2)), EPR[None], I2[None], alphas),
        "swap": _worst_norm(pairs @ transpose(mul(kron(I2, P), kron(P, I2))) - swapped),
        "tangle": _worst_norm(behind @ transpose(mul(kron(P, I2), kron(I2, P))) - behind @ transpose(2.0 * kron(I2, E))),
        "cup-cap": max_abs_diff(swap_cup_cap_expansion(), P),
    }


def _far_commutators(report: RelationReport, prefix: str, op: np.ndarray, symbol: str) -> None:
    """[x_i, x_j] for |i - j| >= 2, on the 4-site window of two disjoint copies of op."""
    pairs = [(i, j) for i in range(1, report.site_count) for j in range(i + 2, report.site_count)]
    if not pairs:
        return
    xi, xj = kron(op, identity(4)), kron(identity(4), op)
    residual = max_abs_diff(xi @ xj, xj @ xi)
    for i, j in pairs:
        report.add(f"{prefix}.{symbol}{i}{symbol}{j}={symbol}{j}{symbol}{i}", residual)
