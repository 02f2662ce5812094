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
carries the same (E, B), so one window residual serves every site.  A suite
takes all of its window residuals in one stacked pass per window size, and a
RelationReport keeps them as blocks of relation-id templates over a site
set, so a suite costs the same at 3 and at 10^6 sites.  The blocks still
expand to one stable relation id per relation and site, so reports can be
diffed across runs.

Relation families:
  TL      e^2 = e, e_i e_{i+-1} e_i = d^-2 e_i, far commutation
  Braid   b_i b_{i+-1} b_i = b_{i+-1} b_i b_{i+-1}, far commutation
  Mixed   b - b^-1 = w(1 - d e), e b = b e = sigma e, wing conjugation
  Tangle  b_{i+-1} b_i e_{i+-1} = e_i b_{i+-1} b_i = d e_i e_{i+-1}
  Brauer  the undeformed case: E = EPR projector, B = SWAP, d = 2
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

from .gates import EPR, I2, bell_state, brauer_projector, permutation_p
from .teleport import BIT_PAIRS, UnitaryBasis, _projector_channel
from .linalg import (
    DEFAULT_TOL,
    dagger,
    frozen,
    identity,
    is_unitary,
    kron,
    max_abs_diff,
    mul,
    outer,
)


class BmwParams(NamedTuple):
    """The algebra parameters read off a braid matrix spectrum."""

    sigma: complex
    w: complex
    d: float
    lambdas: tuple[complex, complex, complex]  # (lambda1, lambda2, lambda3)

    def constraint_residual(self) -> float:
        """|d - (1 - (sigma - 1/sigma)/w)|, zero for a consistent triple."""
        return abs(self.d - (1 - (self.sigma - 1 / self.sigma) / self.w))


# Site sets of a relation block, by name: (sites on an n-site chain, lazy walk
# over the sites (i, j) in report order).  No set is ever held as a list.
_SITE_SETS = {
    "once": (lambda n: 1, lambda n: [(0, 0)]),
    "site": (lambda n: n - 1, lambda n: ((i, i + 1) for i in range(1, n))),
    "braid": (lambda n: n - 2, lambda n: ((i, i + 1) for i in range(1, n - 1))),
    "adjacent": (lambda n: 2 * (n - 2), lambda n: ((i, j) for i in range(1, n) for j in (i + 1, i - 1) if 1 <= j < n)),
    "far": (lambda n: (n - 2) * (n - 3) // 2, lambda n: ((i, j) for i in range(1, n) for j in range(i + 2, n))),
}


class RelationBlock(NamedTuple):
    """Relation forms checked on every site (i, j) of one site set.

    Site (i, j) gives one entry per form, in form order: the id
    form.format(i=i, j=j, step=j - i) with the residual residuals[j < i][k]
    of form k, so only an adjacent pair with j = i - 1 reads the second row.
    """

    forms: tuple[str, ...]
    residuals: tuple[tuple[float, ...], ...]
    sites: str


class RelationReport(NamedTuple):
    """One family's residuals as blocks; entries expands them by relation and site, passed holds them to DEFAULT_TOL."""

    family: str
    site_count: int
    blocks: tuple[RelationBlock, ...]

    def _filled(self) -> list[RelationBlock]:
        return [b for b in self.blocks if _SITE_SETS[b.sites][0](self.site_count)]

    def _walk(self, block: RelationBlock):
        """(i, j, residual row) per site of a block, in report order."""
        return ((i, j, block.residuals[j < i]) for i, j in _SITE_SETS[block.sites][1](self.site_count))

    @property
    def entries(self) -> list[tuple[str, float]]:
        """(relation id, residual) per relation and site, in report order."""
        walk = ((b.forms, i, j, row) for b in self.blocks for i, j, row in self._walk(b))
        return [(form.format(i=i, j=j, step=j - i), r) for forms, i, j, row in walk for form, r in zip(forms, row)]

    @property
    def relations(self) -> int:
        return sum(_SITE_SETS[b.sites][0](self.site_count) * len(b.forms) for b in self.blocks)

    @property
    def max_residual(self) -> float:
        return max((max(map(max, b.residuals)) for b in self._filled()), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= DEFAULT_TOL

    def worst(self) -> tuple[str | None, float]:
        """The first entry with the largest residual, or (None, 0.0) for a report with no relation.

        Every residual row of a block first occurs within its first three
        sites, so the walk stops there whatever the chain length.
        """
        top = self.max_residual
        for block in self._filled():
            if any(top in row for row in block.residuals):
                for i, j, row in self._walk(block):
                    if top in row:
                        return block.forms[row.index(top)].format(i=i, j=j, step=j - i), top
        return None, top


class Representation(NamedTuple):
    """Generators e_i = 1 (x) E (x) 1 and b_i = 1 (x) B (x) 1 on n sites.

    Only the 4x4 E and B are stored; no 2^n x 2^n generator is ever built,
    so n is unbounded.
    """

    n: int
    E: np.ndarray
    B: np.ndarray


def build_rep(E: np.ndarray, B: np.ndarray, n: int) -> Representation:
    n = operator.index(n)  # an integer site count: 3 and np.int64(3) pass, 3.0 and "3" raise TypeError
    if n < 2:
        raise ValueError(f"sites must be at least 2, got {n}")
    E = np.asarray(E, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if E.shape != (4, 4) or B.shape != (4, 4):
        raise ValueError(f"expected 4x4 E and B, got {E.shape} and {B.shape}")
    return Representation(n=n, E=E, B=B)


def derive_params(B: np.ndarray) -> BmwParams:
    """Read (sigma, w, d) off the eigenvalues of a 4x4 braid matrix.

    The matrix must have exactly three distinct eigenvalues.  sigma is the
    one whose complementary pair multiplies to -1; that selection must be
    unique, otherwise the spectrum does not fit the three-eigenvalue
    pattern and we refuse to guess.  Every comparison is bounded by 1e-8.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {B.shape}")
    eigvals = np.linalg.eigvals(B)
    tol = 1e-8
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
    means = [complex(sum(c) / len(c)) for c in clusters]

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


@functools.lru_cache(maxsize=None)
def _window_triples(m: int) -> np.ndarray:
    """Palette rows (x, y, z) of each 3-site product x y z, for m operators on sites (1, 2), then on (2, 3).

    The left-hand sides [TL wing, braid, tangle left and right (the matrix forms reread them), mixed wing if m = 3]
    come first, then the right-hand sides that are triple products: the braid's and the mixed wing's.
    """
    e1, b1, e2, b2, v1, v2 = 0, 1, m, m + 1, 2, m + 2
    lhs = [
        (e1, e2, e1), (e2, e1, e2), (b1, b2, b1),
        (b2, b1, e2), (e1, b2, b1), (b1, b2, e1), (e2, b1, b2),
    ]  # fmt: skip
    mixed = m == 3
    rows = lhs + [(b2, e1, b2), (b1, e2, b1)] * mixed + [(b2, b1, b2)] + [(v1, e2, v1), (v2, e1, v2)] * mixed
    return frozen(np.array(rows))


def _window_residuals(E: np.ndarray, B: np.ndarray, d: float, params: BmwParams | None):
    """Every residual of one suite, in one stacked pass per window size.

    Returns the 3-site rows of _window_triples, stepwise j = i + 1 then
    i - 1; the 4x4 rows [e^2 = e, then the mixed (with params) or Brauer
    single-generator relations]; and the far commutators of e and of b.
    """
    ops = np.stack([E, B] if params is None else [E, B, _inverse(B)])
    palette = np.concatenate([kron(ops, I2), kron(I2, ops)])
    triples = palette[_window_triples(len(ops))]
    first = triples[:, 0] @ triples[:, 1]  # rows 0 and 1 are e1 e2 and e2 e1
    products = first @ triples[:, 2]
    k = len(products) - (1 if params is None else 3)  # the left-hand sides
    tangle = d * first[[0, 0, 1, 1]]  # d e_i e_j: tangle left and right (j = i +- 1)
    right = np.concatenate([1.0 / (d * d) * triples[:2, 0], products[k : k + 1], tangle, products[k + 1 :]])
    window = np.abs(products[:k] - right).max(axis=(1, 2))

    pair = ops[:2]
    local = pair[[0, 1, 0, 1]] @ pair[[0, 1, 1, 0]]  # e^2, b^2, e b, b e
    if params is None:
        local_rhs = np.stack([E, identity(4), E, E])
    else:
        local[1] = B - ops[2]
        local_rhs = np.stack([E, params.w * (identity(4) - params.d * E), params.sigma * E, params.sigma * E])
    squares = np.abs(local - local_rhs).max(axis=(1, 2))

    xi, xj = kron(pair, identity(4)), kron(identity(4), pair)
    far = np.abs(xi @ xj - xj @ xi).max(axis=(1, 2))
    return window.tolist(), squares.tolist(), far.tolist()


def _suite(rep: Representation, d: float, params: BmwParams | None = None) -> dict[str, RelationReport]:
    """Reports by family for one (E, B) pair: TL, Braid, Tangle, and Mixed with params or Brauer without."""
    w, sq, far = _window_residuals(rep.E, rep.B, d, params)
    table = [
        ("TL", ["TL.e{i}^2=e{i}"], "site", [sq[:1]]),
        ("TL", ["TL.e{i}e{j}e{i}=d^-2.e{i}"], "adjacent", [w[0:1], w[1:2]]),
        ("TL", ["TL.e{i}e{j}=e{j}e{i}"], "far", [far[:1]]),
        ("Braid", ["braid.b{i}b{j}b{i}=b{j}b{i}b{j}"], "braid", [w[2:3]]),
        ("Braid", ["braid.b{i}b{j}=b{j}b{i}"], "far", [far[1:]]),
        ("Tangle", ["tangle.{step:+d}.left.b{j}b{i}e{j}", "tangle.{step:+d}.right.e{i}b{j}b{i}"], "adjacent",
         [w[3:5], w[5:7]]),
    ]
    if rep.n >= 3:
        table.append(("Tangle", [f"tangle.matrix.{k}" for k in range(1, 5)], "once", [[w[5], w[3], w[4], w[6]]]))
    if params is None:
        table.append(("Brauer", ["brauer.v{i}^2=1", "brauer.e{i}v{i}=e{i}", "brauer.v{i}e{i}=e{i}"], "site", [sq[1:]]))
    else:
        forms = ["mixed.b{i}-b{i}^-1=w(1-d.e{i})", "mixed.e{i}b{i}=sigma.e{i}", "mixed.b{i}e{i}=sigma.e{i}"]
        table.append(("Mixed", forms, "site", [sq[1:]]))
        table.append(("Mixed", ["mixed.b{j}e{i}b{j}=b{i}^-1e{j}b{i}^-1"], "adjacent", [w[7:8], w[8:9]]))
    blocks: dict[str, list[RelationBlock]] = {}
    for family, forms, sites, rows in table:
        blocks.setdefault(family, []).append(RelationBlock(tuple(forms), tuple(map(tuple, rows)), sites))
    return {family: RelationReport(family, rep.n, tuple(family_blocks)) for family, family_blocks in blocks.items()}


def check_all(E: np.ndarray, B: np.ndarray, params: BmwParams, n: int = 3) -> list[RelationReport]:
    """Run the four braid/TL/mixed/tangle families for one (E, B) pair."""
    reports = _suite(build_rep(E, B, n), params.d, params)
    return [reports[family] for family in ("TL", "Braid", "Mixed", "Tangle")]


def check_brauer(n: int = 3) -> list[RelationReport]:
    """Relation suite for the undeformed pair (EPR projector, SWAP).

    The swap generators square to one and commute with the projectors
    pointwise (e v = v e = e), so the mixed family is replaced by those
    two identities; everything else matches the deformed case with d = 2.
    """
    reports = _suite(build_rep(brauer_projector(), permutation_p(), n), 2.0)
    return [reports[family] for family in ("TL", "Braid", "Tangle", "Brauer")]


def swap_cup_cap_expansion() -> np.ndarray:
    """SWAP written as a signed sum of dressed Bell cups and caps."""
    return sum((-1) ** (i * j) * outer(bell_state(i, j), bell_state(i, j)) for i, j in BIT_PAIRS)


def brauer_teleportation_residuals() -> dict[str, float]:
    """State-level identities of the swap representation, in the order projector, swap, tangle, cup-cap.

    Each is checked as an equality of maps on the inputs where it is stated, its residual the Frobenius
    norm of the difference, which bounds the residual at every unit input: the Bell projector pulling a
    state alpha through the resource with weight 1/2, (E x 1)(alpha x EPR) = 1/2 EPR x alpha, as a
    projector channel; the double swap moving alpha across a basis pair, (1 x P)(P x 1)|alpha>|kl> = |kl>|alpha>,
    the largest norm over kl; and the tangle product collapsing to twice the nested projector action,
    (P x 1)(1 x P)(EPR x alpha) = 2 (1 x E)(EPR x alpha).  Also reports the cup-cap expansion of SWAP as
    a matrix identity, its largest entry.  No identity reads phi or a seed.
    """
    E, P = brauer_projector(), permutation_p()
    swap = mul(kron(I2, P), kron(P, I2)) - identity(8)[:, np.arange(8).reshape(4, 2).T.ravel()]  # |a kl> -> |kl a>
    tangle = (mul(kron(P, I2), kron(I2, P)) - 2.0 * kron(I2, E)) @ kron(EPR[:, None], I2)
    return {
        "projector": _projector_channel(UnitaryBasis.pauli(), E, True).every_branch,
        "swap": max(float(np.linalg.norm(swap[:, kl::4])) for kl in range(4)),
        "tangle": float(np.linalg.norm(tangle)),
        "cup-cap": max_abs_diff(swap_cup_cap_expansion(), P),
    }
