"""Relation suites for the deformed and undeformed two-qubit generators."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel.algebra import (
    BmwParams,
    RelationBlock,
    RelationReport,
    brauer_teleportation_residuals,
    build_rep,
    check_all,
    check_brauer,
    derive_params,
    swap_cup_cap_expansion,
)
from braidtel.gates import SWAP, brauer_projector, permutation_p, tl_projector, yb_gate
from braidtel.linalg import dagger, embed, identity, is_unitary, max_abs_diff

TOL = 1e-10

REFERENCE_PARAMS = BmwParams(
    sigma=cmath.exp(1j * 5 * math.pi / 4),
    w=math.sqrt(2) * 1j,
    d=2.0,
    lambdas=(
        cmath.exp(1j * 5 * math.pi / 4),
        cmath.exp(1j * 3 * math.pi / 4),
        cmath.exp(1j * math.pi / 4),
    ),
)


def _suite(phi: float, n: int = 3):
    e = tl_projector(0, 0, phi)
    b = yb_gate(phi)
    return check_all(e, b, REFERENCE_PARAMS, n=n)


@pytest.mark.parametrize("phi", [0.0, math.pi / 8, 1.234])
def test_full_relation_suite(phi):
    reports = _suite(phi)
    assert [r.family for r in reports] == ["TL", "Braid", "Mixed", "Tangle"]
    for report in reports:
        assert report.passed, report.worst()


def test_four_sites_exercises_far_commutation():
    reports = _suite(0.6, n=4)
    ids = [rid for r in reports for rid, _ in r.entries]
    assert any("e1" in rid and "e3" in rid for rid in ids)
    for report in reports:
        assert report.passed, report.worst()


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
def test_relations_hold_across_the_family(phi):
    for report in _suite(phi):
        assert report.max_residual < 1e-9


def test_derive_params_reference_values():
    params = derive_params(yb_gate(0.77))
    assert abs(params.sigma - REFERENCE_PARAMS.sigma) < TOL
    assert abs(params.w - REFERENCE_PARAMS.w) < TOL
    assert abs(params.d - 2.0) < TOL
    _, lam2, lam3 = params.lambdas
    assert abs(lam2 * lam3 + 1) < 1e-12
    assert params.constraint_residual() < 1e-12


def test_derive_params_rejects_wrong_spectrum():
    with pytest.raises(ValueError):
        derive_params(np.eye(4))  # one distinct eigenvalue
    with pytest.raises(ValueError):
        derive_params(np.eye(3))


def test_build_rep_requires_two_sites():
    with pytest.raises(ValueError):
        build_rep(np.eye(4), np.eye(4), 1)


@pytest.mark.parametrize("n", [2.5, 3.0, "3"])
def test_a_site_count_that_is_not_an_integer_is_refused(n):
    """A float count once gave fractional relation counts and reports whose entries raised."""
    b = yb_gate(0.3)
    with pytest.raises(TypeError):
        build_rep(tl_projector(0, 0, 0.3), b, n)
    with pytest.raises(TypeError):
        check_all(tl_projector(0, 0, 0.3), b, derive_params(b), n=n)
    with pytest.raises(TypeError):
        check_brauer(n=n)


def test_a_numpy_integer_site_count_is_read_as_an_int():
    rep = build_rep(np.eye(4), SWAP, np.int64(3))
    assert rep.n == 3 and type(rep.n) is int


def test_build_rep_has_no_site_cap_and_keeps_local_shapes():
    with pytest.raises(ValueError):
        build_rep(np.eye(8), np.eye(4), 3)
    rep = build_rep(np.eye(4), SWAP, 128)
    assert rep.n == 128
    assert rep.E.shape == rep.B.shape == (4, 4)
    braid = check_brauer(n=128)[1]  # (n - 2) braid relations and (n - 2)(n - 3)/2 far commutators
    assert braid.family == "Braid" and braid.passed and braid.relations == 126 + 126 * 125 // 2


def test_relation_report_bookkeeping():
    blocks = [RelationBlock((form,), ((residual,),), "once") for form, residual in (("ok", 1e-14), ("bad", 1e-3))]
    report = RelationReport(family="demo", site_count=3, blocks=blocks)
    assert report.max_residual == 1e-3
    assert report.worst() == ("bad", 1e-3)
    assert not report.passed


def test_inconsistent_params_have_nonzero_residual():
    skew = BmwParams(sigma=1j, w=1.0, d=5.0, lambdas=(1j, 1.0, -1.0))
    assert skew.constraint_residual() > 1.0


def test_brauer_suite_passes():
    for report in check_brauer(n=3):
        assert report.passed, report.worst()


def test_brauer_suite_four_sites():
    for report in check_brauer(n=4):
        assert report.passed, report.worst()


def test_swap_expands_into_dressed_projectors():
    assert max_abs_diff(swap_cup_cap_expansion(), SWAP) < 1e-12


def test_brauer_state_identities():
    residuals = brauer_teleportation_residuals()
    assert set(residuals) == {"projector", "swap", "tangle", "cup-cap"}
    for name, value in residuals.items():
        assert value < 1e-12, name


# ------------------------------------------------------- dense oracle
#
# The checkers evaluate each relation on its minimal window.  The oracle
# below rebuilds every relation from the dense 2^n x 2^n generators
# embed(E, i, n) and embed(B, i, n) instead, with the same relation ids
# in the same order, so it stays at n <= 6.


def _dense_reports(rep, params):
    """(family, [(relation id, residual)]) per family, and the far-commutator ids.

    params=None selects the Brauer suite (d = 2, no mixed family).
    """
    n = rep.n
    sites = range(1, n)
    e = {i: embed(rep.E, i, n) for i in sites}
    b = {i: embed(rep.B, i, n) for i in sites}
    assert is_unitary(rep.B, 1e-12)
    b_inv = {i: dagger(b[i]) for i in sites}
    adjacent = [(i, j) for i in sites for j in (i + 1, i - 1) if j in e]
    far = [(i, j) for i in sites for j in range(i + 2, n)]
    far_ids = {f"{prefix}.{s}{i}{s}{j}={s}{j}{s}{i}" for prefix, s in (("TL", "e"), ("braid", "b")) for i, j in far}
    d, one = (params.d if params else 2.0), identity(2**n)

    def commutators(prefix, g, s):
        return [(f"{prefix}.{s}{i}{s}{j}={s}{j}{s}{i}", max_abs_diff(g[i] @ g[j], g[j] @ g[i])) for i, j in far]

    tl = [(f"TL.e{i}^2=e{i}", max_abs_diff(e[i] @ e[i], e[i])) for i in sites]
    tl += [(f"TL.e{i}e{j}e{i}=d^-2.e{i}", max_abs_diff(e[i] @ e[j] @ e[i], 1.0 / (d * d) * e[i])) for i, j in adjacent]
    tl += commutators("TL", e, "e")
    braid = [
        (f"braid.b{i}b{i + 1}b{i}=b{i + 1}b{i}b{i + 1}", max_abs_diff(b[i] @ b[i + 1] @ b[i], b[i + 1] @ b[i] @ b[i + 1]))
        for i in range(1, n - 1)
    ]
    braid += commutators("braid", b, "b")
    tangle = []
    for i, j in adjacent:
        rhs = d * (e[i] @ e[j])
        tangle.append((f"tangle.{j - i:+d}.left.b{j}b{i}e{j}", max_abs_diff(b[j] @ b[i] @ e[j], rhs)))
        tangle.append((f"tangle.{j - i:+d}.right.e{i}b{j}b{i}", max_abs_diff(e[i] @ b[j] @ b[i], rhs)))
    if n >= 3:
        tangle += [
            ("tangle.matrix.1", max_abs_diff(b[1] @ b[2] @ e[1], d * (e[2] @ e[1]))),
            ("tangle.matrix.2", max_abs_diff(b[2] @ b[1] @ e[2], d * (e[1] @ e[2]))),
            ("tangle.matrix.3", max_abs_diff(e[1] @ b[2] @ b[1], d * (e[1] @ e[2]))),
            ("tangle.matrix.4", max_abs_diff(e[2] @ b[1] @ b[2], d * (e[2] @ e[1]))),
        ]
    if params:
        mixed = []
        for i in sites:
            mixed.append((f"mixed.b{i}-b{i}^-1=w(1-d.e{i})", max_abs_diff(b[i] - b_inv[i], params.w * (one - d * e[i]))))
            mixed.append((f"mixed.e{i}b{i}=sigma.e{i}", max_abs_diff(e[i] @ b[i], params.sigma * e[i])))
            mixed.append((f"mixed.b{i}e{i}=sigma.e{i}", max_abs_diff(b[i] @ e[i], params.sigma * e[i])))
        mixed += [
            (f"mixed.b{j}e{i}b{j}=b{i}^-1e{j}b{i}^-1", max_abs_diff(b[j] @ e[i] @ b[j], b_inv[i] @ e[j] @ b_inv[i]))
            for i, j in adjacent
        ]
        return [("TL", tl), ("Braid", braid), ("Mixed", mixed), ("Tangle", tangle)], far_ids
    brauer = []
    for i in sites:
        brauer.append((f"brauer.v{i}^2=1", max_abs_diff(b[i] @ b[i], one)))
        brauer.append((f"brauer.e{i}v{i}=e{i}", max_abs_diff(e[i] @ b[i], e[i])))
        brauer.append((f"brauer.v{i}e{i}=e{i}", max_abs_diff(b[i] @ e[i], e[i])))
    return [("TL", tl), ("Braid", braid), ("Tangle", tangle), ("Brauer", brauer)], far_ids


# Integer E and a monomial unitary B: no relation holds, so every residual is
# O(1) and differs between the two placements of an adjacent pair, and every
# product is exact in floating point.
_GENERIC_E = np.array([[1, 2j, 0, -1], [0, 1 + 1j, 2, 0], [-2, 0, 1j, 1], [1, -1, 0, 2]])
_GENERIC_B = np.array([[0, 1j, 0, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 0, -1j, 0]])
_GENERIC_PARAMS = BmwParams(sigma=1j, w=2.0, d=3.0, lambdas=(1j, 1.0, -1.0))


def _windowed_and_dense(case, n):
    """check_all (check_brauer for "brauer") and its dense oracle."""
    if case == "brauer":
        return check_brauer(n=n), _dense_reports(build_rep(brauer_projector(), permutation_p(), n), None)
    if case == "generic":
        e, b, params = _GENERIC_E, _GENERIC_B, _GENERIC_PARAMS
    else:
        e, b = tl_projector(0, 0, float(case)), yb_gate(float(case))
        params = derive_params(b)
    return check_all(e, b, params, n=n), _dense_reports(build_rep(e, b, n), params)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("case", ["0.3", "-2.1", "1.234", "brauer", "generic"])
def test_windowed_relations_match_the_dense_oracle(case, n):
    reports, (dense, far_ids) = _windowed_and_dense(case, n)
    assert [r.family for r in reports] == [family for family, _ in dense]
    for report, (_, entries) in zip(reports, dense):
        assert report.site_count == n
        assert [rid for rid, _ in report.entries] == [rid for rid, _ in entries]
        for (rid, got), (_, want) in zip(report.entries, entries):
            assert abs(got - want) <= 1e-15, rid
    far_values = [value for r in reports for rid, value in r.entries if rid in far_ids]
    assert len(far_values) == len(far_ids) == (n - 2) * (n - 3)
    assert all(value == 0.0 for value in far_values)


@pytest.mark.parametrize("phi", [0.3, None], ids=["0.3", "brauer"])
def test_eight_site_worst_residuals_match_three_sites(phi):
    """The same holds at 8, 64 and 128 sites: no relation grows with the chain."""

    def worst(n):
        if phi is None:
            return {r.family: r.max_residual for r in check_brauer(n=n)}
        return {r.family: r.max_residual for r in _suite(phi, n)}

    small = worst(3)
    for n in (8, 64, 128):
        big = worst(n)
        assert big.keys() == small.keys()
        for family, residual in big.items():
            assert abs(residual - small[family]) <= 1e-14, (n, family)


def _tied_reports(n):
    """Hand-built reports whose largest residual is tied across sites, forms, steps and blocks."""
    block = RelationBlock
    cases = [
        [block(("a{i}", "b{i}"), ((0.5, 1.0),), "site"), block(("c{i}{j}",), ((1.0,), (1.0,)), "adjacent")],
        [block(("c{i}{j}", "d{j}{i}"), ((0.5, 0.25), (1.0, 1.0)), "adjacent"), block(("f{i}{j}",), ((1.0,),), "far")],
        [block(("g{i}",), ((0.0,),), "braid"), block(("f{i}{j}",), ((0.0,),), "far")],
        [block(("h{i}",), ((0.5,),), "site"), block(("m.{step:+d}.{i}",), ((0.25,), (0.5,)), "adjacent")],
    ]
    cases[0].append(block(("once",), ((1.0,),), "once"))
    return [RelationReport("ties", n, blocks) for blocks in cases]


@pytest.mark.parametrize("n", range(3, 8))
def test_blocks_agree_with_their_expanded_entries(n):
    """worst() is the first entry with the largest residual, as max() over the per-site list picks it."""
    reports = [r for case in ("0.3", "-2.1", "1.234", "brauer", "generic") for r in _windowed_and_dense(case, n)[0]]
    for report in reports + _tied_reports(n):
        entries = report.entries
        assert report.relations == len(entries)
        assert report.max_residual == max(r for _, r in entries)
        assert report.worst() == max(entries, key=lambda item: item[1])


def test_suite_memory_does_not_grow_with_the_chain():
    e, b = tl_projector(0, 0, 0.3), yb_gate(0.3)
    params = derive_params(b)
    check_all(e, b, params, n=3)
    peaks = []
    for n in (3, 10**6):
        tracemalloc.start()
        try:
            reports = check_all(e, b, params, n=n)
            assert all(r.relations >= n - 2 and r.worst()[0] for r in reports)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
