"""Constraint systems that decide which bases support teleportation."""

import cmath
import itertools

import numpy as np
import pytest

from braidtel import tangles
from braidtel.algebra import check_all, derive_params
from braidtel.gates import B_EIGENVALUES, I2, X, m_gate, state_with_gate, yb_gate
from braidtel.cli import main
from braidtel.linalg import DEFAULT_TOL, conj, dagger, is_unitary, kron, max_abs_diff, mul, transpose
from braidtel.tangles import (
    CONSTRAINT_IDS,
    EigenAssignment,
    GateCoefficients,
    SolutionClass,
    UnitaryBasis,
    build_representation,
    concrete_constraint_residuals,
    eigenvalue_sum,
    general_constraint_residuals,
    matched_form,
    printed_gate_forms,
    printed_projector,
    projector_teleportation_residuals,
    scalar_system_residual,
    skew_agreement_deviation,
    skew_transpose,
    solve_pauli_eigenvalues,
    spectral_constraint_residuals,
)
from braidtel.teleport import BIT_PAIRS, _basis_protocol, _standard_protocol
from tables import pauli_scalar_coefficient, random_gate_coefficients, table_max, unimodularity_residual

# sign/frequency patterns printed for the (0,0) system, in solver order
PRINTED_CLASSES = (
    ((1, 1), (1, -1), (1, -1), (-1, 1)),
    ((1, 1), (1, -1), (-1, 1), (1, -1)),
    ((1, 1), (-1, 1), (1, -1), (1, -1)),
)


def _loop_table(g, forms, scale=0.5):
    """The per-pair loop the stacked evaluator replaced, kept as its oracle.

    g is the stacked 4x4 coefficient matrix and forms maps each constraint
    to (left, mid, right, rhs) dicts over bit pairs; the first three hold
    factor tuples.
    """
    g = dict(zip(itertools.product(BIT_PAIRS, repeat=2), np.asarray(g).ravel().tolist()))
    terms = [(a, b, g[(a, b)]) for a, b in itertools.product(BIT_PAIRS, repeat=2) if g[(a, b)] != 0]
    table = {}
    for c, (left, mid, right, rhs) in forms.items():
        table[c] = {}
        for ij1 in BIT_PAIRS:
            acc = np.zeros((2, 2), dtype=complex)
            for row, kl1, g1 in terms:
                if row == ij1:
                    for ij2, kl2, g2 in terms:
                        acc += scale * g1 * g2 * mul(*left[ij2], *mid[kl1], *right[kl2])
            table[c][ij1] = max_abs_diff(acc, rhs[ij1])
    return table


def _loop_u_forms(basis, m, n):
    """The four constraints in U_ab notation, as per-pair factor tuples."""
    u = dict(zip(BIT_PAIRS, basis.u))
    umn = u[(m, n)]
    a = {p: (dagger(umn), u[p]) for p in BIT_PAIRS}
    b = {p: (conj(umn), transpose(u[p])) for p in BIT_PAIRS}
    c = {p: (dagger(u[p]), umn) for p in BIT_PAIRS}
    d = {p: (conj(u[p]), transpose(umn)) for p in BIT_PAIRS}
    return _loop_chain(a, b, c, d)


def _loop_chain(a, b, c, d):
    """Chain a.d.c, b.c.d, a.b.c and b.a.d; each rhs is the middle product."""
    def product(t):
        return {p: mul(*t[p]) for p in BIT_PAIRS}

    return {1: (a, d, c, product(d)), 2: (b, c, d, product(c)),
            3: (a, b, c, product(b)), 4: (b, a, d, product(a))}


def _loop_o_forms(basis, m, n):
    """The same constraints through O_ab = U_mn^dag U_ab and its skew-transpose."""
    u = dict(zip(BIT_PAIRS, basis.u))
    umn = u[(m, n)]
    o = {p: dagger(umn) @ u[p] for p in BIT_PAIRS}
    ost = {p: skew_transpose(dagger(umn), u[p]) for p in BIT_PAIRS}
    a = {p: (o[p],) for p in BIT_PAIRS}
    b = {p: (ost[p],) for p in BIT_PAIRS}
    c = {p: (dagger(o[p]),) for p in BIT_PAIRS}
    d = {p: (dagger(ost[p]),) for p in BIT_PAIRS}
    return _loop_chain(a, b, c, d)


def _loop_concrete_forms(phi):
    """The concrete basis's four constraints, with its M_ij gates as factors."""
    m = {p: m_gate(*p, phi) for p in BIT_PAIRS}
    m00 = m[(0, 0)]

    def constraint(*rules):
        return tuple({p: rule(m[p]) for p in BIT_PAIRS} for rule in rules)

    return {
        1: constraint(lambda a: (a,), lambda a: (conj(a), transpose(m00)),
                      lambda a: (dagger(a),), lambda a: 2.0 * m00 @ conj(a)),
        2: constraint(lambda a: (transpose(a),), lambda a: (dagger(a), m00),
                      lambda a: (conj(a),), lambda a: 2.0 * transpose(m00) @ dagger(a)),
        3: constraint(lambda a: (a,), lambda a: (conj(m00), transpose(a)),
                      lambda a: (dagger(a),), lambda a: 2.0 * transpose(a) @ dagger(m00)),
        4: constraint(lambda a: (transpose(a),), lambda a: (dagger(m00), a),
                      lambda a: (conj(a),), lambda a: 2.0 * a @ conj(m00)),
    }


def _table_gap(table, oracle):
    """Largest cell gap, in units of max(1, oracle cell): the ulps of O(1) residuals."""
    assert set(table) == set(oracle) == set(CONSTRAINT_IDS)
    assert all(list(table[c]) == list(BIT_PAIRS) for c in CONSTRAINT_IDS)
    return max(
        abs(table[c][p] - oracle[c][p]) / max(1.0, oracle[c][p])
        for c in CONSTRAINT_IDS for p in BIT_PAIRS
    )


@pytest.fixture(scope="module")
def pauli_basis():
    return UnitaryBasis.pauli()


def test_pauli_basis_orthonormal(pauli_basis):
    assert pauli_basis.residual < 1e-14


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.8])
def test_bell_like_basis_orthonormal(phi):
    assert UnitaryBasis.bell_like(phi).residual < 1e-12


def test_degenerate_basis_is_rejected():
    same = [np.eye(2, dtype=complex) for _ in BIT_PAIRS]
    with pytest.raises(ValueError):
        UnitaryBasis(same)


@pytest.mark.parametrize(
    "build, shape",
    [(UnitaryBasis, (4, 2)), (UnitaryBasis, (3, 2, 2)), (UnitaryBasis, (4, 4)), (UnitaryBasis, (1, 4, 2, 2)),
     (EigenAssignment, ()), (EigenAssignment, (2,)), (EigenAssignment, (3,)), (EigenAssignment, (4, 1)),
     (EigenAssignment, (2, 2)), (GateCoefficients, (16,)), (GateCoefficients, (3, 3)), (GateCoefficients, (4, 4, 1))],
    ids=lambda x: x.__name__ if isinstance(x, type) else "x".join(map(str, x)) or "scalar",
)
def test_containers_reject_a_wrong_shape(build, shape):
    with pytest.raises(ValueError, match="stack, got shape"):
        build(np.ones(shape))


def test_container_stacks_are_read_only_copies():
    u = np.stack([m_gate(*p, 0.3) for p in BIT_PAIRS])
    mu, g = np.array([B_EIGENVALUES[p] for p in BIT_PAIRS]), np.diag(np.arange(4.0) + 1j)
    basis, assignment, coeffs = UnitaryBasis(u), EigenAssignment(mu), GateCoefficients(g)
    kept = [a.copy() for a in (basis.u, basis.states, assignment.mu, coeffs.g)]
    for given in (u, mu, g):
        given[(0,) * given.ndim] = 7.0
    for array, want in zip((basis.u, basis.states, assignment.mu, coeffs.g), kept):
        assert np.array_equal(array, want)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    assert (basis.u.shape, basis.states.shape, assignment.mu.shape, coeffs.g.shape) == ((4, 2, 2), (4, 4), (4,), (4, 4))


@pytest.mark.parametrize("basis", [UnitaryBasis.pauli(), UnitaryBasis.bell_like(0.3)], ids=["pauli", "bell-like-0.3"])
def test_states_are_the_basis_gates_on_the_epr_pair(basis):
    for k, p in enumerate(BIT_PAIRS):
        assert np.array_equal(basis.states[k], state_with_gate(basis.u[k])), p


def test_the_pauli_basis_is_the_standard_protocols_correction_table():
    """W_ij is the front flow's table and W_ij^T the mirror flow's, compared by value and not by bytes.

    The one builder multiplies W_00 = 1 into conj(W) and W^dag, which can flip the sign of a real zero;
    np.array_equal reads -0.0 == 0.0, and no report prints the table.
    """
    w = UnitaryBasis.pauli().u
    assert np.array_equal(w, _standard_protocol()[1][0])
    assert np.array_equal(transpose(w), _basis_protocol(UnitaryBasis.pauli(), False)[1][0])


def test_assignment_unimodularity_residual():
    good = EigenAssignment([cmath.exp(1j * 0.3) for _ in BIT_PAIRS])
    off = EigenAssignment([2.0 for _ in BIT_PAIRS])
    assert unimodularity_residual(good) < 1e-15
    assert unimodularity_residual(off) == pytest.approx(1.0)


@pytest.mark.parametrize("phi", [0.2, 0.7, 1.9])
def test_concrete_constraints_hold(phi):
    table = concrete_constraint_residuals(phi)
    assert set(table) == set(CONSTRAINT_IDS)
    for c in CONSTRAINT_IDS:
        assert len(table[c]) == 4
        assert max(table[c].values()) < 1e-12


def _unimodular(rng):
    return EigenAssignment(np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))


def _concrete_with(monkeypatch, phi, lam):
    """concrete_constraint_residuals at phi with the braid eigenvalues replaced by lam."""
    monkeypatch.setattr(tangles, "B_EIGENVALUES", dict(zip(BIT_PAIRS, lam.mu.tolist())))
    return concrete_constraint_residuals(phi)


def _evaluator_gap(monkeypatch, phi, lam):
    """(worst |concrete - 2 spectral| over max(1, cell), largest cell) of the two evaluators at phi.

    concrete_constraint_residuals builds the M-notation tables at scale 1; the spectral evaluator
    at (m, n) = (0, 0) reads the U-notation tables of the same basis at scale 1/2.
    """
    concrete = _concrete_with(monkeypatch, phi, lam)
    spectral = spectral_constraint_residuals(UnitaryBasis.bell_like(phi), lam, 0, 0)
    cells = [(concrete[c][p], spectral[c][p]) for c in CONSTRAINT_IDS for p in BIT_PAIRS]
    return max(abs(a - 2 * b) / max(1.0, a) for a, b in cells), max(a for a, _ in cells)


def test_the_concrete_and_spectral_evaluators_agree_cell_by_cell(monkeypatch):
    """Two tables of one constraint system: a defect in either moves a cell well past 4e-15."""
    phis = (0.0, 0.3, -2.1, cmath.pi / 4, 1e300)
    braid = EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS])
    seeded = [braid, *(_unimodular(np.random.default_rng(seed)) for seed in range(3))]
    assert max(_evaluator_gap(monkeypatch, phi, lam)[0] for phi in phis for lam in seeded) <= 4e-15
    rng = np.random.default_rng(7)
    gaps, cells = zip(*(_evaluator_gap(monkeypatch, phi, _unimodular(rng)) for phi in phis for _ in range(100)))
    assert max(gaps) <= 4e-15
    assert max(cells) > 0.1


@pytest.mark.parametrize("phi", [0.2, 1.3])
def test_projector_teleportation_identities(phi):
    residuals = projector_teleportation_residuals(phi)
    for c in CONSTRAINT_IDS:
        assert residuals[c] < 1e-10


def test_solver_reproduces_printed_classes(pauli_basis):
    classes = solve_pauli_eigenvalues(0, 0)
    assert [sol.class_id for sol in classes] == [1, 2, 3]
    assert tuple(sol.pattern for sol in classes) == PRINTED_CLASSES


# Distinct (s, f) put s e^(i f 0.3) at least 2 sin 0.3 apart in their real or imaginary part, so the solved
# classes, sorted by their mu at _ORDER_PHI flattened to (real, imag) pairs, never tie.
def test_patterns_lie_pairwise_apart_at_the_order_phase():
    mus = (SolutionClass(0, (0, 0), pattern).mu_of_phi(tangles._ORDER_PHI).mu for pattern in tangles._PATTERNS)
    flat = np.array([mu.view(float) for mu in mus])
    gaps = np.abs(flat[:, None] - flat[None]).max(axis=2)[~np.eye(len(flat), dtype=bool)]
    assert len(flat) == 64 and gaps.min() >= 2 * np.sin(tangles._ORDER_PHI) * (1 - 1e-15)


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_batched_filter_matches_the_pattern_loop(pauli_basis, m, n):
    forms = _loop_u_forms(pauli_basis, m, n)
    batched = tangles._pattern_residuals(m, n)
    assert batched.shape == (64, len(tangles._SAMPLE_PHIS))
    for x, pattern in enumerate(tangles._PATTERNS):
        probe = SolutionClass(0, (m, n), pattern)
        for y, phi in enumerate(tangles._SAMPLE_PHIS):
            coeffs = GateCoefficients.diagonal(probe.mu_of_phi(phi))
            looped = table_max(_loop_table(coeffs.g, forms))
            assert (looped <= DEFAULT_TOL) == (batched[x, y] <= DEFAULT_TOL)
            assert abs(looped - batched[x, y]) < 1e-12


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_three_sample_phis_decide_every_pattern(m, n):
    grid = np.linspace(-3.1, 3.1, 25)
    at_samples = (tangles._pattern_residuals(m, n) <= DEFAULT_TOL).all(axis=1)
    on_grid = (tangles._pattern_residuals(m, n, grid) <= DEFAULT_TOL).all(axis=1)
    assert at_samples.tolist() == on_grid.tolist()
    assert 3 <= at_samples.sum() < 64


def test_solver_memo_hands_out_fresh_lists_and_solves_once(monkeypatch, capsys):
    solve_pauli_eigenvalues(0, 1).clear()
    assert len(solve_pauli_eigenvalues(0, 1)) == 3
    tangles._solved_classes.cache_clear()
    calls = []
    real = tangles._pattern_residuals
    monkeypatch.setattr(tangles, "_pattern_residuals", lambda *a: calls.append(a) or real(*a))
    for kind in ("spectral", "general", "skew-transpose"):
        assert main(["verify", kind, "--mn", "10", "--class", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == [(1, 0)]


def test_solver_rejects_bad_index():
    with pytest.raises(ValueError):
        solve_pauli_eigenvalues(2, 0)


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_every_class_passes_everywhere(pauli_basis, m, n):
    classes = solve_pauli_eigenvalues(m, n)
    assert len(classes) == 3
    for sol in classes:
        for phi in (0.15, 0.8, 2.4):
            mu = sol.mu_of_phi(phi)
            assert unimodularity_residual(mu) < 1e-12
            assert table_max(spectral_constraint_residuals(pauli_basis, mu, m, n)) < 1e-12
            assert abs(eigenvalue_sum(mu, m, n) - 1) < 1e-12
            assert scalar_system_residual(mu, m, n) < 1e-12


def test_describe_is_readable():
    sol = solve_pauli_eigenvalues(0, 0)[0]
    text = sol.describe()
    assert text.startswith("mu00=+e^(+i.phi)")
    assert text.count("mu") == 4


@pytest.mark.parametrize("i,j", BIT_PAIRS)
@pytest.mark.parametrize("k,l", BIT_PAIRS)
def test_scalar_coefficients_at_origin(i, j, k, l):
    # trace-extracted coefficient must equal the closed-form sign
    expected = (-1) ** (i * l) * (-1) ** (k * j)
    assert pauli_scalar_coefficient(i, j, k, l, 0, 0) == expected


def test_braid_eigenvalues_satisfy_bell_like_system():
    basis = UnitaryBasis.bell_like(0.4)
    mu = EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS])
    assert table_max(spectral_constraint_residuals(basis, mu, 0, 0)) < 1e-12
    assert abs(eigenvalue_sum(mu, 0, 0) - 1) < 1e-12


def test_diagonal_coefficients_reduce_to_spectral(pauli_basis):
    sol = solve_pauli_eigenvalues(1, 1)[0]
    mu = sol.mu_of_phi(0.9)
    spectral = spectral_constraint_residuals(pauli_basis, mu, 1, 1)
    general = general_constraint_residuals(GateCoefficients.diagonal(mu), pauli_basis, 1, 1)
    for c in CONSTRAINT_IDS:
        for p in BIT_PAIRS:
            assert abs(spectral[c][p] - general[c][p]) == 0.0


def test_braid_gate_as_general_coefficients():
    basis = UnitaryBasis.bell_like(0.4)
    coeffs = GateCoefficients.diagonal(EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS]))
    assert coeffs.is_gate(basis)
    assert max_abs_diff(coeffs.assemble(basis), yb_gate(0.4)) < 1e-12
    assert table_max(general_constraint_residuals(coeffs, basis, 0, 0)) < 1e-12


def test_generic_coefficients_fail_the_system(pauli_basis):
    # non-vacuity: an arbitrary unitary's coefficients violate the constraints
    coeffs = random_gate_coefficients(np.random.default_rng(7))
    assert coeffs.is_gate(pauli_basis)
    assert table_max(general_constraint_residuals(coeffs, pauli_basis, 0, 0)) > 0.5


@pytest.mark.parametrize("shape", [(5, 5), (3, 3), (4,), (4, 2), (2, 4, 4)])
def test_coefficient_matrix_must_be_4x4(shape):
    with pytest.raises(ValueError, match="4x4"):
        GateCoefficients(np.ones(shape))


def test_skew_transpose_keeps_order():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert max_abs_diff(skew_transpose(b, c), transpose(c @ b)) < 1e-14
    # and differs from the ordinary transpose of bc whenever [b,c] != 0
    assert max_abs_diff(skew_transpose(b, c), transpose(b @ c)) > 0.1


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_skew_forms_agree_with_originals(pauli_basis, m, n):
    for sol in solve_pauli_eigenvalues(m, n):
        coeffs = GateCoefficients.diagonal(sol.mu_of_phi(0.7))
        assert skew_agreement_deviation(pauli_basis, coeffs, m, n) < 1e-12


@pytest.mark.parametrize("basis", [UnitaryBasis.pauli(), UnitaryBasis.bell_like(0.4),
                                   UnitaryBasis.bell_like(-2.1)], ids=["pauli", "bell-like-0.4", "bell-like--2.1"])
@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_stacked_evaluator_matches_the_loop(basis, m, n):
    rng = np.random.default_rng(2 * m + n)
    for _ in range(3):
        coeffs = random_gate_coefficients(rng)
        u_loop = _loop_table(coeffs.g, _loop_u_forms(basis, m, n))
        o_loop = _loop_table(coeffs.g, _loop_o_forms(basis, m, n))
        assert table_max(u_loop) > 0.1
        assert _table_gap(general_constraint_residuals(coeffs, basis, m, n), u_loop) <= 1e-15
        deviation = max(abs(u_loop[c][p] - o_loop[c][p]) for c in CONSTRAINT_IDS for p in BIT_PAIRS)
        assert abs(skew_agreement_deviation(basis, coeffs, m, n) - deviation) <= 1e-15


@pytest.mark.parametrize("phi", [0.0, 0.3, -2.1])
def test_stacked_concrete_evaluator_matches_the_loop(monkeypatch, phi):
    rng = np.random.default_rng(11)
    lambdas = EigenAssignment([cmath.exp(1j * rng.uniform(-np.pi, np.pi)) for p in BIT_PAIRS])
    for lam in (EigenAssignment([B_EIGENVALUES[p] for p in BIT_PAIRS]), lambdas):
        oracle = _loop_table(GateCoefficients.diagonal(lam).g, _loop_concrete_forms(phi), scale=1.0)
        assert _table_gap(_concrete_with(monkeypatch, phi, lam), oracle) <= 1e-15
    assert table_max(oracle) > 0.1


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_printed_projector_shapes(m, n):
    e = printed_projector(m, n)
    assert max_abs_diff(e @ e, e) < 1e-14
    assert abs(np.trace(e) - 1) < 1e-14


@pytest.mark.parametrize("m,n", BIT_PAIRS)
def test_printed_gate_forms_are_unitary(m, n):
    for name, gate in printed_gate_forms(m, n, 0.8).items():
        assert is_unitary(gate), name


@pytest.mark.parametrize("n", (0, 1))
@pytest.mark.parametrize("phi", [0.0, 0.3, -1.1, 2.5, np.pi / 2, -7.0])
def test_printed_gate_forms_at_m_one_are_x_x_times_those_at_m_zero(n, phi):
    """Each m = 1 form is (X x X) F of its m = 0 form F, and rotating:- is rotating:+ with its cosine block negated."""
    at_zero, at_one = printed_gate_forms(0, n, phi), printed_gate_forms(1, n, phi)
    assert at_zero.keys() == at_one.keys()
    for name, form in at_zero.items():
        assert np.array_equal(at_one[name], kron(X, X) @ form), name
    for forms in (at_zero, at_one):
        minus = forms["rotating:+"].copy()
        block = minus[1:3, 1:3]
        minus[1:3, 1:3] = -block.real + 1j * block.imag  # the middle block's real entries are its cosines
        assert np.array_equal(forms["rotating:-"], minus)


@pytest.mark.parametrize("n", (0, 1))
def test_printed_projector_at_m_one_flips_the_second_qubit_of_m_zero(n):
    flip = kron(I2, X)
    assert np.array_equal(printed_projector(1, n), flip @ printed_projector(0, n) @ flip)


@pytest.mark.parametrize("m,n", BIT_PAIRS)
@pytest.mark.parametrize("phi", [0.3, 1.1])
def test_built_pairs_satisfy_projector_and_braid_laws(m, n, phi):
    for sol in solve_pauli_eigenvalues(m, n):
        e4, u4 = build_representation(sol, phi)
        assert max_abs_diff(e4, printed_projector(m, n)) < 1e-12
        form = matched_form(sol)
        assert max_abs_diff(u4, printed_gate_forms(m, n, phi)[form]) < 1e-12
        params = derive_params(u4)
        assert abs(params.d - 2) < 1e-9
        assert all(report.passed for report in check_all(e4, u4, params, n=3))


def test_matched_forms_at_the_origin():
    classes = solve_pauli_eigenvalues(0, 0)
    assert [matched_form(sol) for sol in classes] == ["rotating:+", "rotating:-", "exchange"]
