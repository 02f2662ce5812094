"""Gauge covariance: the relation checker respects the algebra's symmetries.

Conjugation by V^{(x)n} is an automorphism of the n-site matrix algebra that keeps locality, so every relation
residual of (V x V) (E, B) (V x V)^dag equals that of (E, B) at rounding scale.  So do transposition, complex
conjugation (with the conjugate's own parameters) and conjugation by SWAP, the chain's reflection.  A checker
that quietly depends on the basis breaks this on every host, where a byte lock catches it only on the host that
wrote it.  The controls, V1 x V2 with independent factors and a generic 4 x 4 unitary, are no automorphism of
the chain and must move the residuals by far more, so the check is not vacuous.

The teleportation identities and the constraint tables get the same treatment.  V W_ij V^dag is again a unitary
error basis for every unitary V, so _basis_protocol of a gauged Pauli or M_ij basis teleports exactly in both
flows; the kets of one gauge with the table of another must not.  The constraint tables keep their residuals
when the Pauli basis changes by a real orthogonal O, O W_ij O^T, and a generic unitary V must move them: the
system is O(2)-covariant and not U(2)-covariant.
"""

import numpy as np
import pytest

from braidtel import algebra
from braidtel.algebra import build_rep, check_all, derive_params
from braidtel.gates import I2, SWAP, brauer_projector, permutation_p, phase_shift, tl_projector, yb_gate
from braidtel.linalg import conj, dagger, kron, max_abs_diff, transpose
from braidtel.tangles import solve_pauli_eigenvalues, spectral_constraint_residuals
from braidtel.teleport import BIT_PAIRS, Protocol, UnitaryBasis, _basis_protocol
from registers import haar_orthogonal, haar_unitary
from tables import table_max

PHIS = (0.3, -2.1, 1.1)
SEED = 2026
DRAWS = 200
CONTROL_DRAWS = 50
# the honest worst residual is 7.9e-16, the worst gauged one 3.4e-15 and the worst Brauer one 3.6e-15
GAUGE_TOL = 1e-14
# the controls' smallest worst residual is 0.17 (V1 x V2) and 0.66 (a generic W) over these draws, and 0.80 for
# the kets of one gauged basis with the table of another (median 1.95)
CONTROL_FLOOR = 1e-3
TABLE_DRAWS = 20
# a generic V moves the constraint tables by at least 1.5e-2 over these draws, median 0.74
TABLE_CONTROL_FLOOR = 1e-4
# the Pauli basis, which has no phi, and the M_ij basis at each phi
BASES = [("pauli", None)] + [("bell-like", phi) for phi in PHIS]


def _worst(e, b, params) -> float:
    """The largest residual of check_all on 3 sites."""
    return max(report.max_residual for report in check_all(e, b, params, n=3))


def _conjugated(g, *ops):
    return [g @ op @ dagger(g) for op in ops]


def _gauged(gauge: str, e, b, rng):
    """The (E', B') pairs a gauge makes of (E, B), with the parameters each is checked against."""
    params = derive_params(b)
    if gauge == "honest":
        return [(e, b, params)]
    if gauge == "V x V":
        return [(*_conjugated(kron(v, v), e, b), params) for v in (haar_unitary(rng, 2) for _ in range(DRAWS))]
    if gauge == "transpose":
        return [(transpose(e), transpose(b), params)]
    if gauge == "conjugate":
        return [(conj(e), conj(b), derive_params(conj(b)))]
    return [(*_conjugated(SWAP, e, b), params)]


@pytest.mark.parametrize("gauge", ["honest", "V x V", "transpose", "conjugate", "SWAP"])
@pytest.mark.parametrize("phi", PHIS)
def test_gauge_keeps_every_relation(phi, gauge):
    e, b = tl_projector(0, 0, phi), yb_gate(phi)
    worst = max(_worst(*case) for case in _gauged(gauge, e, b, np.random.default_rng(SEED)))
    assert worst <= GAUGE_TOL


def test_real_orthogonal_gauge_keeps_the_brauer_relations():
    """O x O fixes the EPR pair and commutes with SWAP for every real orthogonal O."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(DRAWS):
        o = haar_orthogonal(rng, 2)
        pair = _conjugated(kron(o, o), brauer_projector(), permutation_p())
        reports = algebra._suite(build_rep(*pair, 3), 2.0)
        worst = max(worst, max(report.max_residual for report in reports.values()))
    assert worst <= GAUGE_TOL


def test_projectors_and_gate_are_phase_gauges_of_phi_zero():
    """E_ij(phi) and B(phi) are (R_phi x R_phi) X(0) (R_phi x R_phi)^dag, which the phi reduction rests on."""
    at_zero = [tl_projector(i, j, 0.0) for i in (0, 1) for j in (0, 1)] + [yb_gate(0.0)]
    worst = 0.0
    for phi in np.linspace(-3.0, 3.0, 61):
        r = phase_shift(phi)
        at_phi = [tl_projector(i, j, phi) for i in (0, 1) for j in (0, 1)] + [yb_gate(phi)]
        worst = max(worst, max_abs_diff(np.array(at_phi), np.array(_conjugated(kron(r, r), *at_zero))))
    assert worst <= 1e-15


@pytest.mark.parametrize("control", ["V1 x V2", "W"])
@pytest.mark.parametrize("phi", PHIS)
def test_controls_break_the_relations(phi, control):
    e, b = tl_projector(0, 0, phi), yb_gate(phi)
    params, rng = derive_params(b), np.random.default_rng(SEED)
    for _ in range(CONTROL_DRAWS):
        g = kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) if control == "V1 x V2" else haar_unitary(rng, 4)
        assert _worst(*_conjugated(g, e, b), params) >= CONTROL_FLOOR


def _basis(name: str, phi):
    return UnitaryBasis.pauli() if name == "pauli" else UnitaryBasis.bell_like(phi)


def _gauged_protocol(basis: UnitaryBasis, v, front: bool) -> Protocol:
    """_basis_protocol of the unitary error basis V U_ij V^dag."""
    return _basis_protocol(UnitaryBasis(v @ basis.u @ dagger(v)), front)


# the honest worst every_branch is 3.1e-16 and the worst gauged one 4.6e-16
@pytest.mark.parametrize("front", [True, False], ids=["front", "mirror"])
@pytest.mark.parametrize("name, phi", BASES)
def test_unitary_gauge_keeps_every_branch(name, phi, front):
    basis, rng = _basis(name, phi), np.random.default_rng(SEED)
    assert _basis_protocol(basis, front).every_branch <= GAUGE_TOL
    worst = max(_gauged_protocol(basis, haar_unitary(rng, 2), front).every_branch for _ in range(DRAWS))
    assert worst <= GAUGE_TOL


@pytest.mark.parametrize("front", [True, False], ids=["front", "mirror"])
@pytest.mark.parametrize("name, phi", BASES)
def test_kets_and_table_of_two_gauges_break_every_branch(name, phi, front):
    basis, rng = _basis(name, phi), np.random.default_rng(SEED)
    for _ in range(CONTROL_DRAWS):
        kets, table = (_gauged_protocol(basis, haar_unitary(rng, 2), front) for _ in range(2))
        assert Protocol(kets[0], table[1], kets[2], I2).every_branch >= CONTROL_FLOOR


def _tables_under(change, phi, rng) -> list[float]:
    """The worst constraint residual of every solved class at phi over the Pauli basis changed by g W_ij g^dag."""
    w = UnitaryBasis.pauli().u
    worst = []
    for m, n in BIT_PAIRS:
        for solution in solve_pauli_eigenvalues(m, n):
            mu = solution.mu_of_phi(phi)
            for g in (change(rng, 2) for _ in range(TABLE_DRAWS)):
                worst.append(table_max(spectral_constraint_residuals(UnitaryBasis(g @ w @ dagger(g)), mu, m, n)))
    return worst


# the honest tables read 0.0 and the worst O-changed one 3.3e-15, over all 12 solved classes
@pytest.mark.parametrize("phi", PHIS)
def test_real_orthogonal_change_of_basis_keeps_the_constraint_tables(phi):
    assert max(_tables_under(haar_orthogonal, phi, np.random.default_rng(SEED))) <= GAUGE_TOL


@pytest.mark.parametrize("phi", PHIS)
def test_unitary_change_of_basis_breaks_the_constraint_tables(phi):
    assert min(_tables_under(haar_unitary, phi, np.random.default_rng(SEED))) >= TABLE_CONTROL_FLOOR
