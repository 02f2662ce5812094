"""The one kernel behind every teleportation identity, _protocol_residual.

Each routed identity is checked against the per-term kron loop it
replaced, which is kept here as its oracle: the loop runs over the
computational-basis inputs e_j and takes sqrt(sum_j |lhs(e_j) - rhs(e_j)|^2),
the Frobenius norm of the residual map, as the kernel does.  A mutated
protocol build, with the front output qubit moved to the back or two
corrections exchanged, must push every family to an O(1) residual.
"""

import argparse
import json

import numpy as np
import pytest

from braidtel import algebra, cli, gate_teleport, gates, tangles, teleport
from braidtel.algebra import brauer_teleportation_residuals
from braidtel.gate_teleport import (
    _b0_layers,
    _double_protocol,
    _gate_protocol,
    b0_reverse_residual,
    k_gate,
    l_gate,
    p_correction,
    q_correction,
    teleport_single_gate,
    teleport_two_qubit,
)
from braidtel.gates import (
    EPR, I2, bell_like_state, bell_state, brauer_projector, m_gate, pauli_w, permutation_p, T, tl_projector,
)
from braidtel.linalg import conj, dagger, kron, mul, outer, transpose
from braidtel.teleport import (
    BIT_PAIRS,
    _braid_protocol,
    teleport_with_yb,
)
from registers import basis_ket, identity_residual, random_ket
from tables import table_max
from test_protocol_constants import _module_caches

PHIS = (0.0, 0.3, -2.1)
VECTOR_VARIANTS = ("standard", "standard-transpose", "bell-like", "bell-like-transpose")
CHANNEL_VARIANTS = ("projector-channel", "projector-channel-transpose")


def _oracle(lhs_fn, rhs_fn, dim=2) -> float:
    """sqrt(sum_j |lhs(e_j) - rhs(e_j)|^2) over the computational-basis kets e_j of the input."""
    return float(np.sqrt(sum(np.linalg.norm(lhs_fn(a) - rhs_fn(a)) ** 2 for a in np.eye(dim))))


def _identity_oracle(variant, phi):
    m00 = m_gate(0, 0, phi)
    if variant == "standard":
        return _oracle(lambda a: kron(a, EPR),
                       lambda a: 0.5 * sum(kron(bell_state(i, j), pauli_w(i, j) @ a) for i, j in BIT_PAIRS))
    if variant == "standard-transpose":
        return _oracle(lambda a: kron(EPR, a),
                       lambda a: 0.5 * sum(kron(transpose(pauli_w(i, j)) @ a, bell_state(i, j)) for i, j in BIT_PAIRS))
    if variant == "bell-like":
        return _oracle(lambda a: kron(a, bell_like_state(0, 0, phi)),
                       lambda a: 0.5 * sum(kron(bell_like_state(i, j, phi), mul(m00, conj(m_gate(i, j, phi))) @ a)
                                           for i, j in BIT_PAIRS))
    return _oracle(lambda a: kron(bell_like_state(0, 0, phi), a),
                   lambda a: 0.5 * sum(kron(mul(transpose(m00), dagger(m_gate(i, j, phi))) @ a, bell_like_state(i, j, phi))
                                       for i, j in BIT_PAIRS))


def _projector_oracle(phi):
    """The four identities written as the ket and bra equations they are."""
    m = {p: m_gate(*p, phi) for p in BIT_PAIRS}
    states = {p: kron(I2, m[p]) @ EPR for p in BIT_PAIRS}
    s00, m00 = states[(0, 0)], m[(0, 0)]
    return {
        1: _oracle(lambda a: kron(a, s00),
                   lambda a: sum(0.5 * kron(states[p], mul(m00, conj(m[p])) @ a) for p in BIT_PAIRS)),
        2: _oracle(lambda a: kron(s00, a),
                   lambda a: sum(0.5 * kron(mul(transpose(m00), dagger(m[p])) @ a, states[p]) for p in BIT_PAIRS)),
        3: _oracle(lambda a: kron(conj(a), conj(s00)),
                   lambda a: sum(0.5 * kron(conj(states[p]), conj(a) @ mul(transpose(m[p]), dagger(m00)))
                                 for p in BIT_PAIRS)),
        4: _oracle(lambda a: kron(conj(s00), conj(a)),
                   lambda a: sum(0.5 * kron(conj(a) @ mul(m[p], conj(m00)), conj(states[p])) for p in BIT_PAIRS)),
    }


def _channel_oracle(variant, phi):
    """The projector-channel operator identities one basis ket at a time, and flow one W_ij at a time."""
    e00, psi = tl_projector(0, 0, phi), bell_like_state(0, 0, phi)
    if variant == "projector-channel":
        return _oracle(lambda a: kron(e00, I2) @ kron(a.reshape(2, 1), e00), lambda a: 0.5 * outer(kron(psi, a), psi))
    if variant == "projector-channel-transpose":
        return _oracle(lambda a: kron(I2, e00) @ kron(e00, a.reshape(2, 1)), lambda a: 0.5 * outer(kron(a, psi), psi))
    squares = 0.0
    for i, j in BIT_PAIRS:
        u = pauli_w(i, j)
        squares += float(np.linalg.norm(kron(I2, u) @ EPR - kron(transpose(u), I2) @ EPR)) ** 2
    return squares**0.5


def _resource_oracle(op, correction, pair):
    """The largest _oracle, over kl, of alpha -> op pair(alpha, |kl>) - (1/2) sum_ij pair(|ij>, C_ijkl alpha)."""
    def rhs(alpha, k, l):
        return sum(0.5 * pair(basis_ket(2 * i + j, 4), correction(i, j, k, l) @ alpha) for i, j in BIT_PAIRS)

    return max(_oracle(lambda alpha: op @ pair(alpha, basis_ket(2 * k + l, 4)), lambda alpha: rhs(alpha, k, l))
               for k, l in BIT_PAIRS)


def _braid_oracle(phi):
    protocol = _braid_protocol(phi)
    op, corrections = protocol.op, protocol.table
    return _resource_oracle(op, lambda i, j, k, l: corrections[2 * k + l, 2 * i + j], kron)


def _brauer_oracle():
    """The projector and tangle maps one basis ket at a time, the swap per basis pair."""
    E, P = brauer_projector(), permutation_p()
    swap_right_left = mul(kron(I2, P), kron(P, I2))
    swap_left_right = mul(kron(P, I2), kron(I2, P))
    return {
        "projector": _oracle(lambda a: kron(E, I2) @ kron(a, EPR), lambda a: 0.5 * kron(EPR, a)),
        "swap": max(_oracle(lambda a: swap_right_left @ kron(a, pair), lambda a: kron(pair, a)) for pair in np.eye(4)),
        "tangle": _oracle(lambda a: swap_left_right @ kron(EPR, a), lambda a: 2.0 * kron(I2, E) @ kron(EPR, a)),
    }


@pytest.mark.parametrize("phi", PHIS)
def test_routed_identities_match_their_kron_oracles(phi):
    for variant in VECTOR_VARIANTS:
        assert abs(identity_residual(variant, phi) - _identity_oracle(variant, phi)) <= 1e-15
    stacked, oracle = tangles.projector_teleportation_residuals(phi), _projector_oracle(phi)
    assert set(stacked) == set(oracle)
    for c in oracle:
        assert abs(stacked[c] - oracle[c]) <= 1e-15, c
    assert abs(_braid_protocol(phi).every_branch - _braid_oracle(phi)) <= 1e-15


# The operator residual D = d <psi| of a projector-channel form has rank one,
# so its Frobenius norm is the 2-norm |d| of the vector residual.
@pytest.mark.parametrize("phi", PHIS)
def test_channel_and_flow_identities_match_their_loop_oracles(phi):
    for variant in (*CHANNEL_VARIANTS, "flow"):
        got, want = identity_residual(variant, phi), _channel_oracle(variant, phi)
        assert abs(got - want) <= 1e-15, variant


@pytest.mark.parametrize("phi", PHIS)
def test_bra_identities_repeat_the_ket_bits(phi):
    r = tangles.projector_teleportation_residuals(phi)
    assert r[3] == r[1]
    assert r[4] == r[2]


def test_b0_residuals_match_their_kron_oracles():
    front, back = _b0_layers()
    forward = _resource_oracle(mul(front, back), k_gate, kron)
    reverse = _resource_oracle(mul(back, front), l_gate, lambda a, b: kron(b, a))
    assert abs(_gate_protocol(I2).every_branch - forward) <= 1e-15
    assert abs(b0_reverse_residual() - reverse) <= 1e-15


def test_brauer_residuals_match_their_kron_oracles():
    residuals, oracle = brauer_teleportation_residuals(), _brauer_oracle()
    assert residuals["swap"] == oracle["swap"] == 0.0
    for name in ("projector", "tangle"):
        assert abs(residuals[name] - oracle[name]) <= 1e-15, name


# --------------------------------------------------------- mutation


def _families():
    """Every routed identity as a zero-argument call, at a generic phase."""
    phi = 0.3
    calls = {variant: (lambda v=variant: identity_residual(v, phi)) for variant in VECTOR_VARIANTS + CHANNEL_VARIANTS}
    calls.update({
        f"transfer-{c}": (lambda c=c: tangles.projector_teleportation_residuals(phi)[c]) for c in (1, 2, 3, 4)
    })
    calls["braid"] = lambda: _braid_protocol(phi).every_branch
    calls["b0-forward"] = lambda: _gate_protocol(I2).every_branch
    calls["b0-reverse"] = b0_reverse_residual
    calls["double"] = lambda: _double_protocol().every_branch
    calls["brauer-projector"] = lambda: brauer_teleportation_residuals()["projector"]
    return calls


FAMILIES = tuple(_families())


def _patch_evaluators(monkeypatch, mutation):
    """Build every protocol, in every module, from mutation(op, table, kets, gate): Protocol is their one constructor."""
    original = teleport.Protocol.__new__
    monkeypatch.setattr(teleport.Protocol, "__new__", lambda cls, *fields: original(cls, *mutation(*fields)))


# Bell states are symmetric or antisymmetric under a qubit swap, so reversing the output register leaves
# the mirrored identities intact; moving the front qubit to the back breaks them.
def _flipped_protocol(op, table, kets, gate):
    """The protocol with its front output qubit moved to the back, so the measured register is read off by one."""
    n = op.shape[0].bit_length() - 1
    moved = op.reshape((2,) * n + (-1,)).transpose(*range(1, n), 0, n).reshape(op.shape)
    return moved, table, kets, gate


def _exchanged_protocol(op, table, kets, gate):
    """The protocol with the corrections of outcomes 0 and 1 exchanged at every resource."""
    return op, table[:, [1, 0, *range(2, table.shape[1])]], kets, gate


@pytest.mark.parametrize("family", FAMILIES)
def test_unmutated_families_hold(family):
    assert _families()[family]() < 1e-14


# The Brauer residuals are held once per process, so the mutated ones run from cold caches.
@pytest.mark.parametrize("family", FAMILIES)
def test_flipped_flow_direction_breaks_every_family(monkeypatch, cold_tables, family):
    _patch_evaluators(monkeypatch, _flipped_protocol)
    assert _families()[family]() > 0.25


@pytest.mark.parametrize("family", FAMILIES)
def test_exchanged_corrections_break_every_family(monkeypatch, cold_tables, family):
    _patch_evaluators(monkeypatch, _exchanged_protocol)
    assert _families()[family]() > 0.25


# A resource that is not maximally entangled breaks flow; the four W_ij still bound every unitary u, because
# the identity is linear in u and u = sum_ij c_ij W_ij with sum_ij |c_ij|^2 = 1.
def test_flow_on_the_four_w_bounds_every_unitary(monkeypatch):
    resource = np.array([0.8, 0, 0, 0.6], dtype=complex)
    monkeypatch.setattr(gates, "EPR", resource)
    bound = identity_residual("flow", 0.0)
    rng = np.random.default_rng(2611)
    worst = 0.0
    for _ in range(200):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        worst = max(worst, float(np.linalg.norm(kron(I2, u) @ resource - kron(transpose(u), I2) @ resource)))
    assert 0.1 <= worst <= bound * (1 + 1e-12)


# Each Brauer identity fails once the swap it rests on is replaced by the identity, read from cold caches.
@pytest.mark.parametrize("name", ["swap", "tangle"])
def test_each_brauer_swap_identity_fails_without_the_swap(name, cold_tables, monkeypatch):
    monkeypatch.setattr(algebra, "permutation_p", lambda: np.eye(4, dtype=complex))
    assert brauer_teleportation_residuals()[name] >= 0.5


def test_the_brauer_projector_identity_fails_on_a_wrong_projector(cold_tables, monkeypatch):
    monkeypatch.setattr(algebra, "brauer_projector", lambda: outer(bell_state(1, 1), bell_state(1, 1)))
    assert brauer_teleportation_residuals()["projector"] >= 0.5


# The Bell-like protocol does not transpose its correction between the two flow directions
# (transpose_asymmetry_margin), so each flow fails on the other flow's table.
@pytest.mark.parametrize("variant", ("bell-like", "bell-like-transpose"))
@pytest.mark.parametrize("phi", PHIS)
def test_each_bell_like_flow_fails_on_the_other_flows_table(cold_tables, monkeypatch, variant, phi):
    real = teleport._basis_protocol

    def other_flows_table(basis, front):
        protocol = real(basis, front)
        return teleport.Protocol(protocol.op, real(basis, not front).table, protocol.kets, protocol.gate)

    monkeypatch.setattr(teleport, "_basis_protocol", other_flows_table)
    assert identity_residual(variant, phi) >= 0.5


# ------------------------------------------------------ protocol residual


def _report_protocol(variant, phi, gate="T"):
    """The protocol of a teleport report, as the report builds it, with the gate it applies."""
    return cli._protocol(argparse.Namespace(action=variant, phi=phi, gate=gate))[0]


PROTOCOL_CASES = [(v, "T") for v in ("standard", "bell-like", "yang-baxter", "two-qubit")] + [
    ("gate", g) for g in cli.TELEPORT_GATES
]


@pytest.mark.parametrize("phi", [0.3, -2.1])
@pytest.mark.parametrize("variant, gate", PROTOCOL_CASES,
                         ids=[v if v != "gate" else f"gate-{g}" for v, g in PROTOCOL_CASES])
def test_every_protocol_holds_its_identity_on_every_branch(variant, gate, phi):
    protocol = _report_protocol(variant, phi, gate)
    assert teleport._protocol_residual(protocol.table, protocol.gate, protocol.branch) <= 1e-12


@pytest.fixture
def cold_tables():
    """Every module-level cache cleared, so no protocol, table or branch tensor built before a fake is kept."""
    for cache in _module_caches():
        cache.cache_clear()
    yield
    for cache in _module_caches():
        cache.cache_clear()


def _w_transposed(real=teleport._standard_protocol):
    protocol = real()
    return teleport.Protocol(protocol.op, transpose(protocol.table), protocol.kets, protocol.gate)


def _k_row_00_negated(i, j, k, l, real=k_gate):
    return -real(i, j, k, l) if k == l == 0 else real(i, j, k, l)


def _unit_on_branch_zero(real):
    return lambda *bits: I2 if not any(bits) else real(*bits)


# Each defect is (report variant, [(module, name, fake)]); the tables are rebuilt from the fakes.
DEFECTS = {
    "w-transposed": ("standard", [(cli, "_standard_protocol", _w_transposed)]),
    "k-row-negated": ("gate", [(gate_teleport, "k_gate", _k_row_00_negated)]),
    # Q x P = 1 on the branch 00,00|00,00, which teleport two-qubit at its default seed and count never samples
    "qp-unit-on-one-branch": ("two-qubit", [(gate_teleport, "q_correction", _unit_on_branch_zero(q_correction)),
                                            (gate_teleport, "p_correction", _unit_on_branch_zero(p_correction))]),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_protocol_residual_sees_each_seeded_defect(defect, cold_tables, monkeypatch):
    variant, fakes = DEFECTS[defect]
    for module, name, fake in fakes:
        monkeypatch.setattr(module, name, fake)
    protocol = _report_protocol(variant, 0.3)
    assert teleport._protocol_residual(protocol.table, protocol.gate, protocol.branch) >= 0.4


# Fidelity ignores phase and the default run never samples the 00,00|00,00 branch, so without the
# every-branch row each report would pass.
@pytest.mark.parametrize("defect", DEFECTS)
def test_each_seeded_defect_fails_only_the_every_branch_row(defect, cold_tables, monkeypatch, capsys):
    variant, fakes = DEFECTS[defect]
    for module, name, fake in fakes:
        monkeypatch.setattr(module, name, fake)
    assert cli.main(["teleport", variant, "--phi", "0.3", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [entry["label"] for entry in results if entry.get("pass") is False] == ["every-branch"]
    assert float(next(e for e in results if e["label"] == "every-branch")["residual"]) >= 0.4


def _worst_at_random_inputs(protocol, count=200, seed=2611):
    """max |D_r x| over resources r and count seeded random unit inputs x: D_r = branch[r] - table[r] gate / sqrt(M)."""
    table, kets = protocol.table, protocol.kets
    rng, dim = np.random.default_rng(seed), protocol.branch.shape[2]
    amps = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    inputs = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    defects = protocol.branch - (table @ protocol.gate).reshape(protocol.branch.shape) / np.sqrt(len(kets))
    return float(np.linalg.norm(defects @ inputs.T, axis=1).max())


# The Frobenius norm of D_r bounds |D_r x| at every unit x; the factor allows for the rounding of one matvec.
@pytest.mark.parametrize("phi", [0.3, -2.1])
@pytest.mark.parametrize("variant, gate", PROTOCOL_CASES,
                         ids=[v if v != "gate" else f"gate-{g}" for v, g in PROTOCOL_CASES])
def test_every_branch_bounds_the_residual_at_random_inputs(variant, gate, phi):
    protocol = _report_protocol(variant, phi, gate)
    assert _worst_at_random_inputs(protocol) <= protocol.every_branch * (1 + 1e-12)


@pytest.mark.parametrize("defect", DEFECTS)
def test_every_branch_bounds_each_seeded_defect_at_random_inputs(defect, cold_tables, monkeypatch):
    variant, fakes = DEFECTS[defect]
    for module, name, fake in fakes:
        monkeypatch.setattr(module, name, fake)
    protocol = _report_protocol(variant, 0.3)
    assert 0.1 <= _worst_at_random_inputs(protocol) <= protocol.every_branch * (1 + 1e-12)


# ------------------------------------------------------ resource bits

_ALPHA = random_ket(np.random.default_rng(4))


@pytest.mark.parametrize(
    "run",
    [
        lambda: teleport_single_gate(T, _ALPHA, 0, -1),
        lambda: teleport_single_gate(T, _ALPHA, 2, 0),
        lambda: teleport_two_qubit(basis_ket(0, 4), 0, -1, 0, 0),
        lambda: teleport_two_qubit(basis_ket(0, 4), 2, 0, 0, 0),
        lambda: teleport_two_qubit(basis_ket(0, 4), 0, 0, 1, 2),
        lambda: teleport_with_yb(_ALPHA, 0, -1, 0.3),
        lambda: teleport_with_yb(_ALPHA, 2, 0, 0.3),
    ],
    ids=["single-(0,-1)", "single-(2,0)", "double-(0,-1,0,0)", "double-(2,0,0,0)", "double-(0,0,1,2)",
         "yb-(0,-1)", "yb-(2,0)"],
)
def test_resource_bits_must_be_bits(run):
    with pytest.raises(ValueError, match="bit index must be 0 or 1"):
        run()


# ----------------------------------------------------------- solve grid


@pytest.mark.parametrize("mn", BIT_PAIRS)
def test_solve_grid_matches_the_per_phi_loop(mn, monkeypatch):
    m, n = mn
    basis = tangles.UnitaryBasis.pauli()
    for sol in tangles.solve_pauli_eigenvalues(m, n):
        loop = max(table_max(tangles.spectral_constraint_residuals(basis, sol.mu_of_phi(p), m, n))
                   for p in cli._PHI_GRID)
        batched = float(tangles._pattern_residuals(m, n, cli._PHI_GRID, [sol.pattern]).max())
        assert abs(batched - loop) <= 1e-15, sol.class_id
    calls = []
    monkeypatch.setattr(cli, "spectral_constraint_residuals", lambda *args: calls.append(args))
    assert cli.main(["solve", "--mn", f"{m}{n}", "--format", "json"]) == 0
    assert calls == []
