"""The one kernel behind every teleportation identity, _protocol_residual.

Each routed identity is checked against the per-term kron loop it
replaced, which is kept here as its oracle (with the same 2-norm metric).
A mutated kernel, with the front output qubit moved to the back or two
corrections exchanged, must push every family to an O(1) residual.
"""

import argparse
import json

import numpy as np
import pytest

from braidtel import algebra, cli, gate_teleport, tangles, teleport
from braidtel.algebra import brauer_teleportation_residuals
from braidtel.gate_teleport import (
    _b0_layers,
    b0_forward_residual,
    b0_reverse_residual,
    double_protocol_residuals,
    k_gate,
    l_gate,
    p_correction,
    q_correction,
    teleport_single_gate,
    teleport_two_qubit,
)
from braidtel.gates import (
    EPR, I2, bell_like_state, bell_state, brauer_projector, m_gate, pauli_w, permutation_p, t_gate, tl_projector,
)
from braidtel.linalg import basis_ket, conj, dagger, kron, mul, outer, transpose
from braidtel.teleport import (
    BIT_PAIRS,
    _braid_protocol,
    braid_teleportation_residual,
    check_teleportation_identity,
    probe_states,
    random_ket,
    teleport_with_yb,
)
from tables import table_max
from test_protocol_constants import _module_caches

PHIS = (0.0, 0.3, -2.1)
SEEDS = (5, 42)
VECTOR_VARIANTS = ("standard", "standard-transpose", "bell-like", "bell-like-transpose")
CHANNEL_VARIANTS = ("projector-channel", "projector-channel-transpose")


def _oracle(probes, lhs_fn, rhs_fn) -> float:
    return max(float(np.linalg.norm(lhs_fn(a) - rhs_fn(a))) for a in probes)


def _identity_oracle(variant, phi, seed):
    probes = probe_states(seed)
    m00 = m_gate(0, 0, phi)
    if variant == "standard":
        return _oracle(probes, lambda a: kron(a, EPR),
                       lambda a: 0.5 * sum(kron(bell_state(i, j), pauli_w(i, j) @ a) for i, j in BIT_PAIRS))
    if variant == "standard-transpose":
        return _oracle(probes, lambda a: kron(EPR, a),
                       lambda a: 0.5 * sum(kron(transpose(pauli_w(i, j)) @ a, bell_state(i, j)) for i, j in BIT_PAIRS))
    if variant == "bell-like":
        return _oracle(probes, lambda a: kron(a, bell_like_state(0, 0, phi)),
                       lambda a: 0.5 * sum(kron(bell_like_state(i, j, phi), mul(m00, conj(m_gate(i, j, phi))) @ a)
                                           for i, j in BIT_PAIRS))
    return _oracle(probes, lambda a: kron(bell_like_state(0, 0, phi), a),
                   lambda a: 0.5 * sum(kron(mul(transpose(m00), dagger(m_gate(i, j, phi))) @ a, bell_like_state(i, j, phi))
                                       for i, j in BIT_PAIRS))


def _projector_oracle(phi, seed):
    """The four identities written as the ket and bra equations they are."""
    m = {p: m_gate(*p, phi) for p in BIT_PAIRS}
    states = {p: kron(I2, m[p]) @ EPR for p in BIT_PAIRS}
    s00, m00 = states[(0, 0)], m[(0, 0)]
    probes = probe_states(seed)
    return {
        1: _oracle(probes, lambda a: kron(a, s00),
                   lambda a: sum(0.5 * kron(states[p], mul(m00, conj(m[p])) @ a) for p in BIT_PAIRS)),
        2: _oracle(probes, lambda a: kron(s00, a),
                   lambda a: sum(0.5 * kron(mul(transpose(m00), dagger(m[p])) @ a, states[p]) for p in BIT_PAIRS)),
        3: _oracle(probes, lambda a: kron(conj(a), conj(s00)),
                   lambda a: sum(0.5 * kron(conj(states[p]), conj(a) @ mul(transpose(m[p]), dagger(m00)))
                                 for p in BIT_PAIRS)),
        4: _oracle(probes, lambda a: kron(conj(s00), conj(a)),
                   lambda a: sum(0.5 * kron(conj(a) @ mul(m[p], conj(m00)), conj(states[p])) for p in BIT_PAIRS)),
    }


def _channel_oracle(variant, phi, seed):
    """The projector-channel operator identities and flow, one probe or draw at a time."""
    e00, psi = tl_projector(0, 0, phi), bell_like_state(0, 0, phi)
    if variant == "projector-channel":
        return _oracle(probe_states(seed), lambda a: kron(e00, I2) @ kron(a.reshape(2, 1), e00),
                       lambda a: 0.5 * outer(kron(psi, a), psi))
    if variant == "projector-channel-transpose":
        return _oracle(probe_states(seed), lambda a: kron(I2, e00) @ kron(e00, a.reshape(2, 1)),
                       lambda a: 0.5 * outer(kron(a, psi), psi))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        worst = max(worst, float(np.linalg.norm(kron(I2, u) @ EPR - kron(transpose(u), I2) @ EPR)))
    return worst


def _resource_oracle(op, correction, pair, seed):
    """Worst norm of op pair(alpha, |kl>) - (1/2) sum_ij pair(|ij>, C_ijkl alpha)."""
    worst = 0.0
    for alpha in probe_states(seed):
        for k, l in BIT_PAIRS:
            lhs = op @ pair(alpha, basis_ket(2 * k + l, 4))
            rhs = sum(0.5 * pair(basis_ket(2 * i + j, 4), correction(i, j, k, l) @ alpha) for i, j in BIT_PAIRS)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _braid_oracle(phi, seed):
    op, corrections, _ = _braid_protocol(phi)
    return _resource_oracle(op, lambda i, j, k, l: corrections[2 * k + l, 2 * i + j], kron, seed)


def _brauer_draws(seed, count):
    """The per-state draws of the loop the stacked Brauer check replaced."""
    rng = np.random.default_rng(seed)
    alphas = []
    for _ in range(count):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        alphas.append(v / np.linalg.norm(v))
    return alphas


def _brauer_oracle(seed, count=20):
    E, P = brauer_projector(), permutation_p()
    res = {"projector": 0.0, "swap": 0.0, "tangle": 0.0}
    swap_right_left = mul(kron(I2, P), kron(P, I2))
    swap_left_right = mul(kron(P, I2), kron(I2, P))
    for alpha in _brauer_draws(seed, count):
        lhs = kron(E, I2) @ kron(alpha, EPR)
        res["projector"] = max(res["projector"], float(np.linalg.norm(lhs - 0.5 * kron(EPR, alpha))))
        for pair in np.eye(4):
            moved = swap_right_left @ kron(alpha, pair)
            res["swap"] = max(res["swap"], float(np.linalg.norm(moved - kron(pair, alpha))))
        left = swap_left_right @ kron(EPR, alpha)
        right = 2.0 * kron(I2, E) @ kron(EPR, alpha)
        res["tangle"] = max(res["tangle"], float(np.linalg.norm(left - right)))
    return res


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phi", PHIS)
def test_routed_identities_match_their_kron_oracles(phi, seed):
    for variant in VECTOR_VARIANTS:
        assert abs(check_teleportation_identity(variant, phi, seed) - _identity_oracle(variant, phi, seed)) <= 1e-15
    stacked, oracle = tangles.projector_teleportation_residuals(phi, seed), _projector_oracle(phi, seed)
    assert set(stacked) == set(oracle)
    for c in oracle:
        assert abs(stacked[c] - oracle[c]) <= 1e-15, c
    assert abs(braid_teleportation_residual(phi, seed) - _braid_oracle(phi, seed)) <= 1e-15


# The operator residual D = d <psi| of a projector-channel form has rank one,
# so its Frobenius norm is the 2-norm |d| of the vector residual.
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phi", PHIS)
def test_channel_and_flow_identities_match_their_loop_oracles(phi, seed):
    for variant in (*CHANNEL_VARIANTS, "flow"):
        got, want = check_teleportation_identity(variant, phi, seed), _channel_oracle(variant, phi, seed)
        assert abs(got - want) <= 1e-15, variant


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phi", PHIS)
def test_bra_identities_repeat_the_ket_bits(phi, seed):
    r = tangles.projector_teleportation_residuals(phi, seed)
    assert r[3] == r[1]
    assert r[4] == r[2]


@pytest.mark.parametrize("seed", SEEDS)
def test_b0_residuals_match_their_kron_oracles(seed):
    front, back = _b0_layers()
    forward = _resource_oracle(mul(front, back), k_gate, kron, seed)
    reverse = _resource_oracle(mul(back, front), l_gate, lambda a, b: kron(b, a), seed)
    assert abs(b0_forward_residual(seed) - forward) <= 1e-15
    assert abs(b0_reverse_residual(seed) - reverse) <= 1e-15


@pytest.mark.parametrize("seed", (3, 7, 42, 1200))
def test_stacked_brauer_draws_equal_the_loop_draws(seed):
    rng = np.random.default_rng(seed)
    stacked = np.array([random_ket(rng) for _ in range(20)])
    assert np.array_equal(stacked, np.array(_brauer_draws(seed, 20)))
    residuals, oracle = brauer_teleportation_residuals(seed=seed), _brauer_oracle(seed)
    for name in ("swap", "tangle"):
        assert residuals[name] == oracle[name], name
    assert abs(residuals["projector"] - oracle["projector"]) <= 1e-15


# --------------------------------------------------------- mutation


def _families():
    """Every routed identity as a zero-argument call, at a generic phase."""
    phi = 0.3
    calls = {variant: (lambda v=variant: check_teleportation_identity(v, phi)) for variant in VECTOR_VARIANTS + CHANNEL_VARIANTS}
    calls.update({
        f"transfer-{c}": (lambda c=c: tangles.projector_teleportation_residuals(phi)[c]) for c in (1, 2, 3, 4)
    })
    calls["braid"] = lambda: braid_teleportation_residual(phi)
    calls["b0-forward"] = b0_forward_residual
    calls["b0-reverse"] = b0_reverse_residual
    calls["double"] = lambda: double_protocol_residuals()["single-middle"]
    calls["brauer-projector"] = lambda: brauer_teleportation_residuals()["projector"]
    return calls


FAMILIES = tuple(_families())


def _patch_evaluators(monkeypatch, protocol):
    """Route every family through a mutated _protocol_residual."""
    original = teleport._protocol_residual
    for module in (teleport, gate_teleport, algebra):
        monkeypatch.setattr(module, "_protocol_residual", lambda *args: protocol(original, *args))


# Bell states are symmetric or antisymmetric under a qubit swap, so reversing the output register leaves
# the mirrored identities intact; moving the front qubit to the back breaks them.
def _flipped_protocol(original, protocol, probes):
    """The protocol with its front output qubit moved to the back, so the measured register is read off by one."""
    op, table, kets = protocol
    n = op.shape[0].bit_length() - 1
    moved = op.reshape((2,) * n + (-1,)).transpose(*range(1, n), 0, n).reshape(op.shape)
    return original(teleport.Protocol(moved, table, kets, protocol.gate), probes)


def _exchanged_protocol(original, protocol, probes):
    """The protocol with the corrections of outcomes 0 and 1 exchanged at every resource."""
    op, table, kets = protocol
    return original(teleport.Protocol(op, table[:, [1, 0, *range(2, table.shape[1])]], kets, protocol.gate), probes)


@pytest.mark.parametrize("family", FAMILIES)
def test_unmutated_families_hold(family):
    assert _families()[family]() < 1e-14


@pytest.mark.parametrize("family", FAMILIES)
def test_flipped_flow_direction_breaks_every_family(monkeypatch, family):
    _patch_evaluators(monkeypatch, _flipped_protocol)
    assert _families()[family]() > 0.25


@pytest.mark.parametrize("family", FAMILIES)
def test_exchanged_corrections_break_every_family(monkeypatch, family):
    _patch_evaluators(monkeypatch, _exchanged_protocol)
    assert _families()[family]() > 0.25


# The Bell-like protocol does not transpose its correction between the two flow directions
# (transpose_asymmetry_margin), so each flow fails on the other flow's table.
@pytest.mark.parametrize("variant", ("bell-like", "bell-like-transpose"))
@pytest.mark.parametrize("phi", PHIS)
def test_each_bell_like_flow_fails_on_the_other_flows_table(monkeypatch, variant, phi):
    real = teleport._bell_like_corrections
    monkeypatch.setattr(teleport, "_bell_like_corrections", lambda p: real(p)[::-1])
    assert check_teleportation_identity(variant, phi) >= 0.5


# ------------------------------------------------------ protocol residual


def _report_protocol(variant, phi, gate="T"):
    """The protocol of a teleport report, as the report builds it, with the gate it applies."""
    return cli._protocol(argparse.Namespace(action=variant, phi=phi, gate=gate))[0]


def _probes(protocol):
    """probe_states for a one-qubit input; for a two-qubit input their 64 products."""
    op, table, _ = protocol
    probes = probe_states()
    return probes if op.shape[1] == 2 * len(table) else np.array([kron(a, b) for a in probes for b in probes])


PROTOCOL_CASES = [(v, "T") for v in ("standard", "bell-like", "yang-baxter", "two-qubit")] + [
    ("gate", g) for g in cli.TELEPORT_GATES
]


@pytest.mark.parametrize("phi", [0.3, -2.1])
@pytest.mark.parametrize("variant, gate", PROTOCOL_CASES,
                         ids=[v if v != "gate" else f"gate-{g}" for v, g in PROTOCOL_CASES])
def test_every_protocol_holds_its_identity_on_every_branch(variant, gate, phi):
    protocol = _report_protocol(variant, phi, gate)
    assert teleport._protocol_residual(protocol, _probes(protocol)) <= 1e-12


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
    op, table, kets = protocol
    return teleport.Protocol(op, transpose(table), kets, protocol.gate)


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
    assert teleport._protocol_residual(protocol, _probes(protocol)) >= 0.4


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


# ------------------------------------------------------ resource bits

_ALPHA = random_ket(np.random.default_rng(4))


@pytest.mark.parametrize(
    "run",
    [
        lambda: teleport_single_gate(t_gate(), _ALPHA, 0, -1),
        lambda: teleport_single_gate(t_gate(), _ALPHA, 2, 0),
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
