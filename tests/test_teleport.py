"""State teleportation: protocols, phase tables, and the identity forms."""

import warnings

import numpy as np
import pytest

from braidtel import teleport
from braidtel.gate_teleport import teleport_single_gate
from braidtel.gates import H, yb_gate
from braidtel.linalg import fidelity, identity, is_unitary, max_abs_diff
from braidtel.teleport import (
    BIT_PAIRS,
    _braid_protocol,
    completeness_residuals,
    extract_phases,
    teleport_bell_like,
    teleport_standard,
    teleport_with_yb,
    transpose_asymmetry_margin,
    u_gate,
    v_gate,
    w_braid_closed_form,
)
from registers import IDENTITY_VARIANTS, identity_residual, random_ket
from tables import w_braid_correction


def test_random_ket_is_normalized():
    rng = np.random.default_rng(0)
    assert np.linalg.norm(random_ket(rng)) == pytest.approx(1.0)
    assert random_ket(rng, dim=4).shape == (4,)


@pytest.mark.parametrize("seed", [1, 17, 4242])
def test_standard_protocol_recovers_the_state(seed):
    alpha = random_ket(np.random.default_rng(seed))
    outcome, corrected = teleport_standard(alpha, rng_seed=seed)
    assert fidelity(alpha, corrected) == pytest.approx(1.0, abs=1e-12)
    assert outcome.probability == pytest.approx(0.25, abs=1e-12)
    assert (outcome.i, outcome.j) in BIT_PAIRS


@pytest.mark.parametrize("phi", [0.0, 0.85, 2.3])
def test_bell_like_protocol_recovers_the_state(phi):
    alpha = random_ket(np.random.default_rng(5))
    outcome, corrected = teleport_bell_like(alpha, phi, rng_seed=5)
    assert fidelity(alpha, corrected) == pytest.approx(1.0, abs=1e-12)
    assert outcome.probability == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("k,l", BIT_PAIRS)
def test_braid_protocol_recovers_the_state(k, l):
    alpha = random_ket(np.random.default_rng(9))
    outcome, corrected = teleport_with_yb(alpha, k, l, phi=0.6, rng_seed=9)
    assert fidelity(alpha, corrected) == pytest.approx(1.0, abs=1e-12)
    assert outcome.probability == pytest.approx(0.25, abs=1e-12)


def test_braid_protocol_validates_resource_bits():
    alpha = random_ket(np.random.default_rng(2))
    with pytest.raises(ValueError):
        teleport_with_yb(alpha, 2, 0, phi=0.1)


@pytest.mark.parametrize("phi", [0.0, 0.45, 1.7])
def test_phase_table_consistency(phi):
    table = extract_phases(phi)
    assert table.max_residual < 1e-12
    for k, l in BIT_PAIRS:
        assert is_unitary(v_gate(k, l, table))
        assert is_unitary(u_gate(k, l, table))


NOT_BELL_TRANSFORMS = {
    "identity": lambda phi: identity(4),
    # B with columns 00 and 10 swapped: column 00 is a phase times (R x RH)|psi(01)>, orthogonal to its target
    "column-00-orthogonal": lambda phi: yb_gate(phi)[:, [2, 1, 0, 3]],
}


@pytest.mark.parametrize("gate", NOT_BELL_TRANSFORMS.values(), ids=NOT_BELL_TRANSFORMS.keys())
def test_extract_phases_rejects_a_gate_that_is_not_a_phased_bell_transform(gate, monkeypatch):
    monkeypatch.setattr(teleport, "yb_gate", gate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^B\|00> is not a phased Bell state at phi=0.3$"):
            extract_phases(0.3)


def test_braid_correction_closed_form():
    table = extract_phases(1.1)
    for i, j in BIT_PAIRS:
        for k, l in BIT_PAIRS:
            direct = w_braid_correction(i, j, k, l, table)
            closed = w_braid_closed_form(i, j, k, l, table)
            assert max_abs_diff(direct, closed) < 1e-12, (i, j, k, l)


@pytest.mark.parametrize("phi", [0.0, 0.8])
def test_braid_expansion_residual(phi):
    assert _braid_protocol(phi).every_branch < 1e-12


def test_both_measurement_families_complete():
    residuals = completeness_residuals(0.9)
    assert residuals["bell"] < 1e-14
    assert residuals["bell_like"] < 1e-12


@pytest.mark.parametrize("variant", IDENTITY_VARIANTS)
@pytest.mark.parametrize("phi", [0.0, 0.9])
def test_identity_variants(variant, phi):
    assert identity_residual(variant, phi) < 1e-10


def test_transpose_route_differs_from_naive_transpose():
    # the reverse-flow correction is NOT the entrywise transpose of the
    # forward one; the margin certifies the test above is non-vacuous
    assert transpose_asymmetry_margin(0.9) > 0.05


@pytest.mark.parametrize(
    "run",
    [
        teleport_standard,
        lambda a: teleport_bell_like(a, 0.3),
        lambda a: teleport_with_yb(a, 0, 1, 0.3),
        lambda a: teleport_single_gate(H, a, 1, 0),
    ],
    ids=["standard", "bell-like", "yang-baxter", "single-gate"],
)
def test_one_qubit_protocols_reject_wider_inputs(run):
    with pytest.raises(ValueError, match="expected a 1-qubit state"):
        run(random_ket(np.random.default_rng(6), dim=4))
