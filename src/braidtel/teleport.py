"""Teleportation protocols driven by Bell projectors and the braid gate.

Three protocol families are simulated end to end (resource preparation,
projective measurement, classical correction):

  standard   Bell resource |Psi>, Bell measurement, Pauli correction W_ij
  bell-like  resource |Psi_M00>, measurement {E_ij}, correction (M00 M*_ij)^dag
  braid      resource built by the gate pair (B x 1)(1 x B), product-basis
             measurement, correction W_{i,j,k,l}

The identities behind the protocols are also exposed directly as residual
checks so they can be verified as exact vector/operator equations instead
of sampled behaviour.  Measurement outcomes are sampled through a seeded
generator; probabilities themselves come from the Born rule exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gates import (
    EPR,
    H,
    I2,
    bell_like_state,
    bell_state,
    m_gate,
    pauli_w,
    phase_shift,
    tl_projector,
    x_pow,
    yb_gate,
    z_pow,
)
from .linalg import (
    DEFAULT_TOL,
    approx_eq_phase,
    basis_ket,
    conj,
    dagger,
    identity,
    ket,
    kron,
    max_abs_diff,
    mul,
    outer,
    transpose,
)

BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

_SQRT_HALF = 1 / math.sqrt(2)
PAULI_EIGENSTATES = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) * _SQRT_HALF,
    np.array([1, -1], dtype=complex) * _SQRT_HALF,
    np.array([1, 1j], dtype=complex) * _SQRT_HALF,
    np.array([1, -1j], dtype=complex) * _SQRT_HALF,
)


@dataclass(frozen=True)
class MeasurementOutcome:
    i: int
    j: int
    probability: float
    post_state: np.ndarray


@dataclass(frozen=True)
class PhaseTable:
    """Phases alpha(i,j) of the braid gate acting as a Bell transform."""

    phi: float
    alpha_b: dict
    alpha_b_dagger: dict
    max_residual: float


def random_ket(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random state via normalized complex Gaussian amplitudes."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket(amps, normalize=True)


def probe_states(seed: int = 42, extra: int = 2) -> list[np.ndarray]:
    """Six Pauli eigenstates plus seeded random kets."""
    rng = np.random.default_rng(seed)
    probes = [p.copy() for p in PAULI_EIGENSTATES]
    probes.extend(random_ket(rng) for _ in range(extra))
    return probes


def _sample_index(rng: np.random.Generator, probabilities) -> int:
    total = float(np.sum(probabilities))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return int(rng.choice(len(probabilities), p=np.asarray(probabilities) / total))


def _factor_after(state: np.ndarray, front: np.ndarray) -> np.ndarray:
    """Split state = front (x) rest and return rest (<front| applied)."""
    front = np.asarray(front)
    rest_dim = state.size // front.size
    block = state.reshape(front.size, rest_dim)
    rest = conj(front) @ block
    norm = np.linalg.norm(rest)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("state does not factor over the measured register")
    return rest / norm


def _measure_front(state: np.ndarray, projectors, rng: np.random.Generator):
    """Projectively measure the leading 2-qubit register of a 3-qubit state.

    Returns (index, probability list, normalized post state).
    """
    dim_rest = state.size // 4
    probs = []
    posts = []
    for proj in projectors:
        branch = kron(proj, identity(dim_rest)) @ state
        p = float(np.vdot(branch, branch).real)
        probs.append(p)
        posts.append(branch)
    idx = _sample_index(rng, probs)
    post = posts[idx] / math.sqrt(probs[idx])
    return idx, probs, post


def teleport_standard(alpha: np.ndarray, rng_seed: int = 42):
    """Teleport a qubit through the EPR pair with Bell measurement.

    Returns (MeasurementOutcome, corrected Bob qubit).
    """
    alpha = ket(alpha)
    rng = np.random.default_rng(rng_seed)
    state = kron(alpha, EPR)
    bells = [bell_state(i, j) for i, j in BIT_PAIRS]
    projectors = [outer(b, b) for b in bells]
    idx, probs, post = _measure_front(state, projectors, rng)
    i, j = BIT_PAIRS[idx]
    bob = _factor_after(post, bells[idx])
    corrected = dagger(pauli_w(i, j)) @ bob
    return MeasurementOutcome(i, j, probs[idx], post), corrected


def teleport_bell_like(alpha: np.ndarray, phi: float, rng_seed: int = 42):
    """Teleport through the Bell-like resource |Psi_M00> with E_ij measurement."""
    alpha = ket(alpha)
    rng = np.random.default_rng(rng_seed)
    state = kron(alpha, bell_like_state(0, 0, phi))
    projectors = [tl_projector(i, j, phi) for i, j in BIT_PAIRS]
    idx, probs, post = _measure_front(state, projectors, rng)
    i, j = BIT_PAIRS[idx]
    bob = _factor_after(post, bell_like_state(i, j, phi))
    correction = dagger(m_gate(0, 0, phi) @ conj(m_gate(i, j, phi)))
    return MeasurementOutcome(i, j, probs[idx], post), correction @ bob


def extract_phases(phi: float, tol: float = DEFAULT_TOL) -> PhaseTable:
    """Fit the phases in B|ij> = e^{i a}(R x RH)|psi(ji)> and its inverse.

    The phases are measured numerically per index pair (no closed form is
    assumed) and validated by rebuilding B from them in both directions.
    """
    b = yb_gate(phi)
    local = kron(phase_shift(phi), phase_shift(phi) @ H)
    alpha_b = {}
    alpha_bd = {}
    worst = 0.0
    for i, j in BIT_PAIRS:
        col = b @ basis_ket(2 * i + j, 4)
        target = local @ bell_state(j, i)
        theta = approx_eq_phase(col, target, tol)
        if theta is None:
            raise ValueError(f"B|{i}{j}> is not a phased Bell state at phi={phi}")
        worst = max(worst, max_abs_diff(col, theta * target))
        alpha_b[(i, j)] = math.atan2(theta.imag, theta.real)

        col_d = dagger(b) @ basis_ket(2 * i + j, 4)
        target_d = local @ bell_state((j + 1) % 2, (i + 1) % 2)
        theta_d = approx_eq_phase(col_d, target_d, tol)
        if theta_d is None:
            raise ValueError(f"B^dag|{i}{j}> is not a phased Bell state at phi={phi}")
        worst = max(worst, max_abs_diff(col_d, theta_d * target_d))
        alpha_bd[(i, j)] = math.atan2(theta_d.imag, theta_d.real)

    table = PhaseTable(phi=phi, alpha_b=alpha_b, alpha_b_dagger=alpha_bd, max_residual=worst)
    rebuilt = _rebuild_from_v(table)
    drift = max_abs_diff(rebuilt, b)
    rebuilt_u = _rebuild_from_u(table)
    drift = max(drift, max_abs_diff(rebuilt_u, b))
    if drift > tol:
        raise ValueError(f"phase table does not reproduce B: drift {drift:.3e}")
    return table


def v_gate(k: int, l: int, table: PhaseTable) -> np.ndarray:
    """V_kl with B = sum_kl (1 (x) V_kl)|Psi><kl|."""
    r = phase_shift(table.phi)
    phase = cmath.exp(1j * table.alpha_b[(k, l)])
    return phase * mul(r, H, x_pow(l), z_pow(k), r)


def u_gate(i: int, j: int, table: PhaseTable) -> np.ndarray:
    """U_ij with B = sum_ij |ij><Psi|(1 (x) U_ij)."""
    r = phase_shift(table.phi)
    phase = cmath.exp(-1j * table.alpha_b_dagger[(i, j)])
    return phase * mul(dagger(r), z_pow(i + 1), x_pow(j + 1), H, dagger(r))


def _rebuild_from_v(table: PhaseTable) -> np.ndarray:
    total = np.zeros((4, 4), dtype=complex)
    for k, l in BIT_PAIRS:
        total += outer(kron(I2, v_gate(k, l, table)) @ EPR, basis_ket(2 * k + l, 4))
    return total


def _rebuild_from_u(table: PhaseTable) -> np.ndarray:
    total = np.zeros((4, 4), dtype=complex)
    for i, j in BIT_PAIRS:
        # |ij><Psi|(1 (x) U) has rows <Psi|(1 (x) U) = ((1 (x) U^dag)|Psi>)^dag
        row_ket = kron(I2, dagger(u_gate(i, j, table))) @ EPR
        total += outer(basis_ket(2 * i + j, 4), row_ket)
    return total


def w_braid_correction(i: int, j: int, k: int, l: int, table: PhaseTable) -> np.ndarray:
    """W_{i,j,k,l} = V_kl U^T_ij, the correction in the braid protocol."""
    return v_gate(k, l, table) @ transpose(u_gate(i, j, table))


def w_braid_closed_form(i: int, j: int, k: int, l: int, table: PhaseTable) -> np.ndarray:
    """Closed form (-1)^{l(k+j+1)} e^{i(aB - aBd)} R X^{j+k+1} Z^{i+l+1} R^dag."""
    r = phase_shift(table.phi)
    sign = (-1.0) ** (l * (k + j + 1))
    phase = cmath.exp(1j * (table.alpha_b[(k, l)] - table.alpha_b_dagger[(i, j)]))
    return sign * phase * mul(r, x_pow(j + k + 1), z_pow(i + l + 1), dagger(r))


def teleport_with_yb(alpha: np.ndarray, k: int, l: int, phi: float, rng_seed: int = 42):
    """Teleport through (B x 1)(1 x B) acting on |alpha>|kl>.

    Alice measures her two qubits in the product basis; Bob corrects with
    W^dag_{i,j,k,l}.  Returns (MeasurementOutcome, corrected qubit).
    """
    alpha = ket(alpha)
    if (k, l) not in BIT_PAIRS:
        raise ValueError(f"resource bits must be 0/1, got {(k, l)}")
    rng = np.random.default_rng(rng_seed)
    table = extract_phases(phi)
    b = yb_gate(phi)
    op = kron(b, I2) @ kron(I2, b)
    state = op @ kron(alpha, basis_ket(2 * k + l, 4))
    projectors = [outer(basis_ket(2 * i + j, 4), basis_ket(2 * i + j, 4)) for i, j in BIT_PAIRS]
    idx, probs, post = _measure_front(state, projectors, rng)
    i, j = BIT_PAIRS[idx]
    bob = _factor_after(post, basis_ket(2 * i + j, 4))
    corrected = dagger(w_braid_correction(i, j, k, l, table)) @ bob
    return MeasurementOutcome(i, j, probs[idx], post), corrected


def braid_teleportation_residual(phi: float, seed: int = 42) -> float:
    """Residual of (B x 1)(1 x B)|alpha>|kl> = 1/2 sum |ij> (x) W_ijkl|alpha>."""
    table = extract_phases(phi)
    b = yb_gate(phi)
    op = kron(b, I2) @ kron(I2, b)
    worst = 0.0
    for alpha in probe_states(seed):
        for k, l in BIT_PAIRS:
            lhs = op @ kron(alpha, basis_ket(2 * k + l, 4))
            rhs = np.zeros_like(lhs)
            for i, j in BIT_PAIRS:
                rhs += 0.5 * kron(
                    basis_ket(2 * i + j, 4), w_braid_correction(i, j, k, l, table) @ alpha
                )
            worst = max(worst, max_abs_diff(lhs, rhs))
    return worst


def completeness_residuals(phi: float) -> dict:
    """Both measurement families must resolve the identity."""
    bell_sum = sum(outer(bell_state(i, j), bell_state(i, j)) for i, j in BIT_PAIRS)
    tl_sum = sum(tl_projector(i, j, phi) for i, j in BIT_PAIRS)
    return {
        "bell": max_abs_diff(bell_sum, identity(4)),
        "bell_like": max_abs_diff(tl_sum, identity(4)),
    }


IDENTITY_VARIANTS = (
    "standard",
    "standard-transpose",
    "bell-like",
    "bell-like-transpose",
    "projector-channel",
    "projector-channel-transpose",
    "flow",
)


def check_teleportation_identity(variant: str, phi: float = 0.0, seed: int = 42) -> float:
    """Max residual of one teleportation identity over the probe set.

    Vector identities run over the Pauli eigenstates plus random probes;
    the projector-channel forms are operator identities from the 2-qubit
    space into the 3-qubit space and are checked entrywise.
    """
    probes = probe_states(seed)
    if variant == "standard":
        return _vector_identity_residual(
            probes,
            lambda a: kron(a, EPR),
            lambda a: 0.5
            * sum(kron(bell_state(i, j), pauli_w(i, j) @ a) for i, j in BIT_PAIRS),
        )
    if variant == "standard-transpose":
        return _vector_identity_residual(
            probes,
            lambda a: kron(EPR, a),
            lambda a: 0.5
            * sum(kron(transpose(pauli_w(i, j)) @ a, bell_state(i, j)) for i, j in BIT_PAIRS),
        )
    if variant == "bell-like":
        m00 = m_gate(0, 0, phi)
        return _vector_identity_residual(
            probes,
            lambda a: kron(a, bell_like_state(0, 0, phi)),
            lambda a: 0.5
            * sum(
                kron(bell_like_state(i, j, phi), mul(m00, conj(m_gate(i, j, phi))) @ a)
                for i, j in BIT_PAIRS
            ),
        )
    if variant == "bell-like-transpose":
        m00 = m_gate(0, 0, phi)
        return _vector_identity_residual(
            probes,
            lambda a: kron(bell_like_state(0, 0, phi), a),
            lambda a: 0.5
            * sum(
                kron(
                    mul(transpose(m00), dagger(m_gate(i, j, phi))) @ a,
                    bell_like_state(i, j, phi),
                )
                for i, j in BIT_PAIRS
            ),
        )
    if variant == "projector-channel":
        e00 = tl_projector(0, 0, phi)
        psi = bell_like_state(0, 0, phi)
        worst = 0.0
        for a in probes:
            lhs = kron(e00, I2) @ kron(a.reshape(2, 1), e00)
            rhs = 0.5 * outer(kron(psi, a), psi)
            worst = max(worst, max_abs_diff(lhs, rhs))
        return worst
    if variant == "projector-channel-transpose":
        e00 = tl_projector(0, 0, phi)
        psi = bell_like_state(0, 0, phi)
        worst = 0.0
        for a in probes:
            lhs = kron(I2, e00) @ kron(e00, a.reshape(2, 1))
            rhs = 0.5 * outer(kron(a, psi), psi)
            worst = max(worst, max_abs_diff(lhs, rhs))
        return worst
    if variant == "flow":
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(8):
            raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(raw)
            worst = max(
                worst,
                max_abs_diff(kron(I2, u) @ EPR, kron(transpose(u), I2) @ EPR),
            )
        return worst
    raise ValueError(f"unknown identity variant {variant!r}")


def transpose_asymmetry_margin(phi: float) -> float:
    """max_ij |(M00 M*_ij)^T - M00^T M^dag_ij|: nonzero at generic phi.

    The standard protocol transposes its correction between the two flow
    directions; the Bell-like protocol does not, and this margin is the
    entrywise witness of that asymmetry.
    """
    m00 = m_gate(0, 0, phi)
    margin = 0.0
    for i, j in BIT_PAIRS:
        mij = m_gate(i, j, phi)
        lhs = transpose(mul(m00, conj(mij)))
        rhs = mul(transpose(m00), dagger(mij))
        margin = max(margin, max_abs_diff(lhs, rhs))
    return margin


def _vector_identity_residual(probes, lhs_fn, rhs_fn) -> float:
    worst = 0.0
    for a in probes:
        worst = max(worst, max_abs_diff(lhs_fn(a), rhs_fn(a)))
    return worst
