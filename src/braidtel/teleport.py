"""Teleportation protocols driven by Bell-type bases and the braid gate.

Three protocol families are simulated end to end (resource preparation,
projective measurement, classical correction):

  standard   Bell resource |Psi>, Bell measurement, Pauli correction W_ij
  bell-like  resource |Psi_M00>, measurement {E_ij}, correction (M00 M*_ij)^dag
  braid      resource built by the gate pair (B x 1)(1 x B), product-basis
             measurement, correction W_{i,j,k,l}

A protocol is always a Protocol, a read-only record of op, table, kets, the
gate it applies, its branch tensor and its every_branch residual, all taken
when it is built.  _basis_protocol builds every Bell-type one from a
UnitaryBasis, in its front or mirror flow, and _projector_channel puts
E (x) 1 after it; standard teleportation is the Pauli case, where W_00 = 1.
The standard and double protocols are cached per process and the Bell-like
one per phi: verify constraints reads its every_branch as transfer identity 1
and teleport bell-like as its every-branch row, so one build and one
residual serve both.  A report builds its braid or gate protocol once, at
its own phi or gate, so a cache of them would never be hit.
branch[r] maps an input ket at resource r to its M unnormalized
post-measurement states, (<v_m| (x) 1) op with the input placed at r, so
_branches is a gathered batched matvec.  It holds at most 64 KiB of gathered
branch matrices at a time (_GATHER_BYTES): a block of up to 256 one-qubit
instances is one gather, a two-qubit block 16 instances per chunk.  _teleport
samples m by the Born rule, one uniform draw per instance, and corrects with
C_m^dag read at call time from the protocol's table, indexed [resource, outcome];
it normalizes the CDF and conjugates its gather of the table in place.
_protocol_residual, the package's one teleportation-identity kernel, checks
every branch against the exact identity with the protocol's own gate, as an
equality of linear maps: Protocol takes it once per build as its every_branch
field, the gated row of every teleport report.
The teleport_* functions are one-instance calls.  UnitaryBasis is the one
Bell-like basis: its Pauli instance and its per-phi M_ij instance give the
protocols their kets and corrections and the tangle constraints their gates.
The M_ij basis is built, self-checked and frozen once per phi; each build
of a Bell-like protocol multiplies out of it the table of its one flow.
The braid table reads the closed-form phases of phase_table; extract_phases
fits the same phases numerically and is kept as its cross-check.

Each protocol's identity is the every_branch field of what its builder
returns, the row its report prints: _standard_protocol(),
_bell_like_protocol(phi), _braid_protocol(phi), and gate_teleport's gate and
double protocols.  The Bell-like mirror flow,
_basis_protocol(UnitaryBasis.bell_like(phi), False), is verify constraints'
transfer identity 2, and _projector_channel is verify brauer's projector row.
No residual reads a seed: only outcomes are sampled, with Born-rule
probabilities computed exactly.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .gates import (
    H,
    I2,
    _check_bits,
    _m_gates,
    bell_state,
    pauli_w,
    phase_shift,
    reduced_phase,
    state_with_gate,
    tl_projector,
    x_pow,
    yb_gate,
    z_pow,
)
from .linalg import (
    DEFAULT_TOL,
    STRICT_TOL,
    conj,
    dagger,
    frozen,
    identity,
    ket,
    kron,
    max_abs_diff,
    mul,
    outer,
    transpose,
)

BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_GATHER_BYTES = 1 << 16  # _branches gathers branch[r] in chunks of at most this many bytes, each into its rows of one output


class MeasurementOutcome(NamedTuple):
    """Outcome |ij> of the front register and the normalized, uncorrected survivor."""

    i: int
    j: int
    probability: float
    post_state: np.ndarray


class PhaseTable(NamedTuple):
    """Phases alpha(i,j) of the braid gate acting as a Bell transform, with the worst residual of their fit."""

    phi: float
    alpha_b: dict
    alpha_b_dagger: dict
    max_residual: float


class Protocol(NamedTuple("Protocol", [("op", np.ndarray), ("table", np.ndarray), ("kets", np.ndarray),
                                       ("gate", np.ndarray), ("branch", np.ndarray), ("every_branch", float)])):
    """A built protocol: its read-only op, table, kets and gate, its branch tensor and its every_branch residual.

    branch[r], (M d_out, d_in), maps an input ket at resource r to its M unnormalized survivors: row
    m d_out + j is amplitude j of (<v_m| (x) 1) op applied to the input a (x) c with |r> after its first
    qubit, so the kets are folded into op once, when the protocol is built, and a survivor is one small
    matvec.  every_branch, the _protocol_residual of the protocol, is taken once, when it is built.  The
    record is read-only, as the standard, double and Bell-like protocols are shared, and it holds arrays,
    so it compares and hashes by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, op, table, kets, gate):
        op, table, kets, gate = frozen(op), frozen(table), frozen(kets), frozen(gate)
        resources, (outcomes, width) = len(table), kets.shape
        d_in = op.shape[1] // resources
        fused = (conj(kets) @ op.reshape(width, -1)).reshape(outcomes, -1, 2, resources, d_in // 2)
        branch = frozen(fused.transpose(3, 0, 1, 2, 4).reshape(resources, -1, d_in))
        return super().__new__(cls, op, table, kets, gate, branch, _protocol_residual(table, gate, branch))


def _branches(protocol: Protocol, inputs: np.ndarray, r) -> np.ndarray:
    """branches[n, m]: the unnormalized survivor of outcome m of instance n, input n placed at resource r_n."""
    branch, n = protocol.branch, len(inputs)
    step, size = max(1, min(n, _GATHER_BYTES // branch[0].nbytes)), n * branch.shape[1]
    # The output and the chunk share one block: two blocks of equal size, freed together, can pass glibc's trim
    # threshold, so that every call hands the heap back and faults it in again (3x slower at 256 two-qubit).
    block = np.empty(size + step * branch[0].size, dtype=complex)
    out, chunk = block[:size].reshape(n, -1, 1), block[size:].reshape(step, *branch.shape[1:])
    for i in range(0, n, step):
        k = min(step, n - i)
        # mode="raise" would copy through a buffer; _teleport's table[r, m] rejects an r out of range
        np.take(branch, r[i:i + k], axis=0, out=chunk[:k], mode="wrap")
        np.matmul(chunk[:k], inputs[i:i + k, :, None], out=out[i:i + k])
    return out.reshape(n, len(protocol.kets), -1)


def _protocol_residual(table: np.ndarray, gate: np.ndarray, branch: np.ndarray) -> float:
    """Largest Frobenius norm over resources r of the map x -> op (x at r) - M^{-1/2} sum_m v_m (x) C[r, m] gate x.

    That is the identity behind a protocol with M outcomes and its gate: every branch is C[r, m] gate x /
    sqrt(M), so correcting it gives gate x.  The kets v_m are orthonormal, so the map is taken over the
    branches: it is D_r = branch[r] - C[r] gate / sqrt(M), all rows of all D_r as one matrix.  The Frobenius
    norm bounds |D_r x| for every unit input x, so the identity is checked as an equality of maps.
    """
    rows = branch.reshape(-1, branch.shape[2]) - table.reshape(-1, len(gate)) @ gate / math.sqrt(table.shape[1])
    return float(np.sqrt((np.abs(rows) ** 2).reshape(len(table), -1).sum(axis=1).max()))


def _teleport(protocol: Protocol, inputs: np.ndarray, r, draws: np.ndarray):
    """(outcomes m, probabilities, normalized survivors, corrected states) of a batch of instances.

    The _branches of protocol are measured: table[r_n, m] corrects outcome m, the first whose
    cumulative probability exceeds the draw, as Generator.choice samples.
    """
    rows = np.arange(len(inputs))
    branches = _branches(protocol, inputs, r)
    flat = branches.view(float)  # the real and imaginary parts of each amplitude
    probs = np.einsum("nmk,nmk->nm", flat, flat)
    total = probs.sum(axis=1)
    if not (np.abs(total - 1.0) <= 1e-9).all():
        raise ValueError(f"probabilities sum to {total[np.argmax(np.abs(total - 1.0))]}, expected 1")
    cdf = (probs / total[:, None]).cumsum(axis=1)
    np.divide(cdf, cdf[:, -1:], out=cdf)
    m = (cdf <= draws[:, None]).sum(axis=1)  # searchsorted(cdf, draw, side="right") per row
    p = probs[rows, m]
    survivors = branches[rows, m] / np.sqrt(p)[:, None]
    corrections = protocol.table[r, m]  # a gathered copy, so conjugating it leaves the read-only table as it is
    np.conjugate(corrections, out=corrections)
    return m, p, survivors, (corrections.swapaxes(-1, -2) @ survivors[:, :, None])[:, :, 0]


def _one(protocol: Protocol, alpha, resource: int, rng_seed):
    """(m, p, survivor, corrected) of one instance on the input ket alpha, drawn from default_rng(rng_seed)."""
    alpha, d_in = ket(alpha), protocol.branch.shape[2]
    if alpha.size != d_in:
        raise ValueError(f"expected a {d_in.bit_length() - 1}-qubit state")
    draw = np.random.default_rng(rng_seed).random(1)
    m, p, survivor, corrected = _teleport(protocol, alpha[None], np.array([resource]), draw)
    return int(m[0]), float(p[0]), survivor[0], corrected[0]


def _one_qubit(protocol: Protocol, alpha, resource: int, rng_seed):
    """(MeasurementOutcome, corrected qubit) of one instance of a one-qubit protocol."""
    m, p, bob, corrected = _one(protocol, alpha, resource, rng_seed)
    return MeasurementOutcome(*BIT_PAIRS[m], p, bob), corrected


def _stack(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """values as a read-only complex copy, or ValueError unless it has the given shape."""
    a = np.array(values, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{name} must be a {'x'.join(map(str, shape))} stack, got shape {a.shape}")
    return frozen(a)


class UnitaryBasis(NamedTuple("UnitaryBasis", [("u", np.ndarray), ("states", np.ndarray), ("residual", float)])):
    """Four one-qubit unitaries labelling an orthonormal Bell-like basis.

    u[2i + j] is U_ij.  Orthonormality means (1/2) tr(U_ab^dag U_cd) =
    delta delta; it makes the four states (1 x U_ij)|Psi>, the rows of
    states, an orthonormal two-qubit basis.  Both it and max |U U^dag - 1|
    must hold within DEFAULT_TOL, and a NaN fails either.  residual is
    max |(1/2) tr(U_b^dag U_a) - delta_ab|.  A basis holds arrays, so it
    compares and hashes by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, u):
        u = _stack(u, (4, 2, 2), "basis")
        gram = 0.5 * np.einsum("bji,aji->ab", conj(u), u)  # (1/2) tr(U_b^dag U_a)
        residual = max_abs_diff(gram, identity(4))
        if not residual <= DEFAULT_TOL:
            raise ValueError(f"basis is not orthonormal, residual {residual:.3e}")
        unitarity = float(np.abs(u @ dagger(u) - I2).max())
        if not unitarity <= DEFAULT_TOL:
            raise ValueError(f"basis gates are not unitary, max |U U^dag - 1| = {unitarity:.3e}")
        return super().__new__(cls, u, frozen(state_with_gate(u)), residual)

    @classmethod
    def pauli(cls) -> "UnitaryBasis":
        """The W_ij basis, one read-only instance per process: the standard protocol's kets and corrections."""
        return _pauli_basis()

    @classmethod
    def bell_like(cls, phi: float) -> "UnitaryBasis":
        """The M_ij basis, one read-only instance per phi: its states are the Bell-like protocol's kets."""
        return _bell_like_basis(phi)


@functools.lru_cache(maxsize=None)
def _pauli_basis() -> UnitaryBasis:
    return UnitaryBasis([pauli_w(i, j) for i, j in BIT_PAIRS])


@functools.lru_cache(maxsize=8)
def _bell_like_basis(phi: float) -> UnitaryBasis:
    """The M_ij basis at phi, held to the protocols' bound: orthonormal within STRICT_TOL."""
    tl_projector(0, 0, phi)  # raises unless E_00 matches its closed form
    basis = UnitaryBasis(_m_gates(phi))
    if basis.residual > STRICT_TOL:
        raise ValueError(f"measurement kets are not orthonormal at phi={phi}")
    return basis


def _braid_protocol(phi: float) -> Protocol:
    """The braid protocol at phi: op (B x 1)(1 x B), table the B-checked W_ijkl = V_kl U^T_ij, product kets."""
    b = yb_gate(phi)
    v, u = _checked_gates(phase_table(phi), b)
    return Protocol(kron(b, I2) @ kron(I2, b), v[:, None] @ transpose(u), identity(4), I2)


# The table of a projector channel: only the branch of the resource ket v_0 survives, uncorrected.
_KEPT_BRANCH = frozen(np.array([I2, *np.zeros((3, 2, 2))]))


def _correction_table(correction, *args) -> np.ndarray:
    """correction(i, j, k, l, *args) stacked at [2k + l, 2i + j]."""
    return np.array([[correction(i, j, k, l, *args) for i, j in BIT_PAIRS] for k, l in BIT_PAIRS])


def _basis_protocol(basis: UnitaryBasis, front: bool) -> Protocol:
    """basis's protocol, resource v_0 = states[0] and kets v_m = states[m]: x (x) v_0 = 1/2 sum_m v_m (x) C_m x or its mirror.

    Front flow: op x -> x (x) v_0, table C_m = U_00 U*_m.  Mirror flow: op x -> v_0 (x) x with the output
    rotated |a b c> -> |b c a>, so the measured pair comes first, table C_m = U_00^T U^dag_m.
    """
    u, resource = basis.u, basis.states[0][:, None]
    if front:
        return Protocol(kron(I2, resource), (u[0] @ conj(u))[None], basis.states, I2)
    op = kron(resource, I2).reshape(2, 2, 2, 2).transpose(1, 2, 0, 3).reshape(8, 2)
    return Protocol(op, (transpose(u[0]) @ dagger(u))[None], basis.states, I2)


def _projector_channel(basis: UnitaryBasis, e: np.ndarray, front: bool) -> Protocol:
    """(E (x) 1) applied after _basis_protocol(basis, front)'s op, which puts the measured pair in front in both flows."""
    flow = _basis_protocol(basis, front)
    return Protocol(kron(e, I2) @ flow.op, _KEPT_BRANCH[None], flow.kets, I2)


@functools.lru_cache(maxsize=None)
def _standard_protocol() -> Protocol:
    """The standard protocol, built once: the Pauli basis's front flow, op alpha -> alpha (x) EPR, table W_ij."""
    return _basis_protocol(UnitaryBasis.pauli(), True)


@functools.lru_cache(maxsize=8)
def _bell_like_protocol(phi: float) -> Protocol:
    """The Bell-like protocol at phi, one read-only instance per phi.

    It is the M_ij basis's front flow: op alpha -> alpha (x) |Psi_M00>, table M00 M*_ij.
    """
    return _basis_protocol(UnitaryBasis.bell_like(phi), True)


def teleport_standard(alpha: np.ndarray, rng_seed: int = 42):
    """Teleport a qubit through the EPR pair with Bell measurement.

    Returns (MeasurementOutcome, corrected Bob qubit).
    """
    return _one_qubit(_standard_protocol(), alpha, 0, rng_seed)


def teleport_bell_like(alpha: np.ndarray, phi: float, rng_seed: int = 42):
    """Teleport through the Bell-like resource |Psi_M00> with E_ij measurement."""
    return _one_qubit(_bell_like_protocol(phi), alpha, 0, rng_seed)


# alpha(ij) = offset + slope * phi (mod 2 pi), for B and for B^dag
_ALPHA_B = {(0, 0): (3 * math.pi / 4, 0.0), (0, 1): (-math.pi / 4, -1.0),
            (1, 0): (-math.pi / 4, -1.0), (1, 1): (-math.pi / 4, -2.0)}
_ALPHA_B_DAGGER = {(0, 0): (-3 * math.pi / 4, 0.0), (0, 1): (-3 * math.pi / 4, -1.0),
                   (1, 0): (-3 * math.pi / 4, -1.0), (1, 1): (math.pi / 4, -2.0)}


def phase_table(phi: float) -> PhaseTable:
    """extract_phases in closed form, affine in reduced_phase(phi); nothing is fitted, so max_residual is 0."""
    theta = reduced_phase(phi)
    alpha_b, alpha_bd = ({ij: a + slope * theta for ij, (a, slope) in affine.items()} for affine in (_ALPHA_B, _ALPHA_B_DAGGER))
    return PhaseTable(phi=phi, alpha_b=alpha_b, alpha_b_dagger=alpha_bd, max_residual=0.0)


def extract_phases(phi: float) -> PhaseTable:
    """Fit the phases in B|ij> = e^{i a}(R x RH)|psi(ji)> and its inverse.

    Each a is measured (no closed form is assumed) as the argument of <target|col>, and column ij
    must lie within DEFAULT_TOL of e^{i a} target (else ValueError); the table is then validated
    by rebuilding B from it in both directions.  The protocols read the closed form phase_table;
    this fit cross-checks it.
    """
    b = yb_gate(phi)
    local = kron(phase_shift(phi), phase_shift(phi) @ H)
    alpha_b = {}
    alpha_bd = {}
    worst = 0.0
    # B|ij> lands on psi(ji), B^dag|ij> on psi(j+1, i+1)
    for name, op, phases, shift in (("B", b, alpha_b, 0), ("B^dag", dagger(b), alpha_bd, 1)):
        for i, j in BIT_PAIRS:
            col = op[:, 2 * i + j]
            target = local @ bell_state((j + shift) % 2, (i + shift) % 2)
            alpha = cmath.phase(np.vdot(target, col))
            residual = max_abs_diff(col, cmath.exp(1j * alpha) * target)
            if residual > DEFAULT_TOL:
                raise ValueError(f"{name}|{i}{j}> is not a phased Bell state at phi={phi}")
            worst = max(worst, residual)
            phases[(i, j)] = alpha

    table = PhaseTable(phi=phi, alpha_b=alpha_b, alpha_b_dagger=alpha_bd, max_residual=worst)
    _checked_gates(table, b)
    return table


# X^j, Z^i, X^(j+1) and Z^(i+1) stacked at 2i + j: the Pauli factors of V_ij and U_ij
_X_LOW, _Z_HIGH, _X_LOW_PLUS, _Z_HIGH_PLUS = (
    frozen(np.array([power(pair[bit] + shift) for pair in BIT_PAIRS]))
    for shift in (0, 1) for power, bit in ((x_pow, 1), (z_pow, 0))
)


def _checked_gates(table: PhaseTable, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The V_kl and U_ij stacks of table, once sqrt(2) B rebuilt from them as below is within DEFAULT_TOL (else ValueError).

    Column kl of sum_kl (1 (x) V_kl)|Psi><kl| is (1 (x) V_kl)|Psi>, V_kl^T flattened / sqrt(2), and
    row ij of sum_ij |ij><Psi|(1 (x) U_ij) is <Psi|(1 (x) U_ij), U_ij flattened / sqrt(2).
    """
    r = phase_shift(table.phi)
    v_phases = np.array([cmath.exp(1j * table.alpha_b[p]) for p in BIT_PAIRS])[:, None, None]
    u_phases = np.array([cmath.exp(-1j * table.alpha_b_dagger[p]) for p in BIT_PAIRS])[:, None, None]
    v = v_phases * mul(r, H, _X_LOW, _Z_HIGH, r)  # each V_kl and U_ij as v_gate and u_gate multiply them
    u = u_phases * mul(dagger(r), _Z_HIGH_PLUS, _X_LOW_PLUS, H, dagger(r))
    scaled = math.sqrt(2) * b
    drift = max(max_abs_diff(v.transpose(0, 2, 1).reshape(4, 4).T, scaled), max_abs_diff(u.reshape(4, 4), scaled))
    if drift > DEFAULT_TOL:
        raise ValueError(f"phase table does not reproduce B: drift {drift:.3e}")
    return v, u


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
    _check_bits(k, l)
    return _one_qubit(_braid_protocol(phi), alpha, 2 * k + l, rng_seed)


def completeness_residuals(phi: float) -> dict:
    """Both measurement families must resolve the identity."""
    bell_sum = sum(outer(bell_state(i, j), bell_state(i, j)) for i, j in BIT_PAIRS)
    tl_sum = sum(tl_projector(i, j, phi) for i, j in BIT_PAIRS)
    return {
        "bell": max_abs_diff(bell_sum, identity(4)),
        "bell_like": max_abs_diff(tl_sum, identity(4)),
    }


def transpose_asymmetry_margin(phi: float) -> float:
    """max_ij |(M00 M*_ij)^T - M00^T M^dag_ij|: nonzero at generic phi.

    The standard protocol transposes its correction between the two flow
    directions; the Bell-like protocol does not, and this margin is the
    entrywise witness of that asymmetry.
    """
    return max_abs_diff(transpose(_bell_like_protocol(phi).table[0]), _basis_protocol(UnitaryBasis.bell_like(phi), False).table[0])
