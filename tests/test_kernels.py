"""The small-matrix kernels against the routes they replaced.

linalg.kron must give np.kron's bits, recognize_pauli (a projection onto
the string stack) the answer of the one-string-at-a-time enumeration with
its anchor-ratio phase that it replaced (kept here as the oracle) and the
nearest signed Pauli string whenever one lies within DEFAULT_TOL, and
pauli_w the bits of its matrix_power build, the stacked M_ij, V_ij and U_ij
the bits of their per-gate products, and teleport._teleport, which
measures with one small matvec per instance on a protocol's branch tensor,
the outcomes of the einsum and of the dense zero-padded product it replaced
(kept here as oracles), with every amplitude within 4 ulp.  teleport._branches,
which gathers the branch tensor in chunks, gives the bits of its one-gather
form (kept here as the reference) and holds at most one chunk, and _teleport,
which normalizes its CDF and conjugates its correction gather in place, gives
the bits of its form with a divided CDF and a dagger copy (kept here as the
reference), holds at most the block of _branches and its own temporaries, and
writes no cached protocol.  A static scan keeps every other tensor product in
the package on linalg.kron.
"""

import argparse
import ast
import functools
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import braidtel
from braidtel import cli, gate_teleport, teleport
from braidtel.gate_teleport import PAULI_LABELS, PauliString, recognize_pauli
from braidtel.gates import H, I2, S, X, Y, Z, m_gate, pauli_w, phase_shift, yb_gate
from braidtel.linalg import DEFAULT_TOL, conj, dagger, identity, kron, max_abs_diff, mul, transpose
from registers import pauli_matrix

_RNG = np.random.default_rng(2024)


def _complex(*shape):
    return _RNG.standard_normal(shape) + 1j * _RNG.standard_normal(shape)


def _np_kron(*ops):
    return functools.reduce(np.kron, (np.asarray(op, dtype=complex) for op in ops))


_SIGNED_ZEROS = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])

KRON_CASES = {
    "2x2 by 2x2": (_complex(2, 2), _complex(2, 2)),
    "2x2 by stack": (_complex(2, 2), _complex(4, 2, 2)),
    "stack by 2x2": (_complex(4, 2, 2), _complex(2, 2)),
    "stack by stack": (_complex(3, 2, 2), _complex(3, 2, 2)),
    "vector by vector": (_complex(2), _complex(4)),
    "2x2 by vector": (_complex(2, 2), _complex(2)),
    "vector by 2x2": (_complex(4), _complex(2, 2)),
    "column by 2x2": (_complex(4, 1), _complex(2, 2)),
    "three factors": (_complex(2, 2), _complex(2, 2), _complex(2, 2)),
    "signed zeros": (_SIGNED_ZEROS, _complex(2, 2), -_SIGNED_ZEROS),
    "real and int": (np.array([[1, 0], [0, -1]]), np.array([[0.5, 2.0], [-1.5, 0.0]])),
    "strided views": (_complex(4, 4).T, _complex(4, 4)[::2, ::-1]),
    **{
        f"embed {site} of {n}": (identity(2 ** (site - 1)), _complex(4, 4), identity(2 ** (n - site - 1)))
        for n in (2, 3, 6)
        for site in range(1, n)
    },
}


@pytest.mark.parametrize("ops", KRON_CASES.values(), ids=KRON_CASES.keys())
def test_kron_gives_the_bits_of_np_kron(ops):
    got, expected = kron(*ops), _np_kron(*ops)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@functools.lru_cache(maxsize=None)
def _strings_by_np_kron(n):
    return [(labels, _np_kron(*({"I": I2, "X": X, "Y": Y, "Z": Z}[f] for f in labels)))
            for labels in itertools.product(PAULI_LABELS, repeat=n)]


def _recognize_by_enumeration(op):
    """recognize_pauli as it was: each np.kron-built string in label order, its phase read off at its anchor.

    theta is op over the string at the string's largest entry (the lowest row-major index among ties),
    scaled to unit modulus; the first string within DEFAULT_TOL of op times its theta is the match.
    """
    op = np.asarray(op, dtype=complex)
    for labels, base in _strings_by_np_kron(op.shape[0].bit_length() - 1):
        anchor = np.unravel_index(np.argmax(np.abs(base)), base.shape)
        theta = op[anchor] / base[anchor]
        if theta == 0 or max_abs_diff(op, theta / abs(theta) * base) > DEFAULT_TOL:
            continue
        theta /= abs(theta)
        snapped = min((1 + 0j, -1 + 0j, 1j, -1j), key=lambda u: abs(u - theta))
        return PauliString(snapped, labels) if abs(snapped - theta) <= DEFAULT_TOL else None
    return None


def _recognition_cases():
    for n in (1, 2, 3):
        for labels in itertools.product(PAULI_LABELS, repeat=n):
            string = pauli_matrix(PauliString(1 + 0j, labels))
            for phase in (1, -1, 1j, -1j, np.exp(0.3j)):
                for noise in (0.0, 1e-12, 1e-9):
                    yield phase * string + noise * _complex(2**n, 2**n)
        for _ in range(50):
            yield _complex(2**n, 2**n)


RECOGNITION_CASES = list(_recognition_cases())


def test_recognition_matches_the_enumeration_on_every_case():
    assert len(RECOGNITION_CASES) == 1410
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mismatches = [op for op in RECOGNITION_CASES if recognize_pauli(op) != _recognize_by_enumeration(op)]
        assert mismatches == []
        assert sum(recognize_pauli(op) is not None for op in RECOGNITION_CASES) == 84 * 4 * 2


def _near_tol_cases():
    """u P + E for every string P on 1..3 qubits and unit phase u, with max |E| = s DEFAULT_TOL at six s from 0.2 to 5."""
    rng = np.random.default_rng(40)
    for n in (1, 2, 3):
        for labels, base in _strings_by_np_kron(n):
            for phase in (1, -1, 1j, -1j):
                for scale in np.geomspace(0.2, 5.0, 6):
                    noise = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
                    yield phase * base + scale * DEFAULT_TOL / np.abs(noise).max() * noise


NEAR_TOL_CASES = list(_near_tol_cases())


def _nearest_signed_string(op):
    """The PauliString that minimizes max |op - u P| over every string P and unit phase u, if that is <= DEFAULT_TOL."""
    candidates = [(phase, labels, base) for labels, base in _strings_by_np_kron(op.shape[0].bit_length() - 1)
                  for phase in (1 + 0j, -1 + 0j, 1j, -1j)]
    distances = [np.abs(op - phase * base).max() for phase, _, base in candidates]
    best = int(np.argmin(distances))
    return PauliString(*candidates[best][:2]) if distances[best] <= DEFAULT_TOL else None


def test_recognition_finds_the_nearest_signed_string_within_tolerance():
    assert len(NEAR_TOL_CASES) == 2016
    mismatches = [op for op in NEAR_TOL_CASES if recognize_pauli(op) != _nearest_signed_string(op)]
    assert mismatches == []
    assert sum(_nearest_signed_string(op) is not None for op in NEAR_TOL_CASES) == 84 * 4 * 3


def test_zero_entries_and_the_zero_matrix_are_read_without_warning():
    """X is 0 on its diagonal, a 3-qubit string is 0 in all but one entry of each row, and the zero matrix is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert recognize_pauli(X) == PauliString(1 + 0j, ("X",))
        assert recognize_pauli(-1j * kron(X, X, Y)) == PauliString(-1j, ("X", "X", "Y"))
        assert recognize_pauli(np.zeros((4, 4))) is None


def test_pauli_strings_are_read_only_and_in_label_order():
    names, strings = gate_teleport._pauli_strings(2)
    assert names == tuple(itertools.product(PAULI_LABELS, repeat=2))
    for labels, string in zip(names, strings, strict=True):
        assert string.tobytes() == _np_kron(*(gate_teleport._PAULI_BY_LABEL[f] for f in labels)).tobytes()
    with pytest.raises(ValueError):
        strings[0, 0, 0] = 0


def test_recognition_is_capped_at_three_qubits():
    """A 4-qubit op is refused before the 256-string stack is built."""
    gate_teleport._pauli_strings.cache_clear()
    with pytest.raises(ValueError, match="1..3 qubits"):
        recognize_pauli(np.eye(16))
    assert gate_teleport._pauli_strings.cache_info().currsize == 0


@pytest.mark.parametrize("i, j", itertools.product((0, 1), repeat=2))
def test_pauli_w_gives_the_bits_of_matrix_powers(i, j):
    expected = np.linalg.matrix_power(X, i) @ np.linalg.matrix_power(Z, j)
    assert pauli_w(i, j).tobytes() == expected.tobytes()


def _teleport_by_einsum(protocol, inputs, r, draws):
    """teleport._teleport as it was, with the measurement as one optimized einsum."""
    op, table, kets = protocol.op, protocol.table, protocol.kets
    n = len(inputs)
    rows = np.arange(n)
    padded = np.zeros((n, 2, len(table), inputs.shape[1] // 2), dtype=complex)
    padded[rows, :, r] = inputs.reshape(n, 2, -1)
    states = padded.reshape(n, -1) @ transpose(op)
    branches = np.einsum("mk,nkj->nmj", conj(kets), states.reshape(n, len(kets), -1), optimize=True)
    probs = np.sum(np.abs(branches) ** 2, axis=2)
    total = np.sum(probs, axis=1)
    cdf = np.cumsum(probs / total[:, None], axis=1)
    m = np.sum(cdf / cdf[:, -1:] <= draws[:, None], axis=1)
    p = probs[rows, m]
    survivors = branches[rows, m] / np.sqrt(p)[:, None]
    return m, p, survivors, (dagger(table[r, m]) @ survivors[:, :, None])[:, :, 0]


def _m_gate_by_chain(i, j, phi):
    """gates.m_gate as it was: one left-to-right product per gate."""
    r = phase_shift(phi)
    return {(0, 0): lambda: mul(r, H, S, H, r), (0, 1): lambda: mul(r, Z, r), (1, 0): lambda: mul(X, Z),
            (1, 1): lambda: mul(r, H, dagger(S), H, r)}[(i, j)]()


STACK_PHIS = [float(phi) for phi in np.linspace(-3.2, 3.2, 161)] + [0.0, math.pi, -math.pi, 1e-300]


def test_stacked_m_gates_give_the_bits_of_the_chains():
    for phi in STACK_PHIS:
        for i, j in itertools.product((0, 1), repeat=2):
            assert m_gate(i, j, phi).tobytes() == _m_gate_by_chain(i, j, phi).tobytes(), (phi, i, j)


def test_stacked_braid_gates_give_the_bits_of_v_gate_and_u_gate():
    for phi in STACK_PHIS:
        table = teleport.phase_table(phi)
        v, u = teleport._checked_gates(table, yb_gate(phi))
        for n, (i, j) in enumerate(itertools.product((0, 1), repeat=2)):
            assert v[n].tobytes() == teleport.v_gate(i, j, table).tobytes(), (phi, i, j)
            assert u[n].tobytes() == teleport.u_gate(i, j, table).tobytes(), (phi, i, j)


MEASURED_PROTOCOLS = {
    "bell": teleport._standard_protocol,
    "bell-like": lambda: teleport._bell_like_protocol(0.3),
    "product-16": gate_teleport._double_protocol,
}

ULPS = 4


def _ulps(a, b) -> float:
    """Largest |a - b| in ulps of 1, the scale of the amplitudes and probabilities of a normalized input."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.finfo(float).eps)


def _assert_same_measurement(got, expected):
    """Outcomes exactly equal; probabilities, survivors and corrected states within ULPS."""
    m, *values = got
    assert m.tobytes() == expected[0].tobytes()
    for a, b in zip(values, expected[1:], strict=True):
        assert a.shape == b.shape and _ulps(a, b) <= ULPS


def _instances(protocol, n):
    """n seeded normalized inputs of the protocol's input size, resource indices and draws."""
    resources = len(protocol.table)
    amps = _complex(n, protocol.op.shape[1] // resources)
    return amps / np.linalg.norm(amps, axis=1, keepdims=True), _RNG.integers(0, resources, size=n), _RNG.random(n)


# The fused kernel sums each branch in another order than the einsum did: the outcomes stay exact
# and every other output agrees to within 4 ulp of 1.
@pytest.mark.parametrize("n", [1, 4, 32, 256, 1024])
@pytest.mark.parametrize("name", MEASURED_PROTOCOLS)
def test_measurement_matmul_matches_the_einsum(name, n):
    protocol = MEASURED_PROTOCOLS[name]()
    inputs, r, draws = _instances(protocol, n)
    _assert_same_measurement(teleport._teleport(protocol, inputs, r, draws),
                             _teleport_by_einsum(protocol, inputs, r, draws))


def _dense_branches(protocol, inputs, r):
    """teleport._branches as it was: each input zero-padded to the full register, op applied, kets projected."""
    op, table, kets = protocol.op, protocol.table, protocol.kets
    n = len(inputs)
    padded = np.zeros((n, 2, len(table), inputs.shape[1] // 2), dtype=complex)
    padded[np.arange(n), :, r] = inputs.reshape(n, 2, -1)
    states = padded.reshape(n, -1) @ transpose(op)
    split = states.reshape(n, len(kets), -1).transpose(0, 2, 1)  # [n, j, k]: amplitude j of the kth measured row
    return (split.reshape(-1, len(kets)) @ transpose(conj(kets))).reshape(split.shape).transpose(0, 2, 1)


def _one_gather_branches(protocol, inputs, r):
    """teleport._branches as it was: every instance's branch[r] gathered at once, then one batched matvec."""
    return (protocol.branch[r] @ inputs[:, :, None]).reshape(len(inputs), len(protocol.kets), -1)


def _teleport_as_it_was(protocol, inputs, r, draws):
    """teleport._teleport as it was: the CDF divided into a new array, C_m^dag as a dagger copy of table[r, m]."""
    rows = np.arange(len(inputs))
    branches = _one_gather_branches(protocol, inputs, r)
    flat = np.ascontiguousarray(branches).view(float)
    probs = np.einsum("nmk,nmk->nm", flat, flat)
    cdf = (probs / probs.sum(axis=1)[:, None]).cumsum(axis=1)
    m = (cdf / cdf[:, -1:] <= draws[:, None]).sum(axis=1)
    p = probs[rows, m]
    survivors = branches[rows, m] / np.sqrt(p)[:, None]
    return m, p, survivors, (dagger(protocol.table[r, m]) @ survivors[:, :, None])[:, :, 0]


REPORT_PROTOCOLS = [(v, "T") for v in ("standard", "bell-like", "yang-baxter", "two-qubit")] + [
    ("gate", g) for g in ("H", "T", "R")
]


def _chunk(protocol) -> int:
    """Instances per gather chunk of _branches: 16 for two-qubit, 256 for the one-qubit protocols."""
    return teleport._GATHER_BYTES // protocol.branch[0].nbytes


# Each size is a function of the protocol's chunk: fixed counts, and the three that straddle the chunk.
SIZES = {**{str(n): lambda chunk, n=n: n for n in (1, 4, 32, 256, 1024)},
         **{f"chunk{d:+d}" if d else "chunk": lambda chunk, d=d: chunk + d for d in (-1, 0, 1)}}


@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
@pytest.mark.parametrize("variant, gate", REPORT_PROTOCOLS,
                         ids=[v if v != "gate" else f"gate-{g}" for v, g in REPORT_PROTOCOLS])
def test_branch_tensor_kernel_matches_the_dense_branches(variant, gate, size, monkeypatch):
    protocol, *_ = cli._protocol(argparse.Namespace(action=variant, phi=0.3, gate=gate))
    n = size(_chunk(protocol))
    inputs, r, draws = _instances(protocol, n)
    fused = teleport._branches(protocol, inputs, r)
    assert fused.shape == (n, len(protocol.kets), protocol.op.shape[0] // len(protocol.kets))
    assert np.array_equal(fused, _one_gather_branches(protocol, inputs, r))
    assert _ulps(fused, _dense_branches(protocol, inputs, r)) <= ULPS
    got = teleport._teleport(protocol, inputs, r, draws)
    for a, b in zip(got, _teleport_as_it_was(protocol, inputs, r, draws), strict=True):
        assert np.array_equal(a, b)
    # _teleport views the block of _branches, which is C-contiguous, as floats
    monkeypatch.setattr(teleport, "_branches", lambda *args: np.ascontiguousarray(_dense_branches(*args)))
    _assert_same_measurement(got, teleport._teleport(protocol, inputs, r, draws))


def _traced_peak(kernel, *args) -> int:
    """tracemalloc's peak, in bytes, over one call of kernel(*args)."""
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_branches_gather_at_most_one_chunk_of_branch_matrices():
    protocol = gate_teleport._double_protocol()
    inputs, r, _ = _instances(protocol, 1024)
    out_bytes = 1024 * protocol.branch[0].nbytes // protocol.branch.shape[2]
    assert _traced_peak(teleport._branches, protocol, inputs, r) <= out_bytes + teleport._GATHER_BYTES + 64 * 1024


# The double protocol's 256-instance block peaked at 731 KiB with a 256 KiB chunk, a divided CDF and a dagger
# copy of the correction gather, and the standard protocol's 1024-instance block at 642 KiB.
@pytest.mark.parametrize("build, n, cap_kib", [(gate_teleport._double_protocol, 256, 560),
                                               (teleport._standard_protocol, 1024, 480)], ids=["double", "standard"])
def test_teleport_holds_the_branch_block_and_its_measurement_temporaries(build, n, cap_kib):
    protocol = build()
    inputs, r, draws = _instances(protocol, n)
    outcomes, rows = len(protocol.kets), protocol.branch.shape[1]
    d_out = rows // outcomes
    bound = (n * rows * 16  # the output of _branches
             + teleport._GATHER_BYTES  # its gather chunk, in the same block
             + 2 * n * outcomes * 8  # the probabilities and their CDF
             + n * d_out * d_out * 16  # the correction gather, conjugated in place
             + 2 * n * d_out * 16  # the survivors and the corrected states
             + 64 * 1024)  # slack: the index arrays and numpy's small temporaries
    assert bound <= cap_kib * 1024
    assert _traced_peak(teleport._teleport, protocol, inputs, r, draws) <= bound


def test_teleport_writes_no_cached_protocol():
    protocols = (teleport._standard_protocol(), gate_teleport._double_protocol())
    fields = [(protocol.op, protocol.table, protocol.kets, protocol.gate, protocol.branch) for protocol in protocols]
    before = [[field.copy() for field in group] for group in fields]
    for protocol in protocols:
        teleport._teleport(protocol, *_instances(protocol, 64))
    teleport.teleport_standard(np.array([0.6, 0.8j]))
    teleport.teleport_with_yb(np.array([0.6, 0.8j]), 1, 0, 0.3)
    for group, copies in zip(fields, before, strict=True):
        for field, copy in zip(group, copies, strict=True):
            assert not field.flags.writeable
            assert field.tobytes() == copy.tobytes()


MODULES = sorted(p for p in Path(braidtel.__file__).parent.glob("*.py") if p.name != "linalg.py")


def _np_kron_calls(source: str) -> list[int]:
    """Lines that read numpy's kron, as np.kron, numpy.kron or an import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kron" and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy"):
                lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            lines.extend(node.lineno for alias in node.names if alias.name == "kron")
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_tensor_products_run_through_linalg_kron(path):
    assert _np_kron_calls(path.read_text()) == []


def test_scan_flags_np_kron():
    source = "import numpy as np\nfrom numpy import kron\na = np.kron(x, y)\nb = kron(x, y)\nc = self.kron(x)\n"
    assert _np_kron_calls(source) == [2, 3]
