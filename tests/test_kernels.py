"""The small-matrix kernels against the routes they replaced.

linalg.kron must give np.kron's bits, recognize_pauli the answer of the
one-string-at-a-time enumeration it replaced (kept here as the oracle), and
pauli_w the bits of its matrix_power build, and teleport._teleport, which
measures with one matmul, the bits of the einsum it replaced.  A static scan
keeps every other tensor product in the package on linalg.kron.
"""

import ast
import functools
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

import braidtel
from braidtel import gate_teleport, teleport
from braidtel.gate_teleport import PAULI_LABELS, PauliString, recognize_pauli
from braidtel.gates import I2, X, Y, Z, pauli_w
from braidtel.linalg import DEFAULT_TOL, approx_eq_phase, conj, dagger, identity, kron, transpose

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


def _recognize_by_enumeration(op, tol=DEFAULT_TOL):
    """recognize_pauli as it was: one approx_eq_phase per np.kron-built string, in label order."""
    op = np.asarray(op, dtype=complex)
    for labels, base in _strings_by_np_kron(op.shape[0].bit_length() - 1):
        theta = approx_eq_phase(op, base, tol)
        if theta is None:
            continue
        snapped = min((1 + 0j, -1 + 0j, 1j, -1j), key=lambda u: abs(u - theta))
        return PauliString(snapped, labels) if abs(snapped - theta) <= tol else None
    return None


def _recognition_cases():
    for n in (1, 2, 3):
        for labels in itertools.product(PAULI_LABELS, repeat=n):
            string = PauliString(1 + 0j, labels).matrix()
            for phase in (1, -1, 1j, -1j, np.exp(0.3j)):
                for noise in (0.0, 1e-12, 1e-9):
                    yield phase * string + noise * _complex(2**n, 2**n)
        for _ in range(50):
            yield _complex(2**n, 2**n)


RECOGNITION_CASES = list(_recognition_cases())


def test_recognition_matches_the_enumeration_on_every_case():
    assert len(RECOGNITION_CASES) == 1410
    mismatches = [op for op in RECOGNITION_CASES if recognize_pauli(op) != _recognize_by_enumeration(op)]
    assert mismatches == []
    assert sum(recognize_pauli(op) is not None for op in RECOGNITION_CASES) == 84 * 4 * 2


@pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.5, 1.0, 2.0])
def test_recognition_matches_the_enumeration_at_any_tolerance(tol):
    ops = RECOGNITION_CASES[::7]
    assert [recognize_pauli(op, tol) for op in ops] == [_recognize_by_enumeration(op, tol) for op in ops]


def test_a_zero_anchor_entry_is_no_match_and_no_warning():
    """I, Z and Y are anchored at (0, 0), where X is 0, and the zero matrix is 0 at every anchor."""
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
    op, table, kets = protocol
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


MEASURED_PROTOCOLS = {
    "bell": teleport._standard_protocol,
    "bell-like": lambda: teleport._bell_like_protocol(0.3),
    "product-16": gate_teleport._double_protocol,
}


@pytest.mark.parametrize("n", [1, 4, 32, 256, 1024])
@pytest.mark.parametrize("name", MEASURED_PROTOCOLS)
def test_measurement_matmul_gives_the_bits_of_the_einsum(name, n):
    protocol = MEASURED_PROTOCOLS[name]()
    op, table, _ = protocol
    dim = op.shape[1] // len(table)
    amps = _complex(n, dim)
    inputs = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    r, draws = _RNG.integers(0, len(table), size=n), _RNG.random(n)
    got, expected = teleport._teleport(protocol, inputs, r, draws), _teleport_by_einsum(protocol, inputs, r, draws)
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
