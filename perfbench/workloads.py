"""Workload definitions: what one op runs, and how its reports are checked.

An op is a fixed list of CLI reports.  Within a workload every op has the
same composition; only phi and the per-report seeds change, drawn from the
workload seed.  The checks below are written from the paper's closed
forms and from structural facts (locality of the relations, probability
and fidelity of a teleportation, local invariants of a canonical gate),
never from a stored copy of an earlier report.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

PROTOCOL_VARIANTS = ("standard", "bell-like", "yang-baxter", "gate", "two-qubit")
ANALYZE_GATES = ("B", "B0", "I", "SWAP", "CZ")

# Instances per teleport report in `protocols`; the sweep uses the short form.
# Ops last 1.5-2.5 s in every workload: the host alternates between a fast
# and a slow speed every few seconds, and an op that spans several changes
# keeps the run's median latency from jumping between the two.
PROTOCOL_COUNT = 256
SWEEP_COUNT = 4
SWEEP_ROUNDS = 4
CHAIN_SITES = 8
# Solve cost depends on the index pair (about 100 ms for 10/11, 175 ms for
# 00/01), so the pair is fixed to keep one latency mode per workload.
SWEEP_MN = "01"

FIDELITY_FLOOR = 1 - 1e-10
CLOSED_FORM_TOL = 1e-12
LOCALITY_TOL = 1e-14
INVARIANT_TOL = 1e-9

SIGMA = cmath.exp(1j * 5 * math.pi / 4)
W = 1j * math.sqrt(2)
D = 2.0
QUARTER = math.pi / 4

BIT_KEYS = ("00", "01", "10", "11")
TWO_QUBIT_KEYS = frozenset(f"{a},{b}" for a in BIT_KEYS for b in BIT_KEYS)


class CheckFailed(Exception):
    """A report that ran but whose content contradicts an independent check."""


class Op:
    """One closed-loop request: the reports it runs and how to check them."""

    def __init__(self, index: int, reports: list[list[str]], check):
        self.index = index
        self.reports = reports
        self._check = check

    def check(self, docs: list[dict], run_report) -> None:
        """Raise CheckFailed unless every report passes the independent checks.

        run_report(argv) -> (rc, doc) runs an extra untimed report, used by
        checks that compare against a smaller instance of the same problem.
        """
        for argv, doc in zip(self.reports, docs):
            if doc.get("pass") is not True:
                raise CheckFailed(f"report says pass={doc.get('pass')!r}: {' '.join(argv)}")
        self._check(self.reports, docs, run_report)


def _phi(rng: random.Random) -> str:
    return repr(rng.uniform(-math.pi, math.pi))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


def _entry(doc: dict, label: str) -> dict:
    for entry in doc["results"]:
        if entry["label"] == label:
            return entry
    raise CheckFailed(f"{doc['command']}: no result labelled {label!r}")


def _near(name: str, got: complex, want: complex, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{name} = {got!r}, expected {want!r} (tol {tol:g})")


# ------------------------------------------------------------------ chain


def _check_parameters(doc: dict) -> None:
    params = _entry(doc, "parameters")
    _near("sigma", complex(params["sigma"]), SIGMA, CLOSED_FORM_TOL)
    _near("w", complex(params["w"]), W, CLOSED_FORM_TOL)
    _near("d", float(params["d"]), D, CLOSED_FORM_TOL)


def _family_worst(doc: dict) -> dict[str, float]:
    return {e["label"]: float(e["residual"]) for e in doc["results"] if "relations" in e}


def _check_chain(reports, docs, run_report) -> None:
    _check_parameters(docs[0])
    for argv, doc in zip(reports, docs):
        small_argv = list(argv)
        small_argv[small_argv.index("--sites") + 1] = "3"
        rc, small = run_report(small_argv)
        if rc != 0:
            raise CheckFailed(f"3-site reference exited {rc}: {' '.join(small_argv)}")
        big, ref = _family_worst(doc), _family_worst(small)
        if set(big) != set(ref):
            raise CheckFailed(f"families differ: {sorted(big)} vs {sorted(ref)}")
        for family, residual in big.items():
            _near(f"{argv[1]} {family} worst residual vs 3 sites", residual, ref[family], LOCALITY_TOL)


def chain_op(index: int, rng: random.Random) -> Op:
    sites = str(CHAIN_SITES)
    reports = [
        ["verify", "bmw", "--sites", sites, "--phi", _phi(rng)],
        ["verify", "brauer", "--sites", sites, "--seed", _seed(rng)],
    ]
    return Op(index, reports, _check_chain)


# -------------------------------------------------------------- protocols


def _check_teleport(argv: list[str], doc: dict) -> None:
    count = int(argv[argv.index("--count") + 1])
    two_qubit = argv[1] == "two-qubit"
    if _entry(doc, "instances")["value"] != count:
        raise CheckFailed(f"instances != {count}")
    expected = _entry(doc, "max-probability-deviation")
    want = 1 / 16 if two_qubit else 1 / 4
    if float(expected["expected"]) != want:
        raise CheckFailed(f"{argv[1]}: expected probability {expected['expected']}, not {want}")
    if not float(expected["value"]) <= 1e-10:
        raise CheckFailed(f"{argv[1]}: probability deviation {expected['value']}")
    fid = float(_entry(doc, "min-fidelity")["value"])
    if not fid >= FIDELITY_FLOOR:
        raise CheckFailed(f"{argv[1]}: min fidelity {fid!r}")
    histogram = _entry(doc, "outcomes")["histogram"]
    legal = TWO_QUBIT_KEYS if two_qubit else BIT_KEYS
    bad = [k for k in histogram if k not in legal]
    if bad:
        raise CheckFailed(f"{argv[1]}: illegal outcome keys {bad}")
    if sum(histogram.values()) != count:
        raise CheckFailed(f"{argv[1]}: histogram sums to {sum(histogram.values())}, not {count}")


def _teleport_reports(phi: str, seed: str, count: int) -> list[list[str]]:
    reports = []
    for variant in PROTOCOL_VARIANTS:
        argv = ["teleport", variant, "--phi", phi, "--seed", seed, "--count", str(count)]
        if variant == "gate":
            argv += ["--gate", "R"]
        reports.append(argv)
    return reports


def _check_protocols(reports, docs, run_report) -> None:
    for argv, doc in zip(reports, docs):
        _check_teleport(argv, doc)


def protocols_op(index: int, rng: random.Random) -> Op:
    return Op(index, _teleport_reports(_phi(rng), _seed(rng), PROTOCOL_COUNT), _check_protocols)


# ------------------------------------------------------------------ sweep

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
# Magic basis (Makhlin, Quantum Inf. Process. 1, 243 (2002)).
_Q = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2)

# Weyl-chamber triples every local-equivalence tool must report.
_TEXTBOOK = {
    "I": (0.0, 0.0, 0.0),
    "CZ": (QUARTER, 0.0, 0.0),
    "SWAP": (QUARTER, QUARTER, QUARTER),
    "B": (QUARTER, QUARTER, 0.0),
    "B0": (QUARTER, QUARTER, 0.0),
}


def _gate_matrix(name: str, phi: float) -> np.ndarray:
    """The analyzed gates, built here from textbook CZ, H, Z and R(phi)."""
    if name == "I":
        return np.eye(4, dtype=complex)
    if name == "CZ":
        return _CZ
    if name == "SWAP":
        return _SWAP
    hz = _H @ _SZ
    b0 = _CZ @ np.kron(hz, hz) @ _CZ
    if name == "B0":
        return b0
    r = np.diag([1, cmath.exp(1j * phi)])
    rr = np.kron(r, r)
    return cmath.exp(3j * QUARTER) * rr @ b0 @ rr.conj().T


def makhlin_invariants(u: np.ndarray) -> tuple[complex, complex]:
    ub = _Q.conj().T @ u @ _Q
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    return tr * tr / (16 * det), (tr * tr - np.trace(m @ m)) / (4 * det)


def _canonical_exp(a: float, b: float, c: float) -> np.ndarray:
    from scipy.linalg import expm  # benchmark-only dependency, imported on first check

    h = a * np.kron(_SX, _SX) + b * np.kron(_SY, _SY) + c * np.kron(_SZ, _SZ)
    return expm(1j * h)


def _check_analyze(argv: list[str], doc: dict) -> None:
    gate = argv[argv.index("--gate") + 1]
    phi = float(argv[argv.index("--phi") + 1])
    params = _entry(doc, "canonical-params")
    triple = tuple(float(params[k]) for k in ("a", "b", "c"))
    for got, want in zip(triple, _TEXTBOOK[gate]):
        _near(f"analyze {gate} triple", got, want, INVARIANT_TOL)
    g_gate = makhlin_invariants(_gate_matrix(gate, phi))
    g_triple = makhlin_invariants(_canonical_exp(*triple))
    for k in range(2):
        _near(f"analyze {gate} G{k + 1}", g_triple[k], g_gate[k], INVARIANT_TOL)


def _check_solve(argv: list[str], doc: dict) -> None:
    m, n = (int(c) for c in argv[argv.index("--mn") + 1])
    classes = [e for e in doc["results"] if e["label"].startswith("class-") and "mu" in e]
    if _entry(doc, "class-count")["value"] != 3 or len(classes) != 3:
        raise CheckFailed(f"solve --mn {m}{n}: {len(classes)} classes, expected 3")
    patterns = set()
    for entry in classes:
        mu = {(int(k[0]), int(k[1])): complex(v) for k, v in entry["mu"].items()}
        for key, value in mu.items():
            _near(f"|mu{key}|", abs(value), 1.0, CLOSED_FORM_TOL)
        completeness = 0.5 * mu[(m, n)] * sum(mu.values())
        _near(f"{entry['label']} completeness", completeness, 1.0, CLOSED_FORM_TOL)
        patterns.add(entry["pattern"])
    if len(patterns) != 3:
        raise CheckFailed(f"solve --mn {m}{n}: classes are not distinct")


def _check_sweep(reports, docs, run_report) -> None:
    for argv, doc in zip(reports, docs):
        if argv[0] == "solve":
            _check_solve(argv, doc)
        elif argv[0] == "analyze":
            _check_analyze(argv, doc)
        elif argv[0] == "teleport":
            _check_teleport(argv, doc)
        elif argv[1] == "bmw":
            _check_parameters(doc)


def _sweep_round(rng: random.Random) -> list[list[str]]:
    """One short report of every kind at one fresh phi and seed."""
    phi, seed = _phi(rng), _seed(rng)
    reports = [
        ["solve", "--mn", SWEEP_MN, "--phi", phi],
        ["verify", "spectral", "--mn", SWEEP_MN, "--phi", phi],
        ["verify", "general", "--mn", SWEEP_MN, "--phi", phi],
        ["verify", "constraints", "--phi", phi, "--seed", seed],
        ["verify", "bmw", "--sites", "3", "--phi", phi],
    ]
    reports += [["analyze", "--gate", g, "--phi", phi] for g in ANALYZE_GATES]
    return reports + _teleport_reports(phi, seed, SWEEP_COUNT)


def sweep_op(index: int, rng: random.Random) -> Op:
    reports = [argv for _ in range(SWEEP_ROUNDS) for argv in _sweep_round(rng)]
    return Op(index, reports, _check_sweep)


WORKLOADS = {"chain": chain_op, "protocols": protocols_op, "sweep": sweep_op}

# Enough ops for any run length the runner accepts; building them is cheap.
MAX_OPS = 200


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op sequence of one run; the same (workload, seed) gives the same ops."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(index, rng) for index in range(MAX_OPS)]
