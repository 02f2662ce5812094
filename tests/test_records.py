"""The package's records are read-only tuples, and those that hold arrays compare and hash by identity."""

import json

import numpy as np
import pytest

from braidtel import algebra, cli, entanglement, gate_teleport, gates, tangles, teleport
from braidtel.teleport import BIT_PAIRS
from test_protocol_constants import cold_caches  # noqa: F401 -- clears every cache, so no rebinding outlives its test

ALPHA = np.array([0.6, 0.8j])

RECORDS = {
    "BmwParams": lambda: algebra.derive_params(gates.yb_gate(0.3)),
    "RelationReport": lambda: algebra.check_brauer()[0],
    "Representation": lambda: algebra.build_rep(gates.brauer_projector(), gates.permutation_p(), 3),
    "CanonicalParams": lambda: entanglement.canonical_params(gates.CZ),
    "MeasurementOutcome": lambda: teleport.teleport_standard(ALPHA)[0],
    "PhaseTable": lambda: teleport.phase_table(0.3),
    "UnitaryBasis": lambda: teleport.UnitaryBasis.pauli(),
    "PauliString": lambda: gate_teleport.recognize_pauli(gates.X),
    "DoubleOutcome": lambda: gate_teleport.teleport_two_qubit(np.eye(4)[0], 0, 1, 1, 0)[0],
    "EigenAssignment": lambda: tangles.EigenAssignment([1, -1, 1j, -1j]),
    "GateCoefficients": lambda: tangles.GateCoefficients(np.eye(4)),
    "SolutionClass": lambda: tangles.solve_pauli_eigenvalues(0, 1)[0],
    "Protocol": teleport._standard_protocol,
}

# the records that hold arrays: tuple equality would compare the arrays, and tuple hashing fails on one
BY_IDENTITY = {
    "UnitaryBasis": lambda: teleport.UnitaryBasis([gates.pauli_w(i, j) for i, j in BIT_PAIRS]),
    "EigenAssignment": RECORDS["EigenAssignment"],
    "GateCoefficients": RECORDS["GateCoefficients"],
    "Protocol": lambda: teleport._braid_protocol(0.3),
}

# the protocols that a cache shares between reports, and a fresh one
PROTOCOLS = {
    "standard": teleport._standard_protocol,
    "bell-like": lambda: teleport._bell_like_protocol(0.3),
    "double": gate_teleport._double_protocol,
    "braid": lambda: teleport._braid_protocol(0.3),
}
PROTOCOL_FIELDS = ("op", "table", "kets", "gate", "branch", "every_branch")


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only_tuples(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name and isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "extra"
    for field in record._fields:
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_array_records_compare_and_hash_by_identity(name):
    first, second = BY_IDENTITY[name](), BY_IDENTITY[name]()
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


@pytest.mark.parametrize("name", PROTOCOLS)
def test_no_field_of_a_protocol_can_be_assigned_or_deleted(name, cold_caches):
    protocol = PROTOCOLS[name]()
    assert not hasattr(protocol, "__dict__")
    for field in (*PROTOCOL_FIELDS, "note"):
        with pytest.raises(AttributeError):
            setattr(protocol, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(protocol, field)


def test_a_refused_assignment_leaves_the_every_branch_row_computed(cold_caches, capsys):
    protocol = teleport._standard_protocol()
    with pytest.raises(AttributeError):
        protocol.every_branch = 0.5
    assert cli.main(["teleport", "standard", "--count", "4", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    row = next(entry for entry in results if entry["label"] == "every-branch")
    assert row["pass"] is True and row["residual"] == cli._fmt(protocol.every_branch)
    assert protocol.every_branch <= 1e-12
