"""The package's records are read-only tuples, and those that hold arrays compare and hash by identity."""

import numpy as np
import pytest

from braidtel import algebra, entanglement, gate_teleport, gates, tangles, teleport
from braidtel.teleport import BIT_PAIRS

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
}

# the records that hold arrays: tuple equality would compare the arrays, and tuple hashing fails on one
BY_IDENTITY = {
    "UnitaryBasis": lambda: teleport.UnitaryBasis([gates.pauli_w(i, j) for i, j in BIT_PAIRS]),
    "EigenAssignment": RECORDS["EigenAssignment"],
    "GateCoefficients": RECORDS["GateCoefficients"],
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only_tuples(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name and isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "extra"


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_array_records_compare_and_hash_by_identity(name):
    first, second = BY_IDENTITY[name](), BY_IDENTITY[name]()
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2
