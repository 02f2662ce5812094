"""Two-qubit braid representations, teleportation protocols, and checkers.

The package verifies a family of algebra relations realised on qubit
registers (Temperley-Lieb, braid, mixed, tangle, and their undeformed
limit), simulates the teleportation protocols those relations encode, and
solves the eigenvalue constraint systems that make a basis teleportable.
"""

from .algebra import (
    BmwParams,
    RelationReport,
    Representation,
    brauer_teleportation_residuals,
    build_rep,
    check_all,
    check_brauer,
    derive_params,
)
from .entanglement import (
    CanonicalParams,
    braid_projector_forms,
    canonical_gate,
    canonical_params,
    entangling_power,
)
from .gate_teleport import (
    PauliString,
    clifford_check,
    k_gate,
    l_gate,
    r_gate,
    recognize_pauli,
    teleport_single_gate,
    teleport_two_qubit,
)
from .gates import (
    B_EIGENVALUES,
    bell_state,
    decompose_b,
    elementary,
    m_gate,
    tl_projector,
    yb_clifford,
    yb_gate,
)
from .tangles import (
    EigenAssignment,
    GateCoefficients,
    SolutionClass,
    build_representation,
    matched_form,
    skew_transpose,
    solve_pauli_eigenvalues,
)
from .teleport import (
    MeasurementOutcome,
    UnitaryBasis,
    teleport_bell_like,
    teleport_standard,
    teleport_with_yb,
)

__version__ = "0.1.0"

__all__ = [
    "B_EIGENVALUES",
    "BmwParams",
    "CanonicalParams",
    "EigenAssignment",
    "GateCoefficients",
    "MeasurementOutcome",
    "PauliString",
    "RelationReport",
    "Representation",
    "SolutionClass",
    "UnitaryBasis",
    "bell_state",
    "braid_projector_forms",
    "brauer_teleportation_residuals",
    "build_rep",
    "build_representation",
    "canonical_gate",
    "canonical_params",
    "check_all",
    "check_brauer",
    "clifford_check",
    "decompose_b",
    "derive_params",
    "elementary",
    "entangling_power",
    "k_gate",
    "l_gate",
    "m_gate",
    "matched_form",
    "r_gate",
    "recognize_pauli",
    "skew_transpose",
    "solve_pauli_eigenvalues",
    "teleport_bell_like",
    "teleport_single_gate",
    "teleport_standard",
    "teleport_two_qubit",
    "teleport_with_yb",
    "tl_projector",
    "yb_clifford",
    "yb_gate",
]
