"""Two-qubit braid representations, teleportation protocols, and checkers.

The package verifies a family of algebra relations realised on qubit
registers (Temperley-Lieb, braid, mixed, tangle, and their undeformed
limit), simulates the teleportation protocols those relations encode, and
solves the eigenvalue constraint systems that make a basis teleportable.

The names below, the ones the README's library tour imports, are the whole
top-level API; every other name is imported from its module.
"""

from .algebra import build_rep, check_all, derive_params
from .entanglement import canonical_params, entangling_power
from .gate_teleport import clifford_check, r_gate
from .gates import tl_projector, yb_gate
from .tangles import GateCoefficients, build_representation, solve_pauli_eigenvalues
from .teleport import UnitaryBasis, teleport_with_yb

__version__ = "0.1.0"

__all__ = [
    "GateCoefficients",
    "UnitaryBasis",
    "build_rep",
    "build_representation",
    "canonical_params",
    "check_all",
    "clifford_check",
    "derive_params",
    "entangling_power",
    "r_gate",
    "solve_pauli_eigenvalues",
    "teleport_with_yb",
    "tl_projector",
    "yb_gate",
]
