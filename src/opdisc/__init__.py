"""Minimal-error discrimination of quantum operations.

Closed forms for channels mixing orthogonal unitary families (qubit Pauli
channels in particular), a numeric path for arbitrary Kraus maps with and
without an entangled ancilla, and naive brute-force oracles to check both.
"""

from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    FamilyMismatch,
    InvalidPovm,
    InvalidProbabilityVector,
    InvalidState,
    NonFinite,
    NonHermitian,
    NonSquare,
    NotOrthogonal,
    OpdiscError,
    OptimizerFailure,
    UnsupportedDimension,
)
from .linalg import (
    EigDecomposition,
    biket_to_mat,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    mat_to_biket,
    trace_norm,
)
from .channels import (
    PAULI_MATRICES,
    DiscriminationProblem,
    QuantumOperation,
    RandomUnitaryChannel,
    TwoOutcomePovm,
    apply_extended,
    make_operation,
    pauli_channel,
    unnormalized_choi,
    weyl_channel,
    weyl_unitaries,
)
from .optimizer import MaximizeSummary
from .discrimination import (
    DiscriminationResult,
    PauliDiscriminationSummary,
    bound_max_entangled,
    delta_operator,
    helstrom,
    is_orthogonal_unitary_family,
    pauli_delta_summary,
    pe_entangled,
    pe_random_unitary_bounds,
    pe_random_unitary_exact,
    pe_unentangled,
)
from .oracle import brute_force_entangled, brute_force_unentangled, povm_error

__all__ = [
    "OpdiscError",
    "NonFinite",
    "NonSquare",
    "NonHermitian",
    "DimensionMismatch",
    "CompletenessViolation",
    "InvalidProbabilityVector",
    "InvalidState",
    "InvalidPovm",
    "FamilyMismatch",
    "NotOrthogonal",
    "UnsupportedDimension",
    "OptimizerFailure",
    "EigDecomposition",
    "eig_hermitian",
    "trace_norm",
    "mat_to_biket",
    "biket_to_mat",
    "is_hermitian",
    "is_unitary",
    "PAULI_MATRICES",
    "QuantumOperation",
    "RandomUnitaryChannel",
    "make_operation",
    "pauli_channel",
    "weyl_channel",
    "weyl_unitaries",
    "apply_extended",
    "unnormalized_choi",
    "MaximizeSummary",
    "DiscriminationProblem",
    "DiscriminationResult",
    "PauliDiscriminationSummary",
    "helstrom",
    "delta_operator",
    "bound_max_entangled",
    "pe_entangled",
    "pe_unentangled",
    "is_orthogonal_unitary_family",
    "pe_random_unitary_exact",
    "pe_random_unitary_bounds",
    "pauli_delta_summary",
    "TwoOutcomePovm",
    "povm_error",
    "brute_force_unentangled",
    "brute_force_entangled",
]

__version__ = "0.1.0"
