"""The validated value types, plus the Pauli / shift-phase channel families.

Quantum operations in Kraus form, random-unitary channels, the two-channel
DiscriminationProblem and the TwoOutcomePovm measurement live here, with the
checks every module applies to them. discrimination and oracle both import
them from this module, so neither imports the other.

The double-ket convention used throughout: a d x d matrix A corresponds to the
bipartite vector |A>> with component A[n, m] at index n*d + m, so
|A>> = (A x I)|I>> = (I x A^T)|I>>  and  <<A|B>> = Tr[A^dag B].
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import INPUT_TOL, PROBABILITY_TOL
from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidProbabilityVector,
    InvalidState,
    NonFinite,
    UnsupportedDimension,
)
from .linalg import check_count, check_prior, dagger, is_hermitian, is_unitary, require_finite, require_matrix

def check_probability_vector(q, length: int | None = None) -> np.ndarray:
    """Validate a 1-D list of nonnegative entries summing to 1; returns the vector as floats."""
    q = require_finite(q, "probability vector", float)
    if q.ndim != 1:
        raise InvalidProbabilityVector(f"expected a flat list of weights, got shape {q.shape}")
    if length is not None and q.size != length:
        raise InvalidProbabilityVector(f"expected {length} entries, got {q.size}")
    # Python floats from here: one reduction each, without numpy's wrapper overhead
    least = float(q.min(initial=np.inf))  # an empty q fails the sum below
    if not least >= -PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"negative entry {least:.3e}")
    total = float(q.sum())
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"entries sum to {total!r}, not 1")
    return q


def _matrices(items, what: str, d: int | None = None) -> tuple[np.ndarray, ...]:
    """Each entry of the list `items` through require_matrix, named `what` and its index."""
    try:
        items = tuple(items)
    except TypeError:  # not iterable
        raise NonFinite(f"expected a list of {what} matrices, got {items!r}") from None
    return tuple(require_matrix(m, f"{what} {i}", d) for i, m in enumerate(items))


def _read_only(a) -> np.ndarray:
    """A copy of `a` that nobody can write, so a value that passed a check cannot change afterwards."""
    a = np.array(a)
    a.flags.writeable = False
    return a


# I, sigma_x, sigma_y, sigma_z as one read-only complex (4, 2, 2) array
PAULI_MATRICES: np.ndarray = _read_only([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class QuantumOperation:
    """A completely positive trace-preserving map given by Kraus operators.

    kraus is one read-only complex (n, d, d) array, a copy of the given list
    of d x d matrices K_n, with sum K_n^dag K_n = I within the completeness
    tolerance.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        d = check_count(self.dim, "dim", 1)
        kraus = _matrices(self.kraus, "Kraus operator", d)
        if not kraus:
            raise CompletenessViolation("an operation needs at least one Kraus operator")
        kraus = _read_only(kraus)
        total = sum(dagger(k) @ k for k in kraus)
        deviation = float(np.max(np.abs(total - np.eye(d))))
        if not deviation <= INPUT_TOL:
            raise CompletenessViolation(
                f"sum K^dag K deviates from identity by {deviation:.3e}"
            )
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "kraus", kraus)


def make_operation(kraus) -> QuantumOperation:
    """Build a validated QuantumOperation from a list of square matrices; the first one sets the dimension."""
    kraus = _matrices(kraus, "Kraus operator")
    return QuantumOperation(dim=kraus[0].shape[0] if kraus else 1, kraus=kraus)


@dataclass(frozen=True)
class RandomUnitaryChannel:
    """rho -> sum_n weights[n] U_n rho U_n^dag for a fixed list of unitaries.

    Zero weights are legal and kept, so two channels over the same family can
    be compared index by index. unitaries is one read-only complex (n, d, d)
    array and weights a read-only (n,) array, both copies of what was given.
    """

    dim: int
    unitaries: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = check_count(self.dim, "dim", 1)
        unitaries = _matrices(self.unitaries, "unitary", d)
        if not unitaries:
            raise CompletenessViolation("a random-unitary channel needs at least one unitary")
        for u in unitaries:
            if not is_unitary(u):
                raise InvalidState("matrix in the unitary list is not unitary within tolerance")
        unitaries = _read_only(unitaries)
        weights = _read_only(check_probability_vector(self.weights))
        if weights.size != len(unitaries):
            raise DimensionMismatch(
                f"{weights.size} weights for {len(unitaries)} unitaries"
            )
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "unitaries", unitaries)
        object.__setattr__(self, "weights", weights)

    def as_operation(self) -> QuantumOperation:
        """Kraus form sqrt(weights[n]) U_n, keeping only the strictly positive weights."""
        kraus = tuple(
            np.sqrt(w) * u for w, u in zip(self.weights, self.unitaries) if w > 0
        )
        return QuantumOperation(dim=self.dim, kraus=kraus)


def require_type(value, cls: type, name: str) -> None:
    """TypeError naming `name` unless `value` is a `cls`.

    A RandomUnitaryChannel given for a QuantumOperation is pointed to .as_operation().
    """
    if not isinstance(value, cls):
        convertible = cls is QuantumOperation and isinstance(value, RandomUnitaryChannel)
        hint = "; convert it with .as_operation()" if convertible else ""
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}{hint}")


@dataclass(frozen=True)
class DiscriminationProblem:
    """Two same-dimension operations and the prior probability of the first."""

    op1: QuantumOperation
    op2: QuantumOperation
    p1: float

    def __post_init__(self):
        require_type(self.op1, QuantumOperation, "op1")
        require_type(self.op2, QuantumOperation, "op2")
        if self.op1.dim != self.op2.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.op1.dim} vs {self.op2.dim}")
        object.__setattr__(self, "p1", check_prior(self.p1))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class TwoOutcomePovm:
    """Measurement {pi1, pi2} deciding between two hypotheses."""

    pi1: np.ndarray
    pi2: np.ndarray

    def __post_init__(self):
        pi1 = require_matrix(self.pi1, "pi1")
        pi2 = require_matrix(self.pi2, "pi2", len(pi1))
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "pi2", pi2)


def pauli_channel(q) -> QuantumOperation:
    """Kraus form of the qubit Pauli channel with weights q over {I, x, y, z}.

    rho -> sum_a q[a] sigma_a rho sigma_a; only the strictly positive weights
    become Kraus operators.
    """
    q = check_probability_vector(q, 4)
    kraus = tuple(np.sqrt(w) * s for w, s in zip(q, PAULI_MATRICES) if w > 0)
    return QuantumOperation(dim=2, kraus=kraus)


def weyl_unitaries(d: int) -> np.ndarray:
    """The d^2 shift-phase unitaries U[a*d + b] = sum_k w^(k b) |k+a mod d><k|, w = exp(2 pi i/d).

    Returned as one new complex (d^2, d, d) array. They are pairwise
    orthogonal: Tr[U_m^dag U_n] = d delta_mn. For d = 2 they reproduce the
    Pauli matrices up to phase.
    """
    if isinstance(d, Integral) and not isinstance(d, bool) and d < 2:
        raise UnsupportedDimension(f"dimension must be at least 2, got {d}")
    d = check_count(d, "d", 2)
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    a, b = k[:, None, None], k[:, None]  # family[a, b] is U[a*d + b]
    family = np.zeros((d, d, d, d), dtype=complex)
    family[a, b, (k + a) % d, k] = omega ** (k * b)
    return family.reshape(d * d, d, d)


def weyl_channel(d: int, q) -> RandomUnitaryChannel:
    """Random-unitary channel over the d^2 shift-phase unitaries with weights q."""
    family = weyl_unitaries(d)
    return RandomUnitaryChannel(dim=d, unitaries=family, weights=check_probability_vector(q, d * d))


def check_density_matrix(rho, d: int) -> np.ndarray:
    """Validate a d x d density matrix (Hermitian, unit trace, positive within tolerance)."""
    rho = require_matrix(rho, "state", check_count(d, "d", 1))
    if not is_hermitian(rho):
        raise InvalidState("state is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= INPUT_TOL:
        raise InvalidState(f"state trace is {trace}, not 1")
    if not float(np.min(np.linalg.eigvalsh(rho))) >= -INPUT_TOL:
        raise InvalidState("state has an eigenvalue below the positivity floor")
    return rho


def unnormalized_choi(op: QuantumOperation) -> np.ndarray:
    """sum_n |K_n>><<K_n|, the d^2 x d^2 positive operator carrying the whole map.

    Invariant under unitary remixing of the Kraus list; equals d times the
    Choi matrix.
    """
    require_type(op, QuantumOperation, "op")
    # |K_n>>, one row per n; the operation holds its Kraus operators validated
    v = op.kraus.reshape(len(op.kraus), -1)
    return v.T @ v.conj()


def apply_extended(op: QuantumOperation, xi) -> np.ndarray:
    """Output of (E x I) on the bipartite pure state |xi>><<xi|, Tr[xi^dag xi] = 1.

    Computed as (I x xi^T) sum_n |K_n>><<K_n| (I x xi^*), which agrees with
    applying the extended Kraus operators K_n x I directly.
    """
    require_type(op, QuantumOperation, "op")
    d = op.dim
    xi = require_matrix(xi, "input operator", d)
    norm2 = float(np.trace(dagger(xi) @ xi).real)
    if not abs(norm2 - 1.0) <= INPUT_TOL:
        raise InvalidState(f"Tr[xi^dag xi] is {norm2!r}, not 1")
    eye = np.eye(d)
    left = np.kron(eye, xi.T)
    return left @ unnormalized_choi(op) @ dagger(left)
