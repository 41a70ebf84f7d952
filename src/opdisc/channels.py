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

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .config import INPUT_TOL, PROBABILITY_TOL
from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidPovm,
    InvalidProbabilityVector,
    InvalidState,
    NonFinite,
    UnsupportedDimension,
)
from .linalg import (
    _is_hermitian,
    _is_unitary,
    check_count,
    check_prior,
    dagger,
    require_dim,
    require_finite,
    require_matrix,
)

__all__ = [
    "PAULI_MATRICES", "QuantumOperation", "RandomUnitaryChannel", "DiscriminationProblem", "TwoOutcomePovm",
    "make_operation", "pauli_channel", "weyl_channel", "weyl_unitaries", "apply_extended", "unnormalized_choi",
]

# numpy sums fewer than 8 float64 entries one by one from 0.0, left to right, as a Python loop does
_SHORT = 8


def check_probability_vector(q, length: int | None = None) -> list[float]:
    """Validate a 1-D list of nonnegative entries summing to 1; returns the entries as Python floats.

    Fewer than _SHORT finite floats (a list, tuple or float64 array) skip numpy: one pass tests
    each entry and keeps the least one and the sum from 0.0, left to right, which is what numpy's
    min and sum give. Anything else goes through require_finite and numpy. Both routes then refuse
    a wrong length, a negative entry and a sum off 1, in that order, with the same messages."""
    if type(q) is np.ndarray and q.dtype == np.float64 and q.ndim == 1 and len(q) < _SHORT:
        q = q.tolist()
    short = type(q) in (list, tuple) and len(q) < _SHORT
    if short:
        least, total = math.inf, 0.0  # an empty q fails the sum
        for x in q:
            if type(x) is not float or not math.isfinite(x):
                short = False
                break
            if x < least:
                least = x
            total += x
    if not short:
        q = require_finite(q, "probability vector", float)
        if q.ndim != 1:
            raise InvalidProbabilityVector(f"expected a flat list of weights, got shape {q.shape}")
        least = float(q.min(initial=np.inf))
    if length is not None and len(q) != length:
        raise InvalidProbabilityVector(f"expected {length} entries, got {len(q)}")
    if not least >= -PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"negative entry {least:.3e}")
    if not short:
        total = float(q.sum())  # after the refusals above: a sum that overflows warns, and must not for a q they refuse
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"entries sum to {total!r}, not 1")
    return list(q) if short else q.tolist()


def _matrices(items, what: str, d: int | None = None) -> tuple[np.ndarray, ...]:
    """Each entry of the list `items` through require_matrix, named `what` and its index."""
    try:
        items = tuple(items)
    except TypeError:  # not iterable
        raise NonFinite(f"expected a list of {what} matrices, got {items!r}") from None
    return tuple(require_matrix(m, f"{what} {i}", d) for i, m in enumerate(items))


def _checked(cls, **fields):
    """A `cls` holding `fields`, values that passed every check of cls.__post_init__, without running them again."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


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
        object.__setattr__(self, "kraus", _complete(_matrices(self.kraus, "Kraus operator", d), d))
        object.__setattr__(self, "dim", d)


def _complete(kraus: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """The d x d matrices `kraus`, already through require_matrix, as one read-only array; refused unless
    there is at least one and sum K^dag K = I within tolerance."""
    if not kraus:
        raise CompletenessViolation("an operation needs at least one Kraus operator")
    kraus = _read_only(kraus)
    total = sum(dagger(k) @ k for k in kraus)
    deviation = float(np.max(np.abs(total - np.eye(d))))
    if not deviation <= INPUT_TOL:
        raise CompletenessViolation(f"sum K^dag K deviates from identity by {deviation:.3e}")
    return kraus


def make_operation(kraus) -> QuantumOperation:
    """Build a validated QuantumOperation from a list of square matrices; the first one sets the dimension.

    Each matrix is checked once: every one through require_matrix, then each one's dimension.
    """
    kraus = _matrices(kraus, "Kraus operator")
    d = kraus[0].shape[0] if kraus else 1
    kraus = tuple(require_dim(k, f"Kraus operator {i}", d) for i, k in enumerate(kraus))
    return _checked(QuantumOperation, dim=d, kraus=_complete(kraus, d))


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
        if not all(_is_unitary(u) for u in unitaries):
            raise InvalidState("matrix in the unitary list is not unitary within tolerance")
        weights = check_probability_vector(self.weights)
        if len(weights) != len(unitaries):
            raise DimensionMismatch(f"{len(weights)} weights for {len(unitaries)} unitaries")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "unitaries", _read_only(unitaries))
        object.__setattr__(self, "weights", _read_only(weights))

    def as_operation(self) -> QuantumOperation:
        """Kraus form sqrt(weights[n]) U_n, keeping only the strictly positive weights."""
        kraus = tuple(np.sqrt(w) * u for w, u in zip(self.weights, self.unitaries) if w > 0)
        return _checked(QuantumOperation, dim=self.dim, kraus=_complete(kraus, self.dim))


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
    """Two same-dimension operations and the prior of the first; what the solvers derive is cached read-only."""

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

    @cached_property
    def _delta(self) -> np.ndarray:
        """Delta = p1 sum |K1>><<K1| - p2 sum |K2>><<K2|, the d^2 x d^2 form of p1 E1 - p2 E2."""
        return _read_only(self.p1 * unnormalized_choi(self.op1) - self.p2 * unnormalized_choi(self.op2))

    @cached_property
    def _seesaw(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p1 E1 - p2 E2 as sum_k w_k K_k . K_k^dag: both Kraus lists as one array, w_k = p1 or -p2,
        and the adjoint map X -> sum_k w_k K_k^dag X K_k acting on row-major vec(X) from the right."""
        kraus = np.concatenate([self.op1.kraus, self.op2.kraus])
        weights = np.array([self.p1] * len(self.op1.kraus) + [-self.p2] * len(self.op2.kraus))
        adjoint = np.einsum("k,kip,kjq->ijpq", weights, kraus.conj(), kraus).reshape(self.op1.dim ** 2, -1)
        return _read_only(kraus), _read_only(weights), _read_only(adjoint)


@dataclass(frozen=True)
class TwoOutcomePovm:
    """Measurement {pi1, pi2} deciding between two hypotheses.

    pi1 and pi2 are read-only complex d x d copies of what was given, each
    Hermitian and positive and together summing to I, all within INPUT_TOL;
    InvalidPovm refuses anything else when the measurement is built.
    """

    pi1: np.ndarray
    pi2: np.ndarray

    def __post_init__(self):
        pi1 = _read_only(require_matrix(self.pi1, "pi1"))
        pi2 = _read_only(require_matrix(self.pi2, "pi2", len(pi1)))
        for name, pi in (("pi1", pi1), ("pi2", pi2)):
            if not _is_hermitian(pi):
                raise InvalidPovm(f"{name} is not Hermitian within tolerance")
            if not float(np.min(np.linalg.eigvalsh(pi))) >= -INPUT_TOL:
                raise InvalidPovm(f"{name} has an eigenvalue below -{INPUT_TOL}")
        deviation = float(np.max(np.abs(pi1 + pi2 - np.eye(len(pi1)))))
        if not deviation <= INPUT_TOL:
            raise InvalidPovm(f"pi1 + pi2 deviates from identity by {deviation:.3e}")
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "pi2", pi2)


def pauli_channel(q) -> QuantumOperation:
    """Kraus form of the qubit Pauli channel with weights q over {I, x, y, z}.

    rho -> sum_a q[a] sigma_a rho sigma_a; only the strictly positive weights
    become Kraus operators.
    """
    q = check_probability_vector(q, 4)
    # sum K^dag K is (the sum of the positive q_a) I, within 4 PROBABILITY_TOL of I: nothing to check
    kraus = _read_only([np.sqrt(w) * s for w, s in zip(q, PAULI_MATRICES) if w > 0])
    return _checked(QuantumOperation, dim=2, kraus=kraus)


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
    unitaries = _read_only(weyl_unitaries(d))  # exact unitaries built here: no check of them
    weights = check_probability_vector(q, len(unitaries))
    return _checked(RandomUnitaryChannel, dim=unitaries.shape[1], unitaries=unitaries, weights=_read_only(weights))


def check_density_matrix(rho, d: int) -> np.ndarray:
    """Validate a d x d density matrix (Hermitian, unit trace, positive within tolerance)."""
    return check_state(require_matrix(rho, "state", check_count(d, "d", 1)))


def check_state(rho: np.ndarray) -> np.ndarray:
    """check_density_matrix's checks on rho, a matrix that already passed require_matrix."""
    if not _is_hermitian(rho):
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
