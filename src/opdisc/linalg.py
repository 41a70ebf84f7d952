"""Dense complex linear algebra helpers shared by every other module.

All matrices are plain numpy arrays with dtype complex128. Dimensions stay
small (d <= 16 or so), so clarity wins over asymptotic speed everywhere.
Input from outside the package enters through require_finite, require_matrix,
check_prior and check_count, which decide for every module what a valid
array, matrix, prior or count is. require_finite is the one rule for what a
number is, for library calls and spec files alike, at any depth of nesting.
Matrices are held to config.INPUT_TOL, the one tolerance for outside input.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import INPUT_TOL
from .errors import DimensionMismatch, NonFinite, NonHermitian, NonSquare


_REAL = (int, float, np.integer, np.floating)
_COMPLEX = (*_REAL, complex, np.complexfloating)
_MAX_NDIM = 64  # numpy's limit on an array's dimensions


def _first_bad_entry(a, real: bool, depth: int = 0) -> tuple[str, str] | None:
    """(index path, complaint) for the first entry of `a`, inside `depth` lists, that is no
    (real) number, or None; a list that would be numpy's 65th dimension is one, so the
    walk never recurses more than 65 calls deep."""
    if isinstance(a, np.ndarray):
        if a.dtype.kind in ("iuf" if real else "iufc") and depth + a.ndim <= _MAX_NDIM:
            return None
        a = a.tolist()
    if isinstance(a, (list, tuple)):
        if depth == _MAX_NDIM:
            return "", f"lists nested deeper than numpy's {_MAX_NDIM} dimensions"
        for i, x in enumerate(a):
            if type(x) is not float and (bad := _first_bad_entry(x, real, depth + 1)) is not None:
                return f"[{i}]{bad[0]}", bad[1]
        return None
    if isinstance(a, bool) or not isinstance(a, _REAL if real else _COMPLEX):
        return "", f"expected a {'real ' if real else ''}number, got {a!r}"
    if isinstance(a, int) and abs(a) > sys.float_info.max:
        return "", f"integer too large for a float, got one of {_digits(abs(a))} digits"
    return None


def _digits(n: int) -> int:
    """Decimal digits of the integer n > 0; str(n) refuses more than 4,300 of them."""
    k = int(math.log10(n))  # off by at most one near a power of ten
    return k + (n >= 10**k) + (n >= 10 ** (k + 1))


def require_finite(a, what: str, dtype) -> np.ndarray:
    """`a` as an array of `dtype` (the type float or complex), or NonFinite naming what is wrong.

    Only integer, float and, for a complex dtype, complex entries convert, at any
    depth: a bool, None, a string, a dict, any other object, an integer too large
    for a float (named by its digit count), a ragged list, a list at the 65th level
    of nesting (past numpy's 64 dimensions, refused before the walk goes deeper, so
    no nesting reaches the recursion limit) and a NaN or infinite entry are refused,
    a bad entry named by its index path, as in `Kraus operator 0[1][1]`.
    """
    real = dtype is not complex
    if type(a) is not float and (bad := _first_bad_entry(a, real)) is not None:
        raise NonFinite(f"{what}{bad[0]}: {bad[1]}")
    try:
        values = np.asarray(a, dtype=dtype)
    except ValueError:  # every entry is a number nested at most 64 deep, so the nesting is ragged
        raise NonFinite(f"{what}: lists of unequal length, got {a!r}") from None
    finite = np.isfinite(values)
    if not finite.all():
        at = "".join(f"[{i}]" for i in np.argwhere(~finite)[0])
        raise NonFinite(f"{what}{at}: non-finite entry {values[~finite][0].item()!r}")
    return values


def require_matrix(a, what: str, d: int | None = None) -> np.ndarray:
    """`a` as a finite complex square matrix of at least 1 x 1, d x d when d is given.

    Raises NonFinite, NonSquare (an empty matrix too) or DimensionMismatch, each naming `what`.
    """
    a = require_finite(a, what, complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise NonSquare(f"{what} of shape {a.shape} is not a nonempty square matrix")
    if d is not None and a.shape[0] != d:
        raise DimensionMismatch(f"{what} of shape {a.shape} is not {d}x{d}")
    return a


def check_prior(p1) -> float:
    """`p1` as a float in [0, 1]; NonFinite naming anything but one real number, ValueError out of range."""
    value = require_finite(p1, "p1", float)
    if value.ndim:
        raise NonFinite(f"p1 must be a single number, got {p1!r}")
    p1 = float(value)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
    return p1


def check_count(value, name: str, least: int) -> int:
    """`value` as an int if it is an integer (numpy's too, bool not) >= least; else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_hermitian(a) -> bool:
    """True when ||A - A^dag||_max <= INPUT_TOL; False for anything but a nonempty square matrix."""
    try:
        a = require_matrix(a, "matrix")
    except NonSquare:
        return False
    return float(np.max(np.abs(a - dagger(a)))) <= INPUT_TOL


def is_unitary(a) -> bool:
    """True when ||A^dag A - I||_max <= INPUT_TOL; False for anything but a nonempty square matrix."""
    try:
        a = require_matrix(a, "matrix")
    except NonSquare:
        return False
    eye = np.eye(a.shape[0])
    return float(np.max(np.abs(dagger(a) @ a - eye))) <= INPUT_TOL


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises NonFinite / NonSquare / NonHermitian on bad input.
    """
    a = require_matrix(a, "matrix")
    h = dagger(a)
    deviation = float(np.max(np.abs(a - h)))
    if not deviation <= INPUT_TOL:
        raise NonHermitian(f"matrix deviates from Hermitian by {deviation:.3e}")
    # eigh works on the Hermitian average, so tolerance-level asymmetry is ironed out
    w, v = np.linalg.eigh((a + h) / 2)
    order = np.argsort(w)[::-1]
    return EigDecomposition(eigenvalues=w[order].real, eigenvectors=v[:, order])


def trace_norm(a) -> float:
    """Trace norm ||A||_1, the sum of singular values.

    For Hermitian input this equals the sum of absolute eigenvalues, computed
    through the cheaper Hermitian path.
    """
    a = require_matrix(a, "matrix")
    h = dagger(a)
    if float(np.max(np.abs(a - h))) <= INPUT_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh((a + h) / 2))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def partial_trace(a, dims: tuple[int, int], which: int) -> np.ndarray:
    """Trace out subsystem `which` (0 or 1) of a (d1*d2) x (d1*d2) matrix.

    Returns the reduced matrix on the surviving subsystem. dims must be a
    pair of integers >= 1.
    """
    try:
        d1, d2 = dims
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a pair of integers, got {dims!r}") from None
    d1, d2 = check_count(d1, "dims", 1), check_count(d2, "dims", 1)
    a = require_matrix(a, f"matrix on {d1}x{d2} subsystems", d1 * d2)
    if which not in (0, 1):
        raise ValueError("which must be 0 (trace out first) or 1 (trace out second)")
    t = a.reshape(d1, d2, d1, d2)
    if which == 0:
        return np.einsum("ijik->jk", t)
    return np.einsum("ijkj->ik", t)


def mat_to_biket(a) -> np.ndarray:
    """Flatten a d x d matrix A to the length-d^2 vector with entries A[n, m] at n*d + m."""
    return require_matrix(a, "matrix").reshape(-1).copy()


def biket_to_mat(v, d: int) -> np.ndarray:
    """Inverse of mat_to_biket for a given dimension d (an integer >= 1) and a 1-D v."""
    d = check_count(d, "d", 1)
    v = require_finite(v, "vector", complex)
    if v.shape != (d * d,):
        raise DimensionMismatch(f"vector of shape {v.shape} is not a length-{d * d} vector for {d}x{d}")
    return v.reshape(d, d).copy()
