"""Dense complex linear algebra helpers shared by every other module.

All matrices are plain numpy arrays with dtype complex128. Dimensions stay
small (d <= 16 or so), so clarity wins over asymptotic speed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import HERMITICITY_TOL, UNITARITY_TOL
from .errors import DimensionMismatch, NonFinite, NonHermitian, NonSquare


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise NonSquare(f"expected a matrix, got array of shape {a.shape}")
    return a


def _require_square(a) -> np.ndarray:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def require_finite(a, what: str, dtype) -> np.ndarray:
    """`a` as an array of `dtype` (float or complex), or NonFinite naming what is wrong.

    Only integer, float and, for a complex dtype, complex entries convert:
    strings, None, bools, other objects and ragged lists are refused, and so
    is the first NaN or infinite entry.
    """
    real = np.dtype(dtype).kind != "c"
    try:
        values = np.asarray(a)
    except ValueError:  # ragged nesting; refused below as an object array
        values = np.asarray(None)
    if values.dtype.kind not in ("iuf" if real else "iufc"):
        raise NonFinite(f"{what} must hold {'real ' if real else ''}numbers, got {a!r}")
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)].flat[0].item()
        raise NonFinite(f"{what} has a non-finite entry {bad!r}")
    return values.astype(dtype, copy=False)


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


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    """True when ||A - A^dag||_max <= tol."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - dagger(a)))) <= tol


def is_unitary(a, tol: float = UNITARITY_TOL) -> bool:
    """True when ||A^dag A - I||_max <= tol."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return float(np.max(np.abs(dagger(a) @ a - eye))) <= tol


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises NonSquare / NonHermitian on bad input.
    """
    a = _require_square(a)
    if not is_hermitian(a):
        raise NonHermitian(
            f"matrix deviates from Hermitian by {float(np.max(np.abs(a - dagger(a)))):.3e}"
        )
    # eigh works on the Hermitian average, so tolerance-level asymmetry is ironed out
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    order = np.argsort(w)[::-1]
    return EigDecomposition(eigenvalues=w[order].real, eigenvectors=v[:, order])


def trace_norm(a) -> float:
    """Trace norm ||A||_1, the sum of singular values.

    For Hermitian input this equals the sum of absolute eigenvalues, computed
    through the cheaper Hermitian path.
    """
    a = _require_square(a)
    if is_hermitian(a):
        return float(np.sum(np.abs(np.linalg.eigvalsh((a + dagger(a)) / 2))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def partial_trace(a, dims: tuple[int, int], which: int) -> np.ndarray:
    """Trace out subsystem `which` (0 or 1) of a (d1*d2) x (d1*d2) matrix.

    Returns the reduced matrix on the surviving subsystem.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    a = _as_matrix(a)
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(
            f"matrix shape {a.shape} does not match subsystem dims {d1}x{d2}"
        )
    if which not in (0, 1):
        raise ValueError("which must be 0 (trace out first) or 1 (trace out second)")
    t = a.reshape(d1, d2, d1, d2)
    if which == 0:
        return np.einsum("ijik->jk", t)
    return np.einsum("ijkj->ik", t)


def mat_to_biket(a) -> np.ndarray:
    """Flatten a d x d matrix A to the length-d^2 vector with entries A[n, m] at n*d + m."""
    a = _require_square(a)
    return a.reshape(-1).copy()


def biket_to_mat(v, d: int) -> np.ndarray:
    """Inverse of mat_to_biket for a given dimension d."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise DimensionMismatch(f"vector of length {v.size} is not {d}x{d}")
    return v.reshape(d, d).copy()
