"""Brute-force verification oracles.

Deliberately naive: channels are applied by direct Kraus sums, bipartite
inputs are built with explicit Kronecker products, and the search is a dense
grid or plain random sampling. Nothing here calls into the optimizer or the
closed forms, so agreement with them is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import HERMITICITY_TOL, POVM_TOL
from .errors import DimensionMismatch, InvalidPovm, InvalidState, UnsupportedDimension
from .linalg import dagger, is_hermitian, require_finite, trace_norm

if TYPE_CHECKING:  # only for annotations; keeps this module import-independent
    from .discrimination import DiscriminationProblem

# Dense search is honest only at tiny dimension.
_MAX_ORACLE_DIM = 4


@dataclass(frozen=True)
class TwoOutcomePovm:
    """Measurement {pi1, pi2} deciding between two hypotheses."""

    pi1: np.ndarray
    pi2: np.ndarray

    def __post_init__(self):
        pi1 = require_finite(np.asarray(self.pi1, dtype=complex), "pi1")
        pi2 = require_finite(np.asarray(self.pi2, dtype=complex), "pi2")
        if pi1.shape != pi2.shape or pi1.ndim != 2 or pi1.shape[0] != pi1.shape[1]:
            raise DimensionMismatch(
                f"POVM elements of shapes {pi1.shape} and {pi2.shape} do not form a pair"
            )
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "pi2", pi2)


def _check_povm(povm: TwoOutcomePovm, d: int) -> None:
    if povm.pi1.shape != (d, d):
        raise DimensionMismatch(
            f"POVM elements are {povm.pi1.shape}, states are {d}x{d}"
        )
    for name, pi in (("pi1", povm.pi1), ("pi2", povm.pi2)):
        if not is_hermitian(pi, POVM_TOL):
            raise InvalidPovm(f"{name} is not Hermitian within tolerance")
        if not float(np.min(np.linalg.eigvalsh(pi))) >= -POVM_TOL:
            raise InvalidPovm(f"{name} has an eigenvalue below -{POVM_TOL}")
    deviation = float(np.max(np.abs(povm.pi1 + povm.pi2 - np.eye(d))))
    if not deviation <= POVM_TOL:
        raise InvalidPovm(f"pi1 + pi2 deviates from identity by {deviation:.3e}")


def _check_state(rho, d: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state of shape {rho.shape}, expected {d}x{d}")
    if not is_hermitian(rho, HERMITICITY_TOL):
        raise InvalidState("state is not Hermitian within tolerance")
    if not abs(complex(np.trace(rho)) - 1.0) <= 1e-9:
        raise InvalidState(f"state trace is {complex(np.trace(rho))}, not 1")
    return rho


def povm_error(rho1, rho2, p1: float, povm: TwoOutcomePovm) -> float:
    """Error probability p1 Tr[rho1 pi2] + p2 Tr[rho2 pi1] of a given measurement."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
    d = np.asarray(rho1).shape[0]
    rho1 = _check_state(rho1, d)
    rho2 = _check_state(rho2, d)
    _check_povm(povm, d)
    wrong1 = float(np.trace(rho1 @ povm.pi2).real)
    wrong2 = float(np.trace(rho2 @ povm.pi1).real)
    return p1 * wrong1 + (1.0 - p1) * wrong2


def _apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ dagger(k)
    return out


def _error_for_state(prob: DiscriminationProblem, rho: np.ndarray) -> float:
    out1 = _apply_kraus(prob.op1.kraus, rho)
    out2 = _apply_kraus(prob.op2.kraus, rho)
    return 0.5 * (1.0 - trace_norm(prob.p1 * out1 - (1.0 - prob.p1) * out2))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(np.where(diag == 0, 1, diag)), 1.0)
    return q * phases.conj()


def brute_force_unentangled(prob: DiscriminationProblem, grid_density: int, seed: int = 0) -> float:
    """Smallest error over unentangled pure inputs found by dense search.

    For d = 2 the Bloch sphere is scanned on a grid_density x grid_density
    (polar, azimuthal) grid; for d = 3 or 4 grid_density**3 random pure states
    are sampled instead. Dimensions above 4 are refused.
    """
    d = prob.op1.dim
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    states: list[np.ndarray] = []
    if d == 2:
        for theta in np.linspace(0.0, np.pi, grid_density):
            for phi in np.linspace(0.0, 2.0 * np.pi, grid_density, endpoint=False):
                states.append(
                    np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
                )
    else:
        rng = np.random.default_rng(seed)
        for _ in range(grid_density**3):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            states.append(v / np.linalg.norm(v))
    best = np.inf
    for psi in states:
        rho = np.outer(psi, psi.conj())
        best = min(best, _error_for_state(prob, rho))
    return float(best)


def brute_force_entangled(prob: DiscriminationProblem, samples: int, seed: int = 0) -> float:
    """Smallest error over sampled bipartite inputs to (E x I).

    Evaluates `samples` maximally entangled states (U x I)|phi+> for Haar
    unitaries U, then `samples` states built from random positive directions
    P with Tr[P^2] = 1 via the correspondence xi^T = P. Dimensions above 4
    are refused.
    """
    d = prob.op1.dim
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    extended1 = [np.kron(k, eye) for k in prob.op1.kraus]
    extended2 = [np.kron(k, eye) for k in prob.op2.kraus]
    phi_plus = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)

    vectors: list[np.ndarray] = []
    for _ in range(samples):
        u = _haar_unitary(d, rng)
        vectors.append(np.kron(u, eye) @ phi_plus)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gram = g @ g.conj().T
        p = gram / np.linalg.norm(gram)
        vectors.append(p.T.reshape(-1))

    best = np.inf
    for vec in vectors:
        rho = np.outer(vec, vec.conj())
        out1 = sum(k @ rho @ dagger(k) for k in extended1)
        out2 = sum(k @ rho @ dagger(k) for k in extended2)
        err = 0.5 * (1.0 - trace_norm(prob.p1 * out1 - (1.0 - prob.p1) * out2))
        best = min(best, err)
    return float(best)
