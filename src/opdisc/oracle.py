"""Brute-force verification oracles.

Deliberately naive: every grid point and every sample is evaluated, channels
are applied by direct Kraus sums (through explicit K x I on bipartite
inputs), and each error comes from the eigenvalues of the output difference.
Only repeats are skipped: each Bloch pole is one state, and |phi+> has the
error of every maximally entangled input.
Nothing here calls into the optimizer, the closed forms or linalg.trace_norm,
so agreement with them is evidence rather than tautology.

Input states are made and evaluated in stacks of at most _STACK at a time:
one batched product applies every Kraus operator to a whole stack, and one
stacked eigvalsh takes all its trace norms. Memory stays flat in the grid
density and the sample count, and a seed draws the same states as a
one-state-at-a-time loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import HERMITICITY_TOL, POVM_TOL, STATE_POSITIVITY_FLOOR
from .errors import InvalidPovm, InvalidState, UnsupportedDimension
from .linalg import check_count, check_prior, is_hermitian, require_matrix

if TYPE_CHECKING:  # only for annotations; keeps this module import-independent
    from collections.abc import Iterable, Iterator

    from .discrimination import DiscriminationProblem

# Dense search is honest only at tiny dimension.
_MAX_ORACLE_DIM = 4
# Input states made and evaluated at once. A stack of 16-dimensional entangled
# inputs through 32 Kraus operators holds about 0.7 MB, and no product in it
# is large enough for a threaded BLAS to split: waking its threads would cost
# more than the product.
_STACK = 32


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


def _check_povm(povm: TwoOutcomePovm) -> None:
    d = povm.pi1.shape[0]
    for name, pi in (("pi1", povm.pi1), ("pi2", povm.pi2)):
        if not is_hermitian(pi, POVM_TOL):
            raise InvalidPovm(f"{name} is not Hermitian within tolerance")
        if not float(np.min(np.linalg.eigvalsh(pi))) >= -POVM_TOL:
            raise InvalidPovm(f"{name} has an eigenvalue below -{POVM_TOL}")
    deviation = float(np.max(np.abs(povm.pi1 + povm.pi2 - np.eye(d))))
    if not deviation <= POVM_TOL:
        raise InvalidPovm(f"pi1 + pi2 deviates from identity by {deviation:.3e}")


def _check_state(rho, d: int) -> np.ndarray:
    rho = require_matrix(rho, "state", d)
    if not is_hermitian(rho, HERMITICITY_TOL):
        raise InvalidState("state is not Hermitian within tolerance")
    if not abs(complex(np.trace(rho)) - 1.0) <= 1e-9:
        raise InvalidState(f"state trace is {complex(np.trace(rho))}, not 1")
    if not float(np.min(np.linalg.eigvalsh(rho))) >= -STATE_POSITIVITY_FLOOR:
        raise InvalidState("state has an eigenvalue below the positivity floor")
    return rho


def povm_error(rho1, rho2, p1: float, povm: TwoOutcomePovm) -> float:
    """Error probability p1 Tr[rho1 pi2] + p2 Tr[rho2 pi1] of a given measurement.

    Both states must be d x d, the shape of the POVM's elements.
    """
    p1 = check_prior(p1)
    _check_povm(povm)
    d = povm.pi1.shape[0]
    rho1 = _check_state(rho1, d)
    rho2 = _check_state(rho2, d)
    wrong1 = float(np.trace(rho1 @ povm.pi2).real)
    wrong2 = float(np.trace(rho2 @ povm.pi1).real)
    return p1 * wrong1 + (1.0 - p1) * wrong2


def _stacks(count: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive stacks of at most _STACK out of count states."""
    for start in range(0, count, _STACK):
        yield start, min(start + _STACK, count)


def _output_differences(ops: np.ndarray, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """delta_m = sum_k w_k (K_k v_m)(K_k v_m)^dag for every row v_m of the stack v.

    A function of its own so that the outputs are freed before the eigvalsh.
    """
    outputs = v @ ops.transpose(0, 2, 1)  # outputs[k, m] = K_k v_m
    conj = outputs.conj()
    outputs *= weights[:, None, None]
    return outputs.transpose(1, 2, 0) @ conj.transpose(1, 0, 2)


def _min_error(p1: float, kraus1, kraus2, vectors: Iterable[np.ndarray]) -> float:
    """Smallest 1/2 (1 - ||p1 E1(v v^dag) - p2 E2(v v^dag)||_1) over stacks of unit vectors v.

    Each stack is an (m, n) array; kraus1 and kraus2 act on n-vectors.
    """
    ops = np.array([*kraus1, *kraus2], dtype=complex)
    weights = np.array([p1] * len(kraus1) + [-(1.0 - p1)] * len(kraus2))
    best = np.inf
    for v in vectors:
        norms = np.sum(np.abs(np.linalg.eigvalsh(_output_differences(ops, weights, v))), axis=-1)
        best = min(best, 0.5 * (1.0 - float(np.max(norms))))
    return max(0.0, best)  # rounding can push a perfect discrimination below 0


def _bloch_grid(grid_density: int) -> Iterator[np.ndarray]:
    """The (polar, azimuthal) grid in row order, with each pole once: at phi = 0."""
    thetas = np.linspace(0.0, np.pi, grid_density)
    phis = np.linspace(0.0, 2.0 * np.pi, grid_density, endpoint=False)
    for start, stop in _stacks((grid_density - 2) * grid_density + 2):
        i = np.arange(start, stop)
        i = np.where(i > 0, i + grid_density - 1, 0)  # index into the full grid, past the first pole's azimuths
        theta, phi = thetas[i // grid_density], phis[i % grid_density]
        yield np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)


def _random_pure_states(d: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    for start, stop in _stacks(count):
        x = rng.standard_normal((stop - start, 2, d))  # real then imaginary parts, per state
        v = x[:, 0] + 1j * x[:, 1]
        yield v / np.linalg.norm(v, axis=-1, keepdims=True)


def _entangled_states(d: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """|phi+> = vec(I)/sqrt(d), then |xi>> with xi^T = P for `count` random positive P with Tr[P^2] = 1."""
    yield np.eye(d).reshape(1, d * d) / np.sqrt(d)
    # Every maximally entangled input (U x I)|phi+> has P = I/sqrt(d), so |phi+>
    # stands for all of them. A seed's positive directions follow `count` Haar
    # unitaries' worth of draws, taken a stack at a time and discarded: each
    # seed keeps the values it printed, and memory stays flat in `count`.
    for start, stop in _stacks(count):
        rng.standard_normal((stop - start, 2, d, d))
    for start, stop in _stacks(count):
        x = rng.standard_normal((stop - start, 2, d, d))
        g = x[:, 0] + 1j * x[:, 1]
        gram = g @ g.conj().transpose(0, 2, 1)
        p = gram / np.linalg.norm(gram, axis=(-2, -1), keepdims=True)
        yield p.transpose(0, 2, 1).reshape(stop - start, d * d)


def brute_force_unentangled(prob: DiscriminationProblem, grid_density: int, seed: int = 0) -> float:
    """Smallest error over unentangled pure inputs found by dense search.

    For d = 2 the Bloch sphere is scanned on a grid_density x grid_density
    (polar, azimuthal) grid, each pole evaluated once: (grid_density - 2) *
    grid_density + 2 states. For d = 3 or 4 grid_density**3 random pure states
    are sampled instead. Dimensions above 4 are refused.
    """
    d = prob.op1.dim
    grid_density = check_count(grid_density, "grid_density", 2)
    seed = check_count(seed, "seed", 0)
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    if d == 2:
        states = _bloch_grid(grid_density)
    else:
        states = _random_pure_states(d, grid_density**3, np.random.default_rng(seed))
    return _min_error(prob.p1, prob.op1.kraus, prob.op2.kraus, states)


def brute_force_entangled(prob: DiscriminationProblem, samples: int, seed: int = 0) -> float:
    """Smallest error over sampled bipartite inputs to (E x I).

    Evaluates |phi+> = vec(I)/sqrt(d) once, which has the error of every
    maximally entangled input, then `samples` states built from random
    positive directions P with Tr[P^2] = 1 via the correspondence xi^T = P.
    Dimensions above 4 are refused.
    """
    d = prob.op1.dim
    samples = check_count(samples, "samples", 1)
    seed = check_count(seed, "seed", 0)
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    eye = np.eye(d)
    return _min_error(
        prob.p1,
        [np.kron(k, eye) for k in prob.op1.kraus],
        [np.kron(k, eye) for k in prob.op2.kraus],
        _entangled_states(d, samples, np.random.default_rng(seed)),
    )
