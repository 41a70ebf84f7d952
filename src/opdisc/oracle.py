"""Brute-force verification oracles.

What stays naive is what is computed: every grid point and every sample is
evaluated, channels are applied by the oracle's own Kraus sums (through
explicit K x I on bipartite inputs), and each error comes from the
eigenvalues of the output difference. Only repeats are skipped: each Bloch
pole is one state, and |phi+> has the error of every maximally entangled
input. It never calls the optimizer, the closed forms or linalg.trace_norm,
so agreement with them is evidence rather than tautology. This module
imports only channels (for the value types, require_type and
check_density_matrix), config, errors and linalg's input checks: never
discrimination or the optimizer.

Input states are made and evaluated in stacks sized by memory: a stack holds
as many states as _STACK_BYTES allows for their Kraus products, the products'
conjugates and the output differences. One batched product applies every
Kraus operator to a whole stack. A qubit output difference has the eigenvalues
m +- r of its three independent entries, summed directly over the products, so
the qubit route forms no difference matrix; every other stack's trace norms
come from one stacked eigvalsh. Memory stays flat in the grid density, the
sample count and the number of Kraus operators, and a seed draws the same
states as a one-state-at-a-time loop would.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .channels import DiscriminationProblem, TwoOutcomePovm, check_density_matrix, require_type
from .config import INPUT_TOL
from .errors import InvalidPovm, UnsupportedDimension
from .linalg import check_count, check_prior, is_hermitian

# Dense search is honest only at tiny dimension.
_MAX_ORACLE_DIM = 4
# Bytes of complex working set one stack of input states may hold: for each
# state of dimension D, its n products K_k v, their conjugates and its D x D
# output difference (the qubit route holds no differences, and stays well
# inside the budget). With few Kraus operators the differences dominate: a
# budget on the products alone would let a d = 4 unitary pair's entangled
# stack pass 3 MB. 640 KiB holds 32 entangled states of a d = 4 Weyl pair
# (n = 32, D = 16); no product in a stack is large enough for a threaded BLAS
# to split, and waking its threads would cost more than the product.
_STACK_BYTES = 640 * 1024


def _check_povm(povm: TwoOutcomePovm) -> None:
    require_type(povm, TwoOutcomePovm, "povm")
    d = povm.pi1.shape[0]
    for name, pi in (("pi1", povm.pi1), ("pi2", povm.pi2)):
        if not is_hermitian(pi):
            raise InvalidPovm(f"{name} is not Hermitian within tolerance")
        if not float(np.min(np.linalg.eigvalsh(pi))) >= -INPUT_TOL:
            raise InvalidPovm(f"{name} has an eigenvalue below -{INPUT_TOL}")
    deviation = float(np.max(np.abs(povm.pi1 + povm.pi2 - np.eye(d))))
    if not deviation <= INPUT_TOL:
        raise InvalidPovm(f"pi1 + pi2 deviates from identity by {deviation:.3e}")


def povm_error(rho1, rho2, p1: float, povm: TwoOutcomePovm) -> float:
    """Error probability p1 Tr[rho1 pi2] + p2 Tr[rho2 pi1] of a given measurement.

    Both states must be d x d, the shape of the POVM's elements.
    """
    p1 = check_prior(p1)
    _check_povm(povm)
    d = povm.pi1.shape[0]
    rho1 = check_density_matrix(rho1, d)
    rho2 = check_density_matrix(rho2, d)
    wrong1 = float(np.trace(rho1 @ povm.pi2).real)
    wrong2 = float(np.trace(rho2 @ povm.pi1).real)
    return p1 * wrong1 + (1.0 - p1) * wrong2


def _stacks(count: int, rows: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive stacks of rows out of count >= 2 states, the last of 2 to rows + 1.

    No stack holds a single state: numpy multiplies a single row through a
    matrix-vector route that rounds differently, and the oracle's value would
    then move in its last digits with the stack size.
    """
    for start in range(0, count - 1, rows):
        yield start, start + rows if start + rows < count - 1 else count


def _output_differences(ops: np.ndarray, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """delta_m = sum_k w_k (K_k v_m)(K_k v_m)^dag for every row v_m of the stack v.

    A function of its own so that the outputs are freed before the eigvalsh.
    """
    outputs = v @ ops.transpose(0, 2, 1)  # outputs[k, m] = K_k v_m
    conj = outputs.conj()
    outputs *= weights[:, None, None]
    return outputs.transpose(1, 2, 0) @ conj.transpose(1, 0, 2)


def _trace_norms(ops: np.ndarray, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||delta_m||_1 for every row v_m of the stack v, from delta_m's eigenvalues.

    A qubit output difference [[a, b], [b*, c]] has the eigenvalues m +- r, with
    m = (a + c)/2 and r = hypot((a - c)/2, |b|), so its trace norm is
    2 max(|m|, r); a, b and c are summed over the products K_k v_m directly. Any
    other output dimension goes through the stacked differences and eigvalsh.
    """
    if ops.shape[1] != 2:
        return np.sum(np.abs(np.linalg.eigvalsh(_output_differences(ops, weights, v))), axis=-1)
    outputs = v @ ops.transpose(0, 2, 1)  # outputs[k, m] = K_k v_m
    first, second = outputs[..., 0], outputs[..., 1]
    w = weights[:, None]
    # each sum runs over k in order, one state at a time, so no entry depends on the stack size
    a = np.sum(w * (first.real**2 + first.imag**2), axis=0)
    c = np.sum(w * (second.real**2 + second.imag**2), axis=0)
    b = np.sum(w * first * second.conj(), axis=0)
    return np.maximum(np.abs(a + c), np.hypot(a - c, 2.0 * np.abs(b)))  # 2 |m| and 2 r


def _stack_rows(ops: np.ndarray) -> int:
    """States in a stack through the (n_ops, n, n) array ops: as many as _STACK_BYTES holds, at least 2."""
    n_ops, n = ops.shape[:2]
    return max(2, _STACK_BYTES // (16 * (2 * n_ops * n + n * n)))  # 16 bytes a complex entry


def _min_error(prob: DiscriminationProblem, ops: np.ndarray, vectors: Iterable[np.ndarray]) -> float:
    """Smallest 1/2 (1 - ||p1 E1(v v^dag) - p2 E2(v v^dag)||_1) over stacks of unit vectors v.

    ops holds prob.op1's Kraus operators, then prob.op2's, as n x n matrices;
    each stack is an (m, n) array.
    """
    n1 = len(prob.op1.kraus)
    weights = np.array([prob.p1] * n1 + [-(1.0 - prob.p1)] * (len(ops) - n1))
    best = np.inf
    for v in vectors:
        best = min(best, 0.5 * (1.0 - float(np.max(_trace_norms(ops, weights, v)))))
    return max(0.0, best)  # rounding can push a perfect discrimination below 0


def _bloch_grid(grid_density: int, rows: int) -> Iterator[np.ndarray]:
    """The (polar, azimuthal) grid in row order, with each pole once: at phi = 0.

    cos(theta/2), sin(theta/2) and e^(i phi) are tabled once per angle and
    indexed per state.
    """
    half = np.linspace(0.0, np.pi, grid_density) / 2
    cos, sin = np.cos(half), np.sin(half)
    phase = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, grid_density, endpoint=False))
    for start, stop in _stacks((grid_density - 2) * grid_density + 2, rows):
        i = np.arange(start, stop)
        i = np.where(i > 0, i + grid_density - 1, 0)  # index into the full grid, past the first pole's azimuths
        polar = i // grid_density
        yield np.stack([cos[polar], phase[i % grid_density] * sin[polar]], axis=-1)


def _random_pure_states(d: int, count: int, rng: np.random.Generator, rows: int) -> Iterator[np.ndarray]:
    for start, stop in _stacks(count, rows):
        x = rng.standard_normal((stop - start, 2, d))  # real then imaginary parts, per state
        v = x[:, 0] + 1j * x[:, 1]
        yield v / np.linalg.norm(v, axis=-1, keepdims=True)


def _entangled_states(d: int, count: int, rng: np.random.Generator, rows: int) -> Iterator[np.ndarray]:
    """|phi+> = vec(I)/sqrt(d), then |xi>> with xi^T = P for `count` random positive P with Tr[P^2] = 1."""
    # Every maximally entangled input (U x I)|phi+> has P = I/sqrt(d), so |phi+>
    # stands for all of them. A seed's positive directions follow `count` Haar
    # unitaries' worth of draws, taken a stack at a time and discarded: each
    # seed keeps the values it printed, and memory stays flat in `count`.
    for start in range(0, count, rows):
        rng.standard_normal((min(rows, count - start), 2, d, d))
    for start, stop in _stacks(count + 1, rows):  # row 0 is |phi+>
        m = stop - max(start, 1)
        x = rng.standard_normal((m, 2, d, d))
        g = x[:, 0] + 1j * x[:, 1]
        gram = g @ g.conj().transpose(0, 2, 1)
        p = gram / np.linalg.norm(gram, axis=(-2, -1), keepdims=True)
        v = p.transpose(0, 2, 1).reshape(m, d * d)
        yield v if start else np.concatenate([np.eye(d).reshape(1, d * d) / np.sqrt(d), v])


def brute_force_unentangled(prob: DiscriminationProblem, grid_density: int, seed: int = 0) -> float:
    """Smallest error over unentangled pure inputs found by dense search.

    For d = 2 the Bloch sphere is scanned on a grid_density x grid_density
    (polar, azimuthal) grid, each pole evaluated once: (grid_density - 2) *
    grid_density + 2 states. For d = 3 or 4 grid_density**3 random pure states
    are sampled instead. Dimensions above 4 are refused.
    """
    require_type(prob, DiscriminationProblem, "prob")
    d = prob.op1.dim
    grid_density = check_count(grid_density, "grid_density", 2)
    seed = check_count(seed, "seed", 0)
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    ops = np.array([*prob.op1.kraus, *prob.op2.kraus], dtype=complex)
    if d == 2:
        states = _bloch_grid(grid_density, _stack_rows(ops))
    else:
        states = _random_pure_states(d, grid_density**3, np.random.default_rng(seed), _stack_rows(ops))
    return _min_error(prob, ops, states)


def brute_force_entangled(prob: DiscriminationProblem, samples: int, seed: int = 0) -> float:
    """Smallest error over sampled bipartite inputs to (E x I).

    Evaluates |phi+> = vec(I)/sqrt(d) once, which has the error of every
    maximally entangled input, then `samples` states built from random
    positive directions P with Tr[P^2] = 1 via the correspondence xi^T = P.
    Dimensions above 4 are refused.
    """
    require_type(prob, DiscriminationProblem, "prob")
    d = prob.op1.dim
    samples = check_count(samples, "samples", 1)
    seed = check_count(seed, "seed", 0)
    if d > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {d}")
    ops = np.kron(np.array([*prob.op1.kraus, *prob.op2.kraus], dtype=complex), np.eye(d)[None])  # every K x I
    return _min_error(prob, ops, _entangled_states(d, samples, np.random.default_rng(seed), _stack_rows(ops)))
