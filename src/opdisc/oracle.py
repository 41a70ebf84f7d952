"""Brute-force verification oracles.

What stays naive is what is computed: every grid point and every sample is
evaluated, channels are applied from the oracle's own copy of their Kraus
operators, and each error comes from the eigenvalues of the output
difference. Only repeats are skipped: each Bloch pole is one state, and
|phi+> has the error of every maximally entangled input. It never calls the
optimizer, the closed forms, linalg.trace_norm or delta_operator, so
agreement with them is evidence rather than tautology. This module imports
only channels (for the value types, require_type and check_density_matrix),
errors and linalg's input checks: never discrimination or the optimizer. A
TwoOutcomePovm checks itself when it is built, so povm_error checks only its
type.

The product-input search builds, once per call, the d^2 x d^2 superoperator S
of p1 E1 - p2 E2 from both Kraus lists, and maps each state's vec(v v^dag) to
its output difference with one row-times-S product. S is a reshuffle of the
library's Delta; the oracle builds it itself and never reads delta_operator.
The entangled search reshuffles S into the Choi matrix J and takes each output
difference as (I x P) J (I x P), two products of d^5 multiply-adds a state.
Neither search sees the Kraus operators again once S is built. Input states
are made and evaluated in stacks sized by one rule (_stack_rows): by the
memory (_STACK_BYTES) that n x n output differences take, with n = d for
product inputs and n = d^2 for entangled ones.
A 2 x 2 or 3 x 3 output difference's trace norm comes from its eigenvalues in
closed form (a 3 x 3 one near a double eigenvalue that meets zero goes to
eigvalsh); every larger stack takes one stacked eigvalsh. Memory stays flat in
the grid density, the sample count and the number of Kraus operators, and a
seed draws the same states as a one-state-at-a-time loop would.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .channels import DiscriminationProblem, TwoOutcomePovm, check_density_matrix, require_type
from .errors import UnsupportedDimension
from .linalg import check_count, check_prior

__all__ = ["povm_error", "brute_force_unentangled", "brute_force_entangled"]

# Dense search is honest only at tiny dimension.
_MAX_ORACLE_DIM = 4
# Bytes of complex working set one stack of input states may hold (_stack_rows): 853
# product states or 71 entangled states at d = 4. No product in a stack is large
# enough for a threaded BLAS to split, and waking its threads would cost more than it.
_STACK_BYTES = 640 * 1024


def povm_error(rho1, rho2, p1: float, povm: TwoOutcomePovm) -> float:
    """Error probability p1 Tr[rho1 pi2] + p2 Tr[rho2 pi1] of a given measurement.

    Both states must be d x d, the shape of the POVM's elements. The POVM was
    checked when it was built.
    """
    p1 = check_prior(p1)
    require_type(povm, TwoOutcomePovm, "povm")
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


def _superoperator(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[(a, b), (i, j)] = sum_k w_k K_k[i, a] conj(K_k[j, b]): the d^2 x d^2 map vec(rho) -> vec(delta) on rows.

    S is a reshuffle of the library's Delta, built here from the Kraus operators
    so that the oracle never reads discrimination's delta_operator.
    """
    d = ops.shape[1]
    return np.einsum("k,kia,kjb->abij", weights, ops, ops.conj()).reshape(d * d, d * d)


def _product_differences(sup: np.ndarray, v: np.ndarray) -> np.ndarray:
    """delta_m = sum_k w_k K_k v_m v_m^dag K_k^dag for every row v_m of the stack v, as vec(v_m v_m^dag) S."""
    m, d = v.shape
    return ((v[:, :, None] * v.conj()[:, None, :]).reshape(m, d * d) @ sup).reshape(m, d, d)


def _entangled_differences(choi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """delta_m = (I x P_m) J (I x P_m), the output difference of |xi>> with xi^T = P_m, for every P_m of the stack p.

    choi holds J[i, c, j, e] = sum_k w_k K_k[i, c] conj(K_k[j, e]) as the (d, d^3)
    array [c, (i, j, e)]: (I x P_m) J is one product over the stack, its product
    with I x P_m one a state, and one copy reorders row (a, i) to row (i, a).
    """
    m, d = p.shape[:2]
    out = ((p.reshape(m * d, d) @ choi).reshape(m, d**3, d) @ p).reshape(m, d, d, d * d)
    return out.transpose(0, 2, 1, 3).reshape(m, d * d, d * d)


# A row whose closed-form angle has 1 - |cos 3 phi| below _NEAR_DOUBLE holds a
# near-double eigenvalue pair, where arccos amplifies rounding: each eigenvalue of
# the pair may be off by up to about 3e-8 of the largest entry (at most 2.5e-8 over
# 200,000 random near-double matrices), and their errors cancel. The trace norm
# keeps that cancellation only while both lie on one side of zero by more than
# _NEAR_ZERO, 40 times that error; any other near-double row takes eigvalsh.
_NEAR_DOUBLE = 1e-2
_NEAR_ZERO = 1e-6


def _qutrit_trace_norms(deltas: np.ndarray) -> np.ndarray:
    """||delta_m||_1 of a stack of 3 x 3 Hermitian matrices from their closed-form eigenvalues.

    Each matrix is divided by its largest entry s, so no step overflows or
    underflows. With q = Tr A / 3, B = A - q I and p = sqrt(Tr B^2 / 6), the
    eigenvalues are q + 2 p cos(phi + 2 pi k / 3), k = 0, 1, 2, for
    phi = arccos(det(B / p) / 2) / 3 (O. K. Smith, Commun. ACM 4, 168 (1961)).
    Near a double eigenvalue arccos loses accuracy (J. Kopp,
    arXiv:physics/0610206); the pair's errors cancel in the trace norm unless
    the pair meets zero, and those rows take eigvalsh.
    """
    # the diagonal and the lower triangle, the entries eigvalsh reads
    a0, a1, a2 = deltas[:, 0, 0].real, deltas[:, 1, 1].real, deltas[:, 2, 2].real
    x, y, z = deltas[:, 1, 0], deltas[:, 2, 0], deltas[:, 2, 1]
    s = np.max(np.abs([a0, a1, a2, x, y, z]), axis=0)
    s = np.where(s > 0, s, 1.0)  # the zero matrix stays zero
    a0, a1, a2, x, y, z = a0 / s, a1 / s, a2 / s, x / s, y / s, z / s
    q = (a0 + a1 + a2) / 3
    b0, b1, b2 = a0 - q, a1 - q, a2 - q
    xx, yy, zz = x.real**2 + x.imag**2, y.real**2 + y.imag**2, z.real**2 + z.imag**2
    p = np.sqrt((b0**2 + b1**2 + b2**2 + 2 * (xx + yy + zz)) / 6)
    unit = np.where(p > 0, p, 1.0)  # B = 0 leaves every eigenvalue at q
    b0, b1, b2, x, y, z = b0 / unit, b1 / unit, b2 / unit, x / unit, y / unit, z / unit
    xx, yy, zz = x.real**2 + x.imag**2, y.real**2 + y.imag**2, z.real**2 + z.imag**2
    det = b0 * b1 * b2 - b0 * zz - b1 * yy - b2 * xx + 2 * (x * z * y.conj()).real
    r = np.clip(det / 2, -1.0, 1.0)
    phi = np.arccos(r) / 3
    top = q + 2 * p * np.cos(phi)
    low = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    mid = 3 * q - top - low
    norms = s * (np.abs(top) + np.abs(low) + np.abs(mid))
    other = np.where(r > 0, low, top)  # mid's partner in the pair that meets at r = 1 or r = -1
    near = (1.0 - np.abs(r) < _NEAR_DOUBLE) & (np.minimum(mid * np.sign(other), np.abs(other)) < _NEAR_ZERO)
    if near.any():
        norms[near] = np.sum(np.abs(np.linalg.eigvalsh(deltas[near])), axis=-1)
    return norms


def _trace_norms(deltas: np.ndarray) -> np.ndarray:
    """||delta_m||_1 for every matrix delta_m of the stack deltas, from delta_m's eigenvalues.

    A qubit output difference [[a, b], [b*, c]] has the eigenvalues m +- r, with
    m = (a + c)/2 and r = hypot((a - c)/2, |b|), so its trace norm is
    2 max(|m|, r); a 3 x 3 one has closed-form eigenvalues too
    (_qutrit_trace_norms). Any larger difference goes through eigvalsh.
    """
    n = deltas.shape[-1]
    if n == 3:
        return _qutrit_trace_norms(deltas)
    if n != 2:
        return np.sum(np.abs(np.linalg.eigvalsh(deltas)), axis=-1)
    a, c, b = deltas[:, 0, 0].real, deltas[:, 1, 1].real, deltas[:, 0, 1]
    return np.maximum(np.abs(a + c), np.hypot(a - c, 2.0 * np.abs(b)))  # 2 |m| and 2 r


def _stack_rows(n: int) -> int:
    """States in a stack whose output differences are n x n: as many as _STACK_BYTES holds, at least 2.

    A state holds about 2 n^2 + 4 n complex entries: a product state vec(v v^dag)
    and its difference (n = d), an entangled state the two d^4-entry products
    (n = d^2), and each its draws. Each added product state took about 14 / 28 / 39
    entries at d = 2 / 3 / 4 under tracemalloc, against 16 / 30 / 48 budgeted.
    """
    return max(2, _STACK_BYTES // (16 * (2 * n * n + 4 * n)))  # 16 bytes a complex entry


def _min_error(norms: Iterable[np.ndarray]) -> float:
    """Smallest 1/2 (1 - ||delta||_1) over stacks of trace norms of output differences p1 E1(v v^dag) - p2 E2(v v^dag).

    A stack's differences are freed as soon as its norms are taken, before the next stack's are made.
    """
    best = min(0.5 * (1.0 - float(np.max(stack))) for stack in norms)
    return max(0.0, best)  # rounding can push a perfect discrimination below 0


def _prepared(prob, count, name: str, least: int, seed) -> tuple[int, int, np.ndarray]:
    """Both searches' checks, in order, then their operands: the checked count and seed, and the
    superoperator S of the joined Kraus array of prob.op1 then prob.op2, with weights w_k = p1 for
    each of prob.op1's operators, -p2 for each of prob.op2's."""
    require_type(prob, DiscriminationProblem, "prob")
    count = check_count(count, name, least)
    seed = check_count(seed, "seed", 0)
    if prob.op1.dim > _MAX_ORACLE_DIM:
        raise UnsupportedDimension(f"brute force supports dimension <= {_MAX_ORACLE_DIM}, got {prob.op1.dim}")
    ops = np.concatenate([prob.op1.kraus, prob.op2.kraus])
    weights = np.array([prob.p1] * len(prob.op1.kraus) + [-(1.0 - prob.p1)] * len(prob.op2.kraus))
    return count, seed, _superoperator(ops, weights)


def _bloch_grid(grid_density: int) -> Iterator[np.ndarray]:
    """The (polar, azimuthal) grid in row order, with each pole once: at phi = 0.

    cos(theta/2), sin(theta/2) and e^(i phi) are tabled once per angle and
    indexed per state.
    """
    half = np.linspace(0.0, np.pi, grid_density) / 2
    cos, sin = np.cos(half), np.sin(half)
    phase = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, grid_density, endpoint=False))
    for start, stop in _stacks((grid_density - 2) * grid_density + 2, _stack_rows(2)):
        i = np.arange(start, stop)
        i = np.where(i > 0, i + grid_density - 1, 0)  # index into the full grid, past the first pole's azimuths
        polar = i // grid_density
        yield np.stack([cos[polar], phase[i % grid_density] * sin[polar]], axis=-1)


def _random_pure_states(d: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    for start, stop in _stacks(count, _stack_rows(d)):
        x = rng.standard_normal((stop - start, 2, d))  # real then imaginary parts, per state
        v = x[:, 0] + 1j * x[:, 1]
        yield v / np.linalg.norm(v, axis=-1, keepdims=True)


def _entangled_states(d: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Stacks of P for |xi>> with xi^T = P: I/sqrt(d) (|phi+>), then `count` random positive P with Tr[P^2] = 1."""
    # Every maximally entangled input (U x I)|phi+> has P = I/sqrt(d), so |phi+>
    # stands for all of them. A seed's positive directions follow `count` Haar
    # unitaries' worth of draws, taken a stack at a time and discarded: each
    # seed keeps the values it printed, and memory stays flat in `count`.
    rows = _stack_rows(d * d)
    for start in range(0, count, rows):
        rng.standard_normal((min(rows, count - start), 2, d, d))
    for start, stop in _stacks(count + 1, rows):  # row 0 is |phi+>
        m = stop - max(start, 1)
        x = rng.standard_normal((m, 2, d, d))
        g = x[:, 0] + 1j * x[:, 1]
        gram = g @ g.conj().transpose(0, 2, 1)
        p = gram / np.linalg.norm(gram, axis=(-2, -1), keepdims=True)
        yield p if start else np.concatenate([np.eye(d)[None] / np.sqrt(d), p])


def brute_force_unentangled(prob: DiscriminationProblem, grid_density: int, seed: int = 0) -> float:
    """Smallest error over unentangled pure inputs found by dense search.

    For d = 2 the Bloch sphere is scanned on a grid_density x grid_density
    (polar, azimuthal) grid, each pole evaluated once: (grid_density - 2) *
    grid_density + 2 states. For d = 3 or 4 grid_density**3 random pure states
    are sampled instead. Dimensions above 4 are refused.

    Each call builds S[(a, b), (i, j)] = sum_k w_k K_k[i, a] conj(K_k[j, b])
    once from the joined Kraus list, with w_k = p1 or -p2, and each state's
    output difference is the row vec(v v^dag) times S. S holds the entries of
    the library's Delta in another order, but it is built here from the Kraus
    operators: the oracle never reads delta_operator, so its values stay an
    independent check of Delta. Trace norms are closed forms at d = 2 and 3
    and one stacked eigvalsh at d = 4.
    """
    grid_density, seed, sup = _prepared(prob, grid_density, "grid_density", 2, seed)
    d = prob.op1.dim
    if d == 2:
        states = _bloch_grid(grid_density)
    else:
        states = _random_pure_states(d, grid_density**3, np.random.default_rng(seed))
    return _min_error(_trace_norms(_product_differences(sup, v)) for v in states)


def brute_force_entangled(prob: DiscriminationProblem, samples: int, seed: int = 0) -> float:
    """Smallest error over sampled bipartite inputs to (E x I).

    Evaluates |phi+> = vec(I)/sqrt(d) once, which has the error of every
    maximally entangled input, then `samples` states built from random
    positive directions P with Tr[P^2] = 1 via the correspondence xi^T = P.
    Dimensions above 4 are refused. The Choi matrix J of p1 E1 - p2 E2 is built
    once per call; each stack's differences (I x P) J (I x P) take one eigvalsh.
    """
    samples, seed, sup = _prepared(prob, samples, "samples", 1, seed)
    d = prob.op1.dim
    choi = sup.reshape(d, d, d, d).transpose(0, 2, 3, 1).reshape(d, d**3)
    states = _entangled_states(d, samples, np.random.default_rng(seed))
    return _min_error(_trace_norms(_entangled_differences(choi, p)) for p in states)
