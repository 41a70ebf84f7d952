"""Multi-start see-saw maximization, every start stepped in lockstep, with SQUAREM extrapolation.

The caller supplies the step and a stack of start inputs, one per row: the
step takes a stack of inputs and returns their values and the next inputs.
A see-saw step gains only linearly, so maximize runs SQUAREM cycles
(Varadhan & Roland, Scand. J. Stat. 35, 2008): two steps, then one
extrapolated input, kept only when it is at least as good as the second
step's input. Each start stops on its own test, so with a step that works
row by row a start's trajectory depends only on its start input, and adding
rows never changes the ones already there. decode_pure_state builds
pe_unentangled's start inputs: it maps any real vector to a normalized state
vector, or a stack of them to one state per row, so that the whole start
stack decodes in one call. decode_p, which maps any real vector to a positive
matrix with Tr[P^2] = 1, has no caller in the library; it is kept only for
the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import FTOL, MAX_STEPS
from .errors import DimensionMismatch, OptimizerFailure
from .linalg import require_finite


@dataclass(frozen=True)
class MaximizeSummary:
    """What happened across all starts of one maximize call.

    best_start is the start reported; converged is that start's own flag:
    an evaluation gained at most config.FTOL over its best before
    config.MAX_STEPS step calls ran out. pe_entangled, which runs only its
    seed starts, also sets it False when its certified bracket is wider than
    config.CERTIFIED_GAP. n_evaluations counts input evaluations over all
    starts and steps; start_values holds each start's best value, -inf for a
    start that never reached a finite one.
    """

    n_starts: int
    best_start: int
    converged: bool
    n_evaluations: int
    start_values: tuple[float, ...]
    failed_starts: tuple[int, ...]


class MaximizeResult(NamedTuple):
    value: float
    argmax: np.ndarray
    summary: MaximizeSummary


def maximize(step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], starts) -> MaximizeResult:
    """Best value over runs of `step` from each row of `starts`, all advanced together.

    step(x) takes a stack of input rows and returns (values at x, next
    inputs). Start i begins at x0 = starts[i] and runs SQUAREM cycles: with
    x1 = step(x0) and x2 = step(x1), r = x1 - x0, v = x2 - 2 x1 + x0 and
    a = -max(1, |r| / |v|), it evaluates x0 - 2 a r + a^2 v. The next cycle
    starts there if its value is at least the value at x1; otherwise it
    starts at x1, so x2 is evaluated next. A start keeps the best input it
    evaluated, and stops once an evaluation gains no more than FTOL over its
    best (converged) or after MAX_STEPS step calls; a rejected extrapolated
    input does not stop it. The first two step calls evaluate only the
    starts and their steps, so a start that stops there never extrapolates.
    The result is the lowest-index start within FTOL of the best value, so a
    rounding-level tie never moves it off an earlier row. Raises
    OptimizerFailure only if no start reaches a finite value.
    """
    x0 = np.array(starts)  # each active start's cycle base
    x0 = x0.astype(np.result_type(x0, float), copy=False)  # steps move integer rows off the integers
    n_starts = len(x0)
    best = np.full(n_starts, -np.inf)
    argmax = x0.copy()
    converged = np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    x1 = x2 = None
    steps = n_evaluations = 0
    while active.size and steps < MAX_STEPS:
        # the starts, then x1 = step(x0), then the extrapolated input, then x1 again, ...
        x = x0 if x1 is None else x1 if x2 is None else _extrapolate(x0, x1, x2)
        values, moved = step(x)
        values = np.asarray(values)
        steps += 1
        n_evaluations += active.size
        gain = values - best[active]
        better = gain > 0  # False for NaN
        best[active[better]] = values[better]
        argmax[active[better]] = x[better]
        going = gain > FTOL
        if x1 is None:
            x1 = moved
        elif x2 is None:
            x2 = moved
        else:  # x was extrapolated: at least as good as x1 is kept, else x1 is the next base
            kept = gain >= 0
            going |= ~kept
            x0, x1, x2 = np.where(kept[:, None], x, x1), np.where(kept[:, None], moved, x2), None
        converged[active] = ~going
        active, x0, x1 = active[going], x0[going], x1[going]
        if x2 is not None:
            x2 = x2[going]

    finite = np.isfinite(best)
    if not finite.any():
        raise OptimizerFailure("no start reached a finite value")
    top = int(np.flatnonzero(best >= np.max(best[finite]) - FTOL)[0])
    summary = MaximizeSummary(
        n_starts=n_starts,
        best_start=top,
        converged=bool(converged[top]),
        n_evaluations=n_evaluations,
        start_values=tuple(float(v) for v in best),
        failed_starts=tuple(int(i) for i in np.flatnonzero(~finite)),
    )
    return MaximizeResult(value=float(best[top]), argmax=argmax[top], summary=summary)


def _extrapolate(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """SQUAREM's point x0 - 2 a r + a^2 v per row: r = x1 - x0, v = x2 - 2 x1 + x0, a = -max(1, |r| / |v|).

    a = -1, which gives x2, where v = 0.
    """
    r = x1 - x0
    v = x2 - x1 - r
    rr, vv = np.vecdot(r, r).real, np.vecdot(v, v).real
    a = -np.sqrt(np.maximum(1.0, np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0)))[:, None]
    return x0 - 2 * a * r + a * a * v


# No library code calls decode_p. perfbench/spans.py wraps it by name, and
# Tracer.install raises AttributeError without it, so it goes when the
# benchmark stops tracing it.
def decode_p(theta, d: int) -> np.ndarray:
    """Map d^2 reals to a positive d x d matrix with Tr[P^2] = 1 exactly.

    Builds a lower-triangular L (first d entries squared onto the diagonal,
    the rest filling the strict lower triangle as re/im pairs, row by row)
    and returns L L^dag normalized in Frobenius norm. theta = (1, 0, ..., 0)
    decodes to the rank-one |0><0|; ones on the first d slots decode to the
    maximally mixed direction I/sqrt(d). theta must be a 1-D array of finite
    reals (NonFinite, else DimensionMismatch).
    """
    theta = require_finite(theta, "theta", float)
    d = int(d)
    if theta.shape != (d * d,):
        raise DimensionMismatch(f"theta of shape {theta.shape}, expected ({d * d},)")
    ell = np.zeros((d, d), dtype=complex)
    for i in range(d):
        ell[i, i] = theta[i] ** 2
    pos = d
    for i in range(1, d):
        for j in range(i):
            ell[i, j] = theta[pos] + 1j * theta[pos + 1]
            pos += 2
    gram = ell @ ell.conj().T
    norm = float(np.linalg.norm(gram))
    if norm == 0.0:
        # all-zero theta carries no direction; fall back to maximally mixed
        return np.eye(d, dtype=complex) / np.sqrt(d)
    return gram / norm


def decode_pure_state(theta, d: int) -> np.ndarray:
    """Map 2d reals (real parts, then imaginary parts) to a normalized state vector.

    theta is one row of 2d finite reals, giving one state, or a 2-D stack of
    such rows, giving one state per row; each row decodes bit for bit as it
    would alone. The global phase is fixed by making the first nonzero
    amplitude real and nonnegative. An all-zero row falls back to the first
    basis state. Raises NonFinite for an entry that is no finite real, and
    DimensionMismatch for any other shape.
    """
    theta = require_finite(theta, "theta", float)
    d = int(d)
    if theta.ndim not in (1, 2) or theta.shape[-1] != 2 * d:
        raise DimensionMismatch(f"theta of shape {theta.shape}, expected rows of length {2 * d}")
    rows = theta.reshape(-1, 2 * d)
    v = rows[:, :d] + 1j * rows[:, d:]
    # np.linalg.norm of one row dots the strided real and imaginary views; norm(axis=-1) rounds differently
    norm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    zero = norm == 0.0
    v = v / np.where(zero, 1.0, norm)[:, None]
    lead = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
    # hypot is what scalar abs(amp) computes; array np.abs rounds differently
    modulus = np.hypot(lead.real, lead.imag)
    v = v * np.divide(lead.conj(), modulus, out=np.ones_like(lead), where=modulus > 0)[:, None]
    v[zero] = np.eye(1, d)
    return v if theta.ndim == 2 else v[0]
