"""Multi-start see-saw maximization, every start stepped in lockstep, with SQUAREM extrapolation.

The caller supplies the step and a stack of start inputs, one per row: the
step takes a stack of inputs and returns their values first, then a function
that gives the next inputs of the rows maximize asks for, which are only the
rows whose next input it keeps. A see-saw step gains only linearly, so
maximize runs SQUAREM cycles (Varadhan & Roland, Scand. J. Stat. 35, 2008):
two steps, then one extrapolated input, kept only when it is at least as
good as the second step's input. Each start stops on its own test, so with
a step that works row by row a start's trajectory depends only on its start
input, and adding rows never changes the ones already there. A stack of one
row, such as pe_entangled's, runs through a loop of its own that keeps the
best value, the gain, the stop tests and SQUAREM's step length in Python
floats instead of length-1 arrays; it makes the same step calls and returns
the same bits as the stacked loop.
decode_pure_state turns each of pe_unentangled's random draws into a start
state: it maps a real vector to a normalized state vector. decode_p, which
maps any real vector to a positive matrix with Tr[P^2] = 1, has no caller
in the library; it is kept only for the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import FTOL, MAX_STEPS
from .errors import DimensionMismatch, NonFinite, OptimizerFailure
from .linalg import require_finite

# maximize, MaximizeResult and the decoders stay in this module; only the summary type is exported
__all__ = ["MaximizeSummary"]


@dataclass(frozen=True)
class MaximizeSummary:
    """What happened across all starts of one maximize call.

    best_start is the start reported; converged is that start's own flag:
    an evaluation gained at most config.FTOL over its best before
    config.MAX_STEPS step calls ran out. pe_entangled, which runs its one
    start, also sets it False when its certified bracket is wider than
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


def maximize(step: Callable[[np.ndarray], tuple[np.ndarray, Callable]], starts) -> MaximizeResult:
    """Best value over runs of `step` from each row of `starts`, all advanced together.

    step(x) takes a stack of input rows and returns (values at x, move);
    move(rows) returns the next inputs of the selected rows of x, rows being a
    boolean mask over x or slice(None) for all of them. maximize calls move at
    most once a step, and only for the starts that go on from x: after a plain
    step the starts still going, after an extrapolated one those that are both
    kept and going. Start i begins at x0 = starts[i] and runs SQUAREM cycles:
    with x1 = step(x0) and x2 = step(x1), r = x1 - x0, v = x2 - 2 x1 + x0 and
    a = -max(1, |r| / |v|), it evaluates x0 - 2 a r + a^2 v. The next cycle
    starts there if its value is at least the value at x1; otherwise it starts
    at x1, so x2 is evaluated next. A start keeps the best input it evaluated,
    and stops once an evaluation gains no more than FTOL over its best
    (converged), at a NaN value (not converged) or after MAX_STEPS step calls;
    a rejected extrapolated input, NaN included, does not stop it. The first
    two step calls evaluate only the starts and their steps, so a start that
    stops there never extrapolates. The result is the lowest-index start
    within FTOL of the best value, so a rounding-level tie never moves it off
    an earlier row. starts must be a nonempty 2-D stack (DimensionMismatch
    otherwise); it is copied, never written, so a read-only stack is fine.
    A one-row stack goes to _maximize_one, the same loop on Python floats;
    more rows step together through masks and compaction. Raises
    OptimizerFailure only if no start reaches a finite value.
    """
    x0 = np.array(starts)  # each active start's cycle base
    if x0.ndim != 2 or not x0.size:
        raise DimensionMismatch(f"starts must be a nonempty 2-D stack, one start per row, got shape {x0.shape}")
    x0 = x0.astype(np.result_type(x0, float), copy=False)  # steps move integer rows off the integers
    if len(x0) == 1:
        return _maximize_one(step, x0)
    n_starts = len(x0)
    best, argmax, converged = np.empty(n_starts), np.empty_like(x0), np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    peak, peak_x = np.full(n_starts, -np.inf), x0  # each active start's best value and input so far
    x1 = x2 = None
    steps = n_evaluations = 0
    while active.size and steps < MAX_STEPS:
        extrapolated = x2 is not None
        # the starts, then x1 = step(x0), then the extrapolated input, then x1 again, ...
        x = x0 if x1 is None else _extrapolate(x0, x1, x2) if extrapolated else x1
        values, move = step(x)
        steps += 1
        n_evaluations += active.size
        gain = values - peak
        better = gain > 0  # False for NaN
        peak, peak_x = np.where(better, values, peak), np.where(better[:, None], x, peak_x)
        # the starts that go on from x, all of them kept, take x's move as their next input
        going = fresh = gain > FTOL
        if extrapolated:  # at least as good as x1 is kept, else x1 is the next base and x2 its next input
            kept = gain >= 0
            going = fresh | ~kept
            x0, x1, x2 = np.where(kept[:, None], x, x1), x2, None
        moved = move(slice(None) if fresh.all() else fresh) if fresh.any() else None
        if not going.all():  # the other starts stop here, converged unless their value was NaN
            stop = ~going
            done = active[stop]
            best[done], argmax[done], converged[done] = peak[stop], peak_x[stop], gain[stop] <= FTOL
            active, x0, peak, peak_x, fresh = active[going], x0[going], peak[going], peak_x[going], fresh[going]
            if x1 is not None:
                x1 = x1[going]
        if x1 is None:
            x1 = moved
        elif not extrapolated:
            x2 = moved
        elif fresh.all():
            x1 = moved
        elif moved is not None:  # x1 holds x2's rows; the kept starts take their moves instead
            x1 = x1.copy()
            x1[fresh] = moved
    best[active], argmax[active] = peak, peak_x  # the starts MAX_STEPS cut off, not converged

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


def _maximize_one(step, x0: np.ndarray) -> MaximizeResult:
    """maximize on a one-row stack x0: the same step calls and results as the stacked loop, bit for bit.

    The best value, the gain and the keep and stop tests are Python floats
    and bools: on length-1 arrays numpy's per-call overhead outweighs the
    arithmetic. The inputs stay 1 x n arrays, so step and move see what the
    stacked loop gives them.
    """
    peak, peak_x = -math.inf, x0  # the best value and input so far
    x1 = x2 = None
    converged = False
    steps = 0
    while steps < MAX_STEPS:
        extrapolated = x2 is not None
        x = x0 if x1 is None else _extrapolate_one(x0, x1, x2) if extrapolated else x1
        values, move = step(x)
        steps += 1
        value = float(values[0])
        gain = value - peak
        if gain > 0:  # False for NaN
            peak, peak_x = value, x
        if gain > FTOL:  # x's move is the next input: x1 after the start, x2 after x1, x1 after a kept x
            if x1 is None:
                x1 = move(slice(None))
            elif extrapolated:
                x0, x1, x2 = x, move(slice(None)), None
            else:
                x2 = move(slice(None))
        elif extrapolated and not gain >= 0:  # rejected, NaN included: x1 is the next base, x2 its next input
            x0, x1, x2 = x1, x2, None
        else:  # converged, unless the value was NaN
            converged = gain <= FTOL
            break
    if not math.isfinite(peak):
        raise OptimizerFailure("no start reached a finite value")
    summary = MaximizeSummary(
        n_starts=1, best_start=0, converged=converged, n_evaluations=steps, start_values=(peak,), failed_starts=()
    )
    return MaximizeResult(value=peak, argmax=peak_x[0], summary=summary)


def _extrapolate_one(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """_extrapolate on a one-row stack, with the step length a a Python float: the same bits.

    As np.maximum does there, a NaN ratio |r|^2 / |v|^2 gives a NaN a.
    """
    r = x1 - x0
    v = x2 - x1 - r
    rr, vv = float(np.vecdot(r, r)[0].real), float(np.vecdot(v, v)[0].real)
    ratio = rr / vv if vv > 0 else 1.0
    a = -1.0 if ratio <= 1.0 else -math.sqrt(ratio)
    return x0 - 2 * a * r + a * a * v


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
    reals (NonFinite, else DimensionMismatch) whose L L^dag has a finite
    norm (NonFinite).
    """
    theta = require_finite(theta, "theta", float)
    d = int(d)
    if theta.shape != (d * d,):
        raise DimensionMismatch(f"theta of shape {theta.shape}, expected ({d * d},)")
    ell = np.zeros((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a norm that overflows is refused below
        for i in range(d):
            ell[i, i] = theta[i] ** 2
        pos = d
        for i in range(1, d):
            for j in range(i):
                ell[i, j] = theta[pos] + 1j * theta[pos + 1]
                pos += 2
        gram = ell @ ell.conj().T
        norm = float(np.linalg.norm(gram))
    if not np.isfinite(norm):
        raise NonFinite("theta: the norm of L L^dag overflows a float")
    if norm == 0.0:
        # all-zero theta carries no direction; fall back to maximally mixed
        return np.eye(d, dtype=complex) / np.sqrt(d)
    return gram / norm


# Below this a squared norm is no normal float, and its digits are lost or all gone.
_SMALLEST_NORM = float(np.sqrt(np.finfo(float).tiny))


def decode_pure_state(theta, d: int) -> np.ndarray:
    """Map 2d reals (real parts, then imaginary parts) to a normalized state vector.

    The global phase is fixed by making the first nonzero amplitude real and
    nonnegative. A nonzero theta whose squared norm underflows is divided by
    its largest entry before it is normalized; an all-zero theta falls back
    to the first basis state. theta must be a 1-D array of 2d finite reals
    (NonFinite, else DimensionMismatch) whose norm is finite (NonFinite).
    """
    theta = require_finite(theta, "theta", float)
    d = int(d)
    if theta.shape != (2 * d,):
        raise DimensionMismatch(f"theta of shape {theta.shape}, expected ({2 * d},)")
    v = theta[:d] + 1j * theta[d:]
    with np.errstate(over="ignore"):  # a norm that overflows is refused below
        norm = float(np.linalg.norm(v))
    if not np.isfinite(norm):
        raise NonFinite("theta: the norm overflows a float")
    # a nonzero theta such as [0, 1e-200, 0, 0] has a squared norm of 0 and would fall back to |0>
    if norm < _SMALLEST_NORM and theta.any():
        theta = theta / np.max(np.abs(theta))
        v = theta[:d] + 1j * theta[d:]
        norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(1, d, dtype=complex)[0]
    v = v / norm
    lead = v[np.flatnonzero(v)[0]]
    return v * (lead.conjugate() / abs(lead))
