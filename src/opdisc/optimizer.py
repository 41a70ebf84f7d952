"""Multi-start see-saw maximization, every start stepped in lockstep.

The caller supplies the step: it takes a stack of inputs (one per row) and
returns their values and the next inputs. Starts are deterministic, keyed by
(seed, start index). Each start stops on its own test, so with a step that
works row by row a start's trajectory depends only on its start input, and
adding starts never changes the ones already there. decode_p and
decode_pure_state turn start vectors into start inputs: decode_p maps any real
vector to a positive matrix with Tr[P^2] = 1, and decode_pure_state maps any
real vector to a normalized state vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import FTOL, MAX_STEPS
from .errors import DimensionMismatch, OptimizerFailure
from .linalg import check_count


@dataclass(frozen=True)
class OptimizerConfig:
    """How many starts maximize runs, and the seed of their generators.

    pe_unentangled runs all num_starts starts. pe_entangled runs only its
    seed starts (4 at d = 2, 2 at d >= 3), capped by num_starts, so seed
    affects pe_unentangled alone. The stopping policy is not set here:
    config.FTOL and config.MAX_STEPS hold for every call. num_starts must be
    an integer >= 1, seed an integer in [0, 2**64), since the per-start
    generator's key is (seed << 64) + index.
    """

    num_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "num_starts", check_count(self.num_starts, "num_starts", 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        if self.seed >= 2**64:
            raise ValueError(f"seed must be below 2**64, got {self.seed!r}")


@dataclass(frozen=True)
class MaximizeSummary:
    """What happened across all starts of one maximize call.

    best_start is the start reported; converged is that start's own flag:
    its last step gained at most config.FTOL before config.MAX_STEPS steps
    ran out. pe_entangled, which runs only its seed starts, also sets it
    False when its certified bracket is wider than config.CERTIFIED_GAP.
    n_evaluations counts input evaluations over all starts and steps.
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


def _start_point(seed: int, index: int, dim_params: int) -> np.ndarray:
    # Counter-based generator keyed by (seed, start index): no sequential state
    # shared between starts, so any start can be reproduced in isolation.
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))
    return rng.uniform(-1.0, 1.0, size=dim_params)


def maximize(
    step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    start_input: Callable[[np.ndarray], np.ndarray],
    dim_params: int,
    config: OptimizerConfig | None = None,
    seed_points: Sequence[np.ndarray] = (),
) -> MaximizeResult:
    """Best value over num_starts runs of `step`, all starts advanced together.

    step(x) takes a stack of inputs and returns (values at x, next inputs).
    Start i begins at start_input(v), where v is seed_points[i] for the first
    starts and uniform in [-1, 1]^dim_params from the per-start generator for
    the rest. A start stops once a step gains no more than FTOL (converged)
    or after MAX_STEPS steps, and keeps the last input it has a value for.
    The result is the lowest-index start within FTOL of the best value, so a
    rounding-level tie never moves it off a seed point. Raises
    OptimizerFailure only if no start reaches a finite value.
    """
    config = config or OptimizerConfig()
    vectors = []
    for index in range(config.num_starts):
        if index < len(seed_points):
            v = np.asarray(seed_points[index], dtype=float).reshape(-1)
            if v.size != dim_params:
                raise DimensionMismatch(f"seed point of length {v.size}, expected {dim_params}")
        else:
            v = _start_point(config.seed, index, dim_params)
        vectors.append(v)
    x = np.stack([start_input(v) for v in vectors])

    values = np.full(config.num_starts, -np.inf)
    converged = np.zeros(config.num_starts, dtype=bool)
    active = np.arange(config.num_starts)
    steps = n_evaluations = 0
    while active.size and steps < MAX_STEPS:
        new_values, moved = step(x[active])
        steps += 1
        n_evaluations += active.size
        gained = np.asarray(new_values) - values[active] > FTOL  # False for NaN
        values[active] = new_values
        converged[active] = ~gained
        active = active[gained]
        if steps < MAX_STEPS:
            x[active] = moved[gained]

    finite = np.isfinite(values)
    if not finite.any():
        raise OptimizerFailure("no start reached a finite value")
    best = int(np.flatnonzero(values >= np.max(values[finite]) - FTOL)[0])
    summary = MaximizeSummary(
        n_starts=config.num_starts,
        best_start=best,
        converged=bool(converged[best]),
        n_evaluations=n_evaluations,
        start_values=tuple(float(v) for v in values),
        failed_starts=tuple(int(i) for i in np.flatnonzero(~finite)),
    )
    return MaximizeResult(value=float(values[best]), argmax=x[best], summary=summary)


def decode_p(theta, d: int) -> np.ndarray:
    """Map d^2 reals to a positive d x d matrix with Tr[P^2] = 1 exactly.

    Builds a lower-triangular L (first d entries squared onto the diagonal,
    the rest filling the strict lower triangle as re/im pairs, row by row)
    and returns L L^dag normalized in Frobenius norm. theta = (1, 0, ..., 0)
    decodes to the rank-one |0><0|; ones on the first d slots decode to the
    maximally mixed direction I/sqrt(d).
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    d = int(d)
    if theta.size != d * d:
        raise DimensionMismatch(f"theta of length {theta.size}, expected {d * d}")
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

    The global phase is fixed by making the first nonzero amplitude real and
    nonnegative. An all-zero theta falls back to the first basis state.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    d = int(d)
    if theta.size != 2 * d:
        raise DimensionMismatch(f"theta of length {theta.size}, expected {2 * d}")
    v = theta[:d] + 1j * theta[d:]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        return v
    v = v / norm
    for amp in v:
        if amp != 0:
            v = v * (amp.conjugate() / abs(amp))
            break
    return v
