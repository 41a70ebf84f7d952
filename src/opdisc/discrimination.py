"""Minimal-error discrimination of two quantum operations.

Two figures of merit for a pair of channels with prior p1:

* pe_unentangled: the best error probability using a single pure input state,
  max over psi of 1/2 (1 - ||p1 E1(psi) - p2 E2(psi)||_1).
* pe_entangled: the best error probability when the input may be entangled
  with an ancilla, computed by maximizing ||(I x P) Delta (I x P)||_1 over
  positive P with Tr[P^2] = 1, where Delta = p1 sum |K1>><<K1| - p2 sum
  |K2>><<K2|.

Channels mixing the same orthogonal unitary family (Tr[U_m^dag U_n] =
d delta_mn) admit closed forms: with r_n = p1 q1[n] - p2 q2[n], the entangled
optimum is 1/2 (1 - sum |r_n|), reached by any maximally entangled input.
For qubit Pauli channels the unentangled optimum also closes, with the best
product input an eigenstate of sigma_z, sigma_x or sigma_y; entanglement
strictly helps exactly when r0 r1 r2 r3 < 0.

pe_entangled also returns a certified lower bound from the dual of the
diamond-norm SDP; pe_unentangled is an uncertified multi-start value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    QuantumOperation,
    RandomUnitaryChannel,
    check_density_matrix,
    check_probability_vector,
    unnormalized_choi,
)
from .config import CERTIFIED_GAP, ORTHOGONALITY_TOL
from .errors import DimensionMismatch, FamilyMismatch, NotOrthogonal
from .linalg import (
    biket_to_mat,
    check_count,
    check_prior,
    dagger,
    eig_hermitian,
    partial_trace,
    require_matrix,
    trace_norm,
)
from .optimizer import MaximizeSummary, decode_pure_state, maximize
from .oracle import TwoOutcomePovm

# Unitary lists count as "the same family" only when equal entry by entry.
_FAMILY_MATCH_TOL = 1e-12

# Weight of I/d mixed into the input's reduced state before the dual
# certificate inverts its square root.
_CERTIFICATE_EPS = 1e-8


def _require_type(value, cls: type, name: str) -> None:
    """TypeError naming `name` unless `value` is a `cls`; a RandomUnitaryChannel is pointed to .as_operation()."""
    if not isinstance(value, cls):
        hint = "; convert it with .as_operation()" if isinstance(value, RandomUnitaryChannel) else ""
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}{hint}")


def _error(norm) -> float:
    """The error 1/2 (1 - norm) of a trace norm `norm`, clamped at 0 against rounding."""
    return max(0.0, 0.5 * (1.0 - float(norm)))


@dataclass(frozen=True)
class DiscriminationProblem:
    """Two same-dimension operations and the prior probability of the first."""

    op1: QuantumOperation
    op2: QuantumOperation
    p1: float

    def __post_init__(self):
        _require_type(self.op1, QuantumOperation, "op1")
        _require_type(self.op2, QuantumOperation, "op2")
        if self.op1.dim != self.op2.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.op1.dim} vs {self.op2.dim}")
        object.__setattr__(self, "p1", check_prior(self.p1))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class DiscriminationResult:
    """Output of one discrimination computation; unused fields stay None.

    optimal_xi is the input operator xi (Tr[xi^dag xi] = 1) whose double-ket
    realizes pe_entangled; optimal_pure_input is the state vector realizing
    pe_unentangled. pe_entangled sets lower_bound to a certified lower bound
    on the true optimum; bound_max_entangled(prob) is the upper bound, the
    error at the maximally entangled input.
    """

    pe_entangled: float | None = None
    pe_unentangled: float | None = None
    lower_bound: float | None = None
    optimal_xi: np.ndarray | None = None
    optimal_pure_input: np.ndarray | None = None
    diagnostics: MaximizeSummary | None = None


@dataclass(frozen=True)
class PauliDiscriminationSummary:
    """Everything the qubit Pauli closed forms produce for one problem.

    r[i] = p1 q1[i] - p2 q2[i] are the prior-weighted weight differences over
    {I, x, y, z}. a = r0 + r3, b = r1 + r2, c = r0 - r3, d = r1 - r2 are the
    entries of the 4 x 4 difference operator in the computational basis. m is
    the largest trace-norm value reachable with a product input, and det_sign
    is the sign of r0 r1 r2 r3: entanglement strictly helps exactly when it
    is negative.
    """

    r: tuple[float, float, float, float]
    a: float
    b: float
    c: float
    d: float
    det_sign: int
    m: float
    pe_entangled: float
    pe_unentangled: float
    optimal_unentangled_axis: str
    entanglement_needed: bool

    @property
    def singular_values(self) -> tuple[float, float, float, float]:
        """(|a+c|, |a-c|, |b+d|, |b-d|), which is (2|r0|, 2|r3|, 2|r1|, 2|r2|)."""
        return (
            abs(self.a + self.c),
            abs(self.a - self.c),
            abs(self.b + self.d),
            abs(self.b - self.d),
        )


def helstrom(rho1, rho2, p1: float) -> tuple[float, TwoOutcomePovm]:
    """Minimum error for two states, 1/2 (1 - ||p1 rho1 - p2 rho2||_1), with its measurement.

    The returned POVM projects onto the positive and negative support of
    p1 rho1 - p2 rho2; the zero eigenspace is assigned to outcome 1.
    """
    p1 = check_prior(p1)
    rho1 = require_matrix(rho1, "state")
    rho1, rho2 = check_density_matrix(rho1, len(rho1)), check_density_matrix(rho2, len(rho1))
    dec = eig_hermitian(p1 * rho1 - (1.0 - p1) * rho2)
    pe = _error(np.sum(np.abs(dec.eigenvalues)))
    keep = dec.eigenvalues >= 0
    v_pos = dec.eigenvectors[:, keep]
    v_neg = dec.eigenvectors[:, ~keep]
    pi1 = v_pos @ dagger(v_pos)
    pi2 = v_neg @ dagger(v_neg)
    return pe, TwoOutcomePovm(pi1=pi1, pi2=pi2)


def delta_operator(prob: DiscriminationProblem) -> np.ndarray:
    """The d^2 x d^2 Hermitian operator p1 sum |K1>><<K1| - p2 sum |K2>><<K2|."""
    return prob.p1 * unnormalized_choi(prob.op1) - prob.p2 * unnormalized_choi(prob.op2)


def bound_max_entangled(prob: DiscriminationProblem) -> float:
    """Error 1/2 (1 - ||Delta||_1 / d) reached by a maximally entangled input.

    An upper bound on pe_entangled, since the optimum minimizes over all
    bipartite inputs. It is tight (and the bound is the exact value) for
    channels mixing one orthogonal unitary family.
    """
    return _error(trace_norm(delta_operator(prob)) / prob.op1.dim)


def _state_seed_points(d: int) -> list[np.ndarray]:
    basis = np.zeros(2 * d)
    basis[0] = 1.0
    uniform = np.concatenate([np.ones(d), np.zeros(d)])
    seeds = [basis, uniform]
    if d == 2:
        seeds.append(np.array([1.0, 0.0, 0.0, 1.0]))  # (|0> + i|1>)/sqrt(2)
    return seeds


def _unentangled_starts(d: int, num_starts: int, seed: int) -> np.ndarray:
    """pe_unentangled's num_starts start states, one per row, decoded in one decode_pure_state call.

    One Philox, re-keyed per random start i through its state (counter 0, key
    words (i, seed), an empty buffer), draws exactly what
    Generator(Philox(key=(seed << 64) + i)) would.
    """
    thetas = _state_seed_points(d)[:num_starts]
    bits = np.random.Philox()
    draw = np.random.Generator(bits)
    key = np.array([0, seed], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(len(thetas), num_starts):
        key[0] = i
        bits.state = state
        thetas.append(draw.uniform(-1.0, 1.0, 2 * d))
    return decode_pure_state(np.stack(thetas), d)


def _seesaw_step(prob: DiscriminationProblem, ancilla: int):
    """The see-saw step for maximizing ||p1 (E1 x I)(x x^dag) - p2 (E2 x I)(x x^dag)||_1.

    Inputs x are nonzero vectors on system x ancilla (ancilla = 1: no
    ancilla), each standing for the unit vector x / |x|. The output
    difference is sum_k w_k A_k x x^dag A_k^dag with A_k = K_k x I over both
    Kraus lists, w_k = p1 or -p2. Its sign S is +-1 on its positive and
    negative eigenvectors and 0 on its kernel, which has dimension at least
    d e - (number of Kraus operators): eigenvalues within numpy's matrix_rank
    tolerance (d e eps times the largest) count as 0, so rounding signs never
    enter S, and a product input steps to a product input. With S fixed, the
    value at a unit x' is at least x'^dag M x' with M = sum_k w_k A_k^dag S A_k,
    and equal at x' = x, since |S| <= 1; so the top eigenvector of M does at
    least as well as x. The step maps a stack of inputs to (their values,
    those eigenvectors), each turned so that <x, x'> is real and nonnegative:
    that makes the step a smooth map near a fixed point, which maximize's
    extrapolation needs. Every product and eigensolver call works row by row,
    so a row's result does not depend on the stack it comes in.
    """
    kraus = np.stack(prob.op1.kraus + prob.op2.kraus)
    weights = np.array([prob.p1] * len(prob.op1.kraus) + [-prob.p2] * len(prob.op2.kraus))
    n, d, _ = kraus.shape
    e = int(ancilla)
    # X -> sum_k w_k K_k^dag X K_k acting on row-major vec(X) from the right
    adjoint = np.einsum("k,kip,kjq->ijpq", weights, kraus.conj(), kraus).reshape(d * d, d * d)
    kernel_tol = d * e * np.finfo(float).eps

    def step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = len(x)
        y = (kraus @ x.reshape(b, 1, d, e)).reshape(b, n, d * e)  # A_k x, one row per k
        out = (y.transpose(0, 2, 1) * weights) @ y.conj()
        evals, evecs = np.linalg.eigh(out)
        size = np.abs(evals)
        # numpy's matrix_rank tolerance: S is 0, not a rounding sign, on the kernel;
        # eigh sorts the eigenvalues, so the largest |lambda| is at one end
        signs = np.sign(evals)
        signs[size <= kernel_tol * np.maximum(size[:, :1], size[:, -1:])] = 0.0
        sign = (evecs * signs[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
        # M applies the adjoint map to each ancilla block of S
        blocks = sign.reshape(b, d, e, d, e).transpose(0, 2, 4, 1, 3).reshape(b, e * e, d * d)
        m = (blocks @ adjoint).reshape(b, e, e, d, d).transpose(0, 3, 1, 4, 2).reshape(b, d * e, d * e)
        top = np.linalg.eigh(m)[1][..., -1]
        # the output is quadratic in x, so its value at x / |x| is ||out||_1 / |x|^2;
        # the phase of x' makes <x, x'> >= 0
        overlap = np.vecdot(top, x)
        overlap[overlap == 0] = 1.0
        return np.sum(size, axis=-1) / np.vecdot(x, x).real, top * (overlap / np.abs(overlap))[:, None]

    return step


def _degenerate_prior(prob: DiscriminationProblem) -> bool:
    # one channel is certain, so guessing it never errs
    return prob.p1 == 0.0 or prob.p1 == 1.0


def _dual_lower_bound(prob: DiscriminationProblem, sigma: np.ndarray) -> float:
    """Certified lower bound on pe_entangled from a dual feasible Z built on sigma.

    Any Z >= 0 with Z >= Delta gives pe_entangled >= 1/2 (1 - (2 lmax(Tr_out Z)
    - (p1 - p2))), the dual of Watrous's simplified diamond-norm SDP. With s
    the input's reduced state sigma mixed with eps I/d,
    Z = (I x s^-1/2) [(I x s^1/2) Delta (I x s^1/2)]_+ (I x s^-1/2) is
    feasible by construction and tight when sigma is optimal; t I with
    t = max(0, -lmin(Z), -lmin(Z - Delta)) absorbs rounding.
    """
    d = prob.op1.dim
    eps = _CERTIFICATE_EPS
    delta = delta_operator(prob)
    sigma = (sigma + dagger(sigma)) / 2
    sigma = (1.0 - eps) * sigma / np.trace(sigma).real + eps * np.eye(d) / d
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, eps / d, None)
    root = np.kron(np.eye(d), (v * np.sqrt(w)) @ dagger(v))
    inv_root = np.kron(np.eye(d), (v / np.sqrt(w)) @ dagger(v))
    lam, vecs = np.linalg.eigh(root @ delta @ root)
    z = inv_root @ (vecs * np.clip(lam, 0.0, None)) @ dagger(vecs) @ inv_root
    z = (z + dagger(z)) / 2
    t = max(0.0, -np.linalg.eigvalsh(z)[0], -np.linalg.eigvalsh(z - delta)[0])
    lmax = np.linalg.eigvalsh(partial_trace(z, (d, d), 0))[-1] + t * d
    return _error(2.0 * float(lmax) - (prob.p1 - prob.p2))


def pe_entangled(prob: DiscriminationProblem) -> DiscriminationResult:
    """Numerically minimal error with an entangled input, by see-saw over |xi>>, certified.

    Maximizes the output trace norm over inputs |xi>> with Tr[xi^dag xi] = 1,
    stepping with A_k = K_k x I from two starts: the maximally entangled
    |phi+> = |I>>/sqrt(d) and the product input |00>. An ancilla unitary,
    which no output trace norm sees, turns the best input into optimal_xi
    with xi^T = P >= 0, so the optimum is max ||(I x P) Delta (I x P)||_1
    over positive P with Tr[P^2] = 1.

    There are no settings: the value is concave in the reduced input state
    P^2, so the two starts alone run, at every d. |phi+>, with P =
    I/sqrt(d), carries the entangled search. |00>, with P = |0><0|, is a
    product input, and the step keeps a product input a product input, so
    it ends at the best product input it reaches: on a d = 4 pair of Kraus
    ranks 4 and 1 it ends at 0.966847, below the entangled optimum
    0.968331. lower_bound is the dual bound built on the best input's P^2.
    CERTIFIED_GAP is a reporting target: diagnostics.converged is False when
    the bracket is wider, as it can be when the best input is a product
    state.
    """
    d = prob.op1.dim
    if _degenerate_prior(prob):
        return DiscriminationResult(
            pe_entangled=0.0,
            lower_bound=0.0,
            optimal_xi=np.eye(d, dtype=complex) / np.sqrt(d),
        )
    starts = np.zeros((2, d * d), dtype=complex)
    starts[0, :: d + 1] = 1 / np.sqrt(d)  # |phi+> = |I>>/sqrt(d)
    starts[1, 0] = 1.0  # |00>
    value, x, summary = maximize(_seesaw_step(prob, ancilla=d), starts)
    x = x / np.linalg.norm(x)
    # polar decomposition xi^T = W P; dropping W leaves xi^T = P
    _, s, vh = np.linalg.svd(biket_to_mat(x, d).T)
    p_opt = (dagger(vh) * s) @ vh
    pe = _error(value)
    # both bracket the same optimum, so the bound can pass the value only by rounding
    lower = min(_dual_lower_bound(prob, p_opt @ p_opt), pe)
    if not pe - lower <= CERTIFIED_GAP:
        summary = replace(summary, converged=False)
    return DiscriminationResult(
        pe_entangled=pe,
        lower_bound=lower,
        optimal_xi=p_opt.T.copy(),
        diagnostics=summary,
    )


def pe_unentangled(prob: DiscriminationProblem, *, num_starts: int = 32, seed: int = 0) -> DiscriminationResult:
    """Numerically minimal error with a single pure input state (no ancilla).

    Maximizes ||p1 E1(psi) - p2 E2(psi)||_1 over pure states by see-saw with
    A_k = K_k; convexity makes pure inputs sufficient. The value is an
    uncertified multi-start heuristic: the objective is not concave in the
    input, and no dual bound is known here. All num_starts starts run: the
    first are the fixed seed states (3 at d = 2, 2 at d >= 3), and start i
    after them is decoded from 2d uniform reals in [-1, 1) drawn by the
    counter-based generator Philox keyed (seed << 64) + i, so any start can
    be reproduced on its own. The draws come from one Philox re-keyed per
    start, and the whole stack is decoded in one decode_pure_state call.
    num_starts must be an integer >= 1, seed an integer in [0, 2**64).
    """
    num_starts = check_count(num_starts, "num_starts", 1)
    seed = check_count(seed, "seed", 0)
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed!r}")
    d = prob.op1.dim
    if _degenerate_prior(prob):
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        return DiscriminationResult(pe_unentangled=0.0, optimal_pure_input=psi)
    value, psi, summary = maximize(_seesaw_step(prob, ancilla=1), _unentangled_starts(d, num_starts, seed))
    return DiscriminationResult(
        pe_unentangled=_error(value),
        optimal_pure_input=psi / np.linalg.norm(psi),
        diagnostics=summary,
    )


def is_orthogonal_unitary_family(channel: RandomUnitaryChannel) -> bool:
    """True when the channel's unitaries satisfy Tr[U_m^dag U_n] = d delta_mn within tolerance."""
    _require_type(channel, RandomUnitaryChannel, "channel")
    flat = np.stack(channel.unitaries).reshape(len(channel.unitaries), -1)
    # one Gram matrix: (flat flat^dag)[m, n] = Tr[U_n^dag U_m]
    return float(np.max(np.abs(flat @ dagger(flat) - channel.dim * np.eye(len(flat))))) <= ORTHOGONALITY_TOL


def _check_same_family(ch1: RandomUnitaryChannel, ch2: RandomUnitaryChannel) -> None:
    _require_type(ch1, RandomUnitaryChannel, "ch1")
    _require_type(ch2, RandomUnitaryChannel, "ch2")
    if ch1.dim != ch2.dim:
        raise FamilyMismatch(f"dimension mismatch: {ch1.dim} vs {ch2.dim}")
    if len(ch1.unitaries) != len(ch2.unitaries):
        raise FamilyMismatch(
            f"unitary lists of lengths {len(ch1.unitaries)} and {len(ch2.unitaries)}"
        )
    for n, (u1, u2) in enumerate(zip(ch1.unitaries, ch2.unitaries)):
        if not float(np.max(np.abs(u1 - u2))) <= _FAMILY_MATCH_TOL:
            raise FamilyMismatch(f"unitary lists differ at index {n}")


def _weight_differences(ch1: RandomUnitaryChannel, ch2: RandomUnitaryChannel, p1: float) -> np.ndarray:
    p1 = check_prior(p1)
    return p1 * ch1.weights - (1.0 - p1) * ch2.weights


def pe_random_unitary_exact(ch1: RandomUnitaryChannel, ch2: RandomUnitaryChannel, p1: float) -> float:
    """Exact entangled error 1/2 (1 - sum |r_n|) for one orthogonal unitary family.

    Requires both channels to mix the same list of unitaries (entrywise) and
    the list to be orthogonal; any maximally entangled input attains the
    optimum, so no ancilla search is needed.
    """
    _check_same_family(ch1, ch2)
    if not is_orthogonal_unitary_family(ch1):
        raise NotOrthogonal("the shared unitary family is not orthogonal")
    return _error(np.sum(np.abs(_weight_differences(ch1, ch2, p1))))


def pe_random_unitary_bounds(ch1: RandomUnitaryChannel, ch2: RandomUnitaryChannel, p1: float) -> tuple[float, float]:
    """(lower, upper) bounds on the entangled error for one shared unitary family.

    lower = 1/2 (1 - sum |r_n|); upper = 1/2 (1 - ||Delta||_1 / d), the value
    at a maximally entangled input. They coincide when the family is
    orthogonal; orthogonality is not required here.
    """
    _check_same_family(ch1, ch2)
    r = _weight_differences(ch1, ch2, p1)
    d = ch1.dim
    delta = np.zeros((d * d, d * d), dtype=complex)
    for rn, u in zip(r, ch1.unitaries):
        v = u.reshape(-1)  # |U>>; the channel holds its unitaries validated
        delta += rn * np.outer(v, v.conj())
    return _error(np.sum(np.abs(r))), _error(trace_norm(delta) / d)


def pauli_delta_summary(q1, q2, p1: float) -> PauliDiscriminationSummary:
    """Closed-form discrimination data for two qubit Pauli channels.

    With r = p1 q1 - p2 q2 over {I, x, y, z}: the entangled optimum is
    1/2 (1 - sum |r_i|); the best product input is an eigenstate of sigma_z,
    sigma_x or sigma_y, whichever maximizes the matching bracket (ties broken
    in that order); entanglement strictly helps exactly when r0 r1 r2 r3 < 0.
    """
    q1 = check_probability_vector(q1, 4)
    q2 = check_probability_vector(q2, 4)
    p1 = check_prior(p1)
    r = p1 * q1 - (1.0 - p1) * q2
    product = float(r[0] * r[1] * r[2] * r[3])
    candidates = (
        abs(r[0] + r[3]) + abs(r[1] + r[2]),  # sigma_z eigenstate input
        abs(r[0] + r[1]) + abs(r[2] + r[3]),  # sigma_x eigenstate input
        abs(r[0] + r[2]) + abs(r[1] + r[3]),  # sigma_y eigenstate input
    )
    best = 0
    for i in (1, 2):
        if candidates[i] > candidates[best]:
            best = i
    return PauliDiscriminationSummary(
        r=(float(r[0]), float(r[1]), float(r[2]), float(r[3])),
        a=float(r[0] + r[3]),
        b=float(r[1] + r[2]),
        c=float(r[0] - r[3]),
        d=float(r[1] - r[2]),
        det_sign=int(np.sign(product)),
        m=float(candidates[best]),
        pe_entangled=_error(np.sum(np.abs(r))),
        pe_unentangled=_error(candidates[best]),
        optimal_unentangled_axis=("z", "x", "y")[best],
        entanglement_needed=product < 0,
    )

