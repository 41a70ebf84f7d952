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
diamond-norm SDP. pe_unentangled is exact at d = 2, where it solves the
maximum over the Bloch sphere directly, and an uncertified multi-start
value at d >= 3.

DiscriminationProblem and helstrom's TwoOutcomePovm come from channels. The
brute-force oracle that checks these values is never imported here, nor does
it import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channels import (
    PAULI_MATRICES,
    DiscriminationProblem,
    RandomUnitaryChannel,
    TwoOutcomePovm,
    check_density_matrix,
    check_probability_vector,
    require_type,
    unnormalized_choi,
)
from .config import CERTIFIED_GAP, INPUT_TOL, ORTHOGONALITY_TOL
from .errors import FamilyMismatch, NotOrthogonal
from .linalg import (
    biket_to_mat,
    check_count,
    check_prior,
    dagger,
    eig_hermitian,
    require_matrix,
    trace_norm,
)
from .optimizer import MaximizeSummary, decode_pure_state, maximize

# Weight of I/d mixed into the input's reduced state before the dual
# certificate inverts its square root.
_CERTIFICATE_EPS = 1e-8

# The qubit sphere solve's Newton iterations stop once a step moves s by at
# most this relative amount, or after this many steps. Newton converges
# quadratically, except near the hard case, where s grows by about 1.5 a step.
_SECULAR_RTOL = 1e-15
_SECULAR_STEPS = 100

# Relative width of a rounding tie in the qubit sphere solve: see _sphere_argmax.
_TIE_RTOL = 1e-12

# pe_unentangled's start stacks kept for reuse, one per (d, num_starts, seed).
_START_STACKS = 4


def _error(norm) -> float:
    """The error 1/2 (1 - norm) of a trace norm `norm`, clamped at 0 against rounding."""
    return max(0.0, 0.5 * (1.0 - float(norm)))


@dataclass(frozen=True)
class DiscriminationResult:
    """Output of one discrimination computation; unused fields stay None.

    optimal_xi is the input operator xi (Tr[xi^dag xi] = 1) whose double-ket
    realizes pe_entangled; optimal_pure_input is the state vector realizing
    pe_unentangled. pe_entangled sets lower_bound to a certified lower bound
    on the true optimum; bound_max_entangled(prob) is the upper bound, the
    error at the maximally entangled input. pe_unentangled is exact at d = 2
    and an uncertified multi-start value at d >= 3. diagnostics is set only
    when an optimizer ran: on pe_entangled, and on pe_unentangled at d >= 3.
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
    {I, x, y, z}. m is the largest trace-norm value reachable with a product
    input, and det_sign is the sign of r0 r1 r2 r3: entanglement strictly
    helps exactly when it is negative.
    """

    r: tuple[float, float, float, float]
    det_sign: int
    m: float
    pe_entangled: float
    pe_unentangled: float
    optimal_unentangled_axis: str
    entanglement_needed: bool


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
    require_type(prob, DiscriminationProblem, "prob")
    return prob.p1 * unnormalized_choi(prob.op1) - prob.p2 * unnormalized_choi(prob.op2)


def bound_max_entangled(prob: DiscriminationProblem) -> float:
    """Error 1/2 (1 - ||Delta||_1 / d) reached by a maximally entangled input.

    An upper bound on pe_entangled, since the optimum minimizes over all
    bipartite inputs. It is tight (and the bound is the exact value) for
    channels mixing one orthogonal unitary family.
    """
    return _error(trace_norm(delta_operator(prob)) / prob.op1.dim)


@lru_cache(maxsize=_START_STACKS)
def _unentangled_starts(d: int, num_starts: int, seed: int) -> np.ndarray:
    """pe_unentangled's num_starts start states, one per row: the seed states, then the random ones.

    Random start i is decode_pure_state of the 2d uniform reals in [-1, 1)
    drawn by Generator(Philox(key=(seed << 64) + i)). The stack depends only
    on the arguments, so it is built once and kept for the _START_STACKS most
    recent argument triples; it is returned read-only, and maximize copies it.
    """
    seeds = np.zeros((2, d), dtype=complex)
    seeds[0, 0] = 1.0  # |0>
    seeds[1] = 1 / np.sqrt(d)  # the uniform superposition
    keys = ((seed << 64) + i for i in range(2, num_starts))
    draws = (decode_pure_state(np.random.Generator(np.random.Philox(key=k)).uniform(-1.0, 1.0, 2 * d), d) for k in keys)
    stack = np.vstack([seeds[:num_starts], *draws])
    stack.flags.writeable = False
    return stack


def _sphere_argmax(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The unit n maximizing n.A n + 2 g.n, for a positive semidefinite 3 x 3 A.

    The maximizer solves (lmax + s - A) n = g with s >= 0 (Moré & Sorensen,
    SIAM J. Sci. Stat. Comput. 4, 1983). In A's eigenbasis |n(s)| falls with s,
    and 1/|n(s)| is concave, so Newton's method on 1/|n(s)| = 1 started where
    |n(s)| >= 1 rises monotonically to the root. The hard case, where g has no
    component on the top eigenspace and (lmax - A)^+ g lies inside the sphere,
    has s = 0 and n = (lmax - A)^+ g + w, for any w in the top eigenspace with
    |n| = 1: at g = 0 both n and -n, and a whole circle when lmax is
    degenerate. There w points along the projection onto the top eigenspace
    of the first of e_z, e_x, e_y not orthogonal to it, so the choice does not
    depend on the eigenvectors eigh returns. Eigenvalues, s and projections
    within _TIE_RTOL of a tie count as tied.
    """
    lam, v = np.linalg.eigh(a)
    c, gap = v.T @ g, lam[-1] - lam
    live = c != 0
    s = max(0.0, float(np.max(np.abs(c) - gap)))  # one term alone keeps |n(s)| >= 1 up to here
    for _ in range(_SECULAR_STEPS):
        n = np.divide(c, s + gap, out=np.zeros(3), where=live)
        norm2 = float(n @ n)
        if norm2 <= 1.0:  # at s = 0: the hard case; else the root, to rounding
            break
        slope = float(np.sum(np.divide(n * n, s + gap, out=np.zeros(3), where=live)))
        ds = (np.sqrt(norm2) - 1.0) * norm2 / slope
        if not ds > _SECULAR_RTOL * s:
            break
        s += ds
    tie = _TIE_RTOL * max(float(lam[-1]), 0.0)
    if s <= tie:
        top = gap <= tie
        n = np.divide(c, gap, out=np.zeros(3), where=~top)
        for axis in (2, 0, 1):
            w = v[axis] * top  # e_axis projected onto the top eigenspace, in A's eigenbasis
            if w @ w > _TIE_RTOL:
                break
        n += np.sqrt(max(0.0, 1.0 - float(n @ n))) * w / np.linalg.norm(w)
    return v @ (n / np.linalg.norm(n))


def _qubit_unentangled(prob: DiscriminationProblem) -> tuple[float, np.ndarray]:
    """The exact optimum of ||p1 E1(psi) - p2 E2(psi)||_1 over qubit pure states, and its psi.

    Everything is read from Delta: R[i, j] = 1/2 Tr[Delta (sigma_i x sigma_j^T)]
    = 1/2 Tr[sigma_i (p1 E1 - p2 E2)(sigma_j)] over {I, x, y, z}. The input
    with Bloch vector n has output difference
    ((R00 + R0.n) I + (b + B n).sigma) / 2, R0 = R[0, 1:], b = R[1:, 0],
    B = R[1:, 1:], whose trace norm is max(|R00 + R0.n|, |b + B n|) for any
    Hermiticity-preserving pair: also for channels trace-preserving only to
    within INPUT_TOL, where R00 + R0.n is not exactly p1 - p2. That first term
    is |p1 - p2| up to INPUT_TOL, and _sphere_argmax maximizes |b + B n|^2
    over the unit sphere.
    """
    sigma = PAULI_MATRICES
    r = 0.5 * np.einsum("iNn,nmNM,jmM->ij", sigma, delta_operator(prob).reshape(2, 2, 2, 2), sigma).real
    b, big_b = r[1:, 0], r[1:, 1:]
    n = _sphere_argmax(big_b.T @ big_b, big_b.T @ b)
    # the pure state with Bloch vector n, from whichever pole formula is well conditioned
    psi = np.array([1 + n[2], n[0] + 1j * n[1]]) if n[2] >= 0 else np.array([n[0] - 1j * n[1], 1 - n[2]])
    return max(abs(r[0, 0] + r[0, 1:] @ n), float(np.linalg.norm(b + big_b @ n))), psi / np.linalg.norm(psi)


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
    kraus = np.concatenate([prob.op1.kraus, prob.op2.kraus])
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
    t = max(0, -lmin(Z), -lmin(Z - Delta)) absorbs rounding. I x s^+-1/2 are
    written as d diagonal blocks of a zero matrix, both least eigenvalues
    come from one stacked eigvalsh call, and Tr_out Z is one einsum.
    """
    d = prob.op1.dim
    eps = _CERTIFICATE_EPS
    delta = delta_operator(prob)
    sigma = (sigma + dagger(sigma)) / 2
    sigma = (1.0 - eps) * sigma / np.trace(sigma).real + eps * np.eye(d) / d
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, eps / d, None)
    # I x s^1/2 and I x s^-1/2: d copies of each root on the diagonal of a zero matrix
    roots = np.zeros((2, d, d, d, d), dtype=complex)
    block = np.arange(d)
    roots[0, block, :, block] = (v * np.sqrt(w)) @ dagger(v)
    roots[1, block, :, block] = (v / np.sqrt(w)) @ dagger(v)
    root, inv_root = roots.reshape(2, d * d, d * d)
    lam, vecs = np.linalg.eigh(root @ delta @ root)
    z = inv_root @ (vecs * np.clip(lam, 0.0, None)) @ dagger(vecs) @ inv_root
    z = (z + dagger(z)) / 2
    low = np.linalg.eigvalsh(np.stack([z, z - delta]))[:, 0]
    t = max(0.0, -low[0], -low[1])
    lmax = np.linalg.eigvalsh(np.einsum("ijik->jk", z.reshape(d, d, d, d)))[-1] + t * d  # Tr_0 Z
    return _error(2.0 * float(lmax) - (prob.p1 - prob.p2))


def pe_entangled(prob: DiscriminationProblem) -> DiscriminationResult:
    """Numerically minimal error with an entangled input, by see-saw over |xi>>, certified.

    Maximizes the output trace norm over inputs |xi>> with Tr[xi^dag xi] = 1,
    stepping with A_k = K_k x I from the maximally entangled start
    |phi+> = |I>>/sqrt(d). An ancilla unitary, which no output trace norm
    sees, turns the best input into optimal_xi with xi^T = P >= 0, so the
    optimum is max ||(I x P) Delta (I x P)||_1 over positive P with
    Tr[P^2] = 1.

    There are no settings: the value is concave in the reduced input state
    P^2 (Watrous, arXiv:1207.5726), so the one full-rank start, P =
    I/sqrt(d), climbs to the optimum at every d. lower_bound is the dual
    bound built on the best input's P^2. CERTIFIED_GAP is a reporting
    target: diagnostics.converged is False when the bracket is wider, as it
    can be when the best input is close to a product state.

    The value is not capped by pe_unentangled: see-saw rounding can leave it
    above the unentangled value of the same problem, as on
    probe_problem(3, 64, base=5000) of tests/helpers.py, 1.005e-12 against
    3.28e-13. Only opdisc general prints the minimum of the two.
    """
    require_type(prob, DiscriminationProblem, "prob")
    d = prob.op1.dim
    if _degenerate_prior(prob):
        return DiscriminationResult(
            pe_entangled=0.0,
            lower_bound=0.0,
            optimal_xi=np.eye(d, dtype=complex) / np.sqrt(d),
        )
    start = np.zeros((1, d * d), dtype=complex)
    start[0, :: d + 1] = 1 / np.sqrt(d)  # |phi+> = |I>>/sqrt(d)
    value, x, summary = maximize(_seesaw_step(prob, ancilla=d), start)
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
    """Minimal error with a single pure input state (no ancilla): exact at d = 2, multi-start above.

    Convexity makes pure inputs sufficient. At d = 2 both channels act
    affinely on the input's Bloch vector, and the optimum over the Bloch
    sphere is solved exactly (_qubit_unentangled); no optimizer runs, so
    diagnostics is None. At d >= 3 it maximizes ||p1 E1(psi) - p2 E2(psi)||_1
    by see-saw with A_k = K_k, an uncertified multi-start value: the
    objective is not concave in the input, and no dual bound is known here.
    All num_starts starts run: first the seed states |0> and the uniform
    superposition, then start i is decoded from 2d uniform reals in [-1, 1)
    drawn by Philox keyed (seed << 64) + i, so any start can be reproduced on
    its own. The start stack is built once per (d, num_starts, seed) in a
    process and reused by later calls with the same arguments.
    num_starts must be an integer >= 1, seed an integer in [0, 2**64), at
    every d.
    """
    require_type(prob, DiscriminationProblem, "prob")
    num_starts = check_count(num_starts, "num_starts", 1)
    seed = check_count(seed, "seed", 0)
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed!r}")
    d = prob.op1.dim
    if _degenerate_prior(prob):
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        return DiscriminationResult(pe_unentangled=0.0, optimal_pure_input=psi)
    if d == 2:
        value, psi = _qubit_unentangled(prob)
        return DiscriminationResult(pe_unentangled=_error(value), optimal_pure_input=psi)
    value, psi, summary = maximize(_seesaw_step(prob, ancilla=1), _unentangled_starts(d, num_starts, seed))
    return DiscriminationResult(
        pe_unentangled=_error(value),
        optimal_pure_input=psi / np.linalg.norm(psi),
        diagnostics=summary,
    )


def is_orthogonal_unitary_family(channel: RandomUnitaryChannel) -> bool:
    """True when the channel's unitaries satisfy Tr[U_m^dag U_n] = d delta_mn within tolerance."""
    require_type(channel, RandomUnitaryChannel, "channel")
    flat = channel.unitaries.reshape(len(channel.unitaries), -1)
    # one Gram matrix: (flat flat^dag)[m, n] = Tr[U_n^dag U_m]
    return float(np.max(np.abs(flat @ dagger(flat) - channel.dim * np.eye(len(flat))))) <= ORTHOGONALITY_TOL


def _check_same_family(ch1: RandomUnitaryChannel, ch2: RandomUnitaryChannel) -> None:
    require_type(ch1, RandomUnitaryChannel, "ch1")
    require_type(ch2, RandomUnitaryChannel, "ch2")
    if ch1.dim != ch2.dim:
        raise FamilyMismatch(f"dimension mismatch: {ch1.dim} vs {ch2.dim}")
    if len(ch1.unitaries) != len(ch2.unitaries):
        raise FamilyMismatch(
            f"unitary lists of lengths {len(ch1.unitaries)} and {len(ch2.unitaries)}"
        )
    far = np.flatnonzero(np.max(np.abs(ch1.unitaries - ch2.unitaries), axis=(1, 2)) > INPUT_TOL)
    if far.size:
        raise FamilyMismatch(f"unitary lists differ at index {far[0]}")


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
    # |U_n>>, one row per n; the channel holds its unitaries validated
    v = ch1.unitaries.reshape(len(r), -1)
    return _error(np.sum(np.abs(r))), _error(trace_norm((v.T * r) @ v.conj()) / ch1.dim)


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
    # Python floats from here: on four numbers, numpy's per-call overhead outweighs the arithmetic.
    # p1 a - p2 b entry by entry is the same IEEE arithmetic as the array expression p1 q1 - p2 q2.
    p2 = 1.0 - p1
    r0, r1, r2, r3 = (p1 * a - p2 * b for a, b in zip(q1.tolist(), q2.tolist()))
    product = r0 * r1 * r2 * r3
    candidates = (
        abs(r0 + r3) + abs(r1 + r2),  # sigma_z eigenstate input
        abs(r0 + r1) + abs(r2 + r3),  # sigma_x eigenstate input
        abs(r0 + r2) + abs(r1 + r3),  # sigma_y eigenstate input
    )
    best = 0
    for i in (1, 2):
        if candidates[i] > candidates[best]:
            best = i
    return PauliDiscriminationSummary(
        r=(r0, r1, r2, r3),
        det_sign=(product > 0) - (product < 0),
        m=candidates[best],
        pe_entangled=_error(abs(r0) + abs(r1) + abs(r2) + abs(r3)),
        pe_unentangled=_error(candidates[best]),
        optimal_unentangled_axis=("z", "x", "y")[best],
        entanglement_needed=product < 0,
    )

