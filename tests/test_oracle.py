"""Tests for the brute-force reference implementations.

The oracles are the ground truth for everything else, so they get checked
against hand arithmetic and trivial identities only, and their stacked
evaluation against a plain one-state-at-a-time loop.
"""

import tracemalloc

import numpy as np
import pytest

from opdisc import (
    DimensionMismatch,
    DiscriminationProblem,
    InvalidPovm,
    InvalidState,
    TwoOutcomePovm,
    brute_force_entangled,
    brute_force_unentangled,
    helstrom,
    make_operation,
    pauli_channel,
    pauli_delta_summary,
    pe_unentangled,
    povm_error,
    weyl_channel,
)

from opdisc import oracle as oracle_module
from opdisc.oracle import _STACK

from helpers import random_kraus_operation, random_prob_vector, random_two_outcome_povm

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

# 1/2 (1 - 1/sqrt 2), the minimum error for |0><0| vs |+><+| at even priors
HELSTROM_PLUS = 0.14644660940672624


def _identity_vs_depolarizing(p1=0.5):
    return DiscriminationProblem(pauli_channel([1, 0, 0, 0]), pauli_channel([0.25] * 4), p1)


def _identical_problem(p1):
    op = pauli_channel([0.5, 0.5, 0, 0])
    return DiscriminationProblem(op, op, p1)


# --- povm_error ---

def test_povm_error_always_guess_first():
    povm = TwoOutcomePovm(pi1=np.eye(2), pi2=np.zeros((2, 2)))
    assert abs(povm_error(KET0, PLUS, 0.3, povm) - 0.7) < 1e-15


def test_povm_error_at_helstrom_measurement():
    pe, povm = helstrom(KET0, PLUS, 0.5)
    assert abs(pe - HELSTROM_PLUS) < 1e-14
    assert abs(povm_error(KET0, PLUS, 0.5, povm) - pe) < 1e-12


def test_povm_error_never_beats_helstrom():
    rng = np.random.default_rng(31)
    pe, _ = helstrom(KET0, PLUS, 0.5)
    for _ in range(40):
        err = povm_error(KET0, PLUS, 0.5, random_two_outcome_povm(2, rng))
        assert err >= pe - 1e-12
        assert err >= HELSTROM_PLUS - 1e-7


def test_povm_error_rejects_bad_measurements():
    with pytest.raises(InvalidPovm):
        povm_error(KET0, PLUS, 0.5, TwoOutcomePovm(pi1=np.diag([2.0, 0.0]), pi2=np.diag([-1.0, 1.0])))
    with pytest.raises(InvalidPovm):
        # sums to 2I
        povm_error(KET0, PLUS, 0.5, TwoOutcomePovm(pi1=np.eye(2), pi2=np.eye(2)))
    with pytest.raises(DimensionMismatch):
        TwoOutcomePovm(pi1=np.eye(2), pi2=np.eye(3))
    with pytest.raises(ValueError):
        povm_error(KET0, PLUS, 1.5, TwoOutcomePovm(pi1=np.eye(2), pi2=np.zeros((2, 2))))


# Hermitian with unit trace, but an eigenvalue of -0.5
NOT_POSITIVE = np.diag([-0.5, 1.5]).astype(complex)


@pytest.mark.parametrize(
    "rho1, rho2", [(NOT_POSITIVE, KET0), (KET0, NOT_POSITIVE)], ids=["rho1", "rho2"]
)
def test_povm_error_rejects_states_that_are_not_positive(rho1, rho2):
    """Unchecked, povm_error(diag(-0.5, 1.5), diag(1.5, -0.5), 0.5, ...) returned 1.5."""
    povm = TwoOutcomePovm(pi1=np.diag([1.0, 0.0]), pi2=np.diag([0.0, 1.0]))
    with pytest.raises(InvalidState, match="eigenvalue"):
        povm_error(rho1, rho2, 0.5, povm)


# --- unentangled brute force ---

def test_grid_identical_channels_is_flat():
    prob = _identical_problem(0.3)
    assert abs(brute_force_unentangled(prob, 20) - 0.3) < 1e-12


def test_grid_identity_vs_depolarizing():
    got = brute_force_unentangled(_identity_vs_depolarizing(), 200)
    assert abs(got - 0.25) < 2e-3


def test_grid_perfect_discrimination_family():
    prob = DiscriminationProblem(
        pauli_channel([0, 1 / 3, 1 / 3, 1 / 3]), pauli_channel([1, 0, 0, 0]), 0.5
    )
    assert abs(brute_force_unentangled(prob, 200) - 1 / 6) < 2e-3


def test_sampled_qutrit_never_undercuts_library():
    ch_id = weyl_channel(3, [1.0] + [0.0] * 8).as_operation()
    ch_dep = weyl_channel(3, np.full(9, 1.0 / 9.0)).as_operation()
    prob = DiscriminationProblem(ch_id, ch_dep, 0.5)
    oracle = brute_force_unentangled(prob, 6, seed=5)
    library = pe_unentangled(prob, num_starts=8).pe_unentangled
    assert oracle >= library - 1e-9


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        brute_force_unentangled(_identity_vs_depolarizing(), 1)
    from opdisc import UnsupportedDimension

    ch5 = weyl_channel(5, np.full(25, 1.0 / 25.0)).as_operation()
    id5 = make_operation([np.eye(5)])
    with pytest.raises(UnsupportedDimension):
        brute_force_unentangled(DiscriminationProblem(id5, ch5, 0.5), 4)


# --- entangled brute force ---

def test_samples_identity_vs_depolarizing():
    # any maximally entangled input attains the optimum, so few samples suffice
    got = brute_force_entangled(_identity_vs_depolarizing(), 10)
    assert abs(got - 0.125) < 1e-6


def test_samples_identical_channels():
    assert abs(brute_force_entangled(_identical_problem(0.4), 5) - 0.4) < 1e-12


def test_samples_match_pauli_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(3):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.1, 0.9))
        prob = DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1)
        got = brute_force_entangled(prob, 10, seed=2)
        assert abs(got - pauli_delta_summary(q1, q2, p1).pe_entangled) < 1e-6


def test_samples_deterministic_per_seed():
    prob = _identity_vs_depolarizing(0.35)
    assert brute_force_entangled(prob, 25, seed=7) == brute_force_entangled(prob, 25, seed=7)


def test_samples_reject_bad_inputs():
    from opdisc import UnsupportedDimension

    with pytest.raises(ValueError):
        brute_force_entangled(_identity_vs_depolarizing(), 0)
    ch5 = weyl_channel(5, np.full(25, 1.0 / 25.0)).as_operation()
    id5 = make_operation([np.eye(5)])
    with pytest.raises(UnsupportedDimension):
        brute_force_entangled(DiscriminationProblem(id5, ch5, 0.5), 5)


# --- stacked evaluation against a one-state-at-a-time loop ---

def _per_state_error(prob, kraus1, kraus2, vec):
    rho = np.outer(vec, vec.conj())
    delta = prob.p1 * sum(k @ rho @ k.conj().T for k in kraus1)
    delta = delta - (1.0 - prob.p1) * sum(k @ rho @ k.conj().T for k in kraus2)
    return 0.5 * (1.0 - np.sum(np.abs(np.linalg.eigvalsh(delta))))


def _per_state_unentangled(prob, grid_density, seed):
    d = prob.op1.dim
    if d == 2:
        states = [
            np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            for theta in np.linspace(0.0, np.pi, grid_density)
            for phi in np.linspace(0.0, 2.0 * np.pi, grid_density, endpoint=False)
        ]
    else:
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(grid_density**3):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            states.append(v / np.linalg.norm(v))
    return min(_per_state_error(prob, prob.op1.kraus, prob.op2.kraus, v) for v in states)


def _per_state_entangled(prob, samples, seed):
    d = prob.op1.dim
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    phi_plus = eye.reshape(-1) / np.sqrt(d)
    states = []
    for _ in range(samples):
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        states.append(np.kron(q * (diag / np.abs(diag)).conj(), eye) @ phi_plus)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gram = g @ g.conj().T
        states.append((gram / np.linalg.norm(gram)).T.reshape(-1))
    kraus1 = [np.kron(k, eye) for k in prob.op1.kraus]
    kraus2 = [np.kron(k, eye) for k in prob.op2.kraus]
    return min(_per_state_error(prob, kraus1, kraus2, v) for v in states)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_oracles_match_a_per_state_loop(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    prob = DiscriminationProblem(
        random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
        random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
        float(rng.uniform(0.1, 0.9)),
    )
    # every count spans at least three stacks, the last one partial
    grid = 24 if d == 2 else 9
    samples = 2 * _STACK + 3
    assert min(grid**2 if d == 2 else grid**3, samples) > 2 * _STACK
    unent = brute_force_unentangled(prob, grid, seed=seed)
    assert abs(unent - _per_state_unentangled(prob, grid, seed)) < 1e-12
    ent = brute_force_entangled(prob, samples, seed=seed)
    assert abs(ent - _per_state_entangled(prob, samples, seed)) < 1e-12


def test_oracles_evaluate_no_state_twice(monkeypatch):
    """|phi+> once for every maximally entangled input, each Bloch pole once."""
    rows = []
    evaluate = oracle_module._output_differences

    def counting(ops, weights, v):
        rows.append(v.shape[0])
        return evaluate(ops, weights, v)

    monkeypatch.setattr(oracle_module, "_output_differences", counting)
    samples, grid = 2 * _STACK + 3, 24
    brute_force_entangled(_identity_vs_depolarizing(), samples)
    assert sum(rows) == samples + 1
    rows.clear()
    brute_force_unentangled(_identity_vs_depolarizing(), grid)
    assert sum(rows) == (grid - 2) * grid + 2


def test_entangled_memory_is_flat_in_the_sample_count():
    """20,000 qutrit samples; stepping past their Haar draws in a single piece peaked at 3.4 MB."""
    rng = np.random.default_rng(42)
    prob = DiscriminationProblem(
        weyl_channel(3, random_prob_vector(9, rng)).as_operation(),
        weyl_channel(3, random_prob_vector(9, rng)).as_operation(),
        0.4,
    )
    brute_force_entangled(prob, 1)  # first-call allocations are not the oracle's working set
    tracemalloc.start()
    try:
        brute_force_entangled(prob, 20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_unentangled_memory_is_flat_in_the_state_count():
    """64,000 qutrit states evaluated in stacks; holding them all at once took over 10 MB."""
    rng = np.random.default_rng(41)
    prob = DiscriminationProblem(
        weyl_channel(3, random_prob_vector(9, rng)).as_operation(),
        weyl_channel(3, random_prob_vector(9, rng)).as_operation(),
        0.4,
    )
    brute_force_unentangled(prob, 2)  # first-call allocations are not the oracle's working set
    tracemalloc.start()
    try:
        brute_force_unentangled(prob, 40, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
