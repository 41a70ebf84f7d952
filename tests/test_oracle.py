"""Tests for the brute-force reference implementations.

The oracles are the ground truth for everything else, so they get checked
against hand arithmetic and trivial identities only, and their stacked
evaluation against a plain one-state-at-a-time loop.
"""

import ast
import importlib.util
import re
import tracemalloc
from pathlib import Path

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

from opdisc import discrimination
from opdisc import oracle as oracle_module

from helpers import random_kraus_operation, random_prob_vector, random_qubit_problem, random_two_outcome_povm

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

# 1/2 (1 - 1/sqrt 2), the minimum error for |0><0| vs |+><+| at even priors
HELSTROM_PLUS = 0.14644660940672624


def _identity_vs_depolarizing(p1=0.5):
    return DiscriminationProblem(pauli_channel([1, 0, 0, 0]), pauli_channel([0.25] * 4), p1)


def _perfect_family_problem():
    return DiscriminationProblem(pauli_channel([0, 1 / 3, 1 / 3, 1 / 3]), pauli_channel([1, 0, 0, 0]), 0.5)


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


def test_a_povm_holds_read_only_copies_of_what_it_was_given():
    """Formerly it held its caller's complex arrays: the same POVM read 0.3 after these writes."""
    a, b = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    povm = TwoOutcomePovm(pi1=a, pi2=b)
    assert abs(povm_error(KET0, PLUS, 0.3, povm) - 0.7) < 1e-15
    a[:] = 0
    b[:] = np.eye(2)
    assert abs(povm_error(KET0, PLUS, 0.3, povm) - 0.7) < 1e-15
    with pytest.raises(ValueError, match="read-only"):
        povm.pi1[0, 0] = 1


def test_helstroms_povm_is_read_only():
    _, povm = helstrom(KET0, PLUS, 0.5)
    for pi in (povm.pi1, povm.pi2):
        with pytest.raises(ValueError, match="read-only"):
            pi[0, 0] = 1


@pytest.mark.parametrize(
    "pi1, pi2, error, message",
    [
        (np.diag([2.0, 0.0]), np.diag([-1.0, 1.0]), InvalidPovm, "pi2 has an eigenvalue below -1e-09"),
        (np.eye(2), np.eye(2), InvalidPovm, "pi1 + pi2 deviates from identity by 1.000e+00"),
        (np.eye(2), np.eye(3), DimensionMismatch, "pi2 of shape (3, 3) is not 2x2"),
    ],
    ids=["negative", "sums-to-2I", "shapes"],
)
def test_a_povm_refuses_a_bad_measurement_when_it_is_built(pi1, pi2, error, message):
    """The bad measurements of test_povm_error_rejects_bad_measurements, with povm_error's former messages."""
    with pytest.raises(error, match=re.escape(message)):
        TwoOutcomePovm(pi1=pi1, pi2=pi2)


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
    assert abs(brute_force_unentangled(_perfect_family_problem(), 200) - 1 / 6) < 2e-3


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


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of states in each stack the oracles evaluate, in order, on the product and the entangled route."""
    sizes = []
    evaluate = oracle_module._trace_norms

    def counting(deltas):
        sizes.append(deltas.shape[0])
        return evaluate(deltas)

    monkeypatch.setattr(oracle_module, "_trace_norms", counting)
    return sizes


def _spans_three_stacks_the_last_partial(sizes):
    return len(sizes) >= 3 and len(set(sizes[:-1])) == 1 and sizes[-1] < sizes[0]


def _random_problem(d, rng):
    return DiscriminationProblem(
        random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
        random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
        float(rng.uniform(0.1, 0.9)),
    )


def _weyl_problem(d, rng, p1=0.4):
    return DiscriminationProblem(
        weyl_channel(d, random_prob_vector(d * d, rng)).as_operation(),
        weyl_channel(d, random_prob_vector(d * d, rng)).as_operation(),
        p1,
    )


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_oracles_match_a_per_state_loop(d, seed, monkeypatch, stack_sizes):
    prob = _random_problem(d, np.random.default_rng(100 * d + seed))
    # a budget that splits every count below into at least three stacks, the last one partial
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", (56 if d == 4 else 48) * 1024)
    grid = 40 if d == 2 else 9
    unent = brute_force_unentangled(prob, grid, seed=seed)
    assert _spans_three_stacks_the_last_partial(stack_sizes)
    assert abs(unent - _per_state_unentangled(prob, grid, seed)) < 1e-12
    stack_sizes.clear()
    ent = brute_force_entangled(prob, 160, seed=seed)
    assert _spans_three_stacks_the_last_partial(stack_sizes)
    assert abs(ent - _per_state_entangled(prob, 160, seed)) < 1e-12
    # one sample: |phi+> and that sample make the only stack, after one Haar draw's worth is stepped past
    assert abs(brute_force_entangled(prob, 1, seed=seed) - _per_state_entangled(prob, 1, seed)) < 1e-12


def test_oracles_evaluate_no_state_twice(monkeypatch, stack_sizes):
    """|phi+> once for every maximally entangled input, each Bloch pole once."""
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", 8 * 1024)
    samples, grid = 67, 24
    brute_force_entangled(_identity_vs_depolarizing(), samples)
    assert _spans_three_stacks_the_last_partial(stack_sizes)
    assert sum(stack_sizes) == samples + 1
    stack_sizes.clear()
    brute_force_unentangled(_identity_vs_depolarizing(), grid)
    assert _spans_three_stacks_the_last_partial(stack_sizes)
    assert sum(stack_sizes) == (grid - 2) * grid + 2


@pytest.mark.parametrize("d, grid", [(2, 13), (3, 5), (4, 4)])
@pytest.mark.parametrize("problem", ["random", "weyl"])  # a Weyl pair has 2 d^2 Kraus operators
def test_oracle_values_do_not_depend_on_the_stack_size(d, grid, problem, monkeypatch, stack_sizes):
    """The smallest budget gives two-state stacks; each oracle returns the same float as at the default."""
    rng = np.random.default_rng(200 + d)
    prob = _random_problem(d, rng) if problem == "random" else _weyl_problem(d, rng)
    samples = 10 * grid
    default = (brute_force_unentangled(prob, grid, seed=3), brute_force_entangled(prob, samples, seed=3))
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", 1)
    stack_sizes.clear()
    smallest = (brute_force_unentangled(prob, grid, seed=3), brute_force_entangled(prob, samples, seed=3))
    assert set(stack_sizes) <= {2, 3}
    assert smallest == default


@pytest.mark.parametrize(
    "d, kind, count, most", [(2, "unentangled", 25, 1), (4, "unentangled", 6, 1), (4, "entangled", 60, 2)]
)
def test_structured_sized_oracle_calls_take_few_stacks(d, kind, count, most, stack_sizes):
    """A count of calls, not a time: noise cannot move it. 32-state stacks took 19, 7 and 3; stacks
    sized by the Weyl pair's 32 Kraus operators took 2 for the 216 states at d = 4."""
    prob = _weyl_problem(d, np.random.default_rng(44))
    oracle = brute_force_unentangled if kind == "unentangled" else brute_force_entangled
    oracle(prob, count, seed=1)
    assert len(stack_sizes) <= most


@pytest.mark.parametrize("d, grid", [(2, 25), (3, 6), (4, 4)])
def test_product_stacks_do_not_depend_on_the_kraus_count(d, grid, monkeypatch, stack_sizes):
    """Identity vs identity (2 Kraus operators) and a Weyl pair (2 d^2) take the same stacks.

    Stacks sized by the Kraus count gave the Weyl pair a third to an eighth of the identity pair's.
    """
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", 8 * 1024)
    identity = make_operation([np.eye(d)])
    brute_force_unentangled(DiscriminationProblem(identity, identity, 0.4), grid, seed=1)
    sizes = list(stack_sizes)
    stack_sizes.clear()
    brute_force_unentangled(_weyl_problem(d, np.random.default_rng(45)), grid, seed=1)
    assert stack_sizes == sizes
    assert len(sizes) >= 3 and sizes[0] == oracle_module._stack_rows(d)


# --- qubit and qutrit output differences in closed form ---

def _eigvalsh_norms(deltas):
    """Trace norms through eigvalsh: the route of every output dimension above 3."""
    return np.sum(np.abs(np.linalg.eigvalsh(deltas)), axis=-1)


def _product_route_differences(delta):
    """The product route's output differences for the input rows |0>, ..., |d-1>, each of which has delta.

    One Kraus operator per eigenvalue lam of delta, sqrt|lam| u (1, ..., 1) for
    its eigenvector u, weighted by the sign of lam.
    """
    lams, us = np.linalg.eigh(delta)
    ones = np.ones(len(delta))
    ops = np.array([np.sqrt(abs(lam)) * np.outer(u, ones) for lam, u in zip(lams, us.T)])
    sup = oracle_module._superoperator(ops, np.where(lams < 0, -1.0, 1.0))
    return oracle_module._product_differences(sup, np.eye(len(delta), dtype=complex))


def _random_hermitian(rng, d=2):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def _with_spectrum(rng, spectrum):
    """u diag(spectrum) u^dag for a Haar-random unitary u."""
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


_RNG = np.random.default_rng(60)
_PSI = _RNG.standard_normal(2) + 1j * _RNG.standard_normal(2)
_HARD_QUBIT_DIFFERENCES = {
    "proportional-to-identity": 0.3 * np.eye(2),
    "rank-one": 0.7 * np.outer(_PSI, _PSI.conj()) / np.vdot(_PSI, _PSI).real,
    "zero": np.zeros((2, 2)),
    "negative-definite": -(np.eye(2) + 0.2 * _random_hermitian(_RNG)),
    "b-dominates-a-minus-c": np.array([[1e-12, 0.3 + 0.4j], [0.3 - 0.4j, 0.0]]),
    "entries-near-1e-300": 1e-300 * _random_hermitian(_RNG),
    "entries-near-1e150": 1e150 * _random_hermitian(_RNG),
}

_RNG3 = np.random.default_rng(63)
_PSI3 = _RNG3.standard_normal(3) + 1j * _RNG3.standard_normal(3)
_HARD_QUTRIT_DIFFERENCES = {
    "rank-one": 0.4 * np.outer(_PSI3, _PSI3.conj()) / np.vdot(_PSI3, _PSI3).real,
    "spectrum-(-0.7,0,0)": _with_spectrum(_RNG3, [-0.7, 0.0, 0.0]),
    "pair-straddling-zero-1e-9": _with_spectrum(_RNG3, [0.5, 1e-9, -1e-9]),
    "pair-straddling-zero-1e-5": _with_spectrum(_RNG3, [0.5, 1e-5, -1e-5]),
    "same-sign-double-pair": _with_spectrum(_RNG3, [0.5, -0.2, -0.2]),
    "proportional-to-identity": 0.3 * np.eye(3),
    "zero": np.zeros((3, 3)),
    "negative-definite": -(np.eye(3) + 0.2 * _random_hermitian(_RNG3, 3)),
    "entries-near-1e-300": 1e-300 * _random_hermitian(_RNG3, 3),
    "entries-near-1e150": 1e150 * _random_hermitian(_RNG3, 3),
}


@pytest.mark.parametrize("delta", _HARD_QUBIT_DIFFERENCES.values(), ids=_HARD_QUBIT_DIFFERENCES.keys())
def test_qubit_trace_norms_in_closed_form_match_eigvalsh(delta):
    deltas = _product_route_differences(delta)
    closed = oracle_module._trace_norms(deltas)
    eig = _eigvalsh_norms(deltas)
    assert np.all(np.abs(closed - eig) <= 4 * np.spacing(eig)), (closed, eig)
    assert np.allclose(closed, np.sum(np.abs(np.linalg.eigvalsh(delta))), rtol=1e-14, atol=0)


@pytest.mark.parametrize("delta", _HARD_QUTRIT_DIFFERENCES.values(), ids=_HARD_QUTRIT_DIFFERENCES.keys())
def test_qutrit_trace_norms_in_closed_form_match_eigvalsh(delta):
    """Within 1e-14 of the largest entry, double and straddling eigenvalues included, with no warning."""
    closed = oracle_module._trace_norms(_product_route_differences(delta))
    want = np.sum(np.abs(np.linalg.eigvalsh(delta)))
    assert np.all(np.abs(closed - want) <= 1e-14 * np.max(np.abs(delta))), (closed, want)


def test_qutrit_trace_norms_near_a_double_eigenvalue_match_eigvalsh():
    """2,000 random 3 x 3 differences whose close pair straddles zero, sits on one side of it, or meets it.

    Taken in closed form, about one straddling pair in ten within 1e-9 of zero came out 1e-8 off.
    """
    rng = np.random.default_rng(64)
    t = 10.0 ** rng.uniform(-12, -2, 500)
    spectra = np.concatenate([
        np.stack([rng.uniform(-1, 1, 500), t, -t], axis=1),
        np.stack([rng.uniform(-1, 1, 500), t, t * (1 + 1e-6)], axis=1),
        np.stack([rng.uniform(-1, 1, 500), -t, np.zeros(500)], axis=1),
        np.stack([rng.uniform(-1, 1, 500), *(2 * [rng.uniform(-1, 1, 500)])], axis=1),
    ])
    deltas = np.array([_with_spectrum(rng, spectrum) for spectrum in spectra])
    closed = oracle_module._trace_norms(deltas)
    want = _eigvalsh_norms(deltas)
    assert np.all(np.abs(closed - want) <= 1e-14 * np.max(np.abs(deltas), axis=(1, 2)))


def test_identical_qutrit_channels_give_the_prior_exactly():
    """Every output difference 0.4 psi psi^dag has a double eigenvalue 0; arccos there returned 0.2999999970."""
    identity = make_operation([np.eye(3)])
    assert abs(brute_force_unentangled(DiscriminationProblem(identity, identity, 0.7), 8) - 0.3) <= 1e-15


def test_the_qubit_grid_calls_no_eigvalsh_and_every_other_stack_one(monkeypatch, stack_sizes):
    """A count, not a time. Every d = 2 grid stack and every d = 3 product stack took one eigvalsh
    before their norms had a closed form."""
    rng = np.random.default_rng(61)
    qubit, qutrit, ququart = _weyl_problem(2, rng), _weyl_problem(3, rng), _weyl_problem(4, rng)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", 8 * 1024)
    for prob, count in ((qubit, 25), (qutrit, 6)):
        stack_sizes.clear()
        brute_force_unentangled(prob, count)
        assert len(stack_sizes) >= 3 and calls == []
    for oracle, prob, count in (
        (brute_force_unentangled, ququart, 4),
        (brute_force_entangled, qubit, 60),
        (brute_force_entangled, qutrit, 60),
    ):
        stack_sizes.clear()
        calls.clear()
        oracle(prob, count)
        assert len(stack_sizes) >= 3 and len(calls) == len(stack_sizes)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_entangled_search_builds_one_choi_matrix_a_call_and_no_k_x_i(d, monkeypatch, stack_sizes):
    """A count, not a time: one _superoperator a call, no np.kron, one eigvalsh a stack.

    Applying every K x I took one np.kron a call and a product with each of them a stack.
    """
    prob = _weyl_problem(d, np.random.default_rng(65))
    calls = {"kron": 0, "superoperator": 0, "eigvalsh": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(np, "kron", counting("kron", np.kron))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(oracle_module, "_superoperator", counting("superoperator", oracle_module._superoperator))
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", 8 * 1024)
    for call in (1, 2):
        brute_force_entangled(prob, 60, seed=call)
        assert len(stack_sizes) >= 3 * call
        assert calls == {"kron": 0, "superoperator": call, "eigvalsh": len(stack_sizes)}


@pytest.mark.parametrize("budget", [8 * 1024, 640 * 1024])
@pytest.mark.parametrize("grid", [2, 3, 25, 60, 201])
def test_bloch_grid_stacks_are_the_per_state_formula_byte_for_byte(grid, budget, monkeypatch):
    """Tabling cos(theta/2), sin(theta/2) and e^(i phi) per angle moves no bit of any state."""
    monkeypatch.setattr(oracle_module, "_STACK_BYTES", budget)
    stacks = list(oracle_module._bloch_grid(grid))
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    # row order: the first pole, every azimuth of each inner polar angle, the last pole
    theta = np.concatenate([thetas[:1], np.repeat(thetas[1:-1], grid), thetas[-1:]])
    phi = np.concatenate([phis[:1], np.tile(phis, grid - 2), phis[:1]])
    want = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
    assert np.concatenate(stacks).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "problems, grid",
    [
        ([_identity_vs_depolarizing(), _perfect_family_problem()], 200),  # acceptance criterion 9
        ([random_qubit_problem(np.random.default_rng(62 + i)) for i in range(20)], 60),
    ],
    ids=["criterion-9", "random"],
)
def test_qubit_grid_in_closed_form_gives_the_eigvalsh_value(problems, grid, monkeypatch):
    closed = [brute_force_unentangled(prob, grid) for prob in problems]
    monkeypatch.setattr(oracle_module, "_trace_norms", _eigvalsh_norms)
    for prob, value in zip(problems, closed):
        assert abs(value - brute_force_unentangled(prob, grid)) <= 1e-14


def test_entangled_memory_is_flat_in_the_sample_count():
    """20,000 qutrit samples; stepping past their Haar draws in a single piece peaked at 3.4 MB."""
    prob = _weyl_problem(3, np.random.default_rng(42))
    brute_force_entangled(prob, 1)  # first-call allocations are not the oracle's working set
    tracemalloc.start()
    try:
        brute_force_entangled(prob, 20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("d, grid, bound", [(3, 40, 2_000_000), (4, 30, 1_200_000)])
def test_unentangled_memory_is_flat_in_the_state_count(d, grid, bound):
    """64,000 qutrit and 27,000 ququart states of a Weyl pair evaluated in stacks; holding the
    64,000 qutrit states all at once took over 10 MB."""
    prob = _weyl_problem(d, np.random.default_rng(41))
    brute_force_unentangled(prob, 2)  # first-call allocations are not the oracle's working set
    tracemalloc.start()
    try:
        brute_force_unentangled(prob, grid, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("problem", ["weyl", "unitary"])
def test_ququart_entangled_memory_stays_under_a_32_state_weyl_stack(problem):
    """2,000 samples at d = 4, for a Weyl pair (32 K x I) and a unitary pair (2).

    32-state stacks peaked at 0.98 MB on the Weyl pair. A budget on the K v
    products alone let the unitary pair's D x D differences take 3.4 MB.
    """
    if problem == "weyl":
        prob = _weyl_problem(4, np.random.default_rng(43))
    else:
        u, _ = np.linalg.qr(np.random.default_rng(43).standard_normal((4, 4)) + 0j)
        prob = DiscriminationProblem(make_operation([np.eye(4)]), make_operation([u]), 0.4)
    brute_force_entangled(prob, 1)  # first-call allocations are not the oracle's working set
    tracemalloc.start()
    try:
        brute_force_entangled(prob, 2_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_200_000


# --- the import rule ---

def _package_imports(module) -> set[str]:
    """The opdisc modules that any import in `module`'s source names, at call time and under an `if` too.

    A bare `import opdisc`, which loads every module, shows as "opdisc".
    """
    names = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "opdisc")
            names += [f"{base}.{alias.name}" for alias in node.names] if base == "opdisc" else [base]
    return {name.split(".")[1] if "." in name else name for name in names if name.split(".")[0] == "opdisc"}


def _code_words(module) -> list[str]:
    """Every name, attribute, argument and string constant in `module`'s source; docstrings and comments left out."""
    tree = ast.parse(Path(module.__file__).read_text())
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0].value) for n in ast.walk(tree) if isinstance(n, documented) and ast.get_docstring(n)}
    words = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words.append(node.value)
        for field in ("id", "attr", "name", "asname", "arg", "module"):
            if isinstance(word := getattr(node, field, None), str):
                words.append(word)
    return words


def _delta_names(module) -> set[str]:
    """Which of the library's routes to Delta and the see-saw's arrays `module`'s code names."""
    names = {"_delta", "_seesaw", "delta_operator"}
    return {name for name in names if any(name in word for word in _code_words(module))}


def test_the_oracle_and_the_library_never_import_each_other():
    """The oracle shares only the value types and input checks; discrimination never reaches it. Outside
    its docstrings the oracle names none of the library's routes to Delta, which discrimination does."""
    assert _package_imports(oracle_module) <= {"channels", "config", "errors", "linalg"}
    assert "oracle" not in _package_imports(discrimination)
    assert _delta_names(oracle_module) == set()
    assert _delta_names(discrimination) == {"_delta", "_seesaw", "delta_operator"}
