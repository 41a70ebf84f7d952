"""Tests for the discrimination quantities: Helstrom, Delta, closed forms, bounds."""

import re

import numpy as np
import pytest

import opdisc
from opdisc import (
    DimensionMismatch,
    DiscriminationProblem,
    FamilyMismatch,
    InvalidProbabilityVector,
    InvalidState,
    NotOrthogonal,
    OptimizerFailure,
    PAULI_MATRICES,
    RandomUnitaryChannel,
    bound_max_entangled,
    delta_operator,
    helstrom,
    is_orthogonal_unitary_family,
    make_operation,
    mat_to_biket,
    pauli_channel,
    pauli_delta_summary,
    pe_entangled,
    pe_random_unitary_bounds,
    pe_random_unitary_exact,
    pe_unentangled,
    povm_error,
    trace_norm,
    weyl_channel,
    weyl_unitaries,
)
from opdisc import discrimination
from opdisc.config import ORTHOGONALITY_TOL
from opdisc.linalg import dagger
from opdisc.optimizer import decode_p

from helpers import (
    haar_unitary,
    random_density,
    random_kraus_operation,
    random_prob_vector,
    random_qubit_problem,
)

SI, SX, SY, SZ = PAULI_MATRICES
KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

# pe_unentangled's module-level searches keep the full seeded-start block
FAST = 8

Q_ID = [1, 0, 0, 0]
Q_DEP = [0.25, 0.25, 0.25, 0.25]
Q_XYZ = [0, 1 / 3, 1 / 3, 1 / 3]


def _identity_vs_depolarizing(p1=0.5):
    return DiscriminationProblem(pauli_channel(Q_ID), pauli_channel(Q_DEP), p1)


def _bell_vectors():
    # the double kets of the Pauli matrices, normalized
    return [mat_to_biket(s) / np.sqrt(2) for s in PAULI_MATRICES]


# --- helstrom ---

def test_helstrom_identical_states():
    rng = np.random.default_rng(51)
    rho = random_density(2, rng)
    pe, _ = helstrom(rho, rho, 0.3)
    assert abs(pe - 0.3) < 1e-14


def test_helstrom_orthogonal_states():
    pe, _ = helstrom(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
    assert abs(pe) < 1e-14


def test_helstrom_zero_versus_plus():
    pe, povm = helstrom(KET0, PLUS, 0.5)
    assert abs(pe - 0.5 * (1.0 - 1.0 / np.sqrt(2.0))) < 1e-14
    # the returned projectors achieve the bound and are idempotent
    assert abs(povm_error(KET0, PLUS, 0.5, povm) - pe) < 1e-12
    for pi in (povm.pi1, povm.pi2):
        assert np.max(np.abs(pi @ pi - pi)) < 1e-12


def test_helstrom_zero_eigenspace_goes_to_outcome_one():
    rho = np.eye(2) / 2
    pe, povm = helstrom(rho, rho, 0.5)
    assert abs(pe - 0.5) < 1e-14
    np.testing.assert_allclose(povm.pi1, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(povm.pi2, np.zeros((2, 2)), atol=1e-12)


def test_helstrom_rejects_bad_inputs():
    with pytest.raises(InvalidState):
        helstrom(np.eye(2), KET0, 0.5)
    with pytest.raises(DimensionMismatch):
        helstrom(KET0, np.eye(3) / 3, 0.5)
    with pytest.raises(ValueError):
        helstrom(KET0, PLUS, -0.2)


# --- DiscriminationProblem ---

def test_problem_validates_dimensions_and_prior():
    id2 = make_operation([np.eye(2)])
    id3 = make_operation([np.eye(3)])
    with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
        DiscriminationProblem(id2, id3, 0.5)
    with pytest.raises(ValueError):
        DiscriminationProblem(id2, id2, 1.2)
    assert DiscriminationProblem(id2, id2, 0.3).p2 == 0.7


KRAUS_ID, WEYL_ID = pauli_channel(Q_ID), weyl_channel(2, Q_ID)
AS_OPERATION = "; convert it with .as_operation()"


@pytest.mark.parametrize(
    "fn, args, message",
    [
        pytest.param(
            DiscriminationProblem, (WEYL_ID, KRAUS_ID, 0.5),
            "op1 must be a QuantumOperation, got RandomUnitaryChannel" + AS_OPERATION, id="problem-op1-random-unitary",
        ),
        pytest.param(
            DiscriminationProblem, (KRAUS_ID, WEYL_ID, 0.5),
            "op2 must be a QuantumOperation, got RandomUnitaryChannel" + AS_OPERATION, id="problem-op2-random-unitary",
        ),
        pytest.param(
            DiscriminationProblem, ([np.eye(2)], KRAUS_ID, 0.5),
            "op1 must be a QuantumOperation, got list", id="problem-op1-list",
        ),
        pytest.param(
            pe_random_unitary_exact, (KRAUS_ID, WEYL_ID, 0.5),
            "ch1 must be a RandomUnitaryChannel, got QuantumOperation", id="exact-ch1",
        ),
        pytest.param(
            pe_random_unitary_exact, (WEYL_ID, KRAUS_ID, 0.5),
            "ch2 must be a RandomUnitaryChannel, got QuantumOperation", id="exact-ch2",
        ),
        pytest.param(
            pe_random_unitary_bounds, (KRAUS_ID, WEYL_ID, 0.5),
            "ch1 must be a RandomUnitaryChannel, got QuantumOperation", id="bounds-ch1",
        ),
        pytest.param(
            pe_random_unitary_bounds, (WEYL_ID, np.eye(2), 0.5),
            "ch2 must be a RandomUnitaryChannel, got ndarray", id="bounds-ch2-array",
        ),
        pytest.param(
            is_orthogonal_unitary_family, (KRAUS_ID,),
            "channel must be a RandomUnitaryChannel, got QuantumOperation", id="orthogonality-kraus",
        ),
    ],
)
def test_the_wrong_channel_type_is_refused_by_name(fn, args, message):
    """Before this check each call failed later with an AttributeError on .kraus, .dim or .unitaries."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        fn(*args)


# --- delta_operator ---

def test_delta_vanishes_for_identical_kraus_lists():
    op = pauli_channel(Q_DEP)
    delta = delta_operator(DiscriminationProblem(op, op, 0.5))
    assert np.max(np.abs(delta)) == 0.0


def test_delta_bell_eigenvalues_worked_example():
    """Identity vs depolarizing: eigenvalues 2r on the Bell vectors, trace norm 3/2."""
    delta = delta_operator(_identity_vs_depolarizing())
    r = (3 / 8, -1 / 8, -1 / 8, -1 / 8)
    for r_a, bell in zip(r, _bell_vectors()):
        np.testing.assert_allclose(delta @ bell, 2.0 * r_a * bell, atol=1e-12)
    assert abs(trace_norm(delta) - 1.5) < 1e-12


def test_delta_matches_pauli_block_form():
    rng = np.random.default_rng(52)
    q1 = random_prob_vector(4, rng)
    q2 = random_prob_vector(4, rng)
    p1 = float(rng.uniform(0.1, 0.9))
    s = pauli_delta_summary(q1, q2, p1)
    want = np.array(
        [
            [s.a, 0, 0, s.c],
            [0, s.b, s.d, 0],
            [0, s.d, s.b, 0],
            [s.c, 0, 0, s.a],
        ],
        dtype=complex,
    )
    prob = DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1)
    assert np.max(np.abs(delta_operator(prob) - want)) < 1e-12


def test_delta_is_hermitian_and_representation_independent():
    rng = np.random.default_rng(53)
    prob = random_qubit_problem(rng)
    delta = delta_operator(prob)
    assert np.max(np.abs(delta - delta.conj().T)) < 1e-10
    # remixing a Kraus list leaves the operator untouched
    n = len(prob.op1.kraus)
    v = haar_unitary(n, rng)
    remixed = make_operation([sum(v[i, j] * prob.op1.kraus[j] for j in range(n)) for i in range(n)])
    delta2 = delta_operator(DiscriminationProblem(remixed, prob.op2, prob.p1))
    assert np.max(np.abs(delta - delta2)) < 1e-12


# --- bound_max_entangled ---

def test_bound_worked_example():
    assert abs(bound_max_entangled(_identity_vs_depolarizing()) - 0.125) < 1e-12


def test_bound_identical_channels():
    op = pauli_channel(Q_ID)
    assert abs(bound_max_entangled(DiscriminationProblem(op, op, 0.5)) - 0.5) < 1e-14


def test_bound_phase_flip_vs_identity():
    prob = DiscriminationProblem(pauli_channel([0, 0, 0, 1]), pauli_channel(Q_ID), 0.5)
    assert abs(bound_max_entangled(prob)) < 1e-14


def test_bound_dominates_numeric_value():
    rng = np.random.default_rng(54)
    for _ in range(3):
        prob = random_qubit_problem(rng)
        assert pe_entangled(prob).pe_entangled <= bound_max_entangled(prob) + 1e-12


# --- numeric error probabilities ---

def test_pe_entangled_worked_example():
    result = pe_entangled(_identity_vs_depolarizing())
    assert abs(result.pe_entangled - 0.125) < 1e-9
    # the optimum sits at the maximally entangled input, xi = I/sqrt(2)
    assert np.max(np.abs(result.optimal_xi - np.eye(2) / np.sqrt(2))) < 1e-3
    # the two seed starts are all that run, and they certify the optimum
    assert result.diagnostics.n_starts == 2
    # the start stack's cost, counted rather than timed: each start stops after its first step
    assert result.diagnostics.n_evaluations == 4
    assert 0.0 <= result.pe_entangled - result.lower_bound < 1e-12


def test_pe_unentangled_worked_example():
    result = pe_unentangled(_identity_vs_depolarizing(), num_starts=FAST)
    assert abs(result.pe_unentangled - 0.25) < 1e-9
    assert abs(np.linalg.norm(result.optimal_pure_input) - 1.0) < 1e-12


def test_pe_identical_channels():
    op = pauli_channel(Q_DEP)
    prob = DiscriminationProblem(op, op, 0.3)
    assert abs(pe_entangled(prob).pe_entangled - 0.3) < 1e-9
    assert abs(pe_unentangled(prob, num_starts=FAST).pe_unentangled - 0.3) < 1e-9


def test_pe_perfect_discrimination_family():
    prob = DiscriminationProblem(pauli_channel(Q_XYZ), pauli_channel(Q_ID), 0.5)
    assert pe_entangled(prob).pe_entangled < 1e-9
    assert abs(pe_unentangled(prob, num_starts=FAST).pe_unentangled - 1 / 6) < 1e-9


def test_pe_degenerate_priors_short_circuit():
    prob = _identity_vs_depolarizing(p1=1.0)
    res_e = pe_entangled(prob)
    res_u = pe_unentangled(prob)
    assert res_e.pe_entangled == 0.0 and res_u.pe_unentangled == 0.0
    assert res_e.lower_bound == 0.0
    assert res_e.diagnostics is None   # no search ran


def test_entanglement_needed_numeric():
    """Entanglement helps where pe_unentangled - pe_entangled exceeds 1e-7."""

    def gain(prob):
        return pe_unentangled(prob, num_starts=FAST).pe_unentangled - pe_entangled(prob).pe_entangled

    rng = np.random.default_rng(55)
    u_pair = DiscriminationProblem(
        make_operation([haar_unitary(2, rng)]),
        make_operation([haar_unitary(2, rng)]),
        0.5,
    )
    assert not gain(u_pair) > 1e-7
    assert gain(_identity_vs_depolarizing()) > 1e-7
    op = pauli_channel(Q_DEP)
    assert not gain(DiscriminationProblem(op, op, 0.4)) > 1e-7


def test_pe_entangled_reaches_the_optimum_on_a_rank_4_vs_1_qudit_pair():
    """A simplex search stopped at 0.0158488 on this pair; the optimum is 0.0158346014."""
    rng = np.random.default_rng(2)
    op1 = random_kraus_operation(4, 4, rng)
    op2 = random_kraus_operation(4, 1, rng)
    result = pe_entangled(DiscriminationProblem(op1, op2, 0.516))
    assert result.pe_entangled <= 0.015835
    # the reported input is rotated so that xi^T = P >= 0
    p = result.optimal_xi.T
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(p)) > -1e-12
    # the two d = 4 seed starts certify the optimum
    assert 0.0 <= result.pe_entangled - result.lower_bound <= 1e-6
    assert result.diagnostics.n_starts == 2
    # a plain see-saw took 985 evaluations here; the extrapolated one takes 144
    assert result.diagnostics.n_evaluations <= 200


# --- known misses of pe_unentangled (ROADMAP item 1) ---

ITEM_1 = "ROADMAP item 1: the see-saw stops on a sign-definite plateau or at a local maximum"


def _rng7_problem(index):
    """Problem `index` of random_qubit_problem drawn in sequence from default_rng(7)."""
    rng = np.random.default_rng(7)
    for _ in range(index):
        random_qubit_problem(rng)
    return random_qubit_problem(rng)


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_pe_unentangled_steps_off_the_sign_definite_plateau():
    """The default call returns min(p1, p2) = 0.1065102630 with converged True;
    brute_force_unentangled at grid 200 gives 0.0994877."""
    assert pe_unentangled(_rng7_problem(118)).pe_unentangled <= 0.0995


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_pe_unentangled_escapes_a_local_maximum():
    """The default call returns 0.0736907887; pe_entangled gives 0.0714411167, reached
    by a product input, and brute_force_unentangled at grid 200 gives 0.0714504."""
    assert pe_unentangled(_rng7_problem(197)).pe_unentangled <= 0.07146


# --- the dual certificate of pe_entangled ---

@pytest.mark.parametrize("d", [2, 3, 4])
def test_pe_entangled_lower_bound_never_exceeds_its_value(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(3):
        prob = DiscriminationProblem(
            random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
            random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
            float(rng.uniform(0.1, 0.9)),
        )
        result = pe_entangled(prob)
        assert result.lower_bound <= result.pe_entangled
        # the dual bound is valid on any reduced state, not only the optimal one
        p = result.optimal_xi.T
        for sigma in (p @ p, random_density(d, rng), np.diag([1.0] + [0.0] * (d - 1))):
            assert discrimination._dual_lower_bound(prob, sigma) <= result.pe_entangled + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_pe_entangled_bracket_is_exact_on_weyl_pairs(d):
    """The maximally entangled seed is optimal for an orthogonal family, and its certificate is Delta_+."""
    rng = np.random.default_rng(60 + d)
    q1, q2 = random_prob_vector(d * d, rng), random_prob_vector(d * d, rng)
    ch1, ch2 = weyl_channel(d, q1), weyl_channel(d, q2)
    result = pe_entangled(DiscriminationProblem(ch1.as_operation(), ch2.as_operation(), 0.4))
    exact = pe_random_unitary_exact(ch1, ch2, 0.4)
    assert abs(result.pe_entangled - exact) <= 1e-12
    assert 0.0 <= result.pe_entangled - result.lower_bound <= 1e-12


def test_pe_entangled_runs_only_its_seed_starts_when_the_seeds_do_not_certify(monkeypatch):
    prob = random_qubit_problem(np.random.default_rng(7))
    seeded = pe_entangled(prob)
    assert seeded.diagnostics.n_starts == 2 and seeded.diagnostics.converged
    monkeypatch.setattr(discrimination, "CERTIFIED_GAP", -1.0)
    calls, maximize = [], discrimination.maximize
    monkeypatch.setattr(
        discrimination, "maximize", lambda step, starts: calls.append(starts.shape) or maximize(step, starts)
    )
    missed = pe_entangled(prob)
    # a missed target is reported, not chased with more starts: one stack of the 2 seed inputs
    assert calls == [(2, 4)]
    assert missed.diagnostics.n_starts == 2
    assert missed.pe_entangled == seeded.pe_entangled
    assert missed.lower_bound == seeded.lower_bound
    assert not missed.diagnostics.converged


@pytest.mark.parametrize("d", range(1, 9))
def test_pe_entangled_starts_are_the_former_decode_p_seeds_byte_for_byte(d, monkeypatch):
    """|phi+> and |00>, written directly, are the rows that mat_to_biket(decode_p(theta, d).T) gave."""
    thetas = [np.concatenate([np.ones(d), np.zeros(d * d - d)]), np.eye(1, d * d)[0]]
    former = np.stack([mat_to_biket(decode_p(theta, d).T) for theta in thetas])
    seen = []

    def record(step, starts):
        seen.append(starts)
        raise OptimizerFailure("recorded")

    monkeypatch.setattr(discrimination, "maximize", record)
    identity = make_operation([np.eye(d)])
    with pytest.raises(OptimizerFailure, match="recorded"):
        pe_entangled(DiscriminationProblem(identity, identity, 0.5))
    assert seen[0].dtype == former.dtype and seen[0].shape == former.shape == (2, d * d)
    assert seen[0].tobytes() == former.tobytes()


def test_pe_entangled_matches_the_former_qubit_axis_seeds():
    """Starting from |+><+| and |+i><+i| as well never beats pe_entangled's two starts.

    The value is concave in the input's reduced state: I/sqrt(2) reaches the
    entangled optimum and |0><0| covers optima at product inputs.
    """
    plus_i = np.array([[1, -1j], [1j, 1]]) / 2
    seeds = np.stack([mat_to_biket(p.T) for p in (np.eye(2) / np.sqrt(2), KET0, PLUS, plus_i)])
    rng = np.random.default_rng(5)
    probs = [random_qubit_problem(rng) for _ in range(20)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        q1, q2 = random_prob_vector(4, rng), random_prob_vector(4, rng)
        probs.append(DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), float(rng.uniform(0.05, 0.95))))
    for prob in probs:
        four = discrimination.maximize(discrimination._seesaw_step(prob, ancilla=2), seeds)
        assert 0.5 * (1.0 - four.value) >= pe_entangled(prob).pe_entangled - 1e-11


def test_pe_entangled_reports_an_uncertified_bracket_as_not_converged():
    """On this qutrit pair the best input is a product state, where the dual bound stays loose."""
    rng = np.random.default_rng(44)
    op1 = random_kraus_operation(3, int(rng.integers(1, 10)), rng)
    op2 = random_kraus_operation(3, int(rng.integers(1, 10)), rng)
    prob = DiscriminationProblem(op1, op2, 0.5)
    result = pe_entangled(prob)
    assert result.pe_entangled - result.lower_bound > discrimination.CERTIFIED_GAP
    assert result.lower_bound <= result.pe_entangled
    assert not result.diagnostics.converged
    # only the two d = 3 seed starts ran
    assert result.diagnostics.n_starts == 2
    # the value 32 starts reach
    assert abs(result.pe_entangled - 0.0512620103588) <= 1e-10
    # a product input is optimal: the value is the unentangled one
    assert abs(result.pe_entangled - pe_unentangled(prob).pe_unentangled) <= 1e-9


# --- random-unitary closed forms ---

def test_orthogonality_detection():
    assert is_orthogonal_unitary_family(weyl_channel(2, Q_ID))
    assert is_orthogonal_unitary_family(weyl_channel(3, [1.0] + [0.0] * 8))
    skew = (np.eye(2) + 1j * SX) / np.sqrt(2)
    pair = RandomUnitaryChannel(dim=2, unitaries=(SI, skew), weights=np.array([0.5, 0.5]))
    assert not is_orthogonal_unitary_family(pair)
    single = RandomUnitaryChannel(dim=2, unitaries=(skew,), weights=np.array([1.0]))
    assert is_orthogonal_unitary_family(single)


def _orthogonal_by_loop(channel):
    """Reference: every pair's Tr[U_m^dag U_n] against d delta_mn, one trace at a time."""
    us, d = channel.unitaries, channel.dim
    return all(
        abs(complex(np.trace(dagger(us[m]) @ us[n])) - (d if m == n else 0.0)) <= ORTHOGONALITY_TOL
        for m in range(len(us))
        for n in range(m, len(us))
    )


def test_orthogonality_gram_test_matches_the_pairwise_loop():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        family = weyl_unitaries(d)
        v, w = haar_unitary(d, rng), haar_unitary(d, rng)
        shift = family[d]  # X, the cyclic shift
        h_vals, h_vecs = np.linalg.eigh((shift + dagger(shift)) / 2)
        for us in (family, tuple(v @ u @ w for u in family)):  # a rotated family stays orthogonal
            for angle, orthogonal in ((0.0, True), (1e-12, True), (1e-6, False), (0.3, False)):
                # turn the last unitary by exp(i angle H) towards the others
                twist = (h_vecs * np.exp(1j * angle * h_vals)) @ dagger(h_vecs)
                tilted = us[:-1] + (us[-1] @ twist,)
                ch = RandomUnitaryChannel(dim=d, unitaries=tilted, weights=np.full(d * d, 1.0 / (d * d)))
                assert is_orthogonal_unitary_family(ch) == _orthogonal_by_loop(ch) == orthogonal

def test_exact_qutrit_worked_example():
    ch_id = weyl_channel(3, [1.0] + [0.0] * 8)
    ch_dep = weyl_channel(3, np.full(9, 1.0 / 9.0))
    assert abs(pe_random_unitary_exact(ch_id, ch_dep, 0.5) - 1 / 18) < 1e-12


def test_exact_equal_weights():
    w = np.array([0.2, 0.3, 0.4, 0.1])
    ch = weyl_channel(2, w)
    assert abs(pe_random_unitary_exact(ch, weyl_channel(2, w), 0.37) - 0.37) < 1e-14


def test_exact_identity_vs_phase_flip():
    ch1 = weyl_channel(2, [1, 0, 0, 0])
    ch2 = weyl_channel(2, [0, 1, 0, 0])   # the second Weyl unitary is sigma_z
    assert pe_random_unitary_exact(ch1, ch2, 0.5) == 0.0


def test_exact_rejects_family_mismatch_and_non_orthogonal():
    ch1 = RandomUnitaryChannel(dim=2, unitaries=(SI, SX), weights=np.array([0.5, 0.5]))
    ch2 = RandomUnitaryChannel(dim=2, unitaries=(SI, SZ), weights=np.array([0.5, 0.5]))
    with pytest.raises(FamilyMismatch):
        pe_random_unitary_exact(ch1, ch2, 0.5)
    skew = (np.eye(2) + 1j * SX) / np.sqrt(2)
    ch3 = RandomUnitaryChannel(dim=2, unitaries=(SI, skew), weights=np.array([0.5, 0.5]))
    ch4 = RandomUnitaryChannel(dim=2, unitaries=(SI, skew), weights=np.array([0.2, 0.8]))
    with pytest.raises(NotOrthogonal):
        pe_random_unitary_exact(ch3, ch4, 0.5)
    lower, upper = pe_random_unitary_bounds(ch3, ch4, 0.5)   # bounds skip orthogonality
    assert lower <= upper + 1e-9
    with pytest.raises(FamilyMismatch):
        pe_random_unitary_bounds(ch1, ch2, 0.5)


def test_bounds_collapse_for_orthogonal_family():
    rng = np.random.default_rng(56)
    ch1 = weyl_channel(2, random_prob_vector(4, rng))
    ch2 = weyl_channel(2, random_prob_vector(4, rng))
    p1 = 0.41
    lower, upper = pe_random_unitary_bounds(ch1, ch2, p1)
    exact = pe_random_unitary_exact(ch1, ch2, p1)
    assert abs(lower - exact) < 1e-12
    assert abs(upper - exact) < 1e-12


def test_bounds_identical_channels():
    ch = weyl_channel(2, [0.7, 0.1, 0.1, 0.1])
    lower, upper = pe_random_unitary_bounds(ch, ch, 0.25)
    assert abs(lower - 0.25) < 1e-14
    assert abs(upper - 0.25) < 1e-14


def test_bounds_sandwich_numeric_value():
    # non-orthogonal pair {I, exp(i theta sigma_z)}
    theta = 0.9
    v = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    unis = (np.eye(2, dtype=complex), v)
    ch1 = RandomUnitaryChannel(dim=2, unitaries=unis, weights=np.array([0.8, 0.2]))
    ch2 = RandomUnitaryChannel(dim=2, unitaries=unis, weights=np.array([0.3, 0.7]))
    lower, upper = pe_random_unitary_bounds(ch1, ch2, 0.45)
    prob = DiscriminationProblem(ch1.as_operation(), ch2.as_operation(), 0.45)
    pe = pe_entangled(prob).pe_entangled
    assert lower - 1e-9 <= pe <= upper + 1e-9


# --- Pauli closed forms ---

def test_pauli_summary_worked_example():
    s = pauli_delta_summary(Q_ID, Q_DEP, 0.5)
    np.testing.assert_allclose(s.r, (3 / 8, -1 / 8, -1 / 8, -1 / 8), atol=1e-15)
    assert abs(s.pe_entangled - 0.125) < 1e-15
    assert abs(s.m - 0.5) < 1e-15
    assert abs(s.pe_unentangled - 0.25) < 1e-15
    assert s.det_sign == -1
    assert s.entanglement_needed
    assert s.optimal_unentangled_axis == "z"   # three-way tie breaks to z


def test_pauli_summary_perfect_discrimination():
    s = pauli_delta_summary(Q_XYZ, Q_ID, 0.5)
    assert abs(s.pe_entangled) < 1e-12
    assert abs(s.pe_unentangled - 1 / 6) < 1e-12
    assert s.entanglement_needed


def test_pauli_summary_two_positive_two_negative():
    s = pauli_delta_summary([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], 0.5)
    np.testing.assert_allclose(s.r, (0.25, 0.25, -0.25, -0.25), atol=1e-15)
    assert s.det_sign == 1
    assert abs(s.m - 1.0) < 1e-15
    assert s.pe_entangled == s.pe_unentangled == 0.0
    assert not s.entanglement_needed
    assert s.optimal_unentangled_axis == "x"


def test_pauli_summary_y_axis_wins():
    s = pauli_delta_summary([0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], 0.5)
    assert s.optimal_unentangled_axis == "y"
    assert abs(s.m - 1.0) < 1e-15


def test_pauli_singular_values_match_delta():
    rng = np.random.default_rng(57)
    for _ in range(5):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        s = pauli_delta_summary(q1, q2, p1)
        np.testing.assert_allclose(
            sorted(s.singular_values), sorted(2.0 * np.abs(s.r)), atol=1e-14
        )
        prob = DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1)
        assert abs(sum(s.singular_values) - trace_norm(delta_operator(prob))) < 1e-12


def test_pauli_delta_is_bell_diagonal():
    rng = np.random.default_rng(58)
    bells = _bell_vectors()
    for _ in range(5):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        s = pauli_delta_summary(q1, q2, p1)
        delta = delta_operator(DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1))
        for r_a, bell in zip(s.r, bells):
            np.testing.assert_allclose(delta @ bell, 2.0 * r_a * bell, atol=1e-10)


def test_pauli_summary_random_invariants():
    rng = np.random.default_rng(59)
    for _ in range(200):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        s = pauli_delta_summary(q1, q2, p1)
        cap = min(p1, 1.0 - p1)
        assert -1e-15 <= s.pe_entangled <= s.pe_unentangled + 1e-15
        assert s.pe_unentangled <= cap + 1e-12
        gap = s.pe_unentangled - s.pe_entangled
        assert s.entanglement_needed == (s.det_sign == -1) == (gap > 1e-9)


def test_pauli_closed_forms_match_numeric():
    rng = np.random.default_rng(60)
    for _ in range(3):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.1, 0.9))
        prob = DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1)
        s = pauli_delta_summary(q1, q2, p1)
        assert abs(pe_entangled(prob).pe_entangled - s.pe_entangled) < 1e-6
        assert abs(pe_unentangled(prob, num_starts=FAST).pe_unentangled - s.pe_unentangled) < 1e-6


def test_pauli_summary_rejects_bad_inputs():
    with pytest.raises(InvalidProbabilityVector):
        pauli_delta_summary([0.5, 0.5, 0.5, -0.5], Q_ID, 0.5)
    with pytest.raises(ValueError):
        pauli_delta_summary(Q_ID, Q_ID, 1.5)


# --- cross-cutting numeric invariants (small samples; the acceptance suite
# --- runs the full-size versions) ---

def test_ordering_chain_random_problems():
    rng = np.random.default_rng(61)
    for _ in range(5):
        prob = random_qubit_problem(rng)
        ent = pe_entangled(prob).pe_entangled
        unent = pe_unentangled(prob, num_starts=6).pe_unentangled
        assert 0.0 <= ent <= unent + 1e-9
        assert unent <= min(prob.p1, prob.p2) + 1e-9


def test_swapping_hypotheses_changes_nothing():
    rng = np.random.default_rng(42)
    for _ in range(3):
        prob = random_qubit_problem(rng)
        swapped = DiscriminationProblem(prob.op2, prob.op1, prob.p2)
        assert abs(
            pe_entangled(prob).pe_entangled - pe_entangled(swapped).pe_entangled
        ) < 1e-9
        assert abs(
            pe_unentangled(prob, num_starts=FAST).pe_unentangled
            - pe_unentangled(swapped, num_starts=FAST).pe_unentangled
        ) < 1e-9


def test_conjugation_covariance():
    """Fixed unitaries before and after both channels leave the errors alone."""
    rng = np.random.default_rng(41)
    for _ in range(3):
        prob = random_qubit_problem(rng)
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        conj = DiscriminationProblem(
            make_operation([u @ k @ v for k in prob.op1.kraus]),
            make_operation([u @ k @ v for k in prob.op2.kraus]),
            prob.p1,
        )
        assert abs(
            pe_entangled(prob).pe_entangled - pe_entangled(conj).pe_entangled
        ) < 1e-7
        assert abs(
            pe_unentangled(prob, num_starts=FAST).pe_unentangled
            - pe_unentangled(conj, num_starts=FAST).pe_unentangled
        ) < 1e-7


# --- the public surface ---

def test_public_names_resolve_once_and_omit_the_removed_wrappers():
    assert len(opdisc.__all__) == len(set(opdisc.__all__))
    assert all(hasattr(opdisc, name) for name in opdisc.__all__)
    removed = {
        "maximize",
        "MaximizeResult",
        "decode_p",
        "decode_pure_state",
        "pe_pauli_entangled",
        "pe_pauli_unentangled",
        "entanglement_needed_pauli",
        "entanglement_needed_numeric",
        "is_positive_semidefinite",
    }
    assert not removed & set(opdisc.__all__)
    assert not any(hasattr(opdisc, name) for name in removed)
    # the search and its decoders live in opdisc.optimizer, where the benchmark's tracer patches them
    moved = ("maximize", "MaximizeResult", "decode_p", "decode_pure_state")
    assert all(hasattr(opdisc.optimizer, name) for name in moved)
    assert len(opdisc.__all__) == 47
