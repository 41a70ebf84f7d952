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
    apply_extended,
    bound_max_entangled,
    brute_force_entangled,
    brute_force_unentangled,
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
    unnormalized_choi,
    weyl_channel,
    weyl_unitaries,
)
from opdisc import discrimination
from opdisc.config import ORTHOGONALITY_TOL
from opdisc.linalg import dagger
from opdisc.optimizer import decode_p, maximize

from helpers import (
    haar_unitary,
    partial_trace,
    probe_problem,
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
        pytest.param(
            pe_entangled, ((KRAUS_ID, KRAUS_ID, 0.5),), "prob must be a DiscriminationProblem, got tuple",
            id="pe_entangled-tuple",
        ),
        pytest.param(
            pe_unentangled, (None,), "prob must be a DiscriminationProblem, got NoneType", id="pe_unentangled-None",
        ),
        pytest.param(
            # the .as_operation() hint is for a QuantumOperation argument only
            pe_unentangled, (WEYL_ID,), "prob must be a DiscriminationProblem, got RandomUnitaryChannel",
            id="pe_unentangled-random-unitary",
        ),
        pytest.param(
            bound_max_entangled, (KRAUS_ID,), "prob must be a DiscriminationProblem, got QuantumOperation",
            id="bound_max_entangled-kraus",
        ),
        pytest.param(
            delta_operator, (KRAUS_ID,), "prob must be a DiscriminationProblem, got QuantumOperation",
            id="delta_operator-kraus",
        ),
        pytest.param(
            brute_force_unentangled, (KRAUS_ID, 4), "prob must be a DiscriminationProblem, got QuantumOperation",
            id="brute_force_unentangled-kraus",
        ),
        pytest.param(
            brute_force_entangled, (KRAUS_ID, 4), "prob must be a DiscriminationProblem, got QuantumOperation",
            id="brute_force_entangled-kraus",
        ),
        pytest.param(
            povm_error, (KET0, KET0, 0.5, (KET0, np.eye(2) - KET0)), "povm must be a TwoOutcomePovm, got tuple",
            id="povm_error-tuple",
        ),
        pytest.param(
            unnormalized_choi, (WEYL_ID,), "op must be a QuantumOperation, got RandomUnitaryChannel" + AS_OPERATION,
            id="unnormalized_choi-random-unitary",
        ),
        pytest.param(
            unnormalized_choi, (None,), "op must be a QuantumOperation, got NoneType", id="unnormalized_choi-None",
        ),
        pytest.param(
            apply_extended, (WEYL_ID, np.eye(2) / np.sqrt(2)),
            "op must be a QuantumOperation, got RandomUnitaryChannel" + AS_OPERATION, id="apply_extended-random-unitary",
        ),
        pytest.param(
            apply_extended, ([np.eye(2)], np.eye(2) / np.sqrt(2)), "op must be a QuantumOperation, got list",
            id="apply_extended-list",
        ),
    ],
)
def test_the_wrong_channel_type_is_refused_by_name(fn, args, message):
    """Before this check each call failed later with an AttributeError.

    The missing attribute was .kraus, .dim, .unitaries, .op1, .p1 or .pi1.
    """
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
    r0, r1, r2, r3 = pauli_delta_summary(q1, q2, p1).r
    a, b, c, d = r0 + r3, r1 + r2, r0 - r3, r1 - r2
    want = np.array(
        [
            [a, 0, 0, c],
            [0, b, d, 0],
            [0, d, b, 0],
            [c, 0, 0, a],
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
    # the one start, |phi+>, is all that runs, and it certifies the optimum
    assert result.diagnostics.n_starts == 1
    # the start's cost, counted rather than timed: it stops after its first step; an upper
    # bound, since LAPACK rounding can move a trajectory
    assert result.diagnostics.n_evaluations <= 3
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
    # the one d = 4 start certifies the optimum
    assert 0.0 <= result.pe_entangled - result.lower_bound <= 1e-6
    assert result.diagnostics.n_starts == 1
    # a plain see-saw took 985 evaluations here, the extrapolated one from |phi+> takes 76;
    # an upper bound, since LAPACK rounding can move a trajectory
    assert result.diagnostics.n_evaluations <= 100


# --- pe_unentangled at d = 2: the exact Bloch-sphere solve ---

def _seesaw_256(prob):
    """The error the d >= 3 route's see-saw reaches on a qubit pair from 256 starts."""
    step = discrimination._seesaw_step(prob, ancilla=1)
    value = maximize(step, discrimination._unentangled_starts(2, 256, 0)).value
    return 0.5 * (1.0 - value)


def _replayed_error(prob, psi):
    """The error at the pure input psi, through apply_extended with a one-dimensional ancilla block."""
    xi = np.outer(psi, [1.0, 0.0])  # |xi>> = psi x |0>
    out = prob.p1 * apply_extended(prob.op1, xi) - prob.p2 * apply_extended(prob.op2, xi)
    return 0.5 * (1.0 - trace_norm(out))


def test_qubit_pe_unentangled_is_never_worse_than_a_256_start_seesaw():
    rng = np.random.default_rng(8)
    for _ in range(40):
        prob = random_qubit_problem(rng)
        result = pe_unentangled(prob)
        assert result.pe_unentangled <= _seesaw_256(prob) + 1e-10
        assert result.diagnostics is None  # no optimizer ran
        psi = result.optimal_pure_input
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
        assert abs(_replayed_error(prob, psi) - result.pe_unentangled) < 1e-12


def test_qubit_pe_unentangled_on_unitary_pairs():
    """Two unitaries leave b = 0, the hard case. The error at psi is
    1/2 (1 - sqrt(1 - 4 p1 p2 |<psi|W|psi>|^2)), W = U1^dag U2, and the least
    |<psi|W|psi>| is cos(theta / 2) for the angle theta between W's eigenvalues."""
    rng = np.random.default_rng(56)
    for _ in range(40):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        prob = DiscriminationProblem(make_operation([u1]), make_operation([u2]), float(rng.uniform(0.05, 0.95)))
        result = pe_unentangled(prob)
        e1, e2 = np.linalg.eigvals(dagger(u1) @ u2)
        overlap = abs(e1 + e2) / 2  # cos(theta / 2), the distance from 0 to the chord e1 e2
        exact = 0.5 * (1.0 - np.sqrt(1.0 - 4 * prob.p1 * prob.p2 * overlap**2))
        assert abs(result.pe_unentangled - exact) < 1e-10
        assert result.pe_unentangled <= _seesaw_256(prob) + 1e-10
        assert abs(_replayed_error(prob, result.optimal_pure_input) - result.pe_unentangled) < 1e-12


def test_qubit_pe_unentangled_equals_the_pauli_closed_form():
    rng = np.random.default_rng(57)
    for _ in range(40):
        q1, q2 = random_prob_vector(4, rng), random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.05, 0.95))
        result = pe_unentangled(DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1))
        assert abs(result.pe_unentangled - pauli_delta_summary(q1, q2, p1).pe_unentangled) < 1e-12


def _remixed(kraus, rng):
    v = haar_unitary(len(kraus), rng)
    return [sum(v[i, j] * k for j, k in enumerate(kraus)) for i in range(len(kraus))]


def _same_state(a, b):
    # the two pole formulas of the Bloch vector's state differ by a global phase where n_z is 0 to rounding
    return abs(abs(np.vdot(a, b)) - 1.0) <= 1e-12


def test_qubit_pe_unentangled_identity_vs_depolarizing_returns_ket0():
    assert np.array_equal(pe_unentangled(_identity_vs_depolarizing()).optimal_pure_input, [1.0, 0.0])


def test_qubit_optimal_input_does_not_depend_on_the_kraus_list_where_it_is_not_unique():
    """Every pair here has a circle or a pair of optimal inputs: identity vs depolarizing
    (B = I/2, b = 0), two unitaries (b = 0, a doubly degenerate top eigenvalue of B^T B)
    and Pauli pairs (b = 0, so n and -n tie). A remixed Kraus list changes R only by
    rounding, and must not change the state returned."""
    rng = np.random.default_rng(61)
    pairs = [([np.eye(2), np.zeros((2, 2))], pauli_channel(Q_DEP).kraus, 0.5)]
    for _ in range(12):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        pairs.append(([u1 / np.sqrt(2)] * 2, [u2 / np.sqrt(2)] * 2, float(rng.uniform(0.1, 0.9))))
    for _ in range(12):
        q1, q2 = random_prob_vector(4, rng), random_prob_vector(4, rng)
        pairs.append((pauli_channel(q1).kraus, pauli_channel(q2).kraus, 0.5))
    for k1, k2, p1 in pairs:
        base = pe_unentangled(DiscriminationProblem(make_operation(k1), make_operation(k2), p1))
        for _ in range(3):
            prob = DiscriminationProblem(make_operation(_remixed(k1, rng)), make_operation(_remixed(k2, rng)), p1)
            other = pe_unentangled(prob)
            assert _same_state(other.optimal_pure_input, base.optimal_pure_input)
            assert abs(other.pe_unentangled - base.pe_unentangled) <= 1e-15
            assert abs(_replayed_error(prob, other.optimal_pure_input) - other.pe_unentangled) < 1e-12


def test_sphere_argmax_picks_the_projection_of_e_z_then_e_x_onto_the_top_eigenspace():
    rot, _ = np.linalg.qr(np.random.default_rng(62).standard_normal((3, 3)))
    g0 = np.zeros(3)
    # g = 0 and A = 0: every n ties, and e_z is chosen
    assert np.array_equal(discrimination._sphere_argmax(np.zeros((3, 3)), g0), [0.0, 0.0, 1.0])
    # g = 0 and a one-dimensional top eigenspace: n and -n tie, and the one on the side
    # of e_z is chosen, else of e_x where the top eigenvector is orthogonal to e_z, else of e_y
    for top, expect in (
        ([0.0, 1.0, -1.0], [0.0, -1.0, 1.0]),
        ([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]),
        ([0.0, -1.0, 0.0], [0.0, 1.0, 0.0]),
    ):
        u = np.array(top) / np.linalg.norm(top)
        a = np.outer(u, u) + 0.25 * np.eye(3)
        expect = np.array(expect) / np.linalg.norm(expect)
        np.testing.assert_allclose(discrimination._sphere_argmax(a, g0), expect, atol=1e-15)
    # a doubly degenerate top eigenspace in a random frame: the projection of e_z onto it
    a = (rot * [0.1, 0.7, 0.7]) @ rot.T
    plane = rot[:, 1:] @ rot[:, 1:].T
    expect = plane[:, 2] / np.linalg.norm(plane[:, 2])
    np.testing.assert_allclose(discrimination._sphere_argmax(a, g0), expect, atol=1e-12)
    # off the tie the maximizer is unique and g picks its sign
    n = discrimination._sphere_argmax(a, -1e-3 * rot[:, 1])
    np.testing.assert_allclose(n, -rot[:, 1], atol=1e-12)


def test_the_qubit_route_reads_delta_once_and_calls_no_eigvalsh(monkeypatch):
    """A count, not a time. The transfer matrix was built from both Kraus lists, and the value took one eigvalsh."""
    prob = random_qubit_problem(np.random.default_rng(58))
    calls = {"delta_operator": 0, "eigvalsh": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(discrimination, "delta_operator", counting("delta_operator", discrimination.delta_operator))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    pe_unentangled(prob)
    assert calls == {"delta_operator": 1, "eigvalsh": 0}


def test_qubit_pe_unentangled_is_the_actual_output_norm_when_trace_preserving_only_to_input_tol():
    """Kraus operators scaled by 1 + 4e-10 pass the completeness check with Tr E(rho) = 1 + 8e-10.
    Where the trace term wins (depolarizing at p1 = 0.9 vs identity) it is p1 (1 + 8e-10) - p2, not p1 - p2."""
    scale = 1.0 + 4e-10
    rng = np.random.default_rng(59)
    problems = [random_qubit_problem(rng) for _ in range(20)]
    problems.append(DiscriminationProblem(pauli_channel(Q_DEP), pauli_channel(Q_ID), 0.9))
    for prob in problems:
        loose = DiscriminationProblem(make_operation([scale * k for k in prob.op1.kraus]), prob.op2, prob.p1)
        result = pe_unentangled(loose)
        assert abs(_replayed_error(loose, result.optimal_pure_input) - result.pe_unentangled) < 1e-12
    assert abs(result.pe_unentangled - 0.5 * (1.0 - (0.9 * scale**2 - 0.1))) < 1e-15


def _rng7_problem(index):
    """Problem `index` of random_qubit_problem drawn in sequence from default_rng(7)."""
    rng = np.random.default_rng(7)
    for _ in range(index):
        random_qubit_problem(rng)
    return random_qubit_problem(rng)


def test_pe_unentangled_steps_off_the_sign_definite_plateau():
    """32 see-saw starts returned min(p1, p2) = 0.1065102630 with converged True;
    brute_force_unentangled at grid 200 gives 0.0994877."""
    assert pe_unentangled(_rng7_problem(118)).pe_unentangled <= 0.0995


def test_pe_unentangled_escapes_a_local_maximum():
    """32 see-saw starts returned 0.0736907887; pe_entangled gives 0.0714411167, reached
    by a product input, and brute_force_unentangled at grid 200 gives 0.0714504."""
    assert pe_unentangled(_rng7_problem(197)).pe_unentangled <= 0.07146


# --- pe_unentangled at d >= 3: known misses of the multi-start see-saw ---

def _rng103_problem(index):
    """Qutrit pair `index` drawn in sequence from default_rng(103): two random Kraus lists, then p1."""
    rng = np.random.default_rng(103)
    for _ in range(index + 1):
        op1 = random_kraus_operation(3, int(rng.integers(1, 10)), rng)
        op2 = random_kraus_operation(3, int(rng.integers(1, 10)), rng)
        p1 = float(rng.uniform(0.05, 0.95))
    return DiscriminationProblem(op1, op2, p1)


@pytest.mark.parametrize(
    "problem, optimum",
    [
        # the default call returns 0.0917300809
        pytest.param(lambda: _rng103_problem(3), 0.0718138008, id="plateau",
                     marks=pytest.mark.xfail(strict=True, reason="the 32 default starts stop on a plateau")),
        # the default call returns 0.1218085316
        pytest.param(lambda: _rng103_problem(59), 0.1016681516, id="local-maximum",
                     marks=pytest.mark.xfail(strict=True, reason="the 32 default starts stop at a local maximum")),
        # d = 4: the default call returns 0.1314400802, converged, after 243 evaluations
        pytest.param(lambda: probe_problem(4, 4), 0.1276749620, id="d4-local-maximum",
                     marks=pytest.mark.xfail(strict=True, reason="the 32 default starts stop at a local maximum")),
    ],
)
def test_qutrit_pe_unentangled_reaches_the_512_start_optimum(problem, optimum):
    assert pe_unentangled(problem()).pe_unentangled <= optimum + 1e-9


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


def _former_dual_lower_bound(prob, sigma):
    """The certificate as it was written with np.kron, two eigvalsh calls and partial_trace."""
    d, eps = prob.op1.dim, discrimination._CERTIFICATE_EPS
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
    return max(0.0, 0.5 * (1.0 - (2.0 * float(lmax) - (prob.p1 - prob.p2))))


def _certificate_problems():
    for d in (2, 3, 4):
        rng = np.random.default_rng(90 + d)
        for _ in range(4):
            yield DiscriminationProblem(
                random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
                random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng),
                float(rng.uniform(0.1, 0.9)),
            ), rng
    # the benchmark's d = 4 rank 4 vs 1 pair, whose nearly singular sigma makes the bound sensitive to rounding
    rng = np.random.default_rng(2)
    yield DiscriminationProblem(random_kraus_operation(4, 4, rng), random_kraus_operation(4, 1, rng), 0.516), rng


def test_the_certificate_equals_the_former_kron_formula_bit_for_bit():
    for prob, rng in _certificate_problems():
        result = pe_entangled(prob)
        p = result.optimal_xi.T
        d = prob.op1.dim
        for sigma in (p @ p, random_density(d, rng), np.diag([1.0] + [0.0] * (d - 1))):
            assert discrimination._dual_lower_bound(prob, sigma) == _former_dual_lower_bound(prob, sigma)
        assert result.lower_bound == min(_former_dual_lower_bound(prob, p @ p), result.pe_entangled)


def test_pe_entangled_calls_no_kron_and_one_stacked_eigvalsh_for_z_and_z_minus_delta(monkeypatch):
    prob, _ = next(_certificate_problems())
    d = prob.op1.dim
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np, "kron", lambda *args: pytest.fail("np.kron called"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
    pe_entangled(prob)
    # Z and Z - Delta in one call, then Tr_0 Z
    assert shapes == [(2, d * d, d * d), (d, d)]


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
    assert seeded.diagnostics.n_starts == 1 and seeded.diagnostics.converged
    monkeypatch.setattr(discrimination, "CERTIFIED_GAP", -1.0)
    calls, maximize = [], discrimination.maximize
    monkeypatch.setattr(
        discrimination, "maximize", lambda step, starts: calls.append(starts.shape) or maximize(step, starts)
    )
    missed = pe_entangled(prob)
    # a missed target is reported, not chased with more starts: one stack of the one start
    assert calls == [(1, 4)]
    assert missed.diagnostics.n_starts == 1
    assert missed.pe_entangled == seeded.pe_entangled
    assert missed.lower_bound == seeded.lower_bound
    assert not missed.diagnostics.converged


@pytest.mark.parametrize("d", range(1, 9))
def test_pe_entangled_starts_are_the_former_decode_p_seeds_byte_for_byte(d, monkeypatch):
    """|phi+>, written directly, is the row that mat_to_biket(decode_p(theta, d).T) gave."""
    theta = np.concatenate([np.ones(d), np.zeros(d * d - d)])
    former = mat_to_biket(decode_p(theta, d).T)[None, :]
    seen = []

    def record(step, starts):
        seen.append(starts)
        raise OptimizerFailure("recorded")

    monkeypatch.setattr(discrimination, "maximize", record)
    identity = make_operation([np.eye(d)])
    with pytest.raises(OptimizerFailure, match="recorded"):
        pe_entangled(DiscriminationProblem(identity, identity, 0.5))
    assert seen[0].dtype == former.dtype and seen[0].shape == former.shape == (1, d * d)
    assert seen[0].tobytes() == former.tobytes()


def test_pe_entangled_matches_the_former_qubit_axis_seeds():
    """Starting from |0><0|, |+><+| and |+i><+i| as well never beats pe_entangled's one start.

    The value is concave in the input's reduced state, so I/sqrt(2) reaches the
    entangled optimum, also where a product input is optimal.
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
    # only the one d = 3 start ran
    assert result.diagnostics.n_starts == 1
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
                tilted = [*us[:-1], us[-1] @ twist]
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
    with pytest.raises(FamilyMismatch, match="differ at index 1$"):
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
    """Delta's singular values are 2|r_i|, and they sum to ||Delta||_1."""
    rng = np.random.default_rng(57)
    for _ in range(5):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        s = pauli_delta_summary(q1, q2, p1)
        delta = delta_operator(DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1))
        singular = np.linalg.svd(delta, compute_uv=False)
        np.testing.assert_allclose(np.sort(singular), np.sort(2.0 * np.abs(s.r)), atol=1e-14)
        assert abs(np.sum(singular) - trace_norm(delta)) < 1e-12


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


def _former_pauli_summary(r):
    """pauli_delta_summary as it was, from r = p1 q1 - p2 q2 taken as an array expression."""
    r0, r1, r2, r3 = r
    product = r0 * r1 * r2 * r3
    candidates = (abs(r0 + r3) + abs(r1 + r2), abs(r0 + r1) + abs(r2 + r3), abs(r0 + r2) + abs(r1 + r3))
    best = 0
    for i in (1, 2):
        if candidates[i] > candidates[best]:
            best = i
    return discrimination.PauliDiscriminationSummary(
        r=(r0, r1, r2, r3),
        det_sign=(product > 0) - (product < 0),
        m=candidates[best],
        pe_entangled=max(0.0, 0.5 * (1.0 - (abs(r0) + abs(r1) + abs(r2) + abs(r3)))),
        pe_unentangled=max(0.0, 0.5 * (1.0 - candidates[best])),
        optimal_unentangled_axis=("z", "x", "y")[best],
        entanglement_needed=product < 0,
    )


def _pauli_weights(rng, n):
    """n weight vectors, each random, tied, one-hot or uniform."""
    one_hot = np.eye(4)[rng.integers(4, size=n)]
    tied = rng.integers(0, 3, size=(n, 4)) + one_hot
    kinds = np.stack(
        [rng.dirichlet(np.ones(4), size=n), tied / tied.sum(axis=1, keepdims=True), one_hot, np.full((n, 4), 0.25)]
    )
    return kinds[rng.integers(4, size=n), np.arange(n)]


def test_pauli_summary_on_python_floats_matches_the_former_numpy_route():
    """20,000 inputs: random, tied, one-hot and uniform weights, p1 in {0, 0.5, 1, random}."""
    rng = np.random.default_rng(70)
    n = 20_000
    q1, q2 = _pauli_weights(rng, n), _pauli_weights(rng, n)
    p1 = np.where(rng.integers(4, size=n) < 3, rng.choice([0.0, 0.5, 1.0], size=n), rng.uniform(size=n))
    # the former p1 * q1 - (1.0 - p1) * q2, one row at a time: elementwise, the same IEEE operations
    r = (p1[:, None] * q1 - (1.0 - p1)[:, None] * q2).tolist()
    for a, b, p, former in zip(q1, q2, p1.tolist(), r):
        assert repr(pauli_delta_summary(a, b, p)) == repr(_former_pauli_summary(former))


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
        "partial_trace",
    }
    assert not removed & set(opdisc.__all__)
    assert not any(hasattr(opdisc, name) for name in removed)
    # the search and its decoders live in opdisc.optimizer, where the benchmark's tracer patches them
    moved = ("maximize", "MaximizeResult", "decode_p", "decode_pure_state")
    assert all(hasattr(opdisc.optimizer, name) for name in moved)
    assert len(opdisc.__all__) == 46
