"""Tests for Kraus-form operations and the built-in channel families."""

import numpy as np
import pytest

from opdisc import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidProbabilityVector,
    InvalidState,
    NonSquare,
    PAULI_MATRICES,
    RandomUnitaryChannel,
    UnsupportedDimension,
    apply_extended,
    make_operation,
    pauli_channel,
    unnormalized_choi,
    weyl_channel,
    weyl_unitaries,
)
from opdisc.channels import check_density_matrix, check_probability_vector
from opdisc.linalg import dagger, mat_to_biket

from helpers import (
    haar_unitary,
    partial_trace,
    random_density,
    random_kraus_operation,
    random_prob_vector,
    random_pure_state,
)

SI, SX, SY, SZ = PAULI_MATRICES

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# --- make_operation ---

def test_make_operation_identity():
    op = make_operation([np.eye(2)])
    assert op.dim == 2
    assert len(op.kraus) == 1


def test_make_operation_two_kraus():
    op = make_operation([SX / np.sqrt(2), SY / np.sqrt(2)])
    assert op.dim == 2


def test_make_operation_rejects_incomplete():
    # sum K^dag K = 2I here
    with pytest.raises(CompletenessViolation):
        make_operation([np.eye(2), SX])


def test_make_operation_rejects_empty_and_bad_shapes():
    with pytest.raises(CompletenessViolation):
        make_operation([])
    with pytest.raises(NonSquare):
        make_operation([np.zeros((2, 3))])
    with pytest.raises(DimensionMismatch):
        make_operation([np.eye(2), np.eye(3)])


# --- pauli_channel ---

def test_pauli_identity_channel():
    op = pauli_channel([1, 0, 0, 0])
    assert len(op.kraus) == 1
    np.testing.assert_allclose(op.kraus[0], np.eye(2), atol=0)


def test_pauli_uniform_is_four_kraus():
    op = pauli_channel([0.25, 0.25, 0.25, 0.25])
    assert len(op.kraus) == 4


def test_pauli_zero_weights_dropped():
    op = pauli_channel([0, 1 / 3, 1 / 3, 1 / 3])
    assert len(op.kraus) == 3
    for k, sigma in zip(op.kraus, (SX, SY, SZ)):
        np.testing.assert_allclose(k, sigma / np.sqrt(3), atol=1e-15)


def test_pauli_rejects_bad_weights():
    with pytest.raises(InvalidProbabilityVector):
        pauli_channel([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InvalidProbabilityVector):
        pauli_channel([0.3, 0.3, 0.3, 0.3])


def test_empty_weights_are_an_invalid_probability_vector():
    with pytest.raises(InvalidProbabilityVector, match="sum to 0.0"):
        check_probability_vector([])
    with pytest.raises(InvalidProbabilityVector, match="sum to 0.0"):
        RandomUnitaryChannel(dim=2, unitaries=(np.eye(2),), weights=[])


def test_pauli_matches_direct_formula():
    """Generic Kraus application reproduces sum q_a sigma_a rho sigma_a."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        q = random_prob_vector(4, rng)
        rho = random_density(2, rng)
        direct = sum(w * s @ rho @ s for w, s in zip(q, PAULI_MATRICES))
        got = apply(pauli_channel(q), rho)
        assert np.max(np.abs(got - direct)) < 1e-12


# --- Weyl family ---

def test_weyl_d2_is_pauli_up_to_phase():
    u = weyl_unitaries(2)
    np.testing.assert_allclose(u[0], SI, atol=0)
    np.testing.assert_allclose(u[1], SZ, atol=0)
    np.testing.assert_allclose(u[2], SX, atol=0)
    np.testing.assert_allclose(u[3], -1j * SY, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_orthogonality(d):
    family = weyl_unitaries(d)
    assert len(family) == d * d
    for m, um in enumerate(family):
        for n, un in enumerate(family):
            want = d if m == n else 0.0
            assert abs(np.trace(dagger(um) @ un) - want) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_completeness(d):
    family = weyl_unitaries(d)
    total = sum(u @ dagger(u) for u in family) / (d * d)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-12)


def _weyl_by_loop(d):
    """The shift-phase unitaries one entry at a time: U[a*d + b][(k + a) % d, k] = w^(k b)."""
    omega = np.exp(2j * np.pi / d)
    family = []
    for a in range(d):
        for b in range(d):
            u = np.zeros((d, d), dtype=complex)
            for k in range(d):
                u[(k + a) % d, k] = omega ** (k * b)
            family.append(u)
    return family


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weyl_unitaries_match_the_entry_loop_byte_for_byte(d):
    family = weyl_unitaries(d)
    assert len(family) == d * d
    for u, want in zip(family, _weyl_by_loop(d)):
        assert u.shape == (d, d) and u.dtype == want.dtype and u.tobytes() == want.tobytes()


def test_weyl_rejects_dimension_below_two():
    with pytest.raises(UnsupportedDimension):
        weyl_unitaries(1)


def test_weyl_uniform_qutrit_depolarizes():
    ch = weyl_channel(3, np.full(9, 1.0 / 9.0)).as_operation()
    rng = np.random.default_rng(22)
    for _ in range(5):
        psi = random_pure_state(3, rng)
        out = apply(ch, np.outer(psi, psi.conj()))
        assert np.max(np.abs(out - np.eye(3) / 3)) < 1e-9


def test_weyl_channel_rejects_wrong_weight_count():
    with pytest.raises(InvalidProbabilityVector):
        weyl_channel(3, np.full(8, 1.0 / 8.0))


# --- RandomUnitaryChannel ---

def test_random_unitary_channel_keeps_zero_weights():
    ch = RandomUnitaryChannel(dim=2, unitaries=(SI, SX), weights=np.array([1.0, 0.0]))
    assert ch.weights.size == 2
    # the Kraus form still drops the dead unitary
    assert len(ch.as_operation().kraus) == 1


def test_random_unitary_channel_rejects_non_unitary():
    with pytest.raises(InvalidState):
        RandomUnitaryChannel(dim=2, unitaries=(2.0 * np.eye(2),), weights=np.array([1.0]))


def test_random_unitary_channel_rejects_count_mismatch():
    with pytest.raises(DimensionMismatch):
        RandomUnitaryChannel(dim=2, unitaries=(SI, SX), weights=np.array([1.0]))


def test_operations_hold_read_only_copies_of_the_callers_arrays():
    """make_operation([k]).kraus[0] was k itself: after k[:] = 5 the operation held a map
    that never passed the completeness check. A write into PAULI_MATRICES would have
    changed every later pauli_channel."""
    k = SX.copy()
    unitaries = [u.copy() for u in weyl_unitaries(2)]
    weights = np.array([0.7, 0.1, 0.1, 0.1])
    given = [k.copy(), *(u.copy() for u in unitaries), weights.copy()]
    op = make_operation([k])
    ch = RandomUnitaryChannel(2, unitaries, weights)
    k[:] = 5
    for u in unitaries:
        u[:] = 5
    weights[:] = 5
    held = [*op.kraus, *ch.unitaries, ch.weights]
    for a, b in zip(held, given):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a in held + list(ch.as_operation().kraus):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # each list is one complex (n, d, d) array
    for a, n in ((op.kraus, 1), (ch.unitaries, 4), (ch.as_operation().kraus, 4), (PAULI_MATRICES, 4)):
        assert a.shape == (n, 2, 2) and a.dtype == complex and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        PAULI_MATRICES[1] = 0
    np.testing.assert_array_equal(pauli_channel([0, 1, 0, 0]).kraus, [[[0, 1], [1, 0]]])


# --- the channel action, read off the Choi-type operator ---

def apply(op, rho):
    """E(rho) = Tr_2[(I x rho^T) sum |K>><<K|]: the action through the library's Choi route."""
    d = op.dim
    return partial_trace(np.kron(np.eye(d), rho.T) @ unnormalized_choi(op), (d, d), 1)


def test_apply_identity_channel():
    rng = np.random.default_rng(23)
    rho = random_density(2, rng)
    np.testing.assert_allclose(apply(make_operation([np.eye(2)]), rho), rho, atol=0)


def test_apply_depolarizing_sends_pure_to_mixed():
    out = apply(pauli_channel([0.25] * 4), KET0)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)


def test_apply_bit_flip():
    out = apply(pauli_channel([0, 1, 0, 0]), KET0)
    np.testing.assert_allclose(out, KET1, atol=0)


def test_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(24)
    for d in (2, 3):
        for _ in range(5):
            op = random_kraus_operation(d, int(rng.integers(1, 4)), rng)
            out = apply(op, random_density(d, rng))
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.max(np.abs(out - dagger(out))) < 1e-10


def test_check_density_matrix_rejects_invalid_states():
    with pytest.raises(InvalidState):
        check_density_matrix(np.eye(2), 2)   # trace 2
    with pytest.raises(InvalidState):
        check_density_matrix(np.diag([1.5, -0.5]), 2)   # negative eigenvalue
    with pytest.raises(InvalidState):  # |Tr - 1| = 1.1e-9, though Re and Im are each 8e-10 off
        check_density_matrix(np.diag([0.5 + 4e-10 + 4e-10j] * 2), 2)
    with pytest.raises(DimensionMismatch):
        check_density_matrix(np.eye(3) / 3, 2)


# --- apply_extended ---

def test_extended_identity_gives_maximally_entangled():
    op = make_operation([np.eye(2)])
    out = apply_extended(op, np.eye(2) / np.sqrt(2))
    phi = mat_to_biket(np.eye(2)) / np.sqrt(2)
    np.testing.assert_allclose(out, np.outer(phi, phi.conj()), atol=1e-14)


def test_extended_depolarizing_flattens_everything():
    out = apply_extended(pauli_channel([0.25] * 4), np.eye(2) / np.sqrt(2))
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-14)


def test_extended_rank_one_input_factorizes():
    """A product input must come out as E(|a><a|) x |b><b|."""
    rng = np.random.default_rng(25)
    for d in (2, 3):
        op = random_kraus_operation(d, 2, rng)
        a = random_pure_state(d, rng)
        b = random_pure_state(d, rng)
        xi = np.outer(a, b)
        got = apply_extended(op, xi)
        want = np.kron(apply(op, np.outer(a, a.conj())), np.outer(b, b.conj()))
        assert np.max(np.abs(got - want)) < 1e-12


def test_extended_matches_explicit_kraus_route():
    # same map computed as sum (K x I) |xi>><<xi| (K x I)^dag
    rng = np.random.default_rng(26)
    for d in (2, 3):
        for _ in range(5):
            op = random_kraus_operation(d, int(rng.integers(1, 4)), rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            xi = g / np.sqrt(np.trace(dagger(g) @ g).real)
            vec = mat_to_biket(xi)
            rho = np.outer(vec, vec.conj())
            eye = np.eye(d)
            direct = sum(np.kron(k, eye) @ rho @ dagger(np.kron(k, eye)) for k in op.kraus)
            assert np.max(np.abs(apply_extended(op, xi) - direct)) < 1e-10
            assert abs(np.trace(apply_extended(op, xi)).real - 1.0) < 1e-10


def test_extended_rejects_unnormalized_input():
    op = make_operation([np.eye(2)])
    with pytest.raises(InvalidState):
        apply_extended(op, np.eye(2))
    with pytest.raises(DimensionMismatch):
        apply_extended(op, np.eye(3) / np.sqrt(3))


# --- Choi-type operator ---

def test_choi_of_identity_is_biket_projector():
    ket = mat_to_biket(np.eye(2))
    np.testing.assert_allclose(
        unnormalized_choi(make_operation([np.eye(2)])), np.outer(ket, ket.conj()), atol=0
    )


def test_choi_invariant_under_kraus_remixing():
    """Unitarily remixed Kraus lists describe the same map, so the same operator."""
    rng = np.random.default_rng(27)
    for d, n in ((2, 3), (3, 2)):
        op = random_kraus_operation(d, n, rng)
        v = haar_unitary(n, rng)
        remixed = make_operation(
            [sum(v[i, j] * op.kraus[j] for j in range(n)) for i in range(n)]
        )
        assert np.max(np.abs(unnormalized_choi(op) - unnormalized_choi(remixed))) < 1e-12
