"""Pins the benchmark's reference computations to values known in closed form.

    python3 -m pytest perfbench/test_reference.py
"""

import numpy as np
import pytest

import reference as ref

DIMS = (2, 3, 4)


@pytest.mark.parametrize("d", DIMS)
def test_weyl_matrices_are_orthogonal_unitaries(d):
    family = ref.weyl_matrices(d)
    assert len(family) == d * d
    gram = np.array([[np.trace(a.conj().T @ b) for b in family] for a in family])
    assert np.allclose(gram, d * np.eye(d * d), atol=1e-12)


def test_qubit_weyl_matrices_are_paulis_up_to_phase():
    i, z, x, xz = ref.weyl_matrices(2)
    for u, s in ((i, 0), (x, 1), (xz, 2), (z, 3)):
        overlap = np.trace(ref.PAULIS[s].conj().T @ u) / 2
        assert abs(abs(overlap) - 1) < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_depolarizing_kraus_sends_every_state_to_the_maximally_mixed_one(d):
    kraus = ref.depolarizing_kraus(d)
    assert np.allclose(sum(k.conj().T @ k for k in kraus), np.eye(d), atol=1e-12)
    rho = ref.random_state(d, np.random.default_rng(d))
    assert np.allclose(ref.apply_kraus(kraus, rho), np.eye(d) / d, atol=1e-12)


def test_helstrom_extremes():
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert ref.helstrom_error(zero, one, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert ref.helstrom_error(zero, zero, 0.3) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("d", DIMS)
def test_identity_vs_depolarizing_closed_forms(d):
    ident, dep = [np.eye(d, dtype=complex)], ref.depolarizing_kraus(d)
    ent, unent = ref.identity_vs_depolarizing(d)
    assert ref.max_entangled_error(ident, dep, 0.5) == pytest.approx(ent, abs=1e-12)
    assert ref.best_probe_error(ident, dep, 0.5) == pytest.approx(unent, abs=1e-12)
    # the certificate at the maximally mixed ancilla closes the bracket
    lower = ref.dual_lower_bound(ident, dep, 0.5, np.eye(d) / d)
    assert lower == pytest.approx(ent, abs=1e-9)
    assert lower <= ent + 1e-12


def test_pauli_closed_forms_for_identity_vs_depolarizing():
    q_id, q_dep = [1, 0, 0, 0], [0.25] * 4
    assert ref.weight_difference_error(q_id, q_dep, 0.5) == pytest.approx(0.125, abs=1e-15)
    assert ref.pauli_axis_errors(q_id, q_dep, 0.5) == pytest.approx([0.25] * 3, abs=1e-12)


def test_pauli_axis_errors_follow_the_bracket_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q1, q2, p1 = ref.random_weights(4, rng), ref.random_weights(4, rng), rng.uniform()
        r = p1 * q1 - (1 - p1) * q2
        brackets = (
            abs(r[0] + r[3]) + abs(r[1] + r[2]),
            abs(r[0] + r[1]) + abs(r[2] + r[3]),
            abs(r[0] + r[2]) + abs(r[1] + r[3]),
        )
        expected = [0.5 * (1 - b) for b in brackets]
        assert ref.pauli_axis_errors(q1, q2, p1) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_orthogonal_family_optimum_is_the_maximally_entangled_value(d):
    rng = np.random.default_rng(10 + d)
    q1, q2 = ref.random_weights(d * d, rng), ref.random_weights(d * d, rng)
    family = ref.weyl_matrices(d)
    k1 = [np.sqrt(w) * u for w, u in zip(q1, family)]
    k2 = [np.sqrt(w) * u for w, u in zip(q2, family)]
    exact = ref.weight_difference_error(q1, q2, 0.4)
    assert ref.max_entangled_error(k1, k2, 0.4) == pytest.approx(exact, abs=1e-12)
    assert ref.dual_lower_bound(k1, k2, 0.4, np.eye(d) / d) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("d", DIMS)
def test_dual_lower_bound_never_exceeds_an_achieved_error(d):
    rng = np.random.default_rng(20 + d)
    k1, k2 = ref.random_kraus(d, 2, rng), ref.random_kraus(d, 3, rng)
    for _ in range(5):
        xi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        xi /= np.linalg.norm(xi)
        achieved = ref.entangled_input_error(k1, k2, 0.6, xi)
        other = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sigma = other @ other.conj().T
        assert ref.dual_lower_bound(k1, k2, 0.6, sigma / np.trace(sigma).real) <= achieved + 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_remix_keeps_the_channel(d):
    rng = np.random.default_rng(30 + d)
    kraus = ref.random_kraus(d, 3, rng)
    mixed = ref.remix(kraus, ref.haar_unitary(3, rng))
    assert np.allclose(ref.choi(mixed), ref.choi(kraus), atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_explicit_extension_matches_the_choi_sandwich(d):
    rng = np.random.default_rng(40 + d)
    kraus = ref.random_kraus(d, 2, rng)
    xi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    xi /= np.linalg.norm(xi)
    left = np.kron(np.eye(d), xi.T)
    sandwich = left @ ref.choi(kraus) @ left.conj().T
    assert np.allclose(ref.apply_extended(kraus, xi.reshape(-1)), sandwich, atol=1e-12)
    marginal = ref.ancilla_marginal(xi)
    full = np.outer(xi.reshape(-1), xi.reshape(-1).conj()).reshape(d, d, d, d)
    assert np.allclose(np.einsum("ijik->jk", full), marginal, atol=1e-12)
