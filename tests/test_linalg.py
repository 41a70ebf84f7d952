"""Tests for the dense linear algebra helpers.

Reference values tagged as derived are recomputed here by hand-rolled
oracles (characteristic polynomial, explicit index loops), so they never
depend on the code under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import (
    DimensionMismatch,
    NonHermitian,
    NonSquare,
    biket_to_mat,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    mat_to_biket,
    partial_trace,
    trace_norm,
)
from opdisc.linalg import dagger

from helpers import haar_unitary, random_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# half the gap between |0><0| and |+><+|: eigenvalues come out at +-1/(2 sqrt 2)
PROJ_DIFF = 0.5 * (np.array([[1, 0], [0, 0]]) - np.full((2, 2), 0.5)).astype(complex)
HALF_GAP = 0.35355339059327373

seeds = st.integers(min_value=0, max_value=10**6)


def eig2_by_hand(m):
    # roots of the characteristic polynomial of a 2x2 Hermitian matrix
    t = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = np.sqrt(max(t * t - 4.0 * det, 0.0))
    return (t + disc) / 2.0, (t - disc) / 2.0


def kron_by_hand(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def ptrace_by_hand(a, d1, d2, which):
    if which == 0:
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for k in range(d2):
                for i in range(d1):
                    out[j, k] += a[i * d2 + j, i * d2 + k]
        return out
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for k in range(d1):
            for j in range(d2):
                out[i, k] += a[i * d2 + j, k * d2 + j]
    return out


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    return h / np.max(np.abs(h))


# --- eig_hermitian ---

def test_eig_diagonal():
    dec = eig_hermitian(np.diag([1.0, -3.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -3.0], atol=1e-14)


def test_eig_pauli_x():
    dec = eig_hermitian(SX)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)


def test_eig_projector_difference():
    """The |0><0| vs |+><+| midpoint has eigenvalues +-1/(2 sqrt 2)."""
    hi, lo = eig2_by_hand(PROJ_DIFF)
    assert abs(hi - HALF_GAP) < 1e-15
    assert abs(lo + HALF_GAP) < 1e-15
    dec = eig_hermitian(PROJ_DIFF)
    np.testing.assert_allclose(dec.eigenvalues, [hi, lo], atol=1e-12)


def test_eig_orders_descending():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        w = eig_hermitian(random_hermitian(d, rng)).eigenvalues
        assert all(w[i] >= w[i + 1] for i in range(d - 1))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4, 6):
        a = random_hermitian(d, rng)
        dec = eig_hermitian(a)
        v = dec.eigenvectors
        rebuilt = (v * dec.eigenvalues) @ dagger(v)
        assert np.max(np.abs(rebuilt - a)) <= 1e-10
        assert np.max(np.abs(dagger(v) @ v - np.eye(d))) <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(NonSquare):
        eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(NonSquare):
        eig_hermitian(np.zeros(4))


# --- trace_norm ---

def test_trace_norm_identity():
    assert abs(trace_norm(np.eye(2)) - 2.0) < 1e-14


def test_trace_norm_diagonal():
    assert abs(trace_norm(np.diag([1.0, -3.0])) - 4.0) < 1e-14


def test_trace_norm_projector_difference():
    # sum of the hand-derived absolute eigenvalues, i.e. 1/sqrt 2
    hi, lo = eig2_by_hand(PROJ_DIFF)
    assert abs(trace_norm(PROJ_DIFF) - (abs(hi) + abs(lo))) < 1e-14
    assert abs(trace_norm(PROJ_DIFF) - np.sqrt(0.5)) < 1e-14


def test_trace_norm_rejects_non_square():
    with pytest.raises(NonSquare):
        trace_norm(np.zeros((3, 2)))


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_trace_norm_hermitian_matches_abs_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(int(rng.integers(2, 6)), rng)
    assert abs(trace_norm(a) - np.sum(np.abs(eig_hermitian(a).eigenvalues))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_trace_norm_general_matches_gram_route(seed):
    # second route: singular values as square roots of the A^dag A spectrum
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gram_eigs = np.clip(np.linalg.eigvalsh(dagger(a) @ a), 0.0, None)
    assert abs(trace_norm(a) - np.sum(np.sqrt(gram_eigs))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_trace_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = haar_unitary(d, rng)
    v = haar_unitary(d, rng)
    assert abs(trace_norm(u @ a @ v) - trace_norm(a)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seeds, st.floats(min_value=0.0, max_value=1.0))
def test_trace_norm_convexity(seed, lam):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mixed = trace_norm(lam * a + (1.0 - lam) * b)
    assert mixed <= lam * trace_norm(a) + (1.0 - lam) * trace_norm(b) + 1e-9


# --- np.kron: the first factor sits on the slow (left) index ---

def test_kron_identities():
    np.testing.assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4), atol=0)
    np.testing.assert_allclose(np.kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)


def test_kron_pauli_x_identity():
    got = np.kron(SX, np.eye(2))
    want = np.zeros((4, 4), dtype=complex)
    want[0:2, 2:4] = np.eye(2)
    want[2:4, 0:2] = np.eye(2)
    np.testing.assert_allclose(got, want, atol=0)


def test_kron_matches_index_loops():
    rng = np.random.default_rng(13)
    for sa, sb in (((2, 2), (3, 3)), ((2, 3), (3, 2)), ((1, 4), (2, 2))):
        a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
        b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
        np.testing.assert_allclose(np.kron(a, b), kron_by_hand(a, b), atol=1e-14)


# --- partial_trace ---

def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), 0), np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, (2, 2), 1), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(14)
    rho = random_density(2, rng)
    sigma = random_hermitian(3, rng)
    joint = np.kron(rho, sigma)
    np.testing.assert_allclose(
        partial_trace(joint, (2, 3), 1), rho * np.trace(sigma), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, (2, 3), 0), sigma * np.trace(rho), atol=1e-12
    )


def test_partial_trace_keeps_trace():
    rng = np.random.default_rng(15)
    rho = random_density(4, rng)
    reduced = partial_trace(rho, (2, 2), 0)
    assert abs(np.trace(reduced) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_partial_trace_matches_index_loops(seed):
    rng = np.random.default_rng(seed)
    d1 = int(rng.integers(2, 4))
    d2 = int(rng.integers(2, 4))
    n = d1 * d2
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for which in (0, 1):
        np.testing.assert_allclose(
            partial_trace(a, (d1, d2), which),
            ptrace_by_hand(a, d1, d2, which),
            atol=1e-13,
        )


def test_partial_trace_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(5), (2, 2), 0)


# --- double-ket correspondence ---

def test_biket_identity_and_pauli_x():
    np.testing.assert_allclose(mat_to_biket(np.eye(2)), [1, 0, 0, 1], atol=0)
    np.testing.assert_allclose(mat_to_biket(SX), [0, 1, 1, 0], atol=0)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_biket_round_trip(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    np.testing.assert_allclose(biket_to_mat(mat_to_biket(a), d), a, atol=0)


def test_biket_inner_product_is_hilbert_schmidt():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.vdot(mat_to_biket(a), mat_to_biket(b))
    assert abs(lhs - np.trace(dagger(a) @ b)) < 1e-12


def test_biket_tensor_identities():
    """(A x I)|I>> and (I x A^T)|I>> both give |A>>."""
    rng = np.random.default_rng(17)
    for d in (2, 3):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        eye_ket = mat_to_biket(np.eye(d))
        np.testing.assert_allclose(np.kron(a, np.eye(d)) @ eye_ket, mat_to_biket(a), atol=1e-13)
        np.testing.assert_allclose(np.kron(np.eye(d), a.T) @ eye_ket, mat_to_biket(a), atol=1e-13)


def test_biket_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        biket_to_mat(np.zeros(5), 2)


# --- predicates ---

def test_predicates_basic():
    assert is_hermitian(SZ)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_hermitian(np.zeros((2, 3)))
    assert is_unitary(SX)
    assert not is_unitary(2.0 * np.eye(2))
