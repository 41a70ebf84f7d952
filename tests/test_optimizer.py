"""Tests for the multi-start see-saw maximizer and its start parameterizations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdisc
from opdisc import (
    DimensionMismatch,
    DiscriminationProblem,
    OptimizerFailure,
    biket_to_mat,
    is_hermitian,
    mat_to_biket,
    pauli_channel,
    pe_unentangled,
)
from opdisc import optimizer
from opdisc.discrimination import _seesaw_step, _state_seed_points, _unentangled_starts
from opdisc.optimizer import decode_p, decode_pure_state, maximize

from helpers import random_kraus_operation, random_qubit_problem

seeds = st.integers(min_value=0, max_value=10**6)


# --- parameterizations ---

def test_decode_p_rank_one():
    np.testing.assert_allclose(decode_p([1, 0, 0, 0], 2), np.diag([1.0, 0.0]), atol=0)


def test_decode_p_identity_direction():
    # ones on the diagonal slots encode L = I, so P = I/sqrt(d)
    np.testing.assert_allclose(decode_p([1, 1, 0, 0], 2), np.eye(2) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(
        decode_p([1, 1, 1, 0, 0, 0, 0, 0, 0], 3), np.eye(3) / np.sqrt(3), atol=1e-15
    )


def test_decode_p_zero_theta_falls_back_to_mixed():
    np.testing.assert_allclose(decode_p(np.zeros(4), 2), np.eye(2) / np.sqrt(2), atol=0)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_decode_p_always_feasible(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    p = decode_p(rng.uniform(-2, 2, size=d * d), d)
    assert is_hermitian(p)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    assert abs(np.trace(p @ p).real - 1.0) < 1e-14


def test_decode_p_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        decode_p(np.zeros(5), 2)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_decode_pure_state_normalized_with_fixed_phase(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    v = decode_pure_state(rng.uniform(-2, 2, size=2 * d), d)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    lead = next(amp for amp in v if amp != 0)
    assert abs(lead.imag) < 1e-14 and lead.real >= 0


def test_decode_pure_state_zero_theta():
    np.testing.assert_allclose(decode_pure_state(np.zeros(4), 2), [1.0, 0.0], atol=0)


def test_decode_pure_state_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        decode_pure_state(np.zeros(3), 2)


def _decode_one_row(theta, d):
    """The one-row decoder as it was before it took stacks: the reference for bit-identity."""
    v = theta[:d] + 1j * theta[d:]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(1, d, dtype=complex)[0]
    v = v / norm
    for amp in v:
        if amp != 0:
            return v * (amp.conjugate() / abs(amp))
    return v


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_decode_pure_state_stack_matches_row_by_row_bit_for_bit(d):
    thetas = np.random.default_rng(d).uniform(-1.0, 1.0, size=(40, 2 * d))
    thetas[3] = 0.0  # decodes to |0>
    for lead in range(1, d):  # leading amplitudes exactly 0: the phase comes from amplitude `lead`
        thetas[4 + lead, :lead] = thetas[4 + lead, d:d + lead] = 0.0
    thetas[20, :d] = 0.0  # a purely imaginary row
    stacked = decode_pure_state(thetas, d)
    assert stacked.shape == (40, d)
    for theta, row in zip(thetas, stacked):
        one = decode_pure_state(theta, d)
        assert one.tobytes() == row.tobytes()
        assert _decode_one_row(theta, d).tobytes() == row.tobytes()
    assert stacked[3].tobytes() == np.eye(1, d, dtype=complex).tobytes()
    for lead in range(1, d):
        amp = stacked[4 + lead, lead]
        assert np.all(stacked[4 + lead, :lead] == 0) and abs(amp.imag) < 1e-15 and amp.real > 0


# --- maximize ---

def _halving(x):
    # ascent step for -|x|^2: halve the input
    return -np.sum(x * x, axis=1), x / 2


def _uniform(rows, n, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, n))


def _unit_rows(rows, n, seed):
    z = np.random.default_rng(seed).standard_normal((rows, n, 2)) @ [1.0, 1j]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def test_maximize_concave_bowl():
    res = maximize(_halving, _uniform(4, 3))
    assert abs(res.value) < 1e-8
    assert np.max(np.abs(res.argmax)) < 1e-3
    assert res.summary.converged
    assert len(res.summary.start_values) == 4
    assert res.summary.n_evaluations > 0


def test_maximize_prefers_seed_point_on_tie():
    target = np.array([0.3, -0.7])

    def toward_target(x):
        return -np.sum((x - target) ** 2, axis=1), (x + target) / 2

    res = maximize(toward_target, np.vstack([target, _uniform(3, 2)]))
    assert res.summary.best_start == 0
    assert abs(res.value) < 1e-12

    # integer start rows move to, and report, non-integer inputs
    res = maximize(toward_target, np.array([[3, 5]]))
    assert abs(res.value) < 1e-12
    assert np.allclose(res.argmax, target)


def test_maximize_reports_seed_start_when_a_later_one_edges_ahead_by_rounding(monkeypatch):
    """A later, unconverged start one ulp above the seed start must not be reported."""
    monkeypatch.setattr(optimizer, "MAX_STEPS", 2)
    best = 1 / 18

    def step(x):
        # column 0 marks random starts, column 1 counts steps; the seed start
        # sits at `best` from its first step, random starts end one ulp above
        # it after a jump too large to count as converged
        values = np.where(x[:, 0] == 0, best, np.where(x[:, 1] == 0, best - 1, best + 1.1e-16))
        return values, x + [0, 1]

    res = maximize(step, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    assert max(res.summary.start_values) > best
    assert res.summary.best_start == 0
    assert res.value == best
    assert res.summary.converged


def test_maximize_raises_when_every_start_fails():
    with pytest.raises(OptimizerFailure):
        maximize(lambda x: (np.full(len(x), np.nan), x), np.zeros((3, 2)))


def test_maximize_records_partial_failures():
    # the first start sits in the broken region; the others never get there
    def broken_far_out(x):
        values, moved = _halving(x)
        return np.where(np.max(np.abs(x), axis=1) >= 2.0, np.nan, values), moved

    res = maximize(broken_far_out, np.vstack([[5.0, 5.0], _uniform(5, 2, seed=1)]))
    assert res.summary.failed_starts == (0,)
    assert abs(res.value) < 1e-8


def test_maximize_halving_reaches_0_within_one_cycle(monkeypatch):
    """halving is linear, so the first extrapolated point, the third input evaluated, is its fixed point."""
    monkeypatch.setattr(optimizer, "MAX_STEPS", 3)
    res = maximize(_halving, _uniform(4, 3))
    assert res.value == 0.0
    assert not np.any(res.argmax)


def test_maximize_goes_on_from_x2_when_the_extrapolated_point_fails():
    def halving_undefined_at_0(x):
        values, moved = _halving(x)
        return np.where(np.any(x, axis=1), values, np.nan), moved

    res = maximize(halving_undefined_at_0, np.array([[1.0, -2.0]]))
    # every extrapolated point is 0, where the step fails, so only plain steps move the start
    assert res.summary.failed_starts == ()
    assert res.summary.converged
    assert -1e-11 < res.value < 0.0
    assert res.value == -float(np.sum(res.argmax**2))


def test_maximize_caps_steps_at_max_iters(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_STEPS", 2)
    res = maximize(_halving, _uniform(3, 2))
    assert res.summary.n_evaluations == 6
    assert not res.summary.converged
    # the reported value is the value of the reported input
    assert res.value == -float(np.sum(res.argmax**2))


# --- the two discrimination see-saw steps on the known worked example ---

def _identity_vs_depolarizing(p1=0.5):
    return DiscriminationProblem(
        pauli_channel([1, 0, 0, 0]), pauli_channel([0.25] * 4), p1
    )


def test_maximize_entangled_objective_worked_example():
    """Identity vs depolarizing: the ancilla objective peaks at 0.75, at the maximally entangled input."""
    phi = mat_to_biket(np.eye(2)) / np.sqrt(2)
    res = maximize(_seesaw_step(_identity_vs_depolarizing(), ancilla=2), np.vstack([phi, _unit_rows(7, 4, 1)]))
    assert abs(res.value - 0.75) < 1e-8
    assert abs(abs(np.vdot(phi, res.argmax)) - 1.0) < 1e-6


def test_maximize_unentangled_objective_worked_example():
    res = maximize(_seesaw_step(_identity_vs_depolarizing(), ancilla=1), _unit_rows(8, 2, 2))
    assert abs(res.value - 0.5) < 1e-8


def test_seesaw_step_is_scale_free_and_phase_aligned():
    step = _seesaw_step(random_qubit_problem(np.random.default_rng(12)), ancilla=2)
    x = _unit_rows(6, 4, 4)
    values, moved = step(x)
    scaled_values, scaled_moved = step(3.0 * np.exp(0.7j) * x)
    np.testing.assert_allclose(scaled_values, values, rtol=1e-12)
    # each next input is turned so that <x, x'> is real and nonnegative
    for rows, out in ((x, moved), (3.0 * np.exp(0.7j) * x, scaled_moved)):
        overlap = np.sum(rows.conj() * out, axis=1)
        assert np.all(overlap.real > 0) and np.max(np.abs(overlap.imag)) < 1e-12


def test_a_rank_one_seed_stays_a_product_input():
    """The sign operator is 0 on the output's kernel, so a product input steps to a product input.

    With rounding signs there, this rank-4 vs rank-1 qudit pair's rank-one seed
    climbed to the entangled optimum 0.9683308.
    """
    rng = np.random.default_rng(2)
    prob = DiscriminationProblem(random_kraus_operation(4, 4, rng), random_kraus_operation(4, 1, rng), 0.516)
    product = np.eye(1, 16, dtype=complex)  # |00>
    res = maximize(_seesaw_step(prob, ancilla=4), product)
    schmidt = np.linalg.svd(biket_to_mat(res.argmax / np.linalg.norm(res.argmax), 4), compute_uv=False)
    assert schmidt[1] <= 1e-12
    assert abs(res.value - 0.9668471213) < 1e-9


def test_maximize_start_trajectories_ignore_num_starts():
    prob = random_qubit_problem(np.random.default_rng(11))

    # pe_entangled runs only its two starts, |phi+> and |00>, so drive its step directly
    seeds = np.stack([mat_to_biket(np.eye(2)) / np.sqrt(2), np.eye(1, 4, dtype=complex)[0]])
    starts = np.vstack([seeds, _unit_rows(8, 4, 3)])
    step = _seesaw_step(prob, ancilla=2)
    assert maximize(step, starts[:4]).summary.start_values == maximize(step, starts).summary.start_values[:4]

    few = pe_unentangled(prob, num_starts=4).diagnostics.start_values
    many = pe_unentangled(prob, num_starts=12).diagnostics.start_values
    assert few == many[:4]


# --- pe_unentangled's starts ---

@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_unentangled_start_stack_matches_one_generator_per_start(d, seed):
    """The one re-keyed Philox draws exactly what Generator(Philox(key=(seed << 64) + i)) draws.

    A change to numpy's Philox state format, which the re-keying writes, fails here.
    """
    seeds = _state_seed_points(d)
    for num_starts in (1, 3, 32, 40):
        thetas = seeds[:num_starts] + [
            np.random.Generator(np.random.Philox(key=(seed << 64) + i)).uniform(-1.0, 1.0, 2 * d)
            for i in range(len(seeds), num_starts)
        ]
        old = np.stack([_decode_one_row(theta, d) for theta in thetas])
        new = _unentangled_starts(d, num_starts, seed)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_pe_unentangled_is_deterministic():
    rng = np.random.default_rng(5)
    prob = DiscriminationProblem(random_kraus_operation(3, 2, rng), random_kraus_operation(3, 3, rng), 0.4)
    a = pe_unentangled(prob, num_starts=6, seed=3)
    b = pe_unentangled(prob, num_starts=6, seed=3)
    assert a.pe_unentangled == b.pe_unentangled
    assert np.array_equal(a.optimal_pure_input, b.optimal_pure_input)
    assert a.diagnostics == b.diagnostics
    # the seed moves only the random starts, which follow the 2 qutrit seed states
    other = pe_unentangled(prob, num_starts=6, seed=4).diagnostics.start_values
    assert other[:2] == a.diagnostics.start_values[:2] and other[2:] != a.diagnostics.start_values[2:]


def test_pe_unentangled_monotone_in_starts():
    prob = random_qubit_problem(np.random.default_rng(9))
    errors = [pe_unentangled(prob, num_starts=k, seed=9).pe_unentangled for k in (1, 2, 4, 8)]
    assert all(errors[i + 1] <= errors[i] + 1e-15 for i in range(len(errors) - 1))


def test_pe_unentangled_validates_num_starts_and_seed():
    prob = _identity_vs_depolarizing()
    with pytest.raises(ValueError, match="num_starts must be at least 1"):
        pe_unentangled(prob, num_starts=0)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        pe_unentangled(prob, seed=-1)
    # the per-start generator's key is (seed << 64) + start index
    with pytest.raises(ValueError, match="seed must be below 2\\*\\*64"):
        pe_unentangled(prob, seed=2**64)
    assert pe_unentangled(prob, num_starts=np.int64(3), seed=2**64 - 1).diagnostics.n_starts == 3


def test_pe_unentangled_validates_num_starts_when_the_prior_decides():
    prob = _identity_vs_depolarizing(p1=0.0)
    assert pe_unentangled(prob).pe_unentangled == 0.0
    with pytest.raises(ValueError, match="num_starts must be at least 1, got 0"):
        pe_unentangled(prob, num_starts=0)


def test_import_loads_no_scipy():
    src = str(Path(opdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, opdisc; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
