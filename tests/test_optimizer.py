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
    OptimizerConfig,
    OptimizerFailure,
    decode_p,
    decode_pure_state,
    mat_to_biket,
    maximize,
    pauli_channel,
    pe_unentangled,
)
from opdisc import optimizer
from opdisc.discrimination import _p_seed_points, _seesaw_step
from opdisc.linalg import is_positive_semidefinite

from helpers import random_qubit_problem

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
    assert is_positive_semidefinite(p, 1e-12)
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


# --- maximize ---

def _halving(x):
    # ascent step for -|x|^2: halve the input
    return -np.sum(x * x, axis=1), x / 2


def test_maximize_concave_bowl():
    res = maximize(_halving, lambda v: v, 3, OptimizerConfig(num_starts=4))
    assert abs(res.value) < 1e-8
    assert np.max(np.abs(res.argmax)) < 1e-3
    assert res.summary.converged
    assert len(res.summary.start_values) == 4
    assert res.summary.n_evaluations > 0


def _gradient_step(x):
    # a fixed-rate gradient ascent step on a bumpy landscape
    values = np.sin(3.0 * x[:, 0]) - 0.1 * x[:, 0] ** 2 + np.cos(2.0 * x[:, 1])
    grad = np.stack([3.0 * np.cos(3.0 * x[:, 0]) - 0.2 * x[:, 0], -2.0 * np.sin(2.0 * x[:, 1])], axis=1)
    return values, x + 0.05 * grad


def test_maximize_is_deterministic():
    a = maximize(_gradient_step, lambda v: 2 * v, 2, OptimizerConfig(num_starts=6, seed=3))
    b = maximize(_gradient_step, lambda v: 2 * v, 2, OptimizerConfig(num_starts=6, seed=3))
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)
    assert a.summary.best_start == b.summary.best_start


def test_maximize_monotone_in_starts():
    values = [
        maximize(_gradient_step, lambda v: 3 * v, 2, OptimizerConfig(num_starts=k, seed=9)).value
        for k in (1, 2, 4, 8)
    ]
    assert all(values[i] <= values[i + 1] + 1e-15 for i in range(len(values) - 1))


def test_maximize_prefers_seed_point_on_tie():
    target = np.array([0.3, -0.7])

    def toward_target(x):
        return -np.sum((x - target) ** 2, axis=1), (x + target) / 2

    res = maximize(toward_target, lambda v: v, 2, OptimizerConfig(num_starts=4), seed_points=(target,))
    assert res.summary.best_start == 0
    assert abs(res.value) < 1e-12


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

    res = maximize(
        step,
        lambda v: np.array([float(np.any(v != 0)), 0.0]),
        2,
        OptimizerConfig(num_starts=4),
        seed_points=(np.zeros(2),),
    )
    assert max(res.summary.start_values) > best
    assert res.summary.best_start == 0
    assert res.value == best
    assert res.summary.converged


def test_maximize_raises_when_every_start_fails():
    with pytest.raises(OptimizerFailure):
        maximize(lambda x: (np.full(len(x), np.nan), x), lambda v: v, 2, OptimizerConfig(num_starts=3))


def test_maximize_records_partial_failures():
    # the seeded start sits in the broken region; random starts never get there
    def broken_far_out(x):
        values, moved = _halving(x)
        return np.where(np.max(np.abs(x), axis=1) >= 2.0, np.nan, values), moved

    res = maximize(
        broken_far_out, lambda v: v, 2, OptimizerConfig(num_starts=6, seed=1), seed_points=(np.array([5.0, 5.0]),)
    )
    assert res.summary.failed_starts == (0,)
    assert abs(res.value) < 1e-8


def test_maximize_caps_steps_at_max_iters(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_STEPS", 2)
    res = maximize(_halving, lambda v: v, 2, OptimizerConfig(num_starts=3))
    assert res.summary.n_evaluations == 6
    assert not res.summary.converged
    # the reported value is the value of the reported input
    assert res.value == -float(np.sum(res.argmax**2))


def test_optimizer_config_validates():
    with pytest.raises(ValueError, match="num_starts must be at least 1"):
        OptimizerConfig(num_starts=0)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        OptimizerConfig(seed=-1)
    # the per-start generator's key is (seed << 64) + start index
    with pytest.raises(ValueError, match="seed must be below 2\\*\\*64"):
        OptimizerConfig(seed=2**64)
    config = OptimizerConfig(num_starts=np.int64(3), seed=2**64 - 1)
    assert type(config.num_starts) is int and maximize(_halving, lambda v: v, 2, config).summary.n_starts == 3


# --- the two discrimination see-saw steps on the known worked example ---

def _identity_vs_depolarizing():
    return DiscriminationProblem(
        pauli_channel([1, 0, 0, 0]), pauli_channel([0.25] * 4), 0.5
    )


def test_maximize_entangled_objective_worked_example():
    """Identity vs depolarizing: the ancilla objective peaks at 0.75, at the maximally entangled input."""
    res = maximize(
        _seesaw_step(_identity_vs_depolarizing(), ancilla=2),
        lambda theta: mat_to_biket(decode_p(theta, 2).T),
        4,
        OptimizerConfig(num_starts=8),
        seed_points=(np.array([1.0, 1.0, 0.0, 0.0]),),
    )
    assert abs(res.value - 0.75) < 1e-8
    assert abs(abs(np.vdot(mat_to_biket(np.eye(2)) / np.sqrt(2), res.argmax)) - 1.0) < 1e-6


def test_maximize_unentangled_objective_worked_example():
    res = maximize(
        _seesaw_step(_identity_vs_depolarizing(), ancilla=1),
        lambda theta: decode_pure_state(theta, 2),
        4,
        OptimizerConfig(num_starts=8),
    )
    assert abs(res.value - 0.5) < 1e-8


def test_maximize_start_trajectories_ignore_num_starts():
    prob = random_qubit_problem(np.random.default_rng(11))

    # pe_entangled runs only its seed starts, so drive its step directly
    def entangled(config):
        return maximize(
            _seesaw_step(prob, ancilla=2),
            lambda theta: mat_to_biket(decode_p(theta, 2).T),
            4,
            config,
            _p_seed_points(2),
        ).summary

    for solve in (entangled, lambda config: pe_unentangled(prob, config).diagnostics):
        few = solve(OptimizerConfig(num_starts=4)).start_values
        many = solve(OptimizerConfig(num_starts=12)).start_values
        assert few == many[:4]


def test_import_loads_no_scipy():
    src = str(Path(opdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, opdisc; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
