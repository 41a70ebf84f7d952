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
from opdisc import discrimination, optimizer
from opdisc.discrimination import _seesaw_step, _unentangled_starts
from opdisc.optimizer import decode_p, decode_pure_state, maximize

from helpers import probe_problem, random_kraus_operation, random_qubit_problem

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


def test_decode_pure_state_scales_up_a_row_whose_squared_norm_underflows():
    """[0, 1e-200, 0, 0] decoded to |0>: its squared norm is 0, and the all-zero fallback took over."""
    np.testing.assert_array_equal(decode_pure_state([0, 1e-200, 0, 0], 2), [0, 1])
    np.testing.assert_allclose(decode_pure_state([1e-200, 0, 0, 1e-200], 2), [1 / np.sqrt(2), 1j / np.sqrt(2)])
    np.testing.assert_array_equal(decode_pure_state([0, 0, 0, -5e-324], 2), [0, 1])


def test_decode_pure_state_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        decode_pure_state(np.zeros(3), 2)


def _decode_one_row(theta, d):
    """The decoder without its input checks and underflow rescale: the reference for bit-identity."""
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
def test_decode_pure_state_matches_the_reference_bit_for_bit(d):
    thetas = np.random.default_rng(d).uniform(-1.0, 1.0, size=(40, 2 * d))
    thetas[3] = 0.0  # decodes to |0>
    for lead in range(1, d):  # leading amplitudes exactly 0: the phase comes from amplitude `lead`
        thetas[4 + lead, :lead] = thetas[4 + lead, d:d + lead] = 0.0
    thetas[20, :d] = 0.0  # a purely imaginary row
    decoded = np.stack([decode_pure_state(theta, d) for theta in thetas])
    for theta, row in zip(thetas, decoded):
        assert _decode_one_row(theta, d).tobytes() == row.tobytes()
    assert decoded[3].tobytes() == np.eye(1, d, dtype=complex).tobytes()
    for lead in range(1, d):
        amp = decoded[4 + lead, lead]
        assert np.all(decoded[4 + lead, :lead] == 0) and abs(amp.imag) < 1e-15 and amp.real > 0


# --- maximize ---

def _eager(step):
    """maximize's step protocol around a step that returns every row's next input with its values."""

    def lazy(x):
        values, moved = step(x)
        return values, lambda rows: moved[rows]

    return lazy


@_eager
def _halving(x):
    # ascent step for -|x|^2: halve the input
    return -np.sum(x * x, axis=1), x / 2


_POSITIVE = (lambda b: b @ b.T + np.eye(6))(np.random.default_rng(7).uniform(-1.0, 1.0, size=(6, 6)))


@_eager
def _power_step(x):
    # ascent step for the Rayleigh quotient of a fixed positive matrix: one power iteration
    y = x @ _POSITIVE
    return np.vecdot(x, y) / np.vecdot(x, x), y / np.linalg.norm(y, axis=1, keepdims=True)


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

    @_eager
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

    @_eager
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
        maximize(_eager(lambda x: (np.full(len(x), np.nan), x)), np.zeros((3, 2)))


def test_maximize_records_partial_failures():
    # the first start sits in the broken region; the others never get there
    def broken_far_out(x):
        values, move = _halving(x)
        return np.where(np.max(np.abs(x), axis=1) >= 2.0, np.nan, values), move

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
        values, move = _halving(x)
        return np.where(np.any(x, axis=1), values, np.nan), move

    res = maximize(halving_undefined_at_0, np.array([[1.0, -2.0]]))
    # every extrapolated point is 0, where the step fails, so only plain steps move the start
    assert res.summary.failed_starts == ()
    assert res.summary.converged
    assert -1e-11 < res.value < 0.0
    assert res.value == -float(np.sum(res.argmax**2))


def test_maximize_stops_a_start_whose_plain_step_returns_nan_unconverged():
    def halving_undefined_near_0(x):
        values, move = _halving(x)
        return np.where(np.sum(x**2, axis=1) < 0.05, np.nan, values), move

    res = maximize(halving_undefined_near_0, np.array([[1.0, -2.0]]))
    # every extrapolated input is 0, and rejected; the first plain step inside |x|^2 < 0.05 stops the start
    assert res.value == -0.078125
    assert res.summary.n_evaluations == 8
    assert not res.summary.converged
    assert res.summary.failed_starts == ()


def test_maximize_caps_steps_at_max_iters(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_STEPS", 2)
    res = maximize(_halving, _uniform(3, 2))
    assert res.summary.n_evaluations == 6
    assert not res.summary.converged
    # the reported value is the value of the reported input
    assert res.value == -float(np.sum(res.argmax**2))


@pytest.mark.parametrize("starts", [np.array([1.0, -2.0, 3.0]), np.zeros((0, 3)), np.zeros((2, 0)), np.ones((1, 2, 2))])
def test_maximize_refuses_a_malformed_start_stack_by_name(starts):
    with pytest.raises(DimensionMismatch, match=r"starts must be a nonempty 2-D stack.*got shape"):
        maximize(_halving, starts)


def _former_maximize(step, starts):
    """maximize's loop as it was before its whole-stack shortcuts: masks and compaction on every step,
    and every row's next input computed, whether or not the loop keeps it."""
    x0 = np.array(starts)
    best = np.full(len(x0), -np.inf)
    argmax, converged, active = x0.copy(), np.zeros(len(x0), dtype=bool), np.arange(len(x0))
    x1 = x2 = None
    steps = n_evaluations = 0
    while active.size and steps < optimizer.MAX_STEPS:
        x = x0 if x1 is None else x1 if x2 is None else optimizer._extrapolate(x0, x1, x2)
        values, move = step(x)
        moved = move(np.ones(len(x), dtype=bool))
        steps += 1
        n_evaluations += active.size
        gain = values - best[active]
        better = gain > 0
        best[active[better]] = values[better]
        argmax[active[better]] = x[better]
        going = gain > optimizer.FTOL
        if x1 is None:
            x1 = moved
        elif x2 is None:
            x2 = moved
        else:
            kept = gain >= 0
            going |= ~kept
            x0, x1, x2 = np.where(kept[:, None], x, x1), np.where(kept[:, None], moved, x2), None
        converged[active] = ~going & ~np.isnan(gain)  # a start that a NaN value stopped has not converged
        active, x0, x1 = active[going], x0[going], x1[going]
        if x2 is not None:
            x2 = x2[going]
    return best, argmax, converged, n_evaluations


def _former_cases():
    """Each (d, ancilla) at the default MAX_STEPS and at 1, 2, 3 and 5 step calls, with and without NaN rows,
    then three probe pairs at 32 starts, whose starts stop at many different steps, extrapolated ones among them."""
    for nan_rows in (False, True):
        nan = "-nan" if nan_rows else ""
        for max_steps in (None, 1, 2, 3, 5):
            for d, ancilla in [(2, 2), (3, 1), (3, 3), (4, 1)]:
                tail = ("" if max_steps is None else f"-steps{max_steps}") + nan
                yield pytest.param(d, ancilla, None, max_steps, nan_rows, id=f"{d}-{ancilla}{tail}")
        for d, pair, ancilla in [(3, 1, 1), (4, 1, 1), (3, 2, 3)]:
            yield pytest.param(d, ancilla, pair, None, nan_rows, id=f"probe{d}.{pair}-{ancilla}{nan}")


@pytest.mark.parametrize("d, ancilla, pair, max_steps, nan_rows", _former_cases())
def test_maximize_matches_the_former_masked_bookkeeping_bit_for_bit(
    d, ancilla, pair, max_steps, nan_rows, monkeypatch
):
    if max_steps is not None:
        monkeypatch.setattr(optimizer, "MAX_STEPS", max_steps)
    if pair is None:
        rng = np.random.default_rng(70 + d * ancilla)
        prob = DiscriminationProblem(random_kraus_operation(d, 2, rng), random_kraus_operation(d, 3, rng), 0.45)
        stacks = (_unit_rows(1, d * ancilla, d), _unit_rows(12, d * ancilla, d))
    else:
        prob = probe_problem(d, pair)
        stacks = (_unentangled_starts(d, 32, 0) if ancilla == 1 else _unit_rows(32, d * ancilla, d),)
    seesaw = _seesaw_step(prob, ancilla=ancilla)

    def step(x):
        # with nan_rows, every third row of each stack from row 1 on fails, so starts fail at different steps
        values, move = seesaw(x)
        return np.where(nan_rows & (np.arange(len(x)) % 3 == 1), np.nan, values), move

    for starts in stacks:
        _assert_same_as_former(maximize(step, starts), _former_maximize(step, starts))


def _assert_same_as_former(res, former):
    best, argmax, converged, n_evaluations = former
    assert res.summary.start_values == tuple(best.tolist())
    assert res.summary.n_evaluations == n_evaluations
    assert res.summary.failed_starts == tuple(np.flatnonzero(~np.isfinite(best)).tolist())
    assert res.argmax.tobytes() == argmax[res.summary.best_start].tobytes()
    assert res.summary.converged == converged[res.summary.best_start]


def _one_row_cases():
    """The default MAX_STEPS and 1, 2, 3 and 5 step calls; a NaN value at one call, 1 to 6, at the default;
    an integer start row."""
    for max_steps in (None, 1, 2, 3, 5):
        yield pytest.param(max_steps, None, complex, id="default" if max_steps is None else f"steps{max_steps}")
    for nan_call in range(1, 7):
        kind = "plain" if nan_call in (1, 2, 4, 6) else "extrapolated"
        yield pytest.param(None, nan_call, complex, id=f"nan-at-call{nan_call}-{kind}")
    yield pytest.param(None, None, int, id="integer-start")


@pytest.mark.parametrize("max_steps, nan_call, dtype", _one_row_cases())
def test_maximize_on_one_row_matches_the_former_masked_bookkeeping_bit_for_bit(max_steps, nan_call, dtype, monkeypatch):
    """A one-row stack takes maximize's Python-float loop. The start is pe_entangled's, |phi+> at ancilla d
    on probe_problem(4, 3), whose search runs 76 evaluations. Every extrapolated input there is kept, so
    calls 1, 2, 4 and 6 evaluate plain steps and calls 3 and 5 extrapolated ones: a NaN stops the start
    on the first and is rejected on the second, after which x2 is evaluated. A NaN at call 1 leaves no
    finite value. The integer start row goes through the real power step, which the former loop, given
    the row as floats, also runs in floats."""
    if max_steps is not None:
        monkeypatch.setattr(optimizer, "MAX_STEPS", max_steps)
    if dtype is int:
        seesaw, start = _power_step, np.array([[1, 0, 2, 0, -1, 3]])
    else:
        d = 4
        seesaw = _seesaw_step(probe_problem(d, 3), ancilla=d)
        start = np.zeros((1, d * d), dtype=complex)
        start[0, :: d + 1] = 1 / np.sqrt(d)

    def counted():
        calls = 0

        def step(x):
            nonlocal calls
            calls += 1
            values, move = seesaw(x)
            return (np.full(len(x), np.nan) if calls == nan_call else values), move

        return step

    former = _former_maximize(counted(), start.astype(np.result_type(start, float)))
    if nan_call == 1:
        assert former[0].tolist() == [-np.inf]
        with pytest.raises(OptimizerFailure):
            maximize(counted(), start)
        return
    res = maximize(counted(), start)
    _assert_same_as_former(res, former)
    if dtype is int:
        assert res.argmax.dtype == float and res.summary.n_evaluations > 3
    elif max_steps is None and nan_call is None:
        assert res.summary.n_evaluations == 76


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
    values, move = step(x)
    scaled_values, scaled_move = step(3.0 * np.exp(0.7j) * x)
    moved, scaled_moved = move(slice(None)), scaled_move(slice(None))
    np.testing.assert_allclose(scaled_values, values, rtol=1e-12)
    # each next input is turned so that <x, x'> is real and nonnegative
    for rows, out in ((x, moved), (3.0 * np.exp(0.7j) * x, scaled_moved)):
        overlap = np.sum(rows.conj() * out, axis=1)
        assert np.all(overlap.real > 0) and np.max(np.abs(overlap.imag)) < 1e-12


def _former_seesaw_step(prob, ancilla):
    """The see-saw step as it was: one product per (row, Kraus operator), and every row's next input, eagerly."""
    kraus, weights, adjoint = prob._seesaw
    n, d, _ = kraus.shape
    e = ancilla
    kernel_tol = d * e * np.finfo(float).eps

    def step(x):
        b = len(x)
        y = (kraus @ x.reshape(b, 1, d, e)).reshape(b, n, d * e)
        out = (y.transpose(0, 2, 1) * weights) @ y.conj()
        evals, evecs = np.linalg.eigh(out)
        size = np.abs(evals)
        signs = np.sign(evals)
        signs[size <= kernel_tol * np.maximum(size[:, :1], size[:, -1:])] = 0.0
        sign = (evecs * signs[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
        blocks = sign.reshape(b, d, e, d, e).transpose(0, 2, 4, 1, 3).reshape(b, e * e, d * d)
        m = (blocks @ adjoint).reshape(b, e, e, d, d).transpose(0, 3, 1, 4, 2).reshape(b, d * e, d * e)
        top = np.linalg.eigh(m)[1][..., -1]
        overlap = np.vecdot(top, x)
        overlap[overlap == 0] = 1.0
        return np.sum(size, axis=-1) / np.vecdot(x, x).real, top * (overlap / np.abs(overlap))[:, None]

    return step


# (d, ancilla) of each product: the entangled search at d = 2, both searches at d = 3 and 4
STEP_SHAPES = [(2, 2), (3, 1), (3, 3), (4, 1), (4, 4)]


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("d, ancilla", STEP_SHAPES)
def test_the_stacked_kraus_product_matches_the_per_operator_product_bit_for_bit(d, ancilla, rows):
    """One n d x d product per row gives each row's Kraus products, values and next inputs with the
    former per-operator products' bits. One product over the whole stack does not: at ancilla 1 it
    differed by up to 5e-16."""
    for pair in range(8):
        prob = probe_problem(d, pair)
        x = _unit_rows(rows, d * ancilla, 100 * d + pair)
        values, move = _seesaw_step(prob, ancilla=ancilla)(x)
        former_values, former_moved = _former_seesaw_step(prob, ancilla)(x)
        assert values.tobytes() == former_values.tobytes()
        assert move(slice(None)).tobytes() == former_moved.tobytes()


@pytest.mark.parametrize("d, ancilla", STEP_SHAPES)
def test_moving_selected_rows_gives_the_bits_of_moving_all(d, ancilla):
    """move(mask) is move(all)[mask], and the former eager step's next inputs, for random masks."""
    rng = np.random.default_rng(40 + d * ancilla)
    for pair in range(4):
        prob = probe_problem(d, pair)
        x = _unit_rows(32, d * ancilla, 200 * d + pair)
        _, move = _seesaw_step(prob, ancilla=ancilla)(x)
        moved = move(slice(None))
        assert moved.tobytes() == _former_seesaw_step(prob, ancilla)(x)[1].tobytes()
        assert move(np.ones(32, dtype=bool)).tobytes() == moved.tobytes()
        masks = rng.random((6, 32)) < [[0.1], [0.3], [0.5], [0.7], [0.9], [0.97]]
        for mask in [np.eye(1, 32, pair, dtype=bool)[0], *masks]:
            assert move(mask).tobytes() == moved[mask].tobytes()


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
    # a qutrit pair: pe_unentangled solves a qubit pair without the optimizer
    rng = np.random.default_rng(11)
    prob = DiscriminationProblem(random_kraus_operation(3, 2, rng), random_kraus_operation(3, 3, rng), 0.45)

    # pe_entangled runs only its one start, |phi+>, so drive its step directly from several
    seeds = np.stack([mat_to_biket(np.eye(3)) / np.sqrt(3), np.eye(1, 9, dtype=complex)[0]])
    starts = np.vstack([seeds, _unit_rows(8, 9, 3)])
    step = _seesaw_step(prob, ancilla=3)
    assert maximize(step, starts[:4]).summary.start_values == maximize(step, starts).summary.start_values[:4]

    few = pe_unentangled(prob, num_starts=4).diagnostics.start_values
    many = pe_unentangled(prob, num_starts=12).diagnostics.start_values
    assert few == many[:4]


# --- pe_unentangled's starts ---

@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_unentangled_start_stack_matches_one_generator_per_start(d, seed):
    """Random start i is the reference decoding of what Generator(Philox(key=(seed << 64) + i)) draws."""
    # the seed states |0> and the uniform superposition, as decoder input
    seeds = [np.eye(1, 2 * d)[0], np.concatenate([np.ones(d), np.zeros(d)])]
    for num_starts in (1, 3, 32, 40):
        thetas = seeds[:num_starts] + [
            np.random.Generator(np.random.Philox(key=(seed << 64) + i)).uniform(-1.0, 1.0, 2 * d)
            for i in range(len(seeds), num_starts)
        ]
        old = np.stack([_decode_one_row(theta, d) for theta in thetas])
        new = _unentangled_starts(d, num_starts, seed)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_the_start_stack_is_built_once_per_arguments_and_kept_read_only(monkeypatch):
    _unentangled_starts.cache_clear()
    stack = _unentangled_starts(3, 32, 5)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0] = 0.0
    assert _unentangled_starts(3, 32, 5) is stack
    fresh = _unentangled_starts.__wrapped__(3, 32, 5)
    assert fresh.dtype == stack.dtype and fresh.shape == stack.shape and fresh.tobytes() == stack.tobytes()

    rng = np.random.default_rng(13)
    prob = DiscriminationProblem(random_kraus_operation(3, 2, rng), random_kraus_operation(3, 1, rng), 0.5)
    first = pe_unentangled(prob, num_starts=32, seed=5)
    calls = {"Philox": 0, "decode_pure_state": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.random, "Philox", counting("Philox", np.random.Philox))
    monkeypatch.setattr(discrimination, "decode_pure_state", counting("decode_pure_state", decode_pure_state))
    again = pe_unentangled(prob, num_starts=32, seed=5)
    assert calls == {"Philox": 0, "decode_pure_state": 0}
    assert again.pe_unentangled == first.pe_unentangled and again.diagnostics == first.diagnostics
    # other arguments build their own stack: one generator and one decoding per random start
    pe_unentangled(prob, num_starts=32, seed=6)
    assert calls == {"Philox": 30, "decode_pure_state": 30}


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
    rng = np.random.default_rng(9)
    prob = DiscriminationProblem(random_kraus_operation(3, 3, rng), random_kraus_operation(3, 2, rng), 0.55)
    errors = [pe_unentangled(prob, num_starts=k, seed=9).pe_unentangled for k in (1, 2, 4, 8)]
    assert all(errors[i + 1] <= errors[i] + 1e-15 for i in range(len(errors) - 1))


def test_pe_unentangled_validates_num_starts_and_seed():
    rng = np.random.default_rng(12)
    # a qutrit pair, so that the starts run; they are validated at every d
    prob = DiscriminationProblem(random_kraus_operation(3, 2, rng), random_kraus_operation(3, 1, rng), 0.5)
    with pytest.raises(ValueError, match="num_starts must be at least 1"):
        pe_unentangled(prob, num_starts=0)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        pe_unentangled(prob, seed=-1)
    # the per-start generator's key is (seed << 64) + start index
    with pytest.raises(ValueError, match="seed must be below 2\\*\\*64"):
        pe_unentangled(prob, seed=2**64)
    assert pe_unentangled(prob, num_starts=np.int64(3), seed=2**64 - 1).diagnostics.n_starts == 3
    qubit = _identity_vs_depolarizing()
    with pytest.raises(ValueError, match="num_starts must be at least 1"):
        pe_unentangled(qubit, num_starts=0)
    with pytest.raises(ValueError, match="seed must be below 2\\*\\*64"):
        pe_unentangled(qubit, seed=2**64)


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
