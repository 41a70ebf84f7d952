"""Every public constructor and every CLI spec kind refuses NaN and infinities by name.

The library's constructors also refuse input that is no number at all
(strings, None, bools, dicts, ragged lists) by name. One rule,
linalg.require_finite, decides what a number is for library calls and spec
files alike, and names one bad entry in a list by its index path, such as
`Kraus operator 0[1][1]` or `bad.json: q[3]`. The oracles' state counts and
seeds, pe_unentangled's num_starts and seed and every dimension (a spec's
dim included) refuse anything but an integer, also by name. A hypothesis
fuzz test sends malformed values through every public entry point and checks
that each refusal is typed; since that alone cannot see a value accepted
that should have been refused, a second test places one bad entry at several
index paths of otherwise valid input and requires NonFinite naming it.
Every check that holds outside input to config.INPUT_TOL is run just inside
and just outside that tolerance.
"""

import contextlib
import functools
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import (
    DimensionMismatch,
    DiscriminationProblem,
    InvalidProbabilityVector,
    NonFinite,
    NonSquare,
    OpdiscError,
    QuantumOperation,
    RandomUnitaryChannel,
    TwoOutcomePovm,
    apply_extended,
    biket_to_mat,
    brute_force_entangled,
    brute_force_unentangled,
    eig_hermitian,
    helstrom,
    is_hermitian,
    is_unitary,
    make_operation,
    mat_to_biket,
    partial_trace,
    pauli_channel,
    pauli_delta_summary,
    pe_random_unitary_bounds,
    pe_random_unitary_exact,
    pe_unentangled,
    povm_error,
    trace_norm,
    weyl_channel,
    weyl_unitaries,
)
from opdisc.channels import check_density_matrix, check_probability_vector
from opdisc.cli import main
from opdisc.config import INPUT_TOL
from opdisc.linalg import check_count, check_prior, require_finite, require_matrix
from opdisc.optimizer import decode_p, decode_pure_state

IDENTITY = np.eye(2, dtype=complex)
Q_ID = [1.0, 0.0, 0.0, 0.0]
GUESS_FIRST = TwoOutcomePovm(pi1=IDENTITY, pi2=np.zeros((2, 2)))


def _with(matrix, value):
    out = np.array(matrix, dtype=complex)
    out[0, 0] = value
    return out


def _library(call):
    def run(value, tmp_path):
        with pytest.raises(OpdiscError) as info:
            call(value)
        return str(info.value)

    return run


def _cli(spec=None, argv=()):
    """A `general` run on one spec file built from `value`, or a command line holding it."""

    def run(value, tmp_path):
        args = [a.format(value) for a in argv]
        if spec is not None:
            f1 = tmp_path / "bad.json"
            f1.write_text(json.dumps(spec(value)))
            f2 = tmp_path / "ok.json"
            f2.write_text(json.dumps({"dim": 2, "kind": "depolarizing"}))
            args = ["general", "--file1", str(f1), "--file2", str(f2)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert code == 2
        return err.getvalue()

    return run


CASES = {
    "make_operation": _library(lambda v: make_operation([_with(IDENTITY, v)])),
    "make_operation.kraus[0]": _library(lambda v: make_operation([v])),
    "make_operation.kraus": _library(make_operation),
    "QuantumOperation": _library(lambda v: QuantumOperation(dim=2, kraus=(_with(IDENTITY, v),))),
    "QuantumOperation.kraus": _library(lambda v: QuantumOperation(dim=2, kraus=v)),
    "pauli_channel": _library(lambda v: pauli_channel([v, 0.0, 0.0, 1.0])),
    "pauli_channel.q": _library(pauli_channel),
    "weyl_channel": _library(lambda v: weyl_channel(2, [v, 0.0, 0.0, 1.0])),
    "weyl_channel.q": _library(lambda v: weyl_channel(2, v)),
    "RandomUnitaryChannel.unitaries": _library(
        lambda v: RandomUnitaryChannel(dim=2, unitaries=(_with(IDENTITY, v),), weights=[1.0])
    ),
    "RandomUnitaryChannel.weights": _library(
        lambda v: RandomUnitaryChannel(dim=2, unitaries=(IDENTITY,), weights=[v])
    ),
    "DiscriminationProblem": _library(
        lambda v: DiscriminationProblem(pauli_channel(Q_ID), pauli_channel(Q_ID), v)
    ),
    "TwoOutcomePovm": _library(lambda v: TwoOutcomePovm(pi1=_with(IDENTITY, v), pi2=np.zeros((2, 2)))),
    "TwoOutcomePovm.pi1": _library(lambda v: TwoOutcomePovm(v, "y")),
    "helstrom.state": _library(lambda v: helstrom(_with(IDENTITY / 2, v), IDENTITY / 2, 0.5)),
    "helstrom.p1": _library(lambda v: helstrom(IDENTITY / 2, IDENTITY / 2, v)),
    "povm_error.state": _library(lambda v: povm_error(_with(IDENTITY / 2, v), IDENTITY / 2, 0.5, GUESS_FIRST)),
    "povm_error.p1": _library(lambda v: povm_error(IDENTITY / 2, IDENTITY / 2, v, GUESS_FIRST)),
    "pauli_delta_summary.q": _library(lambda v: pauli_delta_summary([v, 0.0, 0.0, 1.0], Q_ID, 0.5)),
    "pauli_delta_summary.q1": _library(lambda v: pauli_delta_summary(v, Q_ID, 0.5)),
    "pauli_delta_summary.p1": _library(lambda v: pauli_delta_summary(Q_ID, Q_ID, v)),
    "pe_random_unitary_exact.p1": _library(
        lambda v: pe_random_unitary_exact(weyl_channel(2, Q_ID), weyl_channel(2, Q_ID), v)
    ),
    "apply_extended": _library(lambda v: apply_extended(pauli_channel(Q_ID), _with(IDENTITY / np.sqrt(2), v))),
    "trace_norm": _library(lambda v: trace_norm(_with(IDENTITY, v))),
    "trace_norm.a": _library(trace_norm),
    "eig_hermitian.a": _library(eig_hermitian),
    "biket_to_mat.v": _library(lambda v: biket_to_mat(v, 2)),
    "decode_p": _library(lambda v: decode_p([v, 0.0, 0.0, 0.0], 2)),
    "decode_p.theta": _library(lambda v: decode_p(v, 2)),
    "decode_pure_state": _library(lambda v: decode_pure_state([[1.0, 0.0, 0.0, 0.0], [0.0, v, 0.0, 0.0]], 2)),
    "decode_pure_state.theta": _library(lambda v: decode_pure_state(v, 2)),
    "cli kind kraus": _cli(
        spec=lambda v: {"dim": 2, "kind": "kraus", "kraus": [[[[v, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    ),
    "cli kind pauli": _cli(spec=lambda v: {"dim": 2, "kind": "pauli", "q": [v, 0, 0, 1]}),
    "cli kind weyl": _cli(spec=lambda v: {"dim": 2, "kind": "weyl", "q": [v, 0, 0, 1]}),
    "cli kind depolarizing": _cli(spec=lambda v: {"dim": v, "kind": "depolarizing"}),
    "cli kind unitary": _cli(spec=lambda v: {"dim": 2, "kind": "unitary", "u": [[[1, 0], [0, 0]], [[0, 0], [0, v]]]}),
    "cli pauli --q1": _cli(argv=("pauli", "--q1", "{},0,0,1", "--q2", "1,0,0,0")),
    "cli --p1": _cli(argv=("pauli", "--q1", "1,0,0,0", "--q2", "1,0,0,0", "--p1", "{}")),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_input_is_refused_by_name(case, value, tmp_path):
    message = CASES[case](value, tmp_path)
    assert repr(value) in message


@pytest.mark.parametrize(
    "case, value, named",
    [
        pytest.param("DiscriminationProblem", "0.5", None, id="p1-string"),
        pytest.param("DiscriminationProblem", True, None, id="p1-bool"),
        pytest.param("helstrom.p1", None, None, id="helstrom-p1-None"),
        pytest.param("povm_error.p1", "0.5", None, id="povm_error-p1-string"),
        pytest.param("pe_random_unitary_exact.p1", "x", None, id="pe_random_unitary_exact-p1-string"),
        pytest.param(
            "make_operation.kraus[0]",
            [[1, 0], [0, "a"]],
            "[1][1]: expected a number, got 'a'",
            id="kraus-string-entry",
        ),
        pytest.param(
            "make_operation.kraus[0]",
            [["1", "0"], ["0", "1"]],
            "[0][0]: expected a number, got '1'",
            id="kraus-numeric-strings",
        ),
        pytest.param("make_operation.kraus[0]", [[1, 0], [0]], None, id="kraus-ragged"),
        pytest.param(
            "pauli_channel.q",
            functools.reduce(lambda inner, _: [inner], range(70), 0.25),
            "lists nested deeper than numpy's 64 dimensions",
            id="pauli-q-too-deep",
        ),
        pytest.param(
            "pauli_channel.q",
            functools.reduce(lambda inner, _: [inner], range(497), 0.25),
            "lists nested deeper than numpy's 64 dimensions",
            id="pauli-q-nested-497",
        ),
        pytest.param(
            "pauli_channel.q",
            functools.reduce(lambda inner, _: [inner], range(3000), 0.25),
            "lists nested deeper than numpy's 64 dimensions",
            id="pauli-q-nested-3000",
        ),
        pytest.param(
            "pauli_channel.q",
            [np.full((1,) * 64, 0.25)],
            "lists nested deeper than numpy's 64 dimensions",
            id="pauli-q-array-too-deep",
        ),
        pytest.param("TwoOutcomePovm.pi1", "x", None, id="povm-string"),
        pytest.param("weyl_channel.q", "abcd", None, id="weyl-q-string"),
        pytest.param("pauli_channel.q", {"a": 1}, None, id="pauli-q-dict"),
        pytest.param(
            "pauli_channel.q",
            ["1", "0", "0", "0"],
            "[0]: expected a real number, got '1'",
            id="pauli-q-numeric-strings",
        ),
        pytest.param("pauli_delta_summary.q1", None, None, id="pauli_delta_summary-q1-None"),
        pytest.param(
            "trace_norm.a",
            [[1, "a"], [0, 1]],
            "[0][1]: expected a number, got 'a'",
            id="trace_norm-string-entry",
        ),
        pytest.param(
            "eig_hermitian.a",
            [[1, None], [None, 1]],
            "[0][1]: expected a number, got None",
            id="eig_hermitian-None-entries",
        ),
        pytest.param(
            "biket_to_mat.v",
            ["1", "0", "0", "1"],
            "[0]: expected a number, got '1'",
            id="biket_to_mat-numeric-strings",
        ),
        pytest.param("DiscriminationProblem", [0.5], None, id="p1-list"),
        pytest.param("helstrom.p1", [0.3, 0.1], None, id="helstrom-p1-list"),
        pytest.param("povm_error.p1", [0.3], None, id="povm_error-p1-list"),
        pytest.param("pauli_delta_summary.p1", [0.5], None, id="pauli_delta_summary-p1-list"),
        pytest.param("decode_p", True, "theta[0]: expected a real number, got True", id="decode_p-bool"),
        pytest.param("decode_p", "1", "theta[0]: expected a real number, got '1'", id="decode_p-string"),
        pytest.param("decode_p.theta", [[1, 0], [0, 0]], "theta of shape (2, 2)", id="decode_p-matrix"),
        pytest.param(
            "decode_pure_state", True, "theta[1][1]: expected a real number, got True", id="decode_pure_state-bool"
        ),
        pytest.param(
            "decode_pure_state", "x", "theta[1][1]: expected a real number, got 'x'", id="decode_pure_state-string"
        ),
        pytest.param(
            "decode_pure_state.theta", [[[1, 0, 0, 0]]], "theta of shape (1, 1, 4)", id="decode_pure_state-3d"
        ),
        pytest.param("decode_pure_state.theta", 0.5, "theta of shape ()", id="decode_pure_state-scalar"),
        pytest.param(
            "decode_pure_state.theta", np.zeros((2, 3)), "theta of shape (2, 3)", id="decode_pure_state-short-rows"
        ),
    ],
)
def test_wrong_kind_input_is_refused_by_name(case, value, named, tmp_path):
    """The message holds the value, or for one bad entry in a list, its index path and repr."""
    message = CASES[case](value, tmp_path)
    assert (named or repr(value)) in message


def _holds(predicate):
    """A call of eps that raises ValueError when predicate(eps) is False."""

    def call(eps):
        if not predicate(eps):
            raise ValueError("predicate is False")

    return call


def _off_diagonal(base, eps):
    """`base` with eps added above the diagonal: that far from Hermitian."""
    return np.asarray(base, dtype=complex) + np.array([[0, eps], [0, 0]])


def _stretched(eps):
    """diag(1, sqrt(1 + eps)): U^dag U misses I by eps."""
    return np.diag([1.0, np.sqrt(1.0 + eps)])


def _povm_error_state(state):
    return lambda eps: povm_error(state(eps), IDENTITY / 2, 0.5, GUESS_FIRST)


def _povm_error_povm(pi1, pi2):
    return lambda eps: povm_error(IDENTITY / 2, IDENTITY / 2, 0.5, TwoOutcomePovm(pi1(eps), pi2(eps)))


def _cli_pauli_q1(eps):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["pauli", "--q1", f"{1.0 + eps!r},0,0,0", "--q2", "1,0,0,0"])
    if code:
        raise ValueError(err.getvalue())


def _non_hermitian_state(eps):
    return _off_diagonal(IDENTITY / 2, eps)


def _heavy_state(eps):
    """Trace 1 + eps."""
    return np.diag([0.5 + eps, 0.5])


def _negative_state(eps):
    """Lowest eigenvalue -eps."""
    return np.diag([1.0 + eps, -eps])


# (call of the deviation eps, what its refusal says) for every check held to INPUT_TOL
TOLERANCE_CHECKS = {
    "is_hermitian": (_holds(lambda eps: is_hermitian(_off_diagonal(IDENTITY, eps))), "is False"),
    "is_unitary": (_holds(lambda eps: is_unitary(_stretched(eps))), "is False"),
    "eig_hermitian": (lambda eps: eig_hermitian(_off_diagonal(IDENTITY, eps)), "deviates from Hermitian"),
    "QuantumOperation.completeness": (
        lambda eps: QuantumOperation(dim=2, kraus=(_stretched(eps),)),
        "deviates from identity",
    ),
    "RandomUnitaryChannel.unitarity": (
        lambda eps: RandomUnitaryChannel(dim=2, unitaries=(_stretched(eps),), weights=[1.0]),
        "not unitary",
    ),
    "check_density_matrix.hermiticity": (
        lambda eps: check_density_matrix(_non_hermitian_state(eps), 2),
        "not Hermitian",
    ),
    "check_density_matrix.trace": (lambda eps: check_density_matrix(_heavy_state(eps), 2), "trace"),
    "check_density_matrix.eigenvalue": (
        lambda eps: check_density_matrix(_negative_state(eps), 2),
        "positivity floor",
    ),
    "apply_extended.norm": (
        lambda eps: apply_extended(pauli_channel(Q_ID), IDENTITY * np.sqrt((1.0 + eps) / 2)),
        "Tr[xi^dag xi]",
    ),
    "povm_error.state.hermiticity": (_povm_error_state(_non_hermitian_state), "not Hermitian"),
    "povm_error.state.trace": (_povm_error_state(_heavy_state), "trace"),
    "povm_error.state.eigenvalue": (_povm_error_state(_negative_state), "positivity floor"),
    # the POVMs below complete to I exactly, so each refusal is its own check's
    "povm_error.povm.hermiticity": (
        _povm_error_povm(
            lambda eps: _off_diagonal([[1, 0], [0, 0]], eps), lambda eps: _off_diagonal([[0, 0], [0, 1]], -eps)
        ),
        "pi1 is not Hermitian",
    ),
    "povm_error.povm.eigenvalue": (
        _povm_error_povm(lambda eps: np.diag([1.0 + eps, -eps]), lambda eps: np.diag([-eps, 1.0 + eps])),
        "pi1 has an eigenvalue below",
    ),
    "povm_error.povm.completeness": (
        _povm_error_povm(lambda eps: np.diag([1.0 + eps, 0.0]), lambda eps: np.diag([0.0, 1.0])),
        "deviates from identity",
    ),
    "cli pauli --q1": (_cli_pauli_q1, "--q1: entries sum to"),
}


@pytest.mark.parametrize("case", list(TOLERANCE_CHECKS))
def test_input_off_by_half_the_tolerance_passes_and_by_twice_is_refused(case):
    """Every check on outside input allows config.INPUT_TOL, no less and not twice as much."""
    call, reason = TOLERANCE_CHECKS[case]
    call(0.5 * INPUT_TOL)
    with pytest.raises((OpdiscError, ValueError), match=re.escape(reason)):
        call(2.0 * INPUT_TOL)


# one entry that is no number, among numbers, and how its refusal shows it: by repr, but an
# integer too large for a float by its digit count, since repr refuses more than 4,300 digits
_OBJECT = object()
BAD_ENTRIES = {
    "True": (True, "True"),
    "False": (False, "False"),
    "None": (None, "None"),
    "string": ("1", "'1'"),
    "object": (_OBJECT, repr(_OBJECT)),
    "huge-int": (10**400, "one of 401 digits"),
    "int-beyond-repr": (10**5000, "one of 5001 digits"),
}
MATRIX_AT = [(0, 0), (1, 0), (1, 1)]
VECTOR_AT = [(0,), (3,)]
# (valid nested input, positions, call) for every entry point that takes numbers
NUMBER_INPUTS = {
    "kraus-matrix": ([[1, 0], [0, 1]], MATRIX_AT, lambda v: make_operation([v])),
    "unitary": ([[1, 0], [0, 1]], MATRIX_AT, lambda v: RandomUnitaryChannel(2, (v,), [1.0])),
    "state": ([[0.5, 0], [0, 0.5]], MATRIX_AT, lambda v: helstrom(v, IDENTITY / 2, 0.5)),
    "povm-element": ([[1, 0], [0, 1]], MATRIX_AT, lambda v: TwoOutcomePovm(v, np.zeros((2, 2)))),
    "weight-vector": ([1, 0, 0, 0], VECTOR_AT, pauli_channel),
    "trace_norm": ([[1, 0], [0, 1]], MATRIX_AT, trace_norm),
    "eig_hermitian": ([[1, 0], [0, 1]], MATRIX_AT, eig_hermitian),
    "biket_to_mat": ([1, 0, 0, 1], VECTOR_AT, lambda v: biket_to_mat(v, 2)),
    "decode_p": ([1, 0, 0, 0], VECTOR_AT, lambda v: decode_p(v, 2)),
    "decode_pure_state": ([1, 0, 0, 0], VECTOR_AT, lambda v: decode_pure_state(v, 2)),
}


def _placed(nested, at, leaf):
    """A copy of the nested list `nested` with `leaf` at the index path `at`."""
    out = [list(row) if isinstance(row, list) else row for row in nested]
    inner = out
    for i in at[:-1]:
        inner = inner[i]
    inner[at[-1]] = leaf
    return out


@pytest.mark.parametrize("leaf, shown", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
@pytest.mark.parametrize(
    "entry, at",
    [(entry, at) for entry, (_, positions, _) in NUMBER_INPUTS.items() for at in positions],
    ids=lambda x: "".join(f"[{i}]" for i in x) if isinstance(x, tuple) else x,
)
def test_a_bad_entry_is_refused_by_its_index_path(entry, at, leaf, shown):
    """numpy would turn a bool into 1 or 0 and accept it; the message names the entry and its path."""
    nested, _, call = NUMBER_INPUTS[entry]
    with pytest.raises(NonFinite) as info:
        call(_placed(nested, at, leaf))
    path = "".join(f"[{i}]" for i in at)
    assert f"{path}: " in str(info.value)
    assert shown in str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: helstrom(1.0, 1.0, 0.5), id="helstrom"),
        pytest.param(lambda: povm_error(1.0, 1.0, 0.5, GUESS_FIRST), id="povm_error"),
    ],
)
def test_scalar_states_are_refused_as_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match=r"shape"):
        call()


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(lambda: trace_norm(EMPTY), "matrix", id="trace_norm"),
        pytest.param(lambda: eig_hermitian(EMPTY), "matrix", id="eig_hermitian"),
        pytest.param(lambda: mat_to_biket(EMPTY), "matrix", id="mat_to_biket"),
        pytest.param(lambda: helstrom(EMPTY, EMPTY, 0.5), "state", id="helstrom"),
        pytest.param(lambda: povm_error(EMPTY, EMPTY, 0.5, GUESS_FIRST), "state", id="povm_error"),
        pytest.param(lambda: TwoOutcomePovm(pi1=EMPTY, pi2=EMPTY), "pi1", id="TwoOutcomePovm"),
        pytest.param(lambda: make_operation([EMPTY]), "Kraus operator 0", id="make_operation"),
    ],
)
def test_an_empty_matrix_is_refused_as_non_square(call, named):
    with pytest.raises(NonSquare, match=rf"^{named} of shape \(0, 0\)"):
        call()


@pytest.mark.parametrize("predicate", [is_hermitian, is_unitary], ids=lambda f: f.__name__)
def test_an_empty_matrix_is_neither_hermitian_nor_unitary(predicate):
    assert predicate(EMPTY) is False


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: pauli_channel([[0.25, 0.25], [0.25, 0.25]]), InvalidProbabilityVector, id="pauli_channel"),
        pytest.param(lambda: pauli_channel(np.float64(1.0)), InvalidProbabilityVector, id="pauli_channel-0d"),
        pytest.param(lambda: weyl_channel(2, [[[0.25]]] * 4), InvalidProbabilityVector, id="weyl_channel"),
        pytest.param(
            lambda: pauli_delta_summary([[1, 0], [0, 0]], Q_ID, 0.5), InvalidProbabilityVector, id="pauli_delta_summary"
        ),
        pytest.param(
            lambda: RandomUnitaryChannel(dim=2, unitaries=(IDENTITY,), weights=[[1.0]]),
            InvalidProbabilityVector,
            id="RandomUnitaryChannel.weights",
        ),
        pytest.param(
            lambda: RandomUnitaryChannel(dim=1, unitaries=(np.eye(1),), weights=1.0),
            InvalidProbabilityVector,
            id="RandomUnitaryChannel.weights-0d",
        ),
        pytest.param(lambda: check_probability_vector(1.0), InvalidProbabilityVector, id="check_probability_vector-0d"),
        pytest.param(lambda: biket_to_mat(np.eye(2), 2), DimensionMismatch, id="biket_to_mat"),
        pytest.param(lambda: biket_to_mat(1.0, 1), DimensionMismatch, id="biket_to_mat-0d"),
    ],
)
def test_a_weight_or_biket_vector_must_be_1d(call, error):
    with pytest.raises(error, match=r"shape"):
        call()


@pytest.mark.parametrize(
    "doc, key",
    [
        pytest.param({"dim": 2, "kind": "pauli", "q": {"a": 1}}, "q", id="pauli-object"),
        pytest.param({"dim": 2, "kind": "weyl", "q": {"a": 1}}, "q", id="weyl-object"),
        pytest.param({"dim": 2, "kind": "pauli", "q": [None, 0, 0, 1]}, "q[0]", id="pauli-null"),
        pytest.param({"dim": 2, "kind": "weyl", "q": [0, 0, 0, "x"]}, "q[3]", id="weyl-string"),
        pytest.param({"dim": 2, "kind": "pauli", "q": [True, False, False, False]}, "q[0]", id="pauli-bools"),
        pytest.param({"dim": 2, "kind": "pauli", "q": [1, 0, 0, True]}, "q[3]", id="pauli-bool-last"),
        pytest.param(
            {"dim": 2, "kind": "pauli", "q": [[0.25, 0.25], [0.25, 0.25]]}, "q", id="pauli-nested"
        ),
        pytest.param(
            {"dim": 2, "kind": "unitary", "u": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
            "u[0][0][0]",
            id="unitary-bool",
        ),
        pytest.param(
            {"dim": 2, "kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, False]]]]},
            "kraus[0][1][1][1]",
            id="kraus-bool",
        ),
        pytest.param(
            {"dim": 2, "kind": "unitary", "u": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]},
            "u[0][0][0]",
            id="unitary-huge-integer",
        ),
    ],
)
def test_spec_numbers_must_be_json_numbers(doc, key, tmp_path):
    assert f"bad.json: {key}: " in _cli(spec=lambda _: doc)(None, tmp_path)


def test_a_spec_file_that_is_not_json_is_refused_by_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["general", "--file1", str(bad), "--file2", str(bad)])
    assert code == 2
    assert f"{bad}: not a JSON document" in err.getvalue()


@pytest.mark.parametrize("count", [True, False, 3.0, 2.5, float("nan"), float("inf"), "4", None])
@pytest.mark.parametrize(
    "oracle, name",
    [
        (brute_force_unentangled, "grid_density"),
        (brute_force_entangled, "samples"),
        # the two settings lived on OptimizerConfig; the ids keep these cases' names
        pytest.param(lambda p, n: pe_unentangled(p, num_starts=n), "num_starts", id="OptimizerConfig-num_starts"),
        pytest.param(lambda p, n: pe_unentangled(p, seed=n), "seed", id="OptimizerConfig-seed"),
        pytest.param(lambda p, n: brute_force_unentangled(p, 4, seed=n), "seed", id="brute_force_unentangled-seed"),
        pytest.param(lambda p, n: brute_force_entangled(p, 2, seed=n), "seed", id="brute_force_entangled-seed"),
        pytest.param(lambda _, n: QuantumOperation(dim=n, kraus=(IDENTITY,)), "dim", id="QuantumOperation-dim"),
        pytest.param(lambda _, n: RandomUnitaryChannel(n, (IDENTITY,), [1.0]), "dim", id="RandomUnitaryChannel-dim"),
        pytest.param(lambda _, n: weyl_unitaries(n), "d", id="weyl_unitaries-d"),
        pytest.param(lambda _, n: weyl_channel(n, Q_ID), "d", id="weyl_channel-d"),
        pytest.param(lambda _, n: partial_trace(np.eye(4), n, 0), "dims", id="partial_trace-dims"),
        pytest.param(lambda _, n: partial_trace(np.eye(4), (n, 2), 0), "dims", id="partial_trace-dims[0]"),
        pytest.param(lambda _, n: biket_to_mat(np.ones(4), n), "d", id="biket_to_mat-d"),
        pytest.param(lambda _, n: check_density_matrix(IDENTITY / 2, n), "d", id="check_density_matrix-d"),
    ],
)
def test_oracle_counts_must_be_integers(oracle, name, count):
    prob = DiscriminationProblem(pauli_channel(Q_ID), pauli_channel([0.25] * 4), 0.5)
    with pytest.raises(ValueError, match=name) as info:
        oracle(prob, count)
    assert repr(count) in str(info.value)


@pytest.mark.parametrize("oracle", [brute_force_unentangled, brute_force_entangled])
def test_oracle_seeds_must_be_non_negative(oracle):
    prob = DiscriminationProblem(pauli_channel(Q_ID), pauli_channel([0.25] * 4), 0.5)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        oracle(prob, 2, seed=-1)


def test_dimensions_must_be_at_least_1():
    with pytest.raises(ValueError, match="dims must be at least 1, got -2"):
        partial_trace(np.eye(4), (-2, -2), 0)
    with pytest.raises(ValueError, match="d must be at least 1, got -2"):
        biket_to_mat(np.ones(4), -2)


def test_oracle_counts_accept_numpy_integers():
    prob = DiscriminationProblem(pauli_channel(Q_ID), pauli_channel([0.25] * 4), 0.5)
    assert brute_force_unentangled(prob, np.int64(3)) == brute_force_unentangled(prob, 3)
    assert brute_force_entangled(prob, np.int32(2)) == brute_force_entangled(prob, 2)
    assert brute_force_entangled(prob, 2, seed=np.uint8(5)) == brute_force_entangled(prob, 2, seed=5)


# --- fuzz: malformed values through every public entry point ---

QUBIT = pauli_channel(Q_ID)
PROBLEM = DiscriminationProblem(QUBIT, pauli_channel([0.25] * 4), 0.5)
FAMILY = weyl_channel(2, Q_ID)

# every public constructor and validator, every public linalg helper; counts
# take only small or malformed values, since a valid huge count is legal
FUZZ_LIBRARY = {
    "QuantumOperation.dim": lambda v: QuantumOperation(dim=v, kraus=(IDENTITY,)),
    "QuantumOperation.kraus": lambda v: QuantumOperation(dim=2, kraus=v),
    "QuantumOperation.kraus[0]": lambda v: QuantumOperation(dim=2, kraus=(v,)),
    "make_operation": make_operation,
    "make_operation.kraus[0]": lambda v: make_operation([v]),
    "RandomUnitaryChannel.dim": lambda v: RandomUnitaryChannel(v, (IDENTITY,), [1.0]),
    "RandomUnitaryChannel.unitaries": lambda v: RandomUnitaryChannel(2, v, [1.0]),
    "RandomUnitaryChannel.unitaries[0]": lambda v: RandomUnitaryChannel(2, (v,), [1.0]),
    "RandomUnitaryChannel.weights": lambda v: RandomUnitaryChannel(2, (IDENTITY,), v),
    "pauli_channel": pauli_channel,
    "weyl_unitaries": weyl_unitaries,
    "weyl_channel.d": lambda v: weyl_channel(v, Q_ID),
    "weyl_channel.q": lambda v: weyl_channel(2, v),
    "check_probability_vector": check_probability_vector,
    "check_density_matrix": lambda v: check_density_matrix(v, 2),
    "check_density_matrix.d": lambda v: check_density_matrix(IDENTITY / 2, v),
    "apply_extended": lambda v: apply_extended(QUBIT, v),
    "DiscriminationProblem.p1": lambda v: DiscriminationProblem(QUBIT, QUBIT, v),
    "pe_unentangled.num_starts": lambda v: pe_unentangled(PROBLEM, num_starts=v),
    "pe_unentangled.seed": lambda v: pe_unentangled(PROBLEM, seed=v),
    "TwoOutcomePovm.pi1": lambda v: TwoOutcomePovm(v, IDENTITY),
    "TwoOutcomePovm.pi2": lambda v: TwoOutcomePovm(IDENTITY, v),
    "helstrom.rho1": lambda v: helstrom(v, IDENTITY / 2, 0.5),
    "helstrom.rho2": lambda v: helstrom(IDENTITY / 2, v, 0.5),
    "helstrom.p1": lambda v: helstrom(IDENTITY / 2, IDENTITY / 2, v),
    "povm_error.rho1": lambda v: povm_error(v, IDENTITY / 2, 0.5, GUESS_FIRST),
    "povm_error.rho2": lambda v: povm_error(IDENTITY / 2, v, 0.5, GUESS_FIRST),
    "povm_error.p1": lambda v: povm_error(IDENTITY / 2, IDENTITY / 2, v, GUESS_FIRST),
    "pauli_delta_summary.q1": lambda v: pauli_delta_summary(v, Q_ID, 0.5),
    "pauli_delta_summary.p1": lambda v: pauli_delta_summary(Q_ID, Q_ID, v),
    "pe_random_unitary_exact.p1": lambda v: pe_random_unitary_exact(FAMILY, FAMILY, v),
    "pe_random_unitary_bounds.p1": lambda v: pe_random_unitary_bounds(FAMILY, FAMILY, v),
    "brute_force_unentangled.grid_density": lambda v: brute_force_unentangled(PROBLEM, v),
    "brute_force_unentangled.seed": lambda v: brute_force_unentangled(PROBLEM, 2, seed=v),
    "brute_force_entangled.samples": lambda v: brute_force_entangled(PROBLEM, v),
    "brute_force_entangled.seed": lambda v: brute_force_entangled(PROBLEM, 1, seed=v),
    "eig_hermitian": eig_hermitian,
    "trace_norm": trace_norm,
    "partial_trace": lambda v: partial_trace(v, (2, 2), 0),
    "partial_trace.dims": lambda v: partial_trace(np.eye(4), v, 0),
    "partial_trace.dims[0]": lambda v: partial_trace(np.eye(4), (v, 2), 0),
    "mat_to_biket": mat_to_biket,
    "biket_to_mat": lambda v: biket_to_mat(v, 2),
    "biket_to_mat.d": lambda v: biket_to_mat(np.ones(4), v),
    "is_hermitian": is_hermitian,
    "is_unitary": is_unitary,
    "require_finite": lambda v: require_finite(v, "value", complex),
    "require_matrix": lambda v: require_matrix(v, "value", 2),
    "check_prior": check_prior,
    "check_count": lambda v: check_count(v, "count", 0),
}

# the CLI's five spec kinds, each value in every place it can stand, and --p1
FUZZ_SPECS = {
    "cli kind kraus.kraus": lambda v: {"dim": 2, "kind": "kraus", "kraus": v},
    "cli kind kraus.kraus[0]": lambda v: {"dim": 2, "kind": "kraus", "kraus": [v]},
    "cli kind kraus.entry": lambda v: {"dim": 2, "kind": "kraus", "kraus": [[[[v, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    "cli kind kraus.dim": lambda v: {"dim": v, "kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    "cli kind pauli.q": lambda v: {"dim": 2, "kind": "pauli", "q": v},
    "cli kind pauli.q[0]": lambda v: {"dim": 2, "kind": "pauli", "q": [v, 0, 0, 1]},
    "cli kind weyl.q": lambda v: {"dim": 2, "kind": "weyl", "q": v},
    "cli kind weyl.dim": lambda v: {"dim": v, "kind": "weyl", "q": Q_ID},
    "cli kind depolarizing.dim": lambda v: {"dim": v, "kind": "depolarizing"},
    "cli kind unitary.u": lambda v: {"dim": 2, "kind": "unitary", "u": v},
    "cli kind unitary.entry": lambda v: {"dim": 2, "kind": "unitary", "u": [[[1, 0], [0, 0]], [[0, 0], [v, 0]]]},
}

_SCALARS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True, False, object()]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.complex_numbers(max_magnitude=2.0),
    st.text(max_size=3),
)
# ragged and too-deep lists, lists and arrays where a scalar belongs, complex
# where a real belongs, dicts and other non-sequences
MALFORMED = st.one_of(
    st.recursive(
        _SCALARS | st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=10,
    ),
    _SCALARS.map(lambda x: [[x, 0.0], [0.0, 1.0]]),
    st.lists(st.floats(-2.0, 2.0) | st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4).map(np.array),
)


def _fuzz_cli(case, value, workdir):
    """Exit code of `main` on one spec file built from `value`, or on `pauli --p1 value`."""
    if case == "cli --p1":
        args = ["pauli", "--q1", "1,0,0,0", "--q2", "0,1,0,0", "--p1", str(value)]
    else:
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(FUZZ_SPECS[case](value), default=repr))
        ok = workdir / "ok.json"
        ok.write_text(json.dumps({"dim": 2, "kind": "depolarizing"}))
        args = ["general", "--file1", str(bad), "--file2", str(ok), "--starts", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(FUZZ_LIBRARY) + sorted(FUZZ_SPECS) + ["cli --p1"]), value=MALFORMED)
def test_malformed_input_is_refused_with_a_typed_error(case, value, tmp_path_factory):
    """A refusal is an OpdiscError or exactly ValueError, never TypeError, IndexError, LinAlgError, ...

    The CLI turns both into exit code 2; anything else escapes main.
    """
    if case in FUZZ_LIBRARY:
        try:
            FUZZ_LIBRARY[case](value)
        except OpdiscError:
            pass
        except ValueError as exc:
            assert type(exc) is ValueError, f"{case}({value!r}) raised {type(exc).__name__}: {exc}"
    else:
        assert _fuzz_cli(case, value, tmp_path_factory.getbasetemp()) in (0, 2)
