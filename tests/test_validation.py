"""Every public constructor and every CLI spec kind refuses NaN and infinities by name.

The oracles' state counts and seeds and OptimizerConfig's fields refuse
anything but an integer, also by name.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from opdisc import (
    DimensionMismatch,
    DiscriminationProblem,
    OpdiscError,
    OptimizerConfig,
    QuantumOperation,
    RandomUnitaryChannel,
    TwoOutcomePovm,
    apply_extended,
    brute_force_entangled,
    brute_force_unentangled,
    helstrom,
    make_operation,
    pauli_channel,
    pauli_delta_summary,
    pe_random_unitary_exact,
    povm_error,
    weyl_channel,
)
from opdisc.cli import main

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
    "QuantumOperation": _library(lambda v: QuantumOperation(dim=2, kraus=(_with(IDENTITY, v),))),
    "pauli_channel": _library(lambda v: pauli_channel([v, 0.0, 0.0, 1.0])),
    "weyl_channel": _library(lambda v: weyl_channel(2, [v, 0.0, 0.0, 1.0])),
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
    "helstrom.state": _library(lambda v: helstrom(_with(IDENTITY / 2, v), IDENTITY / 2, 0.5)),
    "helstrom.p1": _library(lambda v: helstrom(IDENTITY / 2, IDENTITY / 2, v)),
    "povm_error.state": _library(lambda v: povm_error(_with(IDENTITY / 2, v), IDENTITY / 2, 0.5, GUESS_FIRST)),
    "povm_error.p1": _library(lambda v: povm_error(IDENTITY / 2, IDENTITY / 2, v, GUESS_FIRST)),
    "pauli_delta_summary.q": _library(lambda v: pauli_delta_summary([v, 0.0, 0.0, 1.0], Q_ID, 0.5)),
    "pauli_delta_summary.p1": _library(lambda v: pauli_delta_summary(Q_ID, Q_ID, v)),
    "pe_random_unitary_exact.p1": _library(
        lambda v: pe_random_unitary_exact(weyl_channel(2, Q_ID), weyl_channel(2, Q_ID), v)
    ),
    "apply_extended": _library(lambda v: apply_extended(pauli_channel(Q_ID), _with(IDENTITY / np.sqrt(2), v))),
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
    "call",
    [
        pytest.param(lambda: helstrom(1.0, 1.0, 0.5), id="helstrom"),
        pytest.param(lambda: povm_error(1.0, 1.0, 0.5, GUESS_FIRST), id="povm_error"),
    ],
)
def test_scalar_states_are_refused_as_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match=r"shape"):
        call()


@pytest.mark.parametrize(
    "doc, key",
    [
        pytest.param({"dim": 2, "kind": "pauli", "q": {"a": 1}}, "q", id="pauli-object"),
        pytest.param({"dim": 2, "kind": "weyl", "q": {"a": 1}}, "q", id="weyl-object"),
        pytest.param({"dim": 2, "kind": "pauli", "q": [None, 0, 0, 1]}, "q[0]", id="pauli-null"),
        pytest.param({"dim": 2, "kind": "weyl", "q": [0, 0, 0, "x"]}, "q[3]", id="weyl-string"),
        pytest.param({"dim": 2, "kind": "pauli", "q": [True, False, False, False]}, "q[0]", id="pauli-bools"),
        pytest.param(
            {"dim": 2, "kind": "pauli", "q": [[0.25, 0.25], [0.25, 0.25]]}, "q[0]", id="pauli-nested"
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
        pytest.param(lambda _, n: OptimizerConfig(num_starts=n), "num_starts", id="OptimizerConfig-num_starts"),
        pytest.param(lambda _, n: OptimizerConfig(seed=n), "seed", id="OptimizerConfig-seed"),
        pytest.param(lambda p, n: brute_force_unentangled(p, 4, seed=n), "seed", id="brute_force_unentangled-seed"),
        pytest.param(lambda p, n: brute_force_entangled(p, 2, seed=n), "seed", id="brute_force_entangled-seed"),
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


def test_oracle_counts_accept_numpy_integers():
    prob = DiscriminationProblem(pauli_channel(Q_ID), pauli_channel([0.25] * 4), 0.5)
    assert brute_force_unentangled(prob, np.int64(3)) == brute_force_unentangled(prob, 3)
    assert brute_force_entangled(prob, np.int32(2)) == brute_force_entangled(prob, 2)
    assert brute_force_entangled(prob, 2, seed=np.uint8(5)) == brute_force_entangled(prob, 2, seed=5)
