"""End-to-end tests of the command-line front end, run in process.

Only the closed-pipe test starts a process of its own: it needs a real stdout.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opdisc
from opdisc.cli import main, operation_to_spec, parse_channel_file
from opdisc.channels import pauli_channel, weyl_channel

Q_ID = "1,0,0,0"
Q_DEP = "0.25,0.25,0.25,0.25"
# thirds to ten decimals; accepted because the CLI allows 1e-9 of slack
Q_XYZ = "0,0.3333333333,0.3333333333,0.3333333334"
DEMO_CHANNELS = Path(__file__).resolve().parents[1] / "demos" / "channels"
# identity vs Hadamard: a maximally entangled input tells them apart perfectly
ID_VS_HADAMARD = [
    "--file1", str(DEMO_CHANNELS / "identity_qubit.json"),
    "--file2", str(DEMO_CHANNELS / "hadamard.json"),
]

PAULI_KEYS = [
    "pe_entangled",
    "pe_unentangled",
    "r",
    "M",
    "det_sign",
    "entanglement_needed",
    "optimal_unentangled_axis",
    "method",
    "tolerances",
]
GENERAL_KEYS = [
    "pe_entangled",
    "pe_unentangled",
    "upper_bound",
    "lower_bound",
    "method",
    "optimizer",
    "tolerances",
]
OPTIMIZER_KEYS = ["starts", "starts_run", "seed", "converged"]
ORACLE_KEYS = [
    "oracle_pe_entangled",
    "oracle_pe_unentangled",
    "grid_density",
    "samples",
    "seed",
    "tolerances",
]


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# --- pauli subcommand ---

def test_pauli_worked_example():
    code, out, err = run_cli(["pauli", "--q1", Q_ID, "--q2", Q_DEP, "--p1", "0.5"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == PAULI_KEYS
    assert doc["pe_entangled"] == "0.125"
    assert doc["pe_unentangled"] == "0.25"
    assert doc["r"] == ["0.375", "-0.125", "-0.125", "-0.125"]
    assert doc["M"] == "0.5"
    assert doc["det_sign"] == -1
    assert doc["entanglement_needed"] is True
    assert doc["optimal_unentangled_axis"] == "z"
    assert doc["method"] == "closed-form-pauli"
    # no optimizer runs on a closed form, so only the hermiticity tolerance is in force
    assert doc["tolerances"] == {"hermiticity": "1e-09"}


def test_pauli_perfect_discrimination():
    doc = run_json(["pauli", "--q1", Q_XYZ, "--q2", Q_ID])
    assert float(doc["pe_entangled"]) < 1e-9
    assert abs(float(doc["pe_unentangled"]) - 1 / 6) < 1e-6
    assert doc["entanglement_needed"] is True


def test_pauli_identical_channels():
    doc = run_json(["pauli", "--q1", Q_DEP, "--q2", Q_DEP, "--p1", "0.3"])
    assert doc["pe_entangled"] == "0.3"
    assert doc["pe_unentangled"] == "0.3"
    assert doc["entanglement_needed"] is False


def test_pauli_dump_spec_appends_kraus_documents():
    doc = run_json(["pauli", "--q1", Q_ID, "--q2", Q_DEP, "--dump-spec"])
    assert list(doc) == PAULI_KEYS + ["channel1_spec", "channel2_spec"]
    spec1 = doc["channel1_spec"]
    assert spec1["kind"] == "kraus" and spec1["dim"] == 2
    assert len(spec1["kraus"]) == 1          # zero weights are dropped
    assert len(doc["channel2_spec"]["kraus"]) == 4


def test_pauli_rejects_bad_weights_and_prior():
    code, out, err = run_cli(["pauli", "--q1", "0.5,0.5,0.5,0.5", "--q2", Q_ID])
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run_cli(["pauli", "--q1", Q_ID, "--q2", Q_DEP, "--p1", "1.5"])
    assert code == 2 and "--p1" in err
    assert "argument --p1: p1 must lie in [0, 1], got 1.5" in err


# --- general subcommand ---

def test_general_closed_form_pauli_matches_pauli_command(tmp_path):
    f1 = write_spec(tmp_path / "id.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "dep.json", {"dim": 2, "kind": "pauli", "q": [0.25, 0.25, 0.25, 0.25]})
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--p1", "0.5"])
    assert list(doc) == GENERAL_KEYS
    assert list(doc["optimizer"]) == OPTIMIZER_KEYS
    assert doc["method"] == "closed-form-pauli"
    assert doc["pe_entangled"] == "0.125"
    assert doc["pe_unentangled"] == "0.25"
    assert doc["upper_bound"] == "0.125"
    assert doc["lower_bound"] == "0.125"
    # closed forms only: no optimizer ran
    assert doc["optimizer"] == {"starts": 32, "starts_run": {}, "seed": 0, "converged": True}


def test_general_depolarizing_kind_is_recognized_as_pauli(tmp_path):
    f1 = write_spec(tmp_path / "id.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "dep.json", {"dim": 2, "kind": "depolarizing"})
    doc = run_json(["general", "--file1", f1, "--file2", f2])
    assert doc["method"] == "closed-form-pauli"
    assert doc["pe_entangled"] == "0.125"


def test_general_numeric_on_kraus_files(tmp_path):
    op1 = pauli_channel([1, 0, 0, 0])
    op2 = pauli_channel([0, 1 / 3, 1 / 3, 1 / 3])
    f1 = write_spec(tmp_path / "a.json", operation_to_spec(op1))
    f2 = write_spec(tmp_path / "b.json", operation_to_spec(op2))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "8"])
    assert list(doc) == GENERAL_KEYS
    assert list(doc["optimizer"]) == OPTIMIZER_KEYS
    assert doc["method"] == "numeric"
    assert float(doc["pe_entangled"]) < 1e-6
    assert abs(float(doc["pe_unentangled"]) - 1 / 6) < 1e-6
    # the certified lower bound brackets the numeric value from below
    assert 0.0 <= float(doc["pe_entangled"]) - float(doc["lower_bound"]) <= 1e-6
    # --starts sets pe_unentangled's starts; pe_entangled runs its 2 seed starts
    assert doc["optimizer"] == {
        "starts": 8,
        "starts_run": {"entangled": 2, "unentangled": 8},
        "seed": 0,
        "converged": True,
    }
    assert doc["tolerances"] == {"hermiticity": "1e-09", "optimizer": "1e-12", "certified_gap": "1e-06"}


def test_general_starts_below_the_seed_count_leave_pe_entangled_alone(tmp_path):
    f1 = write_spec(tmp_path / "a.json", operation_to_spec(pauli_channel([1, 0, 0, 0])))
    f2 = write_spec(tmp_path / "b.json", operation_to_spec(pauli_channel([0.25] * 4)))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "1"])
    assert doc["method"] == "numeric"
    assert doc["optimizer"]["starts_run"] == {"entangled": 2, "unentangled": 1}


def test_general_numeric_qutrit_identity_vs_depolarizing_converges(tmp_path):
    """The seed start is exact here; a later start one ulp above it must not hide its converged flag."""
    f1 = write_spec(tmp_path / "id3.json", operation_to_spec(weyl_channel(3, [1.0] + [0.0] * 8).as_operation()))
    f2 = write_spec(tmp_path / "dep3.json", operation_to_spec(weyl_channel(3, [1 / 9] * 9).as_operation()))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "32"])
    assert doc["method"] == "numeric"
    assert doc["pe_entangled"] == "0.05555555556"
    assert doc["lower_bound"] == "0.05555555556"
    assert doc["optimizer"] == {
        "starts": 32,
        "starts_run": {"entangled": 2, "unentangled": 32},
        "seed": 0,
        "converged": True,
    }


def test_general_closed_form_orthogonal_qutrit(tmp_path):
    f1 = write_spec(tmp_path / "id3.json", {"dim": 3, "kind": "weyl", "q": [1.0] + [0.0] * 8})
    f2 = write_spec(tmp_path / "dep3.json", {"dim": 3, "kind": "depolarizing"})
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "8"])
    assert list(doc) == GENERAL_KEYS
    assert list(doc["optimizer"]) == OPTIMIZER_KEYS
    assert doc["method"] == "closed-form-orthogonal"
    assert doc["pe_entangled"] == "0.05555555556"
    assert doc["lower_bound"] == "0.05555555556"
    assert float(doc["pe_unentangled"]) >= float(doc["pe_entangled"]) - 1e-9
    assert doc["optimizer"]["starts_run"] == {"unentangled": 8}
    # only pe_unentangled ran, so no certified gap was aimed for
    assert doc["tolerances"] == {"hermiticity": "1e-09", "optimizer": "1e-12"}


def test_general_reports_dimension_mismatch(tmp_path):
    f1 = write_spec(tmp_path / "d2.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "d3.json", {"dim": 3, "kind": "depolarizing"})
    code, out, err = run_cli(["general", "--file1", f1, "--file2", f2])
    assert code == 2 and out == ""
    assert "dimension mismatch: 2 vs 3" in err


def test_general_exits_3_when_the_optimizer_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise opdisc.OptimizerFailure("no start reached a finite value")

    monkeypatch.setattr(opdisc.cli, "pe_unentangled", fail)
    code, out, err = run_cli(["general", *ID_VS_HADAMARD])
    assert code == 3 and out == ""
    assert err == "error: no start reached a finite value\n"


def test_general_rejects_malformed_spec_files(tmp_path):
    bad = write_spec(tmp_path / "bad.json", {"dim": 2, "kind": "pauli", "q": [0.5, 0.5, 0.5]})
    ok = write_spec(tmp_path / "ok.json", {"dim": 2, "kind": "depolarizing"})
    code, _, err = run_cli(["general", "--file1", bad, "--file2", ok])
    assert code == 2 and "expected 4 entries" in err
    code, _, err = run_cli(["general", "--file1", str(tmp_path / "missing.json"), "--file2", ok])
    assert code == 2 and err.startswith("error:")
    not_unitary = write_spec(
        tmp_path / "nu.json",
        {"dim": 2, "kind": "unitary", "u": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    )
    code, _, err = run_cli(["general", "--file1", not_unitary, "--file2", ok])
    assert code == 2 and "not unitary" in err


@pytest.mark.parametrize("depth", [600, 5000], ids=["numpy-too-deep", "json-too-deep"])
def test_deeply_nested_spec_is_refused_without_a_traceback(depth, tmp_path):
    """json reads 600 levels and numpy's 64 dimensions refuse them; 5000 is past json's own limit."""
    bad = tmp_path / "deep.json"
    bad.write_text('{"dim": 2, "kind": "pauli", "q": ' + "[" * depth + "0.25" + "]" * depth + "}")
    code, out, err = run_cli(["general", "--file1", str(bad), "--file2", str(DEMO_CHANNELS / "hadamard.json")])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_dump_spec_round_trips_through_parser(tmp_path):
    f1 = write_spec(tmp_path / "id.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "dep.json", {"dim": 2, "kind": "depolarizing"})
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--dump-spec"])
    assert list(doc) == GENERAL_KEYS + ["channel1_spec", "channel2_spec"]
    reread = write_spec(tmp_path / "dep_again.json", doc["channel2_spec"])
    parsed = parse_channel_file(reread)
    original = weyl_channel(2, np.full(4, 0.25)).as_operation().kraus
    assert len(parsed.operation.kraus) == len(original)
    for got, want in zip(parsed.operation.kraus, original):
        assert np.max(np.abs(got - want)) < 1e-12


def test_perfect_discrimination_prints_no_negative_probability():
    """Rounding used to print upper_bound -1.1e-16, lower_bound -1.2e-15 and oracle -2.2e-16 here."""
    doc = run_json(["general", *ID_VS_HADAMARD])
    assert [doc[key] for key in ("pe_entangled", "upper_bound", "lower_bound")] == ["0", "0", "0"]
    assert float(doc["pe_unentangled"]) >= 0.0
    doc = run_json(["oracle", *ID_VS_HADAMARD, "--grid", "8", "--samples", "8"])
    assert doc["oracle_pe_entangled"] == "0"
    assert float(doc["oracle_pe_unentangled"]) > 0.0


# --- oracle subcommand ---

def test_oracle_worked_example(tmp_path):
    f1 = write_spec(tmp_path / "id.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "dep.json", {"dim": 2, "kind": "depolarizing"})
    argv = ["oracle", "--file1", f1, "--file2", f2, "--grid", "40", "--samples", "25"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ORACLE_KEYS
    # any maximally entangled input already achieves the entangled optimum here
    assert abs(float(doc["oracle_pe_entangled"]) - 0.125) < 1e-9
    assert abs(float(doc["oracle_pe_unentangled"]) - 0.25) < 1e-3
    assert doc["grid_density"] == 40 and doc["samples"] == 25 and doc["seed"] == 0
    # repeat runs are byte-identical
    code2, out2, err2 = run_cli(argv)
    assert (code2, out2, err2) == (code, out, err)


def test_oracle_rejects_large_dimensions(tmp_path):
    f1 = write_spec(tmp_path / "d5.json", {"dim": 5, "kind": "depolarizing"})
    code, _, err = run_cli(["oracle", "--file1", f1, "--file2", f1, "--grid", "3", "--samples", "2"])
    assert code == 2 and err.startswith("error:")


# --- parser plumbing ---

@pytest.mark.parametrize(
    "argv, refusal",
    [
        pytest.param(["general", "--starts", "0"], "must be at least 1", id="starts"),
        pytest.param(["general", "--seed", "-1"], "must be at least 0", id="seed"),
        pytest.param(["general", "--seed", str(2**64)], "must be below 2**64", id="seed-2**64"),
        pytest.param(["oracle", "--grid", "1"], "must be at least 2", id="grid"),
        pytest.param(["oracle", "--samples", "0"], "must be at least 1", id="samples"),
    ],
)
def test_out_of_range_counts_are_refused_by_flag(argv, refusal):
    code, out, err = run_cli([*argv, *ID_VS_HADAMARD])
    assert code == 2 and out == ""
    assert f"argument {argv[1]}: {refusal}" in err


def test_help_and_missing_subcommand_exit_codes():
    code, out, _ = run_cli(["--help"])
    assert code == 0 and "pauli" in out and "oracle" in out
    code, _, err = run_cli([])
    assert code == 2 and err != ""


def test_closed_stdout_exits_1_without_a_traceback():
    src = str(Path(opdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the document is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opdisc.cli", "pauli", "--q1", Q_ID, "--q2", Q_DEP],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
