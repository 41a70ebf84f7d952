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

from helpers import probe_problem

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


@pytest.mark.parametrize("q", [Q_DEP, "0.7,0.1,0.1,0.1"])
def test_pauli_identical_channels(q):
    doc = run_json(["pauli", "--q1", q, "--q2", q, "--p1", "0.3"])
    assert doc["pe_entangled"] == "0.3"
    assert doc["pe_unentangled"] == "0.3"
    assert doc["entanglement_needed"] is False
    # two equal channels tie all three axes: the first, z, is the one named
    assert doc["optimal_unentangled_axis"] == "z"


# weights on which the Pauli closed form once printed a rounding residue at a certain prior
RESIDUE_Q1 = "0.1506355303915499,0.043301720479387865,0.7546224421616841,0.05144030696737835"
RESIDUE_Q2 = "0.03890505753049839,0.6069692396459395,0.16816262038349347,0.18596308244006873"


@pytest.mark.parametrize("q1, q2, p1", [(RESIDUE_Q1, RESIDUE_Q2, "0"), (RESIDUE_Q2, RESIDUE_Q1, "1")])
def test_pauli_at_a_degenerate_prior_prints_zero_errors(tmp_path, q1, q2, p1):
    """pauli printed 1.110223025e-16 and 5.551115123e-17 here, and general the latter as a lower_bound
    above its upper_bound of 0."""
    doc = run_json(["pauli", "--q1", q1, "--q2", q2, "--p1", p1])
    assert (doc["pe_entangled"], doc["pe_unentangled"], doc["entanglement_needed"]) == ("0", "0", False)
    files = []
    for name, q in (("q1.json", q1), ("q2.json", q2)):
        files.append(write_spec(tmp_path / name, {"dim": 2, "kind": "pauli", "q": [float(w) for w in q.split(",")]}))
    doc = run_json(["general", "--file1", files[0], "--file2", files[1], "--p1", p1])
    assert doc["method"] == "closed-form-pauli"
    assert [doc[key] for key in ("pe_entangled", "pe_unentangled", "upper_bound", "lower_bound")] == ["0"] * 4


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
    # a qutrit pair, so that pe_unentangled's starts run; every input errs with 1/8 here
    op1 = weyl_channel(3, [1.0] + [0.0] * 8).as_operation()
    op2 = weyl_channel(3, [0.0] + [1 / 8] * 8).as_operation()
    f1 = write_spec(tmp_path / "a.json", operation_to_spec(op1))
    f2 = write_spec(tmp_path / "b.json", operation_to_spec(op2))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "8"])
    assert list(doc) == GENERAL_KEYS
    assert list(doc["optimizer"]) == OPTIMIZER_KEYS
    assert doc["method"] == "numeric"
    assert float(doc["pe_entangled"]) < 1e-6
    assert abs(float(doc["pe_unentangled"]) - 1 / 8) < 1e-6
    # the certified lower bound brackets the numeric value from below
    assert 0.0 <= float(doc["pe_entangled"]) - float(doc["lower_bound"]) <= 1e-6
    # --starts sets pe_unentangled's starts; pe_entangled runs its one start, |phi+>
    assert doc["optimizer"] == {
        "starts": 8,
        "starts_run": {"entangled": 1, "unentangled": 8},
        "seed": 0,
        "converged": True,
    }
    assert doc["tolerances"] == {"hermiticity": "1e-09", "optimizer": "1e-12", "certified_gap": "1e-06"}


def test_general_never_prints_pe_entangled_above_pe_unentangled(tmp_path):
    """A qutrit pair whose see-saw entangled error, 1.00536246e-12, was printed above the
    unentangled 3.278488592e-13; the product input reaches that error with an ancilla too."""
    prob = probe_problem(3, 64, base=5000)
    assert opdisc.pe_entangled(prob).pe_entangled > opdisc.pe_unentangled(prob).pe_unentangled
    f1 = write_spec(tmp_path / "a.json", operation_to_spec(prob.op1))
    f2 = write_spec(tmp_path / "b.json", operation_to_spec(prob.op2))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--p1", repr(prob.p1)])
    assert doc["method"] == "numeric"
    assert doc["pe_entangled"] == doc["pe_unentangled"] == "3.278488592e-13"
    assert float(doc["lower_bound"]) <= float(doc["pe_entangled"])
    # the library's report takes the same minimum
    report = opdisc.discriminate(prob)
    assert report.pe_entangled == report.pe_unentangled
    assert report.lower_bound <= report.pe_entangled


def test_general_starts_below_the_seed_count_leave_pe_entangled_alone(tmp_path):
    f1 = write_spec(tmp_path / "a.json", operation_to_spec(weyl_channel(3, [1.0] + [0.0] * 8).as_operation()))
    f2 = write_spec(tmp_path / "b.json", operation_to_spec(weyl_channel(3, [1 / 9] * 9).as_operation()))
    doc = run_json(["general", "--file1", f1, "--file2", f2, "--starts", "1"])
    assert doc["method"] == "numeric"
    assert doc["optimizer"]["starts_run"] == {"entangled": 1, "unentangled": 1}


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
        "starts_run": {"entangled": 1, "unentangled": 32},
        "seed": 0,
        "converged": True,
    }


# identity vs depolarizing on qudits at general's default starts: (dim, the oracle's flags, pe_entangled,
# pe_unentangled). Every output difference of the qutrit pair has a same-sign double eigenvalue, where
# the oracle's closed-form 3 x 3 trace norm loses digits unless they cancel; a d = 4 pair takes the
# entangled oracle through the Choi matrix and a 16 x 16 eigvalsh. Both oracle values must print as
# the library's.
ORTHOGONAL_QUDIT_PAIRS = [
    pytest.param(3, ["--grid", "12", "--samples", "40"], "0.05555555556", "0.1666666667", id="qutrit"),
    pytest.param(4, ["--grid", "4", "--samples", "40"], "0.03125", "0.125", id="ququart"),
]


@pytest.mark.parametrize("dim, oracle_flags, ent, unent", ORTHOGONAL_QUDIT_PAIRS)
def test_general_closed_form_orthogonal_qudits(tmp_path, dim, oracle_flags, ent, unent):
    f1 = write_spec(tmp_path / "id.json", {"dim": dim, "kind": "weyl", "q": [1.0] + [0.0] * (dim * dim - 1)})
    f2 = write_spec(tmp_path / "dep.json", {"dim": dim, "kind": "depolarizing"})
    files = ["--file1", f1, "--file2", f2]
    doc = run_json(["general", *files])
    assert list(doc) == GENERAL_KEYS
    assert list(doc["optimizer"]) == OPTIMIZER_KEYS
    assert doc["method"] == "closed-form-orthogonal"
    assert [doc[key] for key in ("pe_entangled", "pe_unentangled", "lower_bound")] == [ent, unent, ent]
    assert doc["optimizer"]["starts_run"] == {"unentangled": 32}
    # only pe_unentangled ran, so no certified gap was aimed for
    assert doc["tolerances"] == {"hermiticity": "1e-09", "optimizer": "1e-12"}
    doc = run_json(["oracle", *files, *oracle_flags])
    assert [doc["oracle_pe_entangled"], doc["oracle_pe_unentangled"]] == [ent, unent]


def test_general_qubit_weyl_pair_runs_no_optimizer(tmp_path):
    """A d = 2 weyl pair takes the orthogonal closed form and the exact qubit solve, so no
    optimizer ran and no optimizer tolerance is reported."""
    q1, q2 = [0.7, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4]  # over I, Z, X, XZ
    f1 = write_spec(tmp_path / "a.json", {"dim": 2, "kind": "weyl", "q": q1})
    f2 = write_spec(tmp_path / "b.json", {"dim": 2, "kind": "weyl", "q": q2})
    doc = run_json(["general", "--file1", f1, "--file2", f2])
    assert doc["method"] == "closed-form-orthogonal"
    assert doc["optimizer"] == {"starts": 32, "starts_run": {}, "seed": 0, "converged": True}
    assert doc["tolerances"] == {"hermiticity": "1e-09"}
    # XZ is sigma_y up to a phase, so these are Pauli channels over I, x, y, z
    summary = opdisc.pauli_delta_summary([0.7, 0.1, 0.1, 0.1], [0.1, 0.3, 0.4, 0.2], 0.5)
    assert abs(float(doc["pe_unentangled"]) - summary.pe_unentangled) < 1e-9
    assert abs(float(doc["pe_entangled"]) - summary.pe_entangled) < 1e-9


# the tour's three general pairs, one per route, as demos/06_cli_tour.sh runs them
TOUR_PAIRS = [
    ("identity_qubit", "depolarizing_qubit", "closed-form-pauli", {"hermiticity": "1e-09"}),
    ("identity_qutrit", "depolarizing_qutrit", "closed-form-orthogonal", {"hermiticity": "1e-09"}),
    ("hadamard", "xyz_mix_qubit", "numeric", {"hermiticity": "1e-09", "certified_gap": "1e-06"}),
]


@pytest.mark.parametrize("p1", ["0", "1"])
@pytest.mark.parametrize("name1, name2, method, tolerances", TOUR_PAIRS)
def test_general_at_a_degenerate_prior_prints_zeros_and_runs_no_optimizer(name1, name2, method, tolerances, p1):
    """One channel is certain: every route keeps its method, prints zero errors and runs no search."""
    files = ["--file1", str(DEMO_CHANNELS / f"{name1}.json"), "--file2", str(DEMO_CHANNELS / f"{name2}.json")]
    doc = run_json(["general", *files, "--p1", p1, "--starts", "8"])
    assert doc == {
        "pe_entangled": "0",
        "pe_unentangled": "0",
        "upper_bound": "0",
        "lower_bound": "0",
        "method": method,
        "optimizer": {"starts": 8, "starts_run": {}, "seed": 0, "converged": True},
        "tolerances": tolerances,
    }


def test_general_reports_dimension_mismatch(tmp_path):
    f1 = write_spec(tmp_path / "d2.json", {"dim": 2, "kind": "pauli", "q": [1, 0, 0, 0]})
    f2 = write_spec(tmp_path / "d3.json", {"dim": 3, "kind": "depolarizing"})
    code, out, err = run_cli(["general", "--file1", f1, "--file2", f2])
    assert code == 2 and out == ""
    assert "dimension mismatch: 2 vs 3" in err


def test_general_exits_3_when_the_optimizer_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise opdisc.OptimizerFailure("no start reached a finite value")

    monkeypatch.setattr(opdisc.discrimination, "pe_unentangled", fail)
    code, out, err = run_cli(["general", *ID_VS_HADAMARD])
    assert code == 3 and out == ""
    assert err == "error: no start reached a finite value\n"


# (spec file, its document or None for no file, the error line it gets)
MALFORMED_SPECS = [
    ("short.json", {"dim": 2, "kind": "pauli", "q": [0.5, 0.5, 0.5]},
     "short.json: q: expected 4 entries, got [0.5, 0.5, 0.5]"),
    ("missing.json", None, "[Errno 2] No such file or directory: 'missing.json'"),
    ("nu.json", {"dim": 2, "kind": "unitary", "u": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
     "nu.json: u is not unitary within tolerance"),
    ("list.json", [{"dim": 2, "kind": "depolarizing"}], "list.json: expected a JSON object"),
    ("kind.json", {"dim": 2, "kind": "amplitude-damping"},
     "kind.json: kind must be one of kraus, pauli, weyl, depolarizing, unitary; got 'amplitude-damping'"),
    ("kraus.json", {"dim": 2, "kind": "kraus"}, "kraus.json: kind kraus needs a 'kraus' list"),
    ("pauli3.json", {"dim": 3, "kind": "pauli", "q": [1, 0, 0, 0]}, "pauli3.json: kind pauli requires dim 2, got 3"),
    ("nou.json", {"dim": 2, "kind": "unitary"}, "nou.json: kind unitary needs a 'u' matrix"),
    ("neg.json", {"dim": 2, "kind": "pauli", "q": [1.5, -0.5, 0, 0]}, "neg.json: q: negative entry -0.5"),
]


def test_general_rejects_malformed_spec_files(tmp_path, monkeypatch):
    """Each refusal exits 2, prints nothing to stdout and one error line naming the file or flag."""
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path / "ok.json", {"dim": 2, "kind": "depolarizing"})
    for name, doc, error in MALFORMED_SPECS:
        if doc is not None:
            write_spec(tmp_path / name, doc)
        assert run_cli(["general", "--file1", name, "--file2", "ok.json"]) == (2, "", f"error: {error}\n")
    refusal = "error: --q1: expected comma-separated decimals, got 'a,b,c,d'\n"
    assert run_cli(["pauli", "--q1", "a,b,c,d", "--q2", Q_DEP]) == (2, "", refusal)


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
    assert doc["method"] == "numeric"
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
