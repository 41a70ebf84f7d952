"""Each call pays its fixed costs once: an input is checked once, a problem's operands are derived once.

Counts, not times. A DiscriminationProblem derives Delta (one
unnormalized_choi per operation) and the see-saw's joined Kraus array,
weights and adjoint map (one einsum) on first use and keeps them read-only,
whichever of pe_entangled, pe_unentangled, bound_max_entangled or `opdisc
general` asks. helstrom checks each argument once, pauli_delta_summary
checks Python floats without numpy, and the see-saw takes its second eigh
only for the starts whose next input maximize keeps.

The checks that moved are compared with their former versions, kept below as
references: every row of test_validation.py's tables and a hypothesis
strategy go through both, which must return the same bits or raise the same
exception with the same message. Warnings are not compared: a short weight
vector is summed in Python, which does not warn where numpy's sum overflowed.
"""

import contextlib
import functools
import io
import json
import math
import struct
import warnings
from collections import Counter
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdisc
import parity
import test_validation as tables
from opdisc import (
    DiscriminationProblem,
    InvalidProbabilityVector,
    InvalidState,
    NonFinite,
    TwoOutcomePovm,
    bound_max_entangled,
    delta_operator,
    eig_hermitian,
    helstrom,
    pauli_delta_summary,
    pe_entangled,
    pe_unentangled,
    unnormalized_choi,
)
from opdisc.channels import _SHORT, check_density_matrix, check_probability_vector
from opdisc.cli import main, operation_to_spec
from opdisc.config import INPUT_TOL, PROBABILITY_TOL
from opdisc.linalg import check_count, check_prior, is_hermitian, require_finite, require_matrix

from helpers import probe_problem, random_density, random_kraus_operation

MODULES = ("linalg", "channels", "discrimination", "oracle", "optimizer", "cli")
ADJOINT = "k,kip,kjq->ijpq"


def _count(monkeypatch, name):
    """Wrap opdisc's function `name` wherever a module holds it; the list gets each call's first argument."""
    original = getattr(opdisc.linalg, name, None) or getattr(opdisc.channels, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (opdisc, *(getattr(opdisc, m) for m in MODULES)):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _count_adjoints(monkeypatch):
    """The number of einsum calls that build the see-saw's adjoint map."""
    einsum = np.einsum
    calls = []

    def counted(subscripts, *operands, **kwargs):
        if subscripts == ADJOINT:
            calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


def _problem(d):
    rng = np.random.default_rng(700 + d)
    return DiscriminationProblem(random_kraus_operation(d, 2, rng), random_kraus_operation(d, 3, rng), 0.4)


ROUTES = {
    "pe_entangled": pe_entangled,
    "pe_unentangled": pe_unentangled,
    "bound_max_entangled": bound_max_entangled,
    "delta_operator": delta_operator,
}


@pytest.mark.parametrize("routes", [*([r] for r in ROUTES), list(ROUTES)], ids=[*ROUTES, "all"])
@pytest.mark.parametrize("d", [2, 3])
def test_a_problem_derives_delta_and_the_adjoint_map_once(monkeypatch, d, routes):
    """Each route runs twice on one problem: at most one unnormalized_choi per operation, one adjoint einsum."""
    prob = _problem(d)
    chois = _count(monkeypatch, "unnormalized_choi")
    adjoints = _count_adjoints(monkeypatch)
    for _ in range(2):
        for route in routes:
            ROUTES[route](prob)
    assert set(Counter(map(id, chois)).values()) <= {1}
    assert {id(op) for op in chois} <= {id(prob.op1), id(prob.op2)}
    assert len(adjoints) <= 1
    if len(routes) > 1:
        assert len(chois) == 2 and len(adjoints) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_general_derives_delta_and_the_adjoint_map_once(monkeypatch, tmp_path, d):
    """Its certificate, the qubit route and the upper bound share one Delta; both searches one adjoint map."""
    prob = _problem(d)
    files = [tmp_path / "1.json", tmp_path / "2.json"]
    for path, op in zip(files, (prob.op1, prob.op2)):
        path.write_text(json.dumps(operation_to_spec(op)))
    chois = _count(monkeypatch, "unnormalized_choi")
    adjoints = _count_adjoints(monkeypatch)
    args = ["general", "--file1", str(files[0]), "--file2", str(files[1]), "--p1", "0.4", "--starts", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    assert len(chois) == 2 and len(set(map(id, chois))) == 2
    assert len(adjoints) == 1


def test_delta_and_the_seesaw_arrays_are_read_only_and_keep_their_values():
    prob = _problem(3)
    delta = delta_operator(prob)
    assert delta_operator(prob) is delta
    want = prob.p1 * unnormalized_choi(prob.op1) - prob.p2 * unnormalized_choi(prob.op2)
    assert delta.tobytes() == want.tobytes()
    for array in (delta, *prob._seesaw):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    kraus, weights, adjoint = prob._seesaw
    assert kraus.tobytes() == np.concatenate([prob.op1.kraus, prob.op2.kraus]).tobytes()
    assert weights.tolist() == [0.4] * 2 + [-(1.0 - 0.4)] * 3
    want = np.einsum(ADJOINT, weights, kraus.conj(), kraus).reshape(9, 9)
    assert adjoint.tobytes() == want.tobytes()


@pytest.mark.parametrize("p1", [0.3, np.float64(0.3)], ids=["float", "float64"])
@pytest.mark.parametrize("as_list", [False, True], ids=["arrays", "lists"])
def test_helstrom_checks_each_argument_once(monkeypatch, p1, as_list):
    """Former route: 9 calls, each state three or four times and the measurement it built twice."""
    rng = np.random.default_rng(5)
    rho1, rho2 = random_density(3, rng), random_density(3, rng)
    if as_list:
        rho1, rho2 = rho1.tolist(), rho2.tolist()
    calls = _count(monkeypatch, "require_finite")
    hermitian = _count(monkeypatch, "is_hermitian")
    helstrom(rho1, rho2, p1)
    expected = [rho1, rho2] if type(p1) is float else [p1, rho1, rho2]  # a Python float is checked as it is
    assert sorted(map(id, calls)) == sorted(map(id, expected))
    assert hermitian == []


def _count_numpy(monkeypatch):
    """Wrap np.asarray, np.sum and np.min; the list gets the name of each call."""
    calls = []
    for name in ("asarray", "sum", "min"):
        original = getattr(np, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize(
    "q1, q2, p1, checked",
    [
        pytest.param([0.5, 0.5, 0.0, 0.0], (0.25,) * 4, 0.3, [], id="floats"),
        pytest.param([0.5, 0.5, 0.0, 0.0], [0.25] * 4, 0.3, [], id="lists"),
        pytest.param((0.5, 0.5, 0.0, 0.0), (0.25,) * 4, 0.3, [], id="tuples"),
        pytest.param(np.full(4, 0.25), np.array([1.0, 0.0, 0.0, 0.0]), 0.3, [], id="float64-arrays"),
        pytest.param([1, 0, 0, 0], [0.25] * 4, np.float64(0.3), ["q1", "p1"], id="ints-and-float64"),
        pytest.param(np.full(4, 0.25, dtype=np.float32), [0.25] * 4, 0.3, ["q1"], id="float32"),
    ],
)
def test_pauli_delta_summary_checks_python_floats_without_numpy(monkeypatch, q1, q2, p1, checked):
    """Former route: require_finite on every argument, numpy arrays of four entries and a 0-d prior.
    Four finite floats in a list, tuple or float64 array now take one pass in Python, with no numpy
    conversion, sum or minimum."""
    calls = _count(monkeypatch, "require_finite")
    numpy_calls = _count_numpy(monkeypatch)
    pauli_delta_summary(q1, q2, p1)
    assert sorted(map(id, calls)) == sorted(id({"q1": q1, "q2": q2, "p1": p1}[name]) for name in checked)
    if not checked:
        assert numpy_calls == []


@pytest.mark.parametrize(
    "build, checks",
    [
        pytest.param(lambda: opdisc.make_operation([np.eye(2), np.zeros((2, 2))]), 2, id="make_operation"),
        pytest.param(lambda: opdisc.weyl_channel(2, [0.25] * 4), 0, id="weyl_channel-2"),
        pytest.param(lambda: opdisc.weyl_channel(3, [1 / 9] * 9), 1, id="weyl_channel-3"),
        pytest.param(lambda: opdisc.weyl_channel(4, [1 / 16] * 16), 1, id="weyl_channel-4"),
    ],
)
def test_constructors_check_each_matrix_and_weight_vector_once(monkeypatch, build, checks):
    """Former routes: 4 calls for make_operation, which checked each Kraus operator again in
    QuantumOperation; 8 / 20 and then 4 / 10 / 17 for weyl_channel at d = 2 / 3 / 4, which checked
    the unitaries it had just built, once or twice each. Now only a weight vector of at least _SHORT
    entries goes through require_finite: four Python floats take one pass in Python."""
    calls = _count(monkeypatch, "require_finite")
    build()
    assert len(calls) == checks


@pytest.mark.parametrize(
    "build, completeness_sums",
    [
        pytest.param(lambda: opdisc.pauli_channel([0.5, 0.25, 0.0, 0.25]), 0, id="pauli_channel"),
        *(pytest.param(lambda d=d: opdisc.weyl_channel(d, [1 / d**2] * d**2), 0, id=f"weyl-{d}") for d in (2, 3, 4)),
        pytest.param(lambda: opdisc.weyl_channel(3, [1 / 9] * 9).as_operation(), 1, id="as_operation"),
    ],
)
def test_builders_never_check_again_what_they_built(monkeypatch, build, completeness_sums):
    """Former route: weyl_channel tested each of its d^2 exact unitaries for unitarity, and
    pauli_channel summed sum q_a sigma_a^dag sigma_a, which is sum q I. as_operation keeps its sum:
    weights off by up to PROBABILITY_TOL can push sum w U^dag U past INPUT_TOL for unitaries at the
    tolerance edge."""
    unitarity = _count(monkeypatch, "_is_unitary")
    completeness = _count(monkeypatch, "_complete")
    build()
    assert unitarity == []
    assert len(completeness) == completeness_sums


def _count_eigh(monkeypatch):
    """The list gets the number of matrices each np.linalg.eigh call takes: its stack's rows, or 1."""
    eigh = np.linalg.eigh
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(len(a) if np.ndim(a) == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return rows


def _identity_vs_depolarizing_unentangled():
    depolarizing = opdisc.weyl_channel(3, [1 / 9] * 9).as_operation()
    return pe_unentangled(DiscriminationProblem(opdisc.make_operation([np.eye(3)]), depolarizing, 0.5), num_starts=32)


def _fault_entangled():
    """pe_entangled on the benchmark's fault.d4 pair, built by the numeric workload as tests/parity.py builds it."""
    (op,) = [op for op in parity.numeric(opdisc) if op.name == "pe_entangled fault.d4"]
    return op.call()


@pytest.mark.parametrize(
    "run, evaluations, calls, rows",
    [
        pytest.param(_identity_vs_depolarizing_unentangled, 64, 3, 96, id="unentangled-identity-vs-depolarizing-3"),
        pytest.param(lambda: pe_entangled(probe_problem(3, 2)), 28, 56, 56, id="entangled-probe-3.2"),
        pytest.param(_fault_entangled, 76, 142, 142, id="entangled-fault.d4"),
    ],
)
def test_the_seesaw_moves_only_the_starts_it_keeps(monkeypatch, run, evaluations, calls, rows):
    """Former route: every step computed every row's next input, with the sign operator, M and a
    second stacked eigh, and maximize dropped the moves of the starts that stopped and of the
    rejected extrapolations: 4 eigh calls and 128 rows, 58 calls and 154 calls, the same evaluations.
    pe_entangled's count includes its certificate's two eigh calls. The last two rows pin the
    trajectories of the numpy build that recorded tests/data/parity.jsonl, as that record does."""
    taken = _count_eigh(monkeypatch)
    assert run().diagnostics.n_evaluations == evaluations
    assert (len(taken), sum(taken)) == (calls, rows)


def test_the_one_start_search_keeps_its_bookkeeping_out_of_numpy(monkeypatch):
    """Former route: maximize ran pe_entangled's one start through the stacked loop, whose masks,
    best values and inputs were length-1 arrays: 189 np.where calls over fault.d4's 76 evaluations."""
    where = np.where
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args))
        return where(*args, **kwargs)

    monkeypatch.setattr(np, "where", counted)
    assert _fault_entangled().diagnostics.n_evaluations == 76
    assert calls == []


# --- the former checks, as references ---


def former_check_prior(p1) -> float:
    value = require_finite(p1, "p1", float)
    if value.ndim:
        raise NonFinite(f"p1 must be a single number, got {p1!r}")
    p1 = float(value)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
    return p1


def former_check_probability_vector(q, length=None) -> np.ndarray:
    q = require_finite(q, "probability vector", float)
    if q.ndim != 1:
        raise InvalidProbabilityVector(f"expected a flat list of weights, got shape {q.shape}")
    if length is not None and q.size != length:
        raise InvalidProbabilityVector(f"expected {length} entries, got {q.size}")
    least = float(q.min(initial=np.inf))
    if not least >= -PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"negative entry {least:.3e}")
    total = float(q.sum())
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        raise InvalidProbabilityVector(f"entries sum to {total!r}, not 1")
    return q


def former_check_density_matrix(rho, d) -> np.ndarray:
    rho = require_matrix(rho, "state", check_count(d, "d", 1))
    if not is_hermitian(rho):
        raise InvalidState("state is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= INPUT_TOL:
        raise InvalidState(f"state trace is {trace}, not 1")
    if not float(np.min(np.linalg.eigvalsh(rho))) >= -INPUT_TOL:
        raise InvalidState("state has an eigenvalue below the positivity floor")
    return rho


def former_helstrom(rho1, rho2, p1):
    p1 = former_check_prior(p1)
    rho1 = require_matrix(rho1, "state")
    rho1, rho2 = former_check_density_matrix(rho1, len(rho1)), former_check_density_matrix(rho2, len(rho1))
    dec = eig_hermitian(p1 * rho1 - (1.0 - p1) * rho2)
    pe = max(0.0, 0.5 * (1.0 - float(np.sum(np.abs(dec.eigenvalues)))))
    keep = dec.eigenvalues >= 0
    v_pos = dec.eigenvectors[:, keep]
    v_neg = dec.eigenvectors[:, ~keep]
    return pe, TwoOutcomePovm(pi1=v_pos @ v_pos.conj().T, pi2=v_neg @ v_neg.conj().T)


def _bits(out):
    """A returned value as comparable bits: its type and bytes."""
    if isinstance(out, tuple):  # helstrom
        return _bits(out[0]), _bits(out[1].pi1), _bits(out[1].pi2)
    if isinstance(out, float):
        return type(out), struct.pack("<d", out)
    out = np.asarray(out)  # a weight vector: a list of Python floats now, a float array formerly
    return out.dtype.str, out.shape, out.tobytes()


def _outcome(call, *args):
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            return "returned", _bits(call(*args))
    except Exception as exc:  # the refusal itself is what is compared
        return "raised", type(exc), str(exc)


HALF = np.eye(2) / 2
PAIRS = [
    (former_check_prior, check_prior, lambda v: (v,)),
    (former_check_probability_vector, check_probability_vector, lambda v: (v,)),
    (former_check_probability_vector, check_probability_vector, lambda v: (v, 4)),
    (former_check_density_matrix, check_density_matrix, lambda v: (v, 2)),
    (former_helstrom, helstrom, lambda v: (v, HALF, 0.5)),
    (former_helstrom, helstrom, lambda v: (HALF, v, 0.5)),
    (former_helstrom, helstrom, lambda v: (np.diag([1.0, 0.0]), HALF, v)),
]


def _assert_same(value):
    for former, new, args in PAIRS:
        assert _outcome(new, *args(value)) == _outcome(former, *args(value)), (new.__name__, value)


def _rows():
    """Every value in a row of test_validation.py's tables, as given and placed where a state or weight goes."""
    values = []
    for test in vars(tables).values():
        for mark in getattr(test, "pytestmark", []):
            for row in mark.args[1] if mark.name == "parametrize" else ():
                row = row.values if isinstance(row, type(pytest.param())) else row
                values.extend(v for v in (row if isinstance(row, tuple) else (row,)) if not callable(v))
    leaves = [leaf for leaf, _ in tables.BAD_ENTRIES.values()] + [math.nan, math.inf, -math.inf]
    for name in ("state", "weight-vector"):
        nested, positions, _ = tables.NUMBER_INPUTS[name]
        values += [tables._placed(nested, at, leaf) for at in positions for leaf in leaves]
    for eps in (0.5 * INPUT_TOL, 2.0 * INPUT_TOL, 0.5 * PROBABILITY_TOL, 2.0 * PROBABILITY_TOL):
        values += [tables._non_hermitian_state(eps), tables._heavy_state(eps), tables._negative_state(eps)]
        values += [[1.0 + eps, 0.0, 0.0, 0.0], [0.5, 0.5 - eps, eps, 0.0], [-eps, 1.0 + eps, 0.0, 0.0]]
    values += [[v, 0.0, 0.0, 1.0] for v in leaves] + [tables._with(HALF, v) for v in (math.nan, math.inf, 0.5)]
    return values + [tables.Q_ID, [0.25] * 4, tables.IDENTITY, tables.EMPTY, [], 0.5, 1.0, 0.0, -0.0]


def test_every_table_row_meets_the_former_checks():
    rows = _rows()
    assert len(rows) > 300
    for value in rows:
        _assert_same(value)


_SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, -math.nan, math.inf, -math.inf, True, False,
     10**400, -(10**400), 2**1024, 1.0, 0.5, 0.25, 1e308, -1e-13]
)
SCALARS = st.one_of(
    _SPECIAL,
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats().map(np.array),  # 0-d arrays
    st.integers(-3, 3),
)
# weights that sum to 1 within a few roundings, so the sum's last bits decide
_NORMALIZED = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(lambda w: sum(w) > 0).map(
    lambda w: [x / math.fsum(w) for x in w]
)
VECTORS = st.one_of(
    st.lists(SCALARS, min_size=1, max_size=16),
    st.lists(SCALARS, min_size=1, max_size=16).map(tuple),
    _NORMALIZED,
    _NORMALIZED.map(tuple),
    _NORMALIZED.map(np.array),
    _NORMALIZED.map(lambda w: np.array(w, dtype=np.float32)),
    st.lists(st.floats(), min_size=1, max_size=16).map(np.array),
    st.lists(st.lists(SCALARS, max_size=3), max_size=4),  # nested and ragged
)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(SCALARS, VECTORS, SCALARS.map(lambda v: [[v, 0], [0, 0.5]])))
def test_fuzzed_input_meets_the_former_checks(value):
    _assert_same(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=_SHORT - 1))
def test_a_python_sum_of_fewer_than_short_floats_has_numpys_bits(values):
    """check_probability_vector sums fewer than _SHORT floats with reduce(add, q, 0.0) instead of numpy."""
    with np.errstate(over="ignore", invalid="ignore"):
        numpy_sum = float(np.array(values).sum())
    python_sum = functools.reduce(add, values, 0.0)
    if math.isnan(numpy_sum):  # inf - inf on the way
        assert math.isnan(python_sum)
    else:
        assert struct.pack("<d", python_sum) == struct.pack("<d", numpy_sum)


def test_at_short_floats_numpy_sums_pairwise():
    """Why the Python sum stops below _SHORT: at 8 entries numpy's pairwise order gives other bits."""
    values = [1e16] + [1.0] * (_SHORT - 1)
    assert functools.reduce(add, values, 0.0) != float(np.array(values).sum())
