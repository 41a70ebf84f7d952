"""The benchmark's span tracer still finds, wraps and restores every function it traces by name.

perfbench/spans.py wraps opdisc functions by module and name. Renaming or
deleting one of them breaks a traced benchmark run, so this check runs the
tracer over one pe_entangled and one pe_unentangled call.
"""

import importlib.util
from pathlib import Path

import numpy as np

import opdisc
from opdisc import pe_entangled, pe_unentangled

from helpers import random_qubit_problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(traced):
    """(namespace, name) -> object for every traced name in opdisc and its traced modules."""
    namespaces = [opdisc, *(getattr(opdisc, module) for module in traced)]
    names = {name for group in traced.values() for name in group}
    return {(ns.__name__, name): getattr(ns, name) for ns in namespaces for name in names if hasattr(ns, name)}


def test_tracer_wraps_the_numeric_optima_and_restores_them():
    spans = _load_spans()
    importlib.import_module("opdisc.cli")  # install imports it too; snapshot it beforehand
    before = _bindings(spans.TRACED)
    tracer = spans.Tracer()
    prob = random_qubit_problem(np.random.default_rng(3))
    try:
        tracer.install(opdisc)
        assert hasattr(opdisc.discrimination.pe_entangled, "__wrapped__")
        traced_e = opdisc.pe_entangled(prob)
        traced_u = opdisc.pe_unentangled(prob, num_starts=6)
    finally:
        tracer.uninstall()

    for name in ("discrimination.pe_entangled", "discrimination.pe_unentangled"):
        assert tracer.count(name, 2) == 1
    assert tracer.count("optimizer.maximize", 2) == 2
    assert tracer.count("optimizer.decode_p", 2) == 0  # pe_entangled writes its two starts directly
    assert tracer.count("optimizer.decode_pure_state", 2) == 1  # one call decodes the whole start stack
    assert tracer.count("optimizer.objective", 2) > 0
    assert tracer.count("discrimination.delta_operator", 2) == 1  # Delta is built once

    assert _bindings(spans.TRACED) == before
    assert all(not hasattr(obj, "__wrapped__") for obj in before.values())
    # tracing does not change a result
    assert traced_e.pe_entangled == pe_entangled(prob).pe_entangled
    assert traced_u.pe_unentangled == pe_unentangled(prob, num_starts=6).pe_unentangled
