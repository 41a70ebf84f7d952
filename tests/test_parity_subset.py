"""The Tier-1 subset of the parity record: the probe's pe_entangled outputs and the benchmark's numeric,
structured and seed-1 cli outputs print as recorded.

tests/parity.py writes one line per output to tests/data/parity.jsonl and,
with --against, compares every line bit for bit; that full run takes a few
seconds, most of it the 280-pair probe. This test recomputes the 280 probe
lines of pe_entangled, whose one-start searches run 2 to 234 evaluations,
the 8 numeric lines and the 58 structured lines (seed 1), and requires
that their floats, printed in the CLI's 10 significant digits, and
their fields other than a hash (the Pauli sign, axis and verdict) equal the
record, and reruns the 10 `cli` workload invocations at seed 1 (the oracle at
d = 2, 3 and 4 among them) in process, each of which must print the document
recorded for it. Bits, hashes and diagnostics, and the probe's
pe_unentangled lines, are left to the script: LAPACK rounding may move bits
between numpy builds.
"""

import json
from pathlib import Path

import parity

RECORD = Path(__file__).with_name("data") / "parity.jsonl"


def _recorded() -> dict:
    return {line["name"]: line for line in map(json.loads, RECORD.read_text().splitlines())}


def _printed(line: dict) -> tuple[dict, dict]:
    return line["printed"], {k: v for k, v in line.get("other", {}).items() if k != "povm"}


def test_the_probe_entangled_outputs_print_as_recorded():
    recorded = _recorded()
    lines = parity.probe_lines(("pe_entangled",))
    assert len(lines) == 280 and all(line["name"].endswith(" pe_entangled") for line in lines)
    moved = [
        f"{line['name']}: {recorded[line['name']]['printed']} -> {line['printed']}"
        for line in lines
        if line["printed"] != recorded[line["name"]]["printed"]
    ]
    assert moved == []


def test_the_numeric_and_structured_outputs_print_as_recorded():
    recorded = _recorded()
    lines = parity.benchmark_lines()
    assert [line["name"].split()[0] for line in lines] == ["numeric"] * 8 + ["structured"] * 58
    moved = [
        f"{line['name']}: {_printed(recorded[line['name']])} -> {_printed(line)}"
        for line in lines
        if _printed(line) != _printed(recorded[line["name"]])
    ]
    assert moved == []


def test_the_seed_1_cli_outputs_print_as_recorded():
    recorded = _recorded()
    lines = parity.cli_lines((1,))
    assert [line["name"].split()[:2] for line in lines] == [["cli", "seed=1"]] * 10
    moved = [line["name"] for line in lines if line["printed"] != recorded[line["name"]]["printed"]]
    assert moved == []
