"""Parity record: one JSON line per output of the random probe and of the benchmark's numeric operations.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/parity.py > tests/data/parity.jsonl
    PYTHONPATH=src python tests/parity.py --against tests/data/parity.jsonl

The probe is 280 random pairs, helpers.probe_problem(d, s) for s < 120 at
d = 2 and 3 and s < 40 at d = 4, each run through pe_entangled and
pe_unentangled at their defaults; the numeric operations are those of
perfbench's `numeric` workload. A line holds the output's name, the repr of
each float in the result, the same floats in the 10 significant digits the
CLI prints, a hash of the returned input's bytes and repr(diagnostics).

--against writes no record: it lists every line that differs from the file,
first those whose printed digits moved, then those that differ only in bits,
and exits 1 if any line differs. LAPACK rounding alone can move bits, and
near a plateau even printed digits, between numpy or BLAS builds, so the
record holds for the build that wrote it. The run takes a few seconds, so
Tier-1 leaves it to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import opdisc

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from helpers import probe_problem  # noqa: E402
from workloads import numeric  # noqa: E402

PROBE = ((2, 120), (3, 120), (4, 40))
FLOATS = ("pe_entangled", "pe_unentangled", "lower_bound")


def _line(name: str, result) -> dict:
    values = {f: float(getattr(result, f)) for f in FLOATS if getattr(result, f) is not None}
    found = result.optimal_xi if result.optimal_xi is not None else result.optimal_pure_input
    return {
        "name": name,
        "floats": {f: repr(v) for f, v in values.items()},
        "printed": {f: f"{v:.10g}" for f, v in values.items()},  # as the CLI prints them
        "input": hashlib.sha256(np.ascontiguousarray(found).tobytes()).hexdigest()[:16],
        "diagnostics": repr(result.diagnostics),
    }


def record() -> list[dict]:
    lines = []
    for d, count in PROBE:
        for s in range(count):
            prob = probe_problem(d, s)
            lines.append(_line(f"probe d={d} s={s} pe_entangled", opdisc.pe_entangled(prob)))
            lines.append(_line(f"probe d={d} s={s} pe_unentangled", opdisc.pe_unentangled(prob)))
    for op in numeric(opdisc):
        lines.append(_line(f"numeric {op.name}", op.call()))
    return lines


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """One entry per name whose line is missing on either side or differs."""
    before = {line["name"]: line for line in old}
    after = {line["name"]: line for line in new}
    printed, bits = [], []
    for name in [*before, *(n for n in after if n not in before)]:
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            printed.append(f"{'new' if a is None else 'missing'}: {name}")
        elif a != b:
            moved = [f"{f} {a['printed'].get(f)} -> {b['printed'].get(f)}"
                     for f in FLOATS if a["printed"].get(f) != b["printed"].get(f)]
            fields = [k for k in a if a[k] != b.get(k)]
            (printed if moved else bits).append(f"{name}: {'; '.join(moved) or ', '.join(fields)}")
    return [f"printed {entry}" for entry in printed] + [f"bits    {entry}" for entry in bits]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="list the lines that differ from this record")
    args = parser.parse_args(argv)
    lines = record()
    if args.against is None:
        for line in lines:
            print(json.dumps(line))
        return 0
    old = [json.loads(text) for text in args.against.read_text().splitlines() if text]
    found = differences(old, lines)
    for entry in found:
        print(entry)
    print(f"{len(found)} of {len(lines)} lines differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
