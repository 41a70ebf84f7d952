"""Steadiness of the end-to-end metrics across runs and seeds.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workload NAME ...] [--first-seed 1]

Runs each workload --runs times per set through run.py, each run with its own
seed, at BENCHMARK.json's run_seconds. For every end-to-end metric it prints
the median, the quartiles and the spread (Q3 - Q1) / median against the
metric's bound, and the share of failed operations. With --sets 2 it also
prints how far the second set's median moved from the first, in the metric's
worse direction, against the bound. Raw results go to
.perfbench_out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    steady = True
    for workload in workloads:
        sets = []
        with open(out_dir / f"steady-{workload}.jsonl", "a", encoding="utf-8") as log:
            for k in range(args.sets):
                results = []
                for i in range(args.runs):
                    seed = args.first_seed + k * args.runs + i
                    result = run_once(workload, seed, spec["run_seconds"])
                    log.write(json.dumps({"seed": seed, **result}) + "\n")
                    log.flush()
                    results.append(result)
                sets.append(results)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':16s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} {'spread':>8s} {'bound':>6s}  shift")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results]) for results in sets]
            median, q1, q3, rel = stats[0]
            line = f"  {name:16s} {median:11.5g} {q1:11.5g} {q3:11.5g} {rel:8.4f} {bound:6.3f}"
            if name != "setup_s" and rel > bound:
                steady = False
                line += "  SPREAD ABOVE BOUND"
            if len(stats) == 2:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                shift = sign * (stats[1][0] - median) / median
                line += f"  {shift:+.4f}"
                steady = steady and shift <= bound
            print(line)
        shares = {(r["failed"], r["attempted"]) for results in sets for r in results}
        print("  failed/attempted:", ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
        if len({f / a for f, a in shares}) != 1 or not all(r["correct"] for s in sets for r in s):
            steady = False
            print("  FAILED SHARE DIFFERS OR A RUN WAS INCORRECT")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
