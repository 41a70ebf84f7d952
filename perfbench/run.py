"""Benchmark entry point.

    python3 perfbench/run.py --workload numeric|structured|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; opdisc is imported from ``src``.
Set-up is timed several times, each from the spawn of a fresh interpreter
to the moment the workload's inputs are built, and reported as the median.
The workload then runs in its own fresh interpreter with BLAS threads capped
at the number of usable cores. The last line printed is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json when --trace is 0, its per-layer metrics when --trace is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up samples per run: three set-up-only interpreters and the worker itself
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashing is randomized per process, and with it dict layouts; a
    # fixed seed removes a process-to-process spread of several percent
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def spawn(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    return proc, start


def wait_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
    return time.perf_counter() - start


def run_worker(args, deadline: float) -> tuple[dict, list[float]]:
    setups = []
    for _ in range(SETUP_PROBES - 1):
        proc, start = spawn(args, setup_only=True)
        try:
            setups.append(wait_ready(proc, start))
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            proc.kill()
            proc.wait()
    proc, start = spawn(args, setup_only=False)
    try:
        setups.append(wait_ready(proc, start))
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("numeric", "structured", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "opdisc" / "__init__.py").is_file():
        print(f"error: no opdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        result, setups = run_worker(args, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if sorted(metrics) != sorted(expected):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 3

    for name in expected:
        print(f"{name:40s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"rounds {result['rounds']}")
    for reason in result["unexpected"]:
        print(f"unexpected failure: {reason}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
