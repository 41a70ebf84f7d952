"""One workload in a fresh interpreter: set up, report ready, run whole rounds, report.

Started by run.py, which times set-up from the spawn to the ``ready`` line
this process prints once opdisc is imported and the inputs are built. The
last line of output is a JSON document with the run's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from kernel import Sampler
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SAMPLE_INTERVAL_S = 0.1


def build(workload: str, seed: int, opdisc) -> list:
    if workload == "numeric":
        return workloads.numeric(opdisc)
    if workload == "structured":
        return workloads.structured(seed, opdisc)
    return workloads.cli(seed, ROOT, OUT / f"cli-seed{seed}")


class Round:
    """Runs operations, times each call, checks each output.

    Besides seconds, each call's time is given in kernels: divided by the
    median time of the calibration kernel sampled while the call ran (see
    kernel.Sampler), with the sampler's own time taken out.
    """

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.facts: dict[tuple[str, int], list[float]] = {}

    def run(self, ops) -> tuple[dict[int, float], dict[int, float]]:
        """(seconds, kernels) of the operations on each dimension."""
        seconds = {d: 0.0 for d in workloads.DIMS}
        cost = dict(seconds)
        for op in ops:
            self.attempted += 1
            first, handled = len(self.sampler.samples), self.sampler.total
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result, reasons = None, [f"raised {type(exc).__name__}: {exc}"]
            else:
                reasons = None
            elapsed = time.perf_counter() - start - (self.sampler.total - handled)
            scale = self.sampler.scale(first)
            if isinstance(result, workloads.Timed):
                # a child process timed its own kernel, which tracks its speed better
                elapsed -= result.calibrating_s
                scale = result.kernel_s
                result = result.output
            seconds[op.d] += elapsed
            cost[op.d] += elapsed / scale
            if reasons is None:
                outcome = op.check(result)
                for key, value in outcome.facts.items():
                    self.facts.setdefault((key, op.d), []).append(value)
                reasons = outcome.reasons
            if reasons:
                self._fail(op, reasons)
        return seconds, cost

    def _fail(self, op, reasons: list[str]) -> None:
        self.failed += 1
        if not op.known_fault:
            self.unexpected.append(f"{op.name} (d={op.d}): {'; '.join(reasons)}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_profile() -> tuple[float, float]:
    """(import opdisc, import scipy.optimize) in seconds, from python -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import opdisc"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e6
    return cumulative.get("opdisc", 0.0), cumulative.get("scipy.optimize", 0.0)


def in_process_cli(ops):
    """The cli mix through opdisc.cli.main in this process, for the traced run."""
    import opdisc.cli

    def call_main(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = opdisc.cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"opdisc.cli.main exited {code}")
        return json.loads(buffer.getvalue())

    return [
        workloads.Operation(op.name, op.d, lambda args=op.cli_args: call_main(args), op.check, states=op.states)
        for op in ops
    ]


def traced_metrics(tracer: Tracer, rounds: Round, overhead_s: float, imports) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for d in workloads.DIMS:
        m[f"linalg.trace_norm_us.d{d}"] = (tracer.mean_us("linalg.trace_norm", d), "us")
    m["linalg.trace_norm_calls"] = (tracer.count("linalg.trace_norm"), "count")
    builds = ("channels.make_operation", "channels.pauli_channel", "channels.weyl_channel")
    m["channels.build_ms"] = (tracer.mean_us(builds) / 1e3, "ms")
    m["channels.choi_us"] = (tracer.mean_us("channels.unnormalized_choi"), "us")
    for d in workloads.DIMS:
        calls = tracer.count("optimizer.maximize", d)
        evals = tracer.count("optimizer.objective", d)
        agree = tracer.agreement.get(d, [])
        m[f"optimizer.evals.d{d}"] = (evals / calls if calls else 0.0, "count")
        m[f"optimizer.eval_us.d{d}"] = (tracer.mean_us("optimizer.objective", d), "us")
        m[f"optimizer.self_s.d{d}"] = (tracer.total_s("optimizer.maximize", d, self_time=True), "s")
        m[f"optimizer.agree_ratio.d{d}"] = (statistics.fmean(agree) if agree else 0.0, "ratio")
    for d in workloads.DIMS:
        m[f"discrimination.entangled_s.d{d}"] = (tracer.total_s("discrimination.pe_entangled", d), "s")
        m[f"discrimination.unentangled_s.d{d}"] = (tracer.total_s("discrimination.pe_unentangled", d), "s")
        gaps = rounds.facts.get(("certified_gap", d), [])
        m[f"discrimination.certified_gap.d{d}"] = (max(gaps) if gaps else 0.0, "probability")
    closed = (
        "discrimination.pauli_delta_summary",
        "discrimination.pe_random_unitary_exact",
        "discrimination.pe_random_unitary_bounds",
        "discrimination.bound_max_entangled",
    )
    m["discrimination.closed_form_us"] = (tracer.mean_us(closed), "us")
    m["discrimination.helstrom_us"] = (tracer.mean_us("discrimination.helstrom"), "us")
    oracle = ("oracle.brute_force_unentangled", "oracle.brute_force_entangled")
    for d in workloads.DIMS:
        states = sum(rounds.facts.get(("oracle_states", d), []))
        busy = sum(tracer.total_s(name, d) for name in oracle)
        m[f"oracle.state_us.d{d}"] = (busy / states * 1e6 if states else 0.0, "us")
    m["cli.import_s"] = (imports[0], "s")
    m["cli.import_scipy_s"] = (imports[1], "s")
    m["cli.parse_ms"] = (tracer.mean_us(("cli.build_parser", "cli.parse_channel_file")) / 1e3, "ms")
    m["cli.main_s"] = (tracer.mean_us("cli.main") / 1e6, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def traced_run(args, opdisc, ops, tracer: Tracer, rounds: Round) -> tuple[dict, dict]:
    """The round's d = 2 operations untraced, then the whole round traced."""
    if args.workload == "cli":
        ops = in_process_cli(ops)
    baseline = Round(rounds.sampler)
    untraced_d2 = sum(baseline.run([op for op in ops if op.d == 2])[0].values())
    rounds.unexpected.extend(baseline.unexpected)
    tracer.install(opdisc)
    try:
        traced = rounds.run(ops)[0]
    finally:
        tracer.uninstall()
    for op in ops:
        if op.states:
            rounds.facts.setdefault(("oracle_states", op.d), []).append(op.states)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = traced_metrics(tracer, rounds, traced[2] - untraced_d2, import_profile())
    return metrics, {"rounds": 1, "spans": len(tracer.spans), "spans_dropped": tracer.dropped}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import opdisc

    # a traced run also records the spans of building the inputs
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(opdisc)
    ops = build(args.workload, args.seed, opdisc)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with Sampler(interval=0.0 if args.trace else SAMPLE_INTERVAL_S) as sampler:
        rounds = Round(sampler)
        if args.trace:
            metrics, extra = traced_run(args, opdisc, ops, tracer, rounds)
        else:
            per_round: list[dict[int, float]] = []
            start = time.perf_counter()
            while not per_round or time.perf_counter() - start < args.seconds:
                per_round.append(rounds.run(ops)[1])
            metrics = {
                f"cost.d{d}": {"value": statistics.median(r[d] for r in per_round), "unit": "kernels"}
                for d in workloads.DIMS
            }
            metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
            extra = {"rounds": len(per_round)}

    print(json.dumps({
        "correct": not rounds.unexpected,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "unexpected": rounds.unexpected,
        "metrics": metrics,
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
