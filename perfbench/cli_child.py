"""``python -m opdisc.cli`` with the calibration kernel sampled in the same process.

    python3 perfbench/cli_child.py <opdisc cli arguments>

Runs opdisc.cli as ``__main__`` exactly as ``python -m`` does, while a
kernel.Sampler times the calibration kernel every 50 ms. The last line on
standard error is ``kernel <median kernel time> <total time in the kernel>``,
in seconds.
"""

import runpy
import sys

from kernel import Sampler

if __name__ == "__main__":
    sys.argv = ["opdisc", *sys.argv[1:]]
    sampler = Sampler(interval=0.05)
    try:
        with sampler:
            runpy.run_module("opdisc.cli", run_name="__main__", alter_sys=True)
    finally:
        print(f"kernel {sampler.scale(0)!r} {sampler.total!r}", file=sys.stderr)
