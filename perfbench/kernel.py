"""The calibration kernel: a fixed piece of numpy work whose time tracks the machine's speed.

On a shared machine the same computation runs tens of percent faster or
slower from one process to the next and over tens of seconds. Dividing a
time by the kernel's time, measured in the same process while it runs,
cancels most of that drift.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_INPUTS = [
    (lambda g: g + g.conj().T)(_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n)))
    for n in (4, 9, 16)
]


def kernel_once() -> float:
    """Seconds for one run of the kernel: eigvalsh, products and Kronecker
    products on 4x4, 9x9 and 16x16 Hermitian matrices, the sizes opdisc works on."""
    start = time.perf_counter()
    for _ in range(20):
        for h in _INPUTS:
            np.linalg.eigvalsh(h @ h)
        np.kron(_INPUTS[0], _INPUTS[0])
    return time.perf_counter() - start


class Sampler:
    """Runs the kernel every `interval` seconds of wall time inside this process
    (never, when `interval` is 0: traced runs keep the kernel out of their spans).

    A SIGALRM handler runs between two bytecodes of the main thread, so the
    samples fall inside whatever opdisc call is running and see the speed it
    sees. `total` is the time spent running the kernel, which callers take out
    of the times they measure.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_once())
        self.total += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        start = time.perf_counter()
        self.samples.extend(kernel_once() for _ in range(5))
        self.total += time.perf_counter() - start
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """Median kernel time over the samples taken since index `first`,
        or over the last five when fewer than five were taken since."""
        recent = self.samples[first:]
        if len(recent) < 5:
            recent = self.samples[-5:]
        return statistics.median(recent)
