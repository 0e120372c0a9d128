"""Host speed: a fixed calibration loop timed next to the measured work.

The speed of a shared host drifts by up to 2x, over seconds and over
minutes, and every wall-clock figure follows it.  :class:`HostSpeed`
times a fixed loop of Python arithmetic, dict work and 16x16 NumPy
products (the mix the serving and tuning paths run) before and after
each measured stretch of at most about half a second.  A time measured
in that stretch is scaled by ``REFERENCE_S`` over the loop's mean time
at its two ends: the result is the time the stretch would have taken on
a host that runs the loop in exactly ``REFERENCE_S``.  The loop runs
none of the program's code, so a change to the program moves the scaled
times in full, and a change in host speed cancels out.

Stretches end between requests in the serving loop (the caller asks
for a :meth:`HostSpeed.factor`), and on an interval timer inside a long
single call such as one plan's tuning (:meth:`HostSpeed.time`).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "HostSpeed"]

T = TypeVar("T")

#: the calibration loop's time on the reference host
REFERENCE_S = 1.0e-3
#: loop runs per sample; a sample is their median, so one preemption
#: does not move it
RUNS = 5
#: how long a measured stretch runs between two samples
STRETCH_S = 0.5

_A = np.arange(256, dtype=np.float32).reshape(16, 16)


def calibrate(steps: int = 200) -> float:
    """Seconds for one run of the fixed loop."""
    acc = 0.0
    began = time.perf_counter()
    for i in range(steps):
        j = i % 16
        row = _A[j, :] * np.float32(1.5) + _A[:, j]
        product = _A[:, :8] @ _A[:8, :]
        acc += float(row[3]) + float(product[j, j]) + i * 0.5
        record = {"k": i, "v": (i, j)}
        acc += record["k"] + len(record["v"])
    return time.perf_counter() - began


class HostSpeed:
    """Calibration samples that bracket each measured stretch."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = None

    def _sample(self) -> float:
        sample = statistics.median(calibrate() for _ in range(RUNS))
        self.samples.append(sample)
        return sample

    def mark(self) -> None:
        """Start a stretch."""
        self._last = self._sample()

    def factor(self) -> float:
        """Scale for the times measured since the last mark (or factor),
        from the samples at both ends of the stretch; starts the next."""
        now = self._sample()
        scale = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return scale

    def time(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` and the seconds it took, scaled to the reference speed.

        An interval timer interrupts ``fn`` every ``STRETCH_S`` seconds to
        sample the host speed, so a long call is scaled lap by lap; the
        sampling itself is not timed.  Call it from the main thread only,
        with no other thread running Python code.
        """
        laps: List[float] = []
        began = 0.0
        active = True

        def lap(*_) -> None:
            nonlocal began
            if not active:
                return
            elapsed = time.perf_counter() - began
            laps.append(elapsed * self.factor())
            began = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, lap)
        self.mark()
        began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, STRETCH_S, STRETCH_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            lap()
            active = False
            signal.signal(signal.SIGALRM, previous)
        return result, sum(laps)
