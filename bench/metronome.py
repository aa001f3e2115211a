"""Machine-speed reference for timing on a shared host.

On a host whose cores are shared with other work, the speed of one Python
thread drifts by a quarter or more over tens of seconds, and CPU time drifts
with it.  The metronome samples that speed while the program runs: on every
SIGALRM, every INTERVAL_S seconds, it times a fixed reference kernel on the
benchmark's one thread.  A timed interval is then reported as its wall time
minus the ticks inside it, scaled by REFERENCE_TICK_S over the mean tick
inside it (or the nearest tick, for an interval with none).  The kernel is
fixed, so the scaled figure moves with the program and not with the host.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.02
# the kernel's typical time on the 2-vCPU x86-64 host the benchmark was
# calibrated on; scaled times read as seconds on that host
REFERENCE_TICK_S = 2.5e-4


@dataclass(frozen=True)
class _State:
    x: float
    y: float
    psi: float


def reference_kernel(steps: int = 80) -> int:
    """Fixed work shaped like the simulator's inner loop: closures, trig,
    frozen dataclass states and list appends."""
    ratio = 0.5
    state = _State(0.0, 0.0, 0.0)
    kept = []
    for i in range(steps):
        delta = 0.3 * math.sin(0.01 * i)

        def f(psi, d):
            beta = math.atan(ratio * math.tan(d))
            return math.cos(psi + beta), math.sin(psi + beta), math.sin(beta)

        a = f(state.psi, delta)
        b = f(state.psi + 5e-4 * a[2], delta)
        state = _State(
            state.x + 1e-3 * (a[0] + b[0]),
            state.y + 1e-3 * (a[1] + b[1]),
            math.remainder(state.psi + 1e-3 * (a[2] + b[2]), math.tau),
        )
        if i % 10 == 0:
            kept.append(state)
    return len(kept)


class Metronome:
    """Context manager that records (start, duration) of each reference
    tick while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of ticks inside [start, end], factor that scales the
        interval's remaining time to the reference host)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        if not inside:
            if not self.durations:
                return 0.0, 1.0
            mid = (start + end) / 2
            nearest = min(
                (j for j in (lo - 1, lo) if 0 <= j < len(self.starts)),
                key=lambda j: abs(self.starts[j] - mid),
            )
            inside_s, mean = 0.0, self.durations[nearest]
        else:
            inside_s, mean = sum(inside), statistics.fmean(inside)
        return inside_s, REFERENCE_TICK_S / mean
