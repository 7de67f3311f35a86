"""Machine-speed sampling, so that a worker's timings can be scaled to one
reference speed.

The shared virtual machines this benchmark runs on change speed by up to 1.8
times, in phases from a second to several minutes long, and the process CPU
time slows with the wall time, so neither escapes it (NOTES.md, "Host
noise").  A worker therefore runs a `Sampler`: a SIGALRM handler that runs
`probe()`, a fixed piece of interpreted Python, every INTERVAL_S of wall
time, during set-up and during each operation.  An operation's time, less
the probes that ran inside it, is scaled by REFERENCE_S over the mean time
of the probes around it: the result is the time the operation would have
taken on a machine that runs the probe in REFERENCE_S.  The probe is the
benchmark's own code, so a change to the library moves the scaled times and
never the probe.

Signal handlers run between bytecodes of the main thread, so a probe never
interrupts native code; it runs when the interpreter next gets control.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Probe time at the reference speed: about the median probe time on the
# 2-CPU Xeon virtual machine of the baseline in NOTES.md.
REFERENCE_S = 0.0004
# Wall time between two probes.
INTERVAL_S = 0.02
# An interval is scaled by the probes that ran in it, widened to at least
# this many, so that one probe's jitter does not scale a short operation.
NEAREST = 8


def probe() -> None:
    """A fixed piece of interpreted work: float arithmetic and dict stores,
    as in the library's scalar recurrences."""
    total, table = 0.0, {}
    for i in range(1500):
        total += (i * 0.5) ** 0.5 / (1.0 + i)
        table[i & 63] = total


class Sampler:
    """Runs `probe()` every INTERVAL_S from SIGALRM, in the main thread, and
    records when each probe started and how long it took."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of probing inside [t0, t1) of perf_counter time."""
        i, j = self._between(t0, t1)
        return sum(self.took[i:j])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that scales work done in [t0, t1) to the reference speed:
        REFERENCE_S over the mean time of the probes that started in it,
        widened on both sides to at least NEAREST probes."""
        i, j = self._between(t0, t1)
        while j - i < NEAREST and (i > 0 or j < len(self.at)):
            if i > 0:
                i -= 1
            if j < len(self.at) and j - i < NEAREST:
                j += 1
        if i == j:
            raise RuntimeError("no speed probe ran in this worker")
        return REFERENCE_S / statistics.fmean(self.took[i:j])
