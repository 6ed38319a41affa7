"""Wall time scaled to a reference CPU speed, sampled while the work runs.

On a shared host the speed of one virtual CPU drifts in regimes of
seconds: the same pure-Python loop runs up to 1.5 times faster in one
stretch than in the next.  A phase's wall time therefore depends on the
regimes it happened to overlap, and across processes that noise is far
larger than most changes worth measuring.

:class:`SpeedProbe` measures the regime instead of waiting it out.  While
it is running, a ``SIGALRM`` timer interrupts the main thread every
``interval`` seconds, between two bytecodes of whatever the program is
doing, and times a few short runs of a fixed calibration kernel on the
same thread and CPU.  The time spent in the probe is subtracted from
every phase, and the phase is scaled by the probe speed seen during it::

    reference seconds = (wall - probe time) * (mean probe speed / REFERENCE_SPEED)

A phase that runs 20% slower because the CPU is slower keeps its
reference seconds; a phase that runs 20% slower because the program does
more work does not.  With the probe stopped, phases report plain wall
seconds.

The kernel runs long enough (about 5 ms per sample) to see the CPU time
the host withholds in slices, which a sub-millisecond kernel misses; at
one sample per 0.2 s the probe costs about 5% of the wall time, all of it
subtracted.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

__all__ = ["REFERENCE_SPEED", "Phase", "SpeedProbe"]

#: Kernel rounds per second that define one reference second, close to the
#: median probe speed of the two-vCPU x86-64 VM the benchmark was tuned on
#: (CPython 3.11), so reference seconds read about like its wall seconds.
REFERENCE_SPEED = 10_000_000.0

#: Rounds per kernel run, and runs per sample (the sample is their median).
_ROUNDS = 10_000
_RUNS = 5


def _kernel(rounds: int) -> int:
    """A fixed amount of interpreter work."""
    acc = 0
    for i in range(rounds):
        acc += i * i % 7
    return acc


def measure_speed() -> float:
    """Kernel rounds per second now: the median of a few short runs."""
    times = []
    for _ in range(_RUNS):
        start = perf_counter()
        _kernel(_ROUNDS)
        times.append(perf_counter() - start)
    return _ROUNDS / statistics.median(times)


@dataclass
class Phase:
    """One measured phase: raw wall, probe time inside it, probe speeds."""

    wall: float
    probe_time: float
    speeds: list

    @property
    def seconds(self) -> float:
        """Reference seconds (plain wall seconds when nothing was probed)."""
        net = self.wall - self.probe_time
        if not self.speeds:
            return net
        return net * statistics.fmean(self.speeds) / REFERENCE_SPEED


class SpeedProbe:
    """Samples CPU speed on the main thread while ``running``."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.speeds: list[float] = []
        self.busy = 0.0
        self.running = False
        #: Called with the seconds of each sample, e.g. so a layer ledger
        #: does not charge the probe to the call it interrupted.
        self.on_busy = None
        self._previous = None

    def _sample(self, *_args) -> None:
        start = perf_counter()
        self.speeds.append(measure_speed())
        elapsed = perf_counter() - start
        self.busy += elapsed
        if self.on_busy is not None:
            self.on_busy(elapsed)

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.running = True
        return self

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> tuple[float, float, int]:
        """A phase boundary.  It probes once, so even a phase shorter than
        the interval has a sample at each end; the probe is not timed."""
        index = len(self.speeds)
        if self.running:
            self._sample()
        return perf_counter(), self.busy, index

    def since(self, mark: tuple[float, float, int]) -> Phase:
        """The phase from ``mark`` to now."""
        end = self.mark()
        return Phase(wall=end[0] - mark[0], probe_time=end[1] - mark[1],
                     speeds=self.speeds[mark[2]:end[2] + 1])
