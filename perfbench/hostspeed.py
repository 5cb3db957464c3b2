"""Host speed sampling: timed seconds scaled to a quiet host.

On a virtual machine of a shared host, the same pass can take twice as
long from one minute to the next: the host slows the vCPU down, not
the program.  The median of a run's passes follows how busy the host
was during the run, so two runs of the same code can differ by more
than any useful bound.

The :class:`Sampler` measures how fast the host is running while the
program runs.  Every ``INTERVAL_S`` of wall time a timer signal
interrupts the program, and the handler times :func:`chunk`, a fixed
piece of pure-Python work (heap, dict, tuple and string operations,
the kind the simulator and the analyses do).  ``REFERENCE_S / t`` for a
chunk that took ``t`` seconds is the host's speed at that moment
relative to a quiet host.  A span's seconds, less the time its samples
took, times the mean speed of its samples, is what the span would have
taken on the quiet host.  The samples fall evenly over wall time, so
their mean speed is the span's time-averaged speed.

Scaling leaves work the program does or stops doing in full: a change
that halves a span's work halves its scaled time at any host speed.
It assumes that the program slows down with the host as the chunk
does; a host that slows the two differently shows in the per-layer
``host.speed`` and ``host.unscaled_wall_s`` metrics.

Only the standard library is used, and nothing here depends on
``repro``, so the scale is the same for every commit measured.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

#: Wall seconds between samples: 3 to 6% of the time goes to sampling.
INTERVAL_S = 0.01

#: Seconds :func:`chunk` takes on a quiet host: about the fifth
#: percentile of its time, timed back to back and during `farm-batch`
#: passes, on the 2-vCPU virtual machine (Intel Xeon, Python 3.11.7)
#: the benchmark was written on.
REFERENCE_S = 0.000300


def chunk() -> int:
    """A fixed piece of pure-Python work taking a few tenths of a
    millisecond."""
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[(i, x & 255)] = str(x)
    total = 0
    while heap:
        key, i = heapq.heappop(heap)
        total += len(table.pop((i, key & 255)))
    return total


def speed(samples: list[float]) -> float | None:
    """Mean host speed over ``samples`` (chunk seconds), relative to
    the quiet host; ``None`` without samples."""
    if not samples:
        return None
    return statistics.fmean(REFERENCE_S / seconds for seconds in samples)


class Sampler:
    """Times :func:`chunk` from a timer signal while :meth:`running`.

    The handler runs in the main thread between bytecodes, so a sample
    is taken where the program is, on the vCPU it runs on.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        chunk()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def window(self, start: float, end: float) -> tuple[float, list]:
        """The seconds of ``[start, end)`` not spent sampling, and the
        samples taken in it."""
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        taken = self.seconds[first:last]
        return end - start - sum(taken), taken
