"""Machine-speed normalisation for the end-to-end timings.

On a shared virtual machine the speed of the interpreter drifts by a
quarter or more over tens of seconds, which no amount of repetition inside
one run averages away. The benchmark therefore times a fixed pure-Python
calibration chunk between tasks (one per ``EVERY_S`` seconds of wall time), and
scales each task's wall time by ``NOMINAL_CHUNK_S / chunk time`` measured
around that task. A library change cannot move the chunk, so it shows in
the scaled times in full, while a slow spell of the machine slows task and
chunk alike and cancels. Scaled times read as seconds on a machine whose
chunk takes ``NOMINAL_CHUNK_S``; the raw wall times are printed alongside.
"""

import bisect
import statistics
import time

# chunk time on the 2-vCPU, 2.1 GHz VM (Python 3.11) the baseline was recorded on
NOMINAL_CHUNK_S = 0.0012
EVERY_S = 0.05
MAX_BURST = 10
WINDOW_S = 0.25


def _chunk():
    # integer arithmetic, dict and list traffic: the mix of the exact kernels
    table = {}
    acc = 0
    for i in range(6000):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
        acc += key * key % 13
    return acc + len(table)


class Speedometer:
    """Calibration samples of one process, as (midpoint time, chunk time)."""

    def __init__(self):
        self.times = []
        self.chunks = []
        self._last = float("-inf")

    def sample(self, force=False):
        """Time one chunk per EVERY_S of wall time since the last sample (at
        most MAX_BURST at once), so long tasks get as many samples around
        them as a run of short ones; ``force`` times one chunk regardless."""
        clock = time.perf_counter
        gap = clock() - self._last
        due = MAX_BURST if gap >= MAX_BURST * EVERY_S else int(gap / EVERY_S)
        for _ in range(max(due, 1 if force else 0)):
            start = clock()
            _chunk()
            end = clock()
            self.times.append((start + end) / 2)
            self.chunks.append(end - start)
            self._last = end

    def factor(self, start, end):
        """Scale for wall time spent in [start, end]: the nominal chunk time
        over the median chunk time sampled within WINDOW_S of the interval
        (the nearest sample when none is that close)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        chunks = self.chunks[lo:hi]
        if not chunks:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            chunks = [self.chunks[nearest]]
        return NOMINAL_CHUNK_S / statistics.median(chunks)
