"""Machine-speed probe: scales measured times to a reference speed.

On a shared machine the speed of a core drifts. On the 2-core box this
benchmark was written on, interpreted code ran up to 1.7x slower for tens
of seconds to minutes at a time, and the medians of ten runs of one
workload moved by 30 % between two sets taken twenty minutes apart. A
SpeedProbe runs a small fixed interpreter loop from a SIGALRM handler
every INTERVAL seconds while a pass runs, so its samples cover the same
moments as the pass. The pass's time, less the time spent in the handler,
times REFERENCE / median loop time, is its time at the reference speed.

The loop belongs to the benchmark, so a change to the program cannot move
it. Dense LAPACK work slows far less than interpreted code under the same
drift, so workloads dominated by it are not scaled (see workloads.py).
"""

import signal
import statistics
import time

INTERVAL = 0.2
REFERENCE = 0.0010   # median loop time on the development box, quiet period


def _loop():
    table = {}
    for i in range(10000):
        table[i % 97] = table.get(i % 89, 0) + i
    return table


def loop_times(repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return times


def factor(times):
    """REFERENCE over the median loop time: below 1 on a slower machine."""
    return REFERENCE / statistics.median(times)


class SpeedProbe:
    """Context manager timing the loop every INTERVAL seconds.

    After exit, `spent` is the time the handler took and `samples` the loop
    times. The handler runs between bytecodes of the main thread, so a long
    native call delays a sample but is never interrupted.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples += loop_times(1)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
