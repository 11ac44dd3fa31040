"""Host-speed sampling, so that timings measure the program rather than the host.

On a shared host the same op can take 1.7 times as long for tens of seconds
at a time, when a neighbour loads the machine; no run length averages that
out.  While ops run, a fixed kernel is timed every INTERVAL_S seconds from
a SIGALRM handler.  It does the kind of work caloron's ops do, 8 x 8 complex
products one numpy call at a time between stretches of plain Python, but
runs no caloron code: a faster caloron leaves it unchanged, while a slower
host slows both alike.  A loaded host slows small numpy calls more than
plain Python (about 1.65 against 1.3 times on a 2-vCPU VM); caloron's ops
sit in between, and so does the kernel, about half its time in each.

A span's time is then reported twice: as measured, and at the reference
speed, i.e. scaled by REF_S / (the median kernel time over the span).
The time spent in the handler is left out of both.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
STEPS, PY_STEPS, DIM = 500, 60, 8
# the kernel's time on an unloaded core of a 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4, OpenBLAS on one thread): the speed timings are scaled to
REF_S = 3.2e-3


def kernel():
    """Seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    a = np.eye(DIM, dtype=complex)
    b = np.full((DIM, DIM), 0.01 + 0.01j)
    x = 0.0
    for _ in range(STEPS):
        a = 0.5 * (a @ b) + b
        for j in range(PY_STEPS):
            x = 0.5 * x + j
    return time.perf_counter() - start


class Sampler:
    """Times kernel() every INTERVAL_S seconds between start() and stop()."""

    def __init__(self):
        self.samples = []   # (perf_counter() at its start, kernel seconds)
        self.paused = 0.0   # seconds spent in the handler

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start, kernel()))
        self.paused += time.perf_counter() - start

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self, at=None):
        """The start of a span: now, or the earlier perf_counter() `at`."""
        return (time.perf_counter() if at is None else at, self.paused)

    def span(self, mark):
        """(start, end, seconds) of the span from mark to now; its seconds
        leave the handler's time out."""
        start, paused = mark
        end = time.perf_counter()
        return start, end, end - start - (self.paused - paused)

    def at_reference(self, span):
        """Seconds of span at the reference speed, from the median kernel
        time over it.  The samples taken during the span count, or the last
        one before it if there are none: the host's state can change within
        a second, so a wider window tracks it worse."""
        start, end, seconds = span
        window = [k for t, k in self.samples if start <= t <= end]
        if not window:
            window = [k for t, k in self.samples if t <= end][-1:]
        return seconds * REF_S / statistics.median(window)
