"""Machine-speed calibration, so that timings compare across runs.

On a shared machine the interpreter's speed drifts by tens of percent for
tens of seconds at a time, which is longer than a run: neighbours
contend for the core, and the slowdown shows in CPU time as much as in
wall time.  So while a worker runs, a timer signal interrupts it every
``EVERY_S`` seconds to time a fixed pure-Python kernel (about 3 ms).
The kernel's time is subtracted from whatever timed region it fell in,
and each timing is scaled by ``REFERENCE_S / (kernel time around it)``:
seconds at the speed at which the kernel takes ``REFERENCE_S``.  The
kernel shares no code with condlat, so a change to the package cannot
move it.  Every timing takes this scale, numpy-bound work too, which
drifts less than the kernel (perfbench/README.md, Machine speed).
"""

from __future__ import annotations

import signal
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from time import monotonic, perf_counter

EVERY_S = 0.1
WINDOW = 4              # sampling intervals on each side of a timing that scale it
REFERENCE_S = 0.003     # the kernel's time on an uncontended core of the reference machine

# Set-up is scaled by a reference set-up timed next to it instead: a fresh
# interpreter that imports numpy and runs the kernel SETUP_KERNELS times.
# Like a workload's set-up it is mostly process start, imports and page
# faults, and it drifts with the machine about as much; the kernel alone
# drifts about twice as much (perfbench/README.md, Machine speed).
SETUP_KERNELS = 60
REFERENCE_SETUP_S = 0.4  # the reference set-up's time on the reference machine


def kernel() -> int:
    """Interpreter-bound work of the kind condlat does: small tuples,
    dict and list lookups, integer bit operations, calls."""
    table = {}
    rows = [i * 7 & 15 for i in range(16)]

    def step(a, b):
        return rows[a] & ~rows[b] | a

    acc = 0
    for i in range(6000):
        key = (i & 15, i >> 4 & 15)
        table[key] = table.get(key, 0) + step(*key)
        acc ^= table[key]
    return acc


class Calibrator:
    """Kernel samples on a timer, and timings corrected and scaled by them.

    Use as a context manager around everything the worker times.  The
    samples run in a signal handler, between two bytecodes of whatever
    the main thread is doing, so they also land inside long operations.
    """

    def __init__(self):
        self.stamps = []    # perf_counter() when each sample started
        self.samples = []   # seconds the kernel took
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
            self.stamps.append(t0)
        finally:
            self._busy = False

    def force(self, count: int):
        """Take samples now, e.g. to have some after the last timed region."""
        for _ in range(count):
            self._on_alarm(None, None)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float):
        """(seconds, scaled seconds) of the region from start to end.

        Kernel time inside the region is taken out.  The scale comes from
        the mean of the samples taken within WINDOW sampling intervals of
        the region, or during it.
        """
        lo, hi = bisect_left(self.stamps, start), bisect_left(self.stamps, end)
        seconds = end - start - sum(self.samples[lo:hi])
        margin = WINDOW * EVERY_S
        window = self.samples[bisect_left(self.stamps, start - margin):
                              bisect_left(self.stamps, end + margin)]
        if not window:
            return seconds, seconds
        return seconds, seconds * REFERENCE_S * len(window) / sum(window)

    def speed(self) -> float:
        """Machine speed over all samples so far, relative to the reference."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)


def reference_setup() -> float:
    """Seconds from spawning the reference set-up to its exit."""
    code = f"import numpy, calibration\nfor _ in range({SETUP_KERNELS}): calibration.kernel()"
    t0 = monotonic()
    subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, check=True,
                   timeout=60)
    return monotonic() - t0
