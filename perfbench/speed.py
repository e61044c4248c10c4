"""Machine-speed probe: scales measured times to a reference machine speed.

On the shared 2-core host this benchmark was built on, a core's speed swings
between 1.0x and 1.9x of its uncontended speed in spells that last from a
fraction of a second to over a minute, and the two cores swing
independently.  Raw pass times of one 15-second run therefore differ from
another's by up to 40%.

While a pass runs, a SIGALRM handler times a small pure-Python kernel every
``INTERVAL_S`` of wall time, so the kernel samples the speed of the same core
at the same moments as the pass.  A pass is then reported as

    scaled time = (wall time - time spent in the kernel) * REFERENCE_S / mean kernel time

that is, the time it would have taken at the speed where the kernel takes
``REFERENCE_S``.  A change to perco moves the pass time and leaves the kernel
alone.  Over 100 s of back-to-back passes, grouped as runs of 4 to 8
passes, the spread of the per-run median fell from 7-35% raw to 8-11%
scaled on mc-small, 6% on bracket and 4% on large-build; per pass, the
kernel's time correlated with the pass time at 0.5 to 0.9.  The kernel costs
about 2.5% of a pass; its time is subtracted before scaling.

A kernel that also reads a 7 MB table at scattered places tracked the passes
better (correlation 0.93-0.97), but its time depends on how much of the table
the pass has evicted from the caches, so a change to perco's memory use would
move the reference itself.  The kernel here stays within a few kilobytes.

The handler runs between bytecodes of the main thread, so it touches no
state of the code it interrupts.
"""

from __future__ import annotations

import signal
from time import perf_counter

# kernel time on an uncontended core of the reference host (Python 3.11, x86-64)
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05


def _kernel() -> None:
    """About 1 ms of interpreter work on a few kilobytes.

    Its time does not depend on what the interrupted pass left in the caches.
    """
    total = 0
    for i in range(12_000):
        total += i * i
    table = {str(j): [j] for j in range(300)}
    for _ in range(3):
        sorted(table.items(), key=lambda kv: -kv[1][0])


class SpeedProbe:
    """Context manager that samples the kernel every INTERVAL_S while it is active."""

    def __init__(self):
        self.samples = 0
        self.busy_s = 0.0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        self.busy_s += perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return self.samples, self.busy_s

    def scale(self, wall_s: float, since: tuple) -> tuple:
        """(net, scaled) time of an interval of ``wall_s`` that began at mark ``since``."""
        samples = self.samples - since[0]
        busy = self.busy_s - since[1]
        if not samples:  # an interval shorter than INTERVAL_S: use every sample so far
            samples, busy = self.samples, self.busy_s
        net = wall_s - (self.busy_s - since[1])
        return net, net * REFERENCE_S * samples / busy
