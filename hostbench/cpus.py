"""Keep the measuring process on the least contended of its CPUs.

On the shared host this benchmark was sized on, one CPU ran up to 1.7x
slower than the other for seconds at a time while the guest saw both
idle and reported no steal time, so the kernel's scheduler had no
reason to move anything.  Between timed calls, :class:`CpuPicker` times
a few microseconds of fixed interpreter work on each CPU and moves every
thread of the process to the fastest; the timed calls themselves always
run on one CPU.
"""

from __future__ import annotations

import os
import time

#: Least time between two picks inside a timed loop.
PICK_EVERY_NS = 1_000_000_000


def _pin(cpu: int) -> None:
    """Move every thread of this process to ``cpu``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def _spin() -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(2000):
        acc += i & 7
    return time.perf_counter_ns() - t0


class CpuPicker:
    """Chooses, now and then, which of ``cpus`` the process runs on."""

    def __init__(self, cpus) -> None:
        self.cpus = tuple(cpus)
        self.current: int | None = None
        self.moves = 0
        self._last = 0

    def _speed(self, cpu: int) -> int:
        _pin(cpu)
        return min(_spin() for _ in range(3))

    def pick(self) -> None:
        """Move the process to the CPU on which the spin ran fastest."""
        best = min(self.cpus, key=self._speed)
        _pin(best)
        if self.current is not None and best != self.current:
            self.moves += 1
        self.current = best
        self._last = time.perf_counter_ns()

    def pick_if_due(self) -> None:
        """Pick when :data:`PICK_EVERY_NS` passed since the last pick."""
        if time.perf_counter_ns() - self._last >= PICK_EVERY_NS:
            self.pick()
