"""Drift correction: measure the box's speed beside every timed block.

On a shared virtual machine two kinds of drift move a timing by tens of
percent within a minute:

* the hypervisor steals CPU from the guest: wall time grows while the
  thread's CPU clock, from which the guest kernel subtracts steal, does
  not;
* the CPU itself runs slower or faster (frequency, cache and memory
  contention from neighbours): both clocks move together.

Timings therefore use the CPU clocks of the threads doing the work,
which removes steal, and a fixed reference loop, timed on the same
clock immediately before and after each timed block while the program
under test is idle, removes the speed drift::

    corrected = raw * NOMINAL_S / mean(before, after)

``NOMINAL_S`` is a committed constant: a nominal measured per run would
put the drift straight back into the result.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional

#: CPU seconds one :func:`reference_reading` takes on the reference box
#: (median over several minutes of a 2-vCPU x86-64 virtual machine,
#: CPython 3.11).  Changing it rescales every corrected time in the benchmark.
NOMINAL_S = 0.0019

#: Dict/set operations in one reference pass.  Of the loops tried
#: (pure arithmetic, NumPy, dict/set), dict/set work tracked the
#: NumPy-kernel join most closely, because the join's own time is
#: dominated by interpreter-bound dict, set and list work.
_REFERENCE_ITERATIONS = 8000

#: Passes per reading; the median discards a pass hit by an interrupt.
_REFERENCE_PASSES = 3


def reference_work(iterations: int = _REFERENCE_ITERATIONS) -> int:
    """The fixed interpreter-bound workload whose speed tracks the box."""
    table = {}
    members = set()
    for i in range(iterations):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + 1
        if key in members:
            members.discard(key)
        else:
            members.add(key)
    return len(table) + len(members)


def reference_reading() -> float:
    """CPU seconds one reference pass takes now (median of a few passes)."""
    passes = []
    for __ in range(_REFERENCE_PASSES):
        started = time.thread_time()
        reference_work()
        passes.append(time.thread_time() - started)
    return statistics.median(passes)


def corrected(raw: float, before: float, after: float,
              nominal: float = NOMINAL_S) -> float:
    """*raw* seconds rescaled to the reference box's speed."""
    return raw * nominal / ((before + after) / 2.0)


class Drift:
    """Brackets timed blocks with reference readings.

    Call :meth:`begin` just before a block and :meth:`end` just after it;
    :meth:`end` returns the factor that turns the block's raw seconds
    into corrected seconds.  The reading taken by :meth:`end` doubles as
    the next block's "before" reading unless :meth:`invalidate` says
    other work ran in between.  Callers must only bracket blocks while
    the program under test is idle: no request in flight and no queued
    work, so the reference loop never competes with it.
    """

    def __init__(
        self,
        nominal: float = NOMINAL_S,
        reading: Callable[[], float] = reference_reading,
    ) -> None:
        self.nominal = nominal
        self._reading = reading
        self._after: Optional[float] = None
        #: Every reference reading taken, in seconds.
        self.readings: List[float] = []

    def read(self) -> float:
        value = self._reading()
        self.readings.append(value)
        return value

    def begin(self) -> float:
        """The "before" reading for a block about to start."""
        before = self._after if self._after is not None else self.read()
        self._after = None
        return before

    def end(self, before: float) -> float:
        """Take the "after" reading; return the block's correction factor."""
        after = self.read()
        self._after = after
        return corrected(1.0, before, after, self.nominal)

    def invalidate(self) -> None:
        """Untimed work ran since :meth:`end`: the next block re-reads."""
        self._after = None

    def speed(self) -> float:
        """Box speed relative to the reference box (1.0 = nominal, <1 slower)."""
        return self.nominal / statistics.median(self.readings)
