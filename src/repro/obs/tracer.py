"""Span-based tracing for the join stack.

The event-driven top-k join behaves like a service, not a batch call:
results stream out progressively while ``s_k`` rises and the event heap
drains.  A :class:`Tracer` makes that lifecycle observable without
changing it — phase boundaries (seeding, the event loop, the final
drain) become nested :class:`SpanRecord` entries on
a monotonic clock, and hot inner phases that are too frequent for
per-call spans (the kernel posting scans) accumulate into named *phase
timers* instead.

Design constraints, in order:

* **Zero cost when absent.**  Instrumented code paths hold a tracer
  reference that is ``None`` by default; every hook site pays one
  ``is not None`` test and nothing else.  There is no global tracer and
  no monkey-patching — the tracer travels explicitly via
  ``TopkOptions.trace``.
* **Monotonic clocks.**  All timestamps are ``time.perf_counter``
  deltas against the tracer's epoch; wall-clock adjustments can never
  produce negative spans.
* **Thread-safe buffers.**  Span completion, phase accumulation and
  metric updates take a lock; the per-thread *active-span stacks* are
  only mutated by their own thread and snapshotted by the sampling
  profiler (:mod:`repro.obs.profile`).
* **Exported by value.**  A tracer holds a lock, so it is never
  serialized itself; :meth:`Tracer.export` gives its state as plain
  JSON-able dicts (the body of :func:`repro.obs.exporters.to_json`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple, Union

from .metrics import MetricsRegistry

__all__ = ["SpanRecord", "Tracer", "TRACE_SCHEMA"]

#: Version stamp of the :meth:`Tracer.export` payload layout.
TRACE_SCHEMA = 1

MetaValue = Union[str, int, float]


@dataclass
class SpanRecord:
    """One completed span: a named, timed, possibly nested phase."""

    #: Phase name (``topk_join``, ``seed``, ``event_loop``…).
    name: str
    #: Seconds since the tracer epoch at which the span started.
    start: float
    #: Wall-clock seconds from enter to exit (monotonic clock).
    duration: float
    #: ``span_id`` of the enclosing span, 0 for roots.
    parent: int
    #: Unique id within one tracer.
    span_id: int
    #: Small static annotations (k, record count…).
    meta: Dict[str, MetaValue] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "parent": self.parent,
            "id": self.span_id,
            "meta": dict(self.meta),
        }


class Tracer:
    """Collects spans, phase timers and metrics for one join run.

    The tracer owns a :class:`~repro.obs.metrics.MetricsRegistry`
    (``tracer.metrics``) so one object carries the whole observability
    state of a run; exporters (:mod:`repro.obs.exporters`) consume the
    tracer directly.
    """

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._next_id = 1
        self.spans: List[SpanRecord] = []
        #: thread ident -> stack of ``(span_id, name)`` currently open.
        self._stacks: Dict[int, List[Tuple[int, str]]] = {}
        #: phase name -> ``[total_seconds, call_count]`` (hot-path timers).
        self._phases: Dict[str, List[float]] = {}
        #: profiler phase name -> sample count (see repro.obs.profile).
        self.profile_samples: Dict[str, int] = {}
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # clocks

    def now(self) -> float:
        """Monotonic seconds since this tracer was created."""
        return self._clock() - self._epoch

    # ------------------------------------------------------------------
    # spans

    @contextmanager
    def span(self, name: str, **meta: MetaValue) -> Iterator[int]:
        """Open a nested span; records a :class:`SpanRecord` on exit.

        Nesting is per-thread: the innermost open span of the calling
        thread becomes the parent.  The span id is yielded for callers
        that want to reference it, though most ignore it.
        """
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else 0
        start = self.now()
        stack.append((span_id, name))
        try:
            yield span_id
        finally:
            stack.pop()
            record = SpanRecord(
                name=name,
                start=start,
                duration=self.now() - start,
                parent=parent,
                span_id=span_id,
                meta=dict(meta),
            )
            with self._lock:
                self.spans.append(record)

    def active_stacks(self) -> Dict[int, List[str]]:
        """Snapshot of every thread's open-span name stack (for sampling).

        Reading foreign stacks relies on list append/pop atomicity under
        the GIL; a sampler tolerates the rare off-by-one-frame snapshot.
        """
        return {
            ident: [name for __, name in stack]
            for ident, stack in list(self._stacks.items())
            if stack
        }

    # ------------------------------------------------------------------
    # hot-path phase timers

    def add_phase_time(self, name: str, seconds: float) -> None:
        """Accumulate one timed call into the named micro-phase.

        For inner phases called thousands of times per run (the kernel
        posting scan), a span per call would dominate the measurement;
        an accumulator records ``(total seconds, call count)`` instead.
        """
        with self._lock:
            entry = self._phases.get(name)
            if entry is None:
                self._phases[name] = [seconds, 1.0]
            else:
                entry[0] += seconds
                entry[1] += 1.0

    def phase_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (total seconds, call count)`` for every micro-phase."""
        with self._lock:
            return {
                name: (entry[0], int(entry[1]))
                for name, entry in self._phases.items()
            }

    # ------------------------------------------------------------------
    # profiler samples

    def add_profile_samples(self, samples: Dict[str, int]) -> None:
        """Fold sampling-profiler counts in (see :mod:`repro.obs.profile`)."""
        with self._lock:
            for name, count in samples.items():
                self.profile_samples[name] = self.profile_samples.get(name, 0) + count

    # ------------------------------------------------------------------
    # export

    def export(self) -> Dict[str, Any]:
        """The tracer's whole state as plain JSON-able dicts."""
        with self._lock:
            spans = [record.as_dict() for record in self.spans]
            phases = {
                name: {"total_s": entry[0], "count": int(entry[1])}
                for name, entry in self._phases.items()
            }
            profile = dict(self.profile_samples)
        return {
            "schema": TRACE_SCHEMA,
            "spans": spans,
            "phases": phases,
            "profile": profile,
            "metrics": self.metrics.export(),
        }
