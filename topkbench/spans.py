"""In-memory span recording around the program's public layer functions.

The traced run installs wrappers from the benchmark's own files; no code
of the program changes.  Each call into a wrapped function records one
span ``[name, start, end, parent, op, child_seconds]``: ``parent`` is the
enclosing span on the same thread (``None`` at a thread's root), ``op``
the benchmark op in flight when the span opened (``-1`` during set-up),
and ``child_seconds`` the time its direct children covered, so a span's
self time is ``end - start - child_seconds``.  Times are read from the
calling thread's CPU clock, the clock every other timing of the
benchmark uses.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, OP, CHILD = range(6)


class SpanLog:
    """Spans of one traced phase, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: The benchmark op in flight; set by the generator thread only.
        self.op = -1
        #: ``(op, seconds)`` per event the daemon's writer dequeued.
        self.queue_waits: List[Tuple[int, float]] = []
        #: ``(op, postings)`` of the list each ``accel.scan`` call probed.
        self.scan_postings: List[Tuple[int, int]] = []
        self._stacks = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.thread_time(), 0.0,
                stack[-1] if stack else None, self.op, 0.0]
        stack.append(span)
        # list.append is atomic under the interpreter lock, so spans from
        # the daemon thread and the generator thread interleave safely.
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.thread_time()
        self._stack().pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        entry = self.open(name)
        try:
            yield
        finally:
            self.close(entry)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            entry = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(entry)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Iterator[Any]]
                  ) -> Callable[..., Iterator[Any]]:
        """Wrap a generator function: one span per ``next`` call."""
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                entry = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(entry)
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write(self, path: str) -> None:
        """Dump the spans as JSON rows ``[name, start, end, parent, op]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[NAME], s[START], s[END],
             index[id(s[PARENT])] if s[PARENT] is not None else -1, s[OP]]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "queue_waits": self.queue_waits},
                      handle, separators=(",", ":"))


class _TracedKernel:
    """Scan-kernel proxy recording an ``accel.scan`` span per call."""

    def __init__(self, kernel: Any, log: SpanLog) -> None:
        self._kernel = kernel
        self._log = log

    def scan(self, index: Any, token: int, *rest: Any) -> Any:
        columns = index.columns(token)
        self._log.scan_postings.append(
            (self._log.op, len(columns) if columns is not None else 0)
        )
        entry = self._log.open("accel.scan")
        try:
            return self._kernel.scan(index, token, *rest)
        finally:
            self._log.close(entry)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._kernel, name)


@contextlib.contextmanager
def installed(log: SpanLog) -> Iterator[SpanLog]:
    """Wrap every traced public function for the duration of the block."""
    from repro.data.records import RecordCollection
    from repro.index.inverted import InvertedIndex
    from repro.serve import server as serve_server
    from repro.serve.degradation import IngestionGate
    from repro.stream import engine as stream_engine

    core_join = importlib.import_module("repro.core.topk_join")
    make_kernel = core_join.make_kernel

    def traced_make_kernel(*args: Any, **kwargs: Any) -> Any:
        with log.span("accel.kernel_build"):
            kernel = make_kernel(*args, **kwargs)
        return _TracedKernel(kernel, log) if kernel is not None else None

    next_event = IngestionGate.next_event

    async def traced_next_event(self: IngestionGate) -> Any:
        item = await next_event(self)
        if item is not None:
            log.queue_waits.append(
                (log.op, time.perf_counter() - item.received)
            )
        return item

    from_integer_sets = RecordCollection.__dict__["from_integer_sets"]
    engine_cls = stream_engine.StreamingTopkEngine
    patches: List[Tuple[Any, str, Any]] = [
        (core_join, "make_kernel", traced_make_kernel),
        (core_join, "EventQueue",
         log.wrap("core.queue_build", core_join.EventQueue)),
        (core_join, "seed_temporary_results",
         log.wrap("core.seed", core_join.seed_temporary_results)),
        (core_join, "topk_join_iter",
         log.wrap_iter("core.join", core_join.topk_join_iter)),
        (stream_engine, "topk_join",
         log.wrap("stream.refill", stream_engine.topk_join)),
        (RecordCollection, "from_integer_sets",
         classmethod(log.wrap("data.build", from_integer_sets.__func__))),
        (InvertedIndex, "trim_head",
         log.wrap("index.trim", InvertedIndex.trim_head)),
        (engine_cls, "insert", log.wrap("stream.insert", engine_cls.insert)),
        (engine_cls, "results", log.wrap("stream.read", engine_cls.results)),
        (engine_cls, "apply", log.wrap("serve.apply", engine_cls.apply)),
        (serve_server, "parse_request",
         log.wrap("serve.parse", serve_server.parse_request)),
        (serve_server, "encode", log.wrap("serve.encode", serve_server.encode)),
        (serve_server.TopkServer, "metrics_text",
         log.wrap("serve.scrape", serve_server.TopkServer.metrics_text)),
        (IngestionGate, "next_event", traced_next_event),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, __ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield log
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self seconds per span name, over spans opened during ops."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span[OP] < 0:
            continue
        own = span[END] - span[START] - span[CHILD]
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def durations(spans: List[list], name: str,
              op_filter: Optional[Callable[[int], bool]] = None
              ) -> List[float]:
    """Inclusive seconds of every span called *name*."""
    return [
        span[END] - span[START]
        for span in spans
        if span[NAME] == name and (op_filter is None or op_filter(span[OP]))
    ]
