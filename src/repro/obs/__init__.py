"""Observability for the join stack: spans, metrics, exporters, profiling.

The event-driven top-k join is a long-running, progressive computation —
a service in miniature — so this package gives it the three pillars a
service gets: **tracing** (:class:`Tracer` span records at the phase
boundaries of every backend), **metrics** (:class:`MetricsRegistry`
counters/gauges/histograms absorbed from the per-run stats dataclasses,
rendered by :class:`Exposition`), and **profiling**
(:class:`SamplingProfiler`, activated by ``REPRO_PROFILE=1``).
Everything is stdlib-only and costs one ``is not None`` test per hook
site when disabled.

Entry points::

    from repro.obs import Tracer
    from repro import TopkOptions, topk_join

    tracer = Tracer()
    topk_join(collection, k=10, options=TopkOptions(trace=tracer))
    print(render_phase_tree(tracer))          # where the time went
    print(to_prometheus_text(tracer))         # scrapeable exposition

or from the command line: ``repro trace``, ``repro topk --trace``.
See ``docs/OBSERVABILITY.md`` for the span model and metric catalog.
"""

from .exporters import (
    Exposition,
    phase_tree,
    render_phase_tree,
    to_json,
    to_prometheus_text,
)
from .metrics import (
    BOUND_GAP_BUCKETS,
    EMIT_LATENCY_BUCKETS,
    SERVE_LATENCY_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import (
    PROFILE_ENV,
    SamplingProfiler,
    maybe_profile,
    profiling_enabled,
)
from .tracer import TRACE_SCHEMA, SpanRecord, Tracer

__all__ = [
    "TRACE_SCHEMA",
    "SpanRecord",
    "Tracer",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EMIT_LATENCY_BUCKETS",
    "BOUND_GAP_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "Exposition",
    "phase_tree",
    "render_phase_tree",
    "to_json",
    "to_prometheus_text",
    "PROFILE_ENV",
    "SamplingProfiler",
    "maybe_profile",
    "profiling_enabled",
]
