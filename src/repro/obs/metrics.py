"""Metrics registry: counters, gauges and histograms for the join stack.

The stats dataclasses of :mod:`repro.core.metrics` (``TopkStats``,
``JoinStats``, ``StreamStats``, ``ServeStats``) stay the algorithms'
native counting surface — they are cheap plain attributes the hot loops
batch into.  This registry is the *exported* surface built on top:
:meth:`MetricsRegistry.absorb_stats` folds every field a stats class
declares as a metric into its named family, and
:meth:`MetricsRegistry.absorb_topk_stats` adds what no field declares —
the derived gauges (verifications per record, bitmap hit rate) and the
per-emission histograms (emission latency, event upper-bound gap).
Exporters (:mod:`repro.obs.exporters`) then render one registry as
Prometheus text exposition or JSON.

Every family type has a ``merge_from`` that folds another instance in
(counters and histograms add; gauges combine by their declared
``mode``); the streaming engine and the daemon use it to fold
long-lived families into a fresh registry per scrape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.metrics import COUNTER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import DeclaredStats, EmitEvent, TopkStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EMIT_LATENCY_BUCKETS",
    "BOUND_GAP_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
]

LabelSet = Tuple[Tuple[str, str], ...]

# fmt: off
#: Histogram bucket edges for per-emission latency (seconds since start).
EMIT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Histogram bucket edges for the event upper-bound gap (similarity):
#: how far above the emitted similarity the best remaining event bound
#: sat at emission time — the tightness of the progressive guarantee.
BOUND_GAP_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0,
)

#: Histogram bucket edges for daemon request latency (seconds from
#: enqueue to applied) — sub-millisecond engine work up to multi-second
#: queueing under backpressure.
SERVE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)
# fmt: on

_GAUGE_MODES = ("sum", "max", "last")


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    help: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        if (self.name, self.labels) != (other.name, other.labels):
            raise ValueError(
                "cannot merge counter %r into %r" % (other.name, self.name)
            )
        if not self.help:
            self.help = other.help
        self.value += other.value


@dataclass
class Gauge:
    """A point-in-time value; ``mode`` declares how registries aggregate.

    ``sum`` — concurrent footprints (peak table sizes) add up, the
    worst-case simultaneous footprint; ``max`` — the best observation
    wins (``s_k``); ``last`` — the merged-in value replaces (final
    snapshot gauges).
    """

    name: str
    help: str
    mode: str = "last"
    labels: LabelSet = ()
    value: float = 0.0
    updated: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _GAUGE_MODES:
            raise ValueError(
                "gauge mode must be one of %s, got %r" % (_GAUGE_MODES, self.mode)
            )

    def set(self, value: float) -> None:
        if self.mode == "max":
            if not self.updated or value > self.value:
                self.value = value
        else:
            self.value = value
        self.updated = True

    def merge_from(self, other: "Gauge") -> None:
        if (self.name, self.labels) != (other.name, other.labels):
            raise ValueError("cannot merge gauge %r into %r" % (other.name, self.name))
        if self.mode != other.mode:
            raise ValueError(
                "gauge %r merge with conflicting modes %r / %r"
                % (self.name, self.mode, other.mode)
            )
        if not self.help:
            self.help = other.help
        if not other.updated:
            return
        if not self.updated:
            self.value = other.value
        elif self.mode == "sum":
            self.value += other.value
        elif self.mode == "max":
            self.value = max(self.value, other.value)
        else:  # "last"
            self.value = other.value
        self.updated = True


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``edges`` are the inclusive upper edges of the finite buckets (the
    ``le`` labels of the exposition format); one implicit ``+Inf``
    bucket always exists, so ``bucket_counts`` has ``len(edges) + 1``
    entries.
    """

    name: str
    help: str
    edges: Tuple[float, ...] = ()
    labels: LabelSet = ()
    bucket_counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(self.edges):
            raise ValueError("histogram bucket edges must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.edges) + 1)
        if len(self.bucket_counts) != len(self.edges) + 1:
            raise ValueError(
                "histogram %r has %d bucket counts for %d edges"
                % (self.name, len(self.bucket_counts), len(self.edges))
            )

    def observe(self, value: float) -> None:
        index = 0
        for edge in self.edges:
            if value <= edge:
                break
            index += 1
        self.bucket_counts[index] += 1
        self.total += value
        self.count += 1

    def merge_from(self, other: "Histogram") -> None:
        if (self.name, self.labels) != (other.name, other.labels):
            raise ValueError(
                "cannot merge histogram %r into %r" % (other.name, self.name)
            )
        if self.edges != other.edges:
            raise ValueError(
                "histogram %r merge with conflicting bucket edges" % self.name
            )
        if not self.help:
            self.help = other.help
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.total += other.total
        self.count += other.count


FamilyKey = Tuple[str, LabelSet]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Registry of named counters, gauges and histograms.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes help text, gauge mode and histogram edges; later calls
    return the live instance, so hot paths can hoist the object once and
    update plain attributes.
    """

    def __init__(self) -> None:
        self._counters: Dict[FamilyKey, Counter] = {}
        self._gauges: Dict[FamilyKey, Gauge] = {}
        self._histograms: Dict[FamilyKey, Histogram] = {}

    # ------------------------------------------------------------------
    # get-or-create

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        key = (name, _label_key(labels))
        existing = self._counters.get(key)
        if existing is None:
            existing = Counter(name=name, help=help, labels=key[1])
            self._counters[key] = existing
        return existing

    def gauge(
        self,
        name: str,
        help: str = "",
        mode: str = "last",
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        key = (name, _label_key(labels))
        existing = self._gauges.get(key)
        if existing is None:
            existing = Gauge(name=name, help=help, mode=mode, labels=key[1])
            self._gauges[key] = existing
        return existing

    def histogram(
        self,
        name: str,
        help: str = "",
        edges: Sequence[float] = (),
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        key = (name, _label_key(labels))
        existing = self._histograms.get(key)
        if existing is None:
            existing = Histogram(
                name=name, help=help, edges=tuple(edges), labels=key[1]
            )
            self._histograms[key] = existing
        return existing

    # ------------------------------------------------------------------
    # views

    def counters(self) -> List[Counter]:
        return [self._counters[key] for key in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[key] for key in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[key] for key in sorted(self._histograms)]

    # ------------------------------------------------------------------
    # stats absorption — the bridge from repro.core.metrics

    def absorb_stats(self, stats: "DeclaredStats") -> None:
        """Fold every declared metric field of *stats* into its family.

        Counter fields add to ``<prefix><field>_total``; peak fields set
        the ``sum``-mode gauge ``<prefix><field>`` (see
        :mod:`repro.core.metrics` for the declarations).
        """
        for attr, name, help, kind in stats.metric_fields():
            if kind == COUNTER:
                self.counter(name, help).inc(getattr(stats, attr))
            else:
                self.gauge(name, help, mode="sum").set(getattr(stats, attr))

    def absorb_topk_stats(
        self, stats: "TopkStats", record_count: Optional[int] = None
    ) -> None:
        """Fold one finished top-k run into metric families.

        Beyond the declared fields: the emission trace, verifications per
        record (when *record_count* is given) and the derived gauges.
        """
        self.absorb_stats(stats)
        if record_count:
            self.gauge(
                "repro_verifications_per_record",
                "Average verifications per record (Fig. 5a).",
            ).set(stats.verifications_per_record(record_count))

        self.absorb_emits(stats.emits)
        self.finalize_derived()

    def absorb_emits(self, emits: Sequence["EmitEvent"]) -> None:
        """Count emitted results and fold their trace into the histograms.

        Lets a long-lived owner of many runs (the streaming engine's
        refills) fold each run's trace in as it finishes and drop it,
        instead of keeping every emit for its lifetime.
        """
        self.counter(
            "repro_results_emitted_total",
            "Results emitted (progressively or in the final drain).",
        ).inc(len(emits))
        latency = self.histogram(
            "repro_emit_latency_seconds",
            "Seconds from join start to each progressive emission.",
            edges=EMIT_LATENCY_BUCKETS,
        )
        gap = self.histogram(
            "repro_event_bound_gap",
            "Best remaining event bound minus emitted similarity.",
            edges=BOUND_GAP_BUCKETS,
        )
        for emit in emits:
            latency.observe(emit.elapsed)
            gap.observe(max(0.0, emit.upper_bound - emit.similarity))

    def finalize_derived(self) -> None:
        """Recompute gauges derived from counters (safe to call repeatedly).

        The bitmap hit rate cannot merge as a gauge (a ratio of sums is
        not a sum of ratios), so it is re-derived from the merged
        counters whenever totals change.
        """
        checked = self._counters.get(("repro_bitmap_checked_total", ()))
        pruned = self._counters.get(("repro_bitmap_pruned_total", ()))
        if checked is not None and checked.value > 0:
            hits = pruned.value if pruned is not None else 0.0
            self.gauge(
                "repro_bitmap_hit_rate",
                "Fraction of bitmap-tested candidates the prefilter pruned.",
            ).set(hits / checked.value)

    # ------------------------------------------------------------------
    # merge / serialization

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters/histograms add, gauges by
        mode), then refresh the derived gauges."""
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._counters[key] = Counter(
                    name=counter.name,
                    help=counter.help,
                    labels=counter.labels,
                    value=counter.value,
                )
            else:
                mine.merge_from(counter)
        for key, gauge in other._gauges.items():
            mine_g = self._gauges.get(key)
            if mine_g is None:
                self._gauges[key] = Gauge(
                    name=gauge.name,
                    help=gauge.help,
                    mode=gauge.mode,
                    labels=gauge.labels,
                    value=gauge.value,
                    updated=gauge.updated,
                )
            else:
                mine_g.merge_from(gauge)
        for key, histogram in other._histograms.items():
            mine_h = self._histograms.get(key)
            if mine_h is None:
                self._histograms[key] = Histogram(
                    name=histogram.name,
                    help=histogram.help,
                    edges=histogram.edges,
                    labels=histogram.labels,
                    bucket_counts=list(histogram.bucket_counts),
                    total=histogram.total,
                    count=histogram.count,
                )
            else:
                mine_h.merge_from(histogram)
        self.finalize_derived()

    def export(self) -> Dict[str, Any]:
        """Plain JSON-able snapshot (see :func:`repro.obs.exporters.to_json`)."""
        return {
            "counters": [
                {
                    "name": item.name,
                    "help": item.help,
                    "labels": dict(item.labels),
                    "value": item.value,
                }
                for item in self.counters()
            ],
            "gauges": [
                {
                    "name": item.name,
                    "help": item.help,
                    "mode": item.mode,
                    "labels": dict(item.labels),
                    "value": item.value,
                    "updated": item.updated,
                }
                for item in self.gauges()
            ],
            "histograms": [
                {
                    "name": item.name,
                    "help": item.help,
                    "edges": list(item.edges),
                    "labels": dict(item.labels),
                    "bucket_counts": list(item.bucket_counts),
                    "total": item.total,
                    "count": item.count,
                }
                for item in self.histograms()
            ],
        }
