"""Metrics registry: counters, gauges and histograms for the join stack.

The per-run dataclasses of :mod:`repro.core.metrics` (``TopkStats``,
``JoinStats``) stay the algorithms' native counting surface — they are
cheap plain attributes the hot loops batch into.  This registry is the
*exported* surface built on top: :meth:`MetricsRegistry.absorb_topk_stats`
folds a finished run's counters into named metric families, adds the
derived gauges the raw dataclasses cannot express (bitmap hit rate,
index/hash footprints), and turns the per-emission trace into
histograms (emission latency, event upper-bound gap).  Exporters
(:mod:`repro.obs.exporters`) then render one registry as Prometheus
text exposition or JSON.

Aggregation follows the ``TopkStats.merge_from`` discipline: every
family type has a ``merge_from`` that folds another instance in
(counters and histograms add; gauges combine by their declared
``mode``), and the ``stats-drift`` static checker verifies both that
each family merges every field and that the absorb functions cover
every field of the stats dataclasses — a counter added to ``TopkStats``
but not absorbed here fails ``repro lint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import EmitEvent, JoinStats, ServeStats, StreamStats, TopkStats

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
    """A point-in-time value; ``mode`` declares how tasks aggregate.

    ``sum`` — concurrent footprints (peak table sizes) add up, matching
    ``TopkStats.merge_from``'s worst-case-simultaneous semantics;
    ``max`` — the best observation wins (``s_k``: each task's bound is a
    lower bound on the global one); ``last`` — the merged-in value
    replaces (final snapshot gauges).
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

    def absorb_topk_stats(
        self, stats: "TopkStats", record_count: Optional[int] = None
    ) -> None:
        """Fold one finished top-k run's counters into metric families.

        Reads **every** field of :class:`~repro.core.metrics.TopkStats`
        (the ``stats-drift`` checker enforces this statically, and the
        runtime round-trip test enforces it dynamically), so a counter
        added there cannot silently miss the exporters.
        """
        c = self.counter
        c(
            "repro_events_total",
            "Prefix events popped from the event heap.",
        ).inc(stats.events)
        c(
            "repro_candidates_total",
            "Candidate pairs generated by probing inverted lists.",
        ).inc(stats.candidates)
        c(
            "repro_verifications_total",
            "Exact similarity computations performed.",
        ).inc(stats.verifications)
        c(
            "repro_duplicates_skipped_total",
            "Candidate occurrences skipped as already verified.",
        ).inc(stats.duplicates_skipped)
        c(
            "repro_size_pruned_total",
            "Candidates rejected by size filtering.",
        ).inc(stats.size_pruned)
        c(
            "repro_bitmap_checked_total",
            "Candidates tested by the bitmap-signature prefilter.",
        ).inc(stats.bitmap_checked)
        c(
            "repro_bitmap_pruned_total",
            "Candidates rejected by the bitmap-signature prefilter.",
        ).inc(stats.bitmap_pruned)
        c(
            "repro_positional_pruned_total",
            "Candidates rejected by positional filtering.",
        ).inc(stats.positional_pruned)
        c(
            "repro_suffix_pruned_total",
            "Candidates rejected by suffix filtering.",
        ).inc(stats.suffix_pruned)
        c(
            "repro_index_inserted_total",
            "Postings inserted into the inverted index.",
        ).inc(stats.index_inserted)
        c(
            "repro_index_deleted_total",
            "Postings removed by the accessing-bound truncation.",
        ).inc(stats.index_deleted)
        c(
            "repro_index_insertions_skipped_total",
            "Index insertions skipped by the indexing bound.",
        ).inc(stats.index_insertions_skipped)
        self.gauge(
            "repro_hash_entries_peak",
            "Peak size of the verified-pair hash table (Fig. 3a).",
            mode="sum",
        ).set(stats.hash_entries_peak)
        self.gauge(
            "repro_index_entries_peak",
            "Peak number of live inverted-index postings (Fig. 3b).",
            mode="sum",
        ).set(stats.index_entries_peak)
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

    def absorb_join_stats(self, stats: "JoinStats") -> None:
        """Fold one threshold-join run's counters into metric families.

        Reads every field of :class:`~repro.core.metrics.JoinStats`
        (statically enforced, see :meth:`absorb_topk_stats`).
        """
        c = self.counter
        c(
            "repro_threshold_candidates_total",
            "Candidate pairs that reached the verification phase.",
        ).inc(stats.candidates)
        c(
            "repro_threshold_verifications_total",
            "Exact similarity computations performed.",
        ).inc(stats.verifications)
        c(
            "repro_threshold_results_total",
            "Results returned by the threshold join.",
        ).inc(stats.results)
        c(
            "repro_threshold_index_entries_total",
            "Postings inserted into the inverted index.",
        ).inc(stats.index_entries)
        c(
            "repro_threshold_positional_pruned_total",
            "Candidates rejected by positional filtering.",
        ).inc(stats.positional_pruned)
        c(
            "repro_threshold_suffix_pruned_total",
            "Candidates rejected by suffix filtering.",
        ).inc(stats.suffix_pruned)
        c(
            "repro_threshold_size_pruned_total",
            "Postings skipped or removed by size filtering.",
        ).inc(stats.size_pruned)
        c(
            "repro_threshold_bitmap_pruned_total",
            "Candidates rejected by the bitmap-signature prefilter.",
        ).inc(stats.bitmap_pruned)

    def absorb_stream_stats(self, stats: "StreamStats") -> None:
        """Fold a streaming engine's lifetime counters into metric families.

        Reads every field of :class:`~repro.core.metrics.StreamStats`
        (statically enforced, see :meth:`absorb_topk_stats`).
        """
        c = self.counter
        c(
            "repro_stream_inserts_total",
            "Records inserted into the sliding window.",
        ).inc(stats.inserts)
        c(
            "repro_stream_expirations_total",
            "Records expired out of the sliding window.",
        ).inc(stats.expirations)
        c(
            "repro_stream_advances_total",
            "Window advance operations applied.",
        ).inc(stats.advances)
        c(
            "repro_stream_refills_total",
            "Bound-relaxation refill passes after a top-k member died.",
        ).inc(stats.refills)
        c(
            "repro_stream_probe_candidates_total",
            "Candidate records produced by probing the live index.",
        ).inc(stats.probe_candidates)
        c(
            "repro_stream_probe_verifications_total",
            "Exact similarity computations on arrival.",
        ).inc(stats.probe_verifications)
        c(
            "repro_stream_size_pruned_total",
            "Arrival candidates rejected by size filtering.",
        ).inc(stats.size_pruned)
        c(
            "repro_stream_bitmap_checked_total",
            "Arrival candidates tested by the bitmap-signature prefilter.",
        ).inc(stats.bitmap_checked)
        c(
            "repro_stream_bitmap_pruned_total",
            "Arrival candidates rejected by the bitmap-signature prefilter.",
        ).inc(stats.bitmap_pruned)
        c(
            "repro_stream_pairs_entered_total",
            "Pairs that entered the live top-k result set.",
        ).inc(stats.pairs_entered)
        c(
            "repro_stream_pairs_left_total",
            "Pairs that left the live top-k result set.",
        ).inc(stats.pairs_left)
        self.gauge(
            "repro_stream_window_peak",
            "Peak number of live records in the sliding window.",
            mode="sum",
        ).set(stats.window_peak)
        self.gauge(
            "repro_stream_index_entries_peak",
            "Peak number of live postings in the streaming index.",
            mode="sum",
        ).set(stats.index_entries_peak)

    def absorb_serve_stats(self, stats: "ServeStats") -> None:
        """Fold a serving daemon's lifetime counters into metric families.

        Reads every field of :class:`~repro.core.metrics.ServeStats`
        (statically enforced, see :meth:`absorb_topk_stats`).
        """
        c = self.counter
        c(
            "repro_serve_connections_total",
            "Client connections accepted by the daemon.",
        ).inc(stats.connections)
        c(
            "repro_serve_requests_total",
            "Request frames received (well-formed or not).",
        ).inc(stats.requests)
        c(
            "repro_serve_errors_total",
            "Structured error replies sent.",
        ).inc(stats.errors)
        c(
            "repro_serve_malformed_total",
            "Frames rejected as unparseable.",
        ).inc(stats.malformed)
        c(
            "repro_serve_oversized_total",
            "Frames rejected for exceeding the byte cap.",
        ).inc(stats.oversized)
        c(
            "repro_serve_accepted_total",
            "Ingestion events admitted to the bounded queue.",
        ).inc(stats.accepted)
        c(
            "repro_serve_rejected_total",
            "Ingestion events refused under the reject policy.",
        ).inc(stats.rejected)
        c(
            "repro_serve_shed_total",
            "Ingestion events dropped under the shed policy.",
        ).inc(stats.shed)
        c(
            "repro_serve_deltas_pushed_total",
            "Delta notifications written to subscriber outboxes.",
        ).inc(stats.deltas_pushed)
        c(
            "repro_serve_idle_evictions_total",
            "Connections closed for idling past the idle timeout.",
        ).inc(stats.idle_evictions)
        c(
            "repro_serve_read_timeouts_total",
            "Connections closed for stalling mid-frame.",
        ).inc(stats.read_timeouts)
        c(
            "repro_serve_subscriber_evictions_total",
            "Subscribers evicted for overflowing their outbox.",
        ).inc(stats.subscriber_evictions)
        self.gauge(
            "repro_serve_queue_peak",
            "Peak depth of the bounded ingestion queue.",
            mode="sum",
        ).set(stats.queue_peak)
        self.gauge(
            "repro_serve_subscribers_peak",
            "Peak number of simultaneous subscribers.",
            mode="sum",
        ).set(stats.subscribers_peak)

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
        """Plain JSON-able snapshot (the cross-process wire format)."""
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

    def absorb_export(self, payload: Dict[str, Any]) -> None:
        """Merge an :meth:`export` payload in (the other end of the wire)."""
        other = MetricsRegistry()
        for raw in payload.get("counters", []):
            other.counter(
                raw["name"], raw.get("help", ""), labels=raw.get("labels")
            ).inc(float(raw["value"]))
        for raw in payload.get("gauges", []):
            gauge = other.gauge(
                raw["name"],
                raw.get("help", ""),
                mode=raw.get("mode", "last"),
                labels=raw.get("labels"),
            )
            if raw.get("updated", True):
                gauge.set(float(raw["value"]))
        for raw in payload.get("histograms", []):
            histogram = other.histogram(
                raw["name"],
                raw.get("help", ""),
                edges=tuple(raw.get("edges", ())),
                labels=raw.get("labels"),
            )
            raw_counts = raw.get("bucket_counts", [])
            if raw_counts:
                histogram.bucket_counts = [int(x) for x in raw_counts]
            histogram.total = float(raw.get("total", 0.0))
            histogram.count = int(raw.get("count", 0))
        self.merge_from(other)
