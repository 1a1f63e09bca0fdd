"""Metrics registry: counters, gauges and histograms for the join stack.

The stats dataclasses of :mod:`repro.core.metrics` (``TopkStats``,
``JoinStats``, ``StreamStats``, ``ServeStats``) stay the algorithms'
native counting surface — they are cheap plain attributes the hot loops
batch into — and that module declares, once, the metric every counter
and gauge is exported as.  This module adds the histograms and the
:class:`Family`, one exported series together with where its value is
read.

:class:`MetricsRegistry` aggregates traced batch runs: ``absorb_stats``
folds every declared field of a stats object into its named family, and
``absorb_topk_stats`` adds the derived gauges and the per-emission
histograms (emission latency, event upper-bound gap).  The live scrapes
of the streaming engine and the daemon keep no registry: they read
their families straight from the objects.  Both render through
:class:`repro.obs.exporters.Exposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.metrics import (
    BITMAP_HIT_RATE,
    COUNTER,
    GAUGE,
    VERIFICATIONS_PER_RECORD,
    MetricField,
    hit_rate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import DeclaredStats, EmitEvent, TopkStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "HISTOGRAM",
    "EMIT_LATENCY_BUCKETS",
    "BOUND_GAP_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "RESULTS_EMITTED",
    "EMIT_LATENCY",
    "BOUND_GAP",
    "SERVE_LATENCY",
    "declared_families",
    "histogram_family",
    "observe_emits",
]

#: Metric kind of a histogram family (counters and gauges are declared
#: in :mod:`repro.core.metrics`).
HISTOGRAM = "histogram"

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

#: The families a top-k join's emission trace adds beyond its stats
#: fields: ``(name, help)`` of the emitted count and ``(name, help,
#: edges)`` of each histogram.
RESULTS_EMITTED = (
    "repro_results_emitted_total",
    "Results emitted (progressively or in the final drain).",
)
EMIT_LATENCY = (
    "repro_emit_latency_seconds",
    "Seconds from join start to each progressive emission.",
    EMIT_LATENCY_BUCKETS,
)
BOUND_GAP = (
    "repro_event_bound_gap",
    "Best remaining event bound minus emitted similarity.",
    BOUND_GAP_BUCKETS,
)
#: The daemon's request-latency histogram: ``(name, help, edges)``.
SERVE_LATENCY = (
    "repro_serve_request_latency_seconds",
    "Seconds from ingestion-queue admission to applied.",
    SERVE_LATENCY_BUCKETS,
)

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


@dataclass
class Gauge:
    """A point-in-time value; ``mode`` declares how runs aggregate.

    ``sum`` — concurrent footprints (peak table sizes) add up, the
    worst-case simultaneous footprint; ``max`` — the best observation
    wins (``s_k``); ``last`` — the latest value replaces (final snapshot
    gauges).  :meth:`set` keeps the best value of a ``max`` gauge and
    the latest otherwise; the mode travels with the value in
    :meth:`MetricsRegistry.export` for consumers that combine runs.
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


class Family(NamedTuple):
    """One exported series and where its value is read.

    ``read`` takes no argument and returns the current value: a number
    for a counter or a gauge (``None`` leaves the gauge out), the
    :class:`Histogram` itself for a histogram.
    """

    #: ``counter`` / ``gauge`` (:mod:`repro.core.metrics`) or
    #: :data:`HISTOGRAM`.
    kind: str
    name: str
    help: str
    read: Callable[[], Any]
    #: Gauge merge mode (see :class:`Gauge`); empty for other kinds.
    mode: str = ""
    labels: LabelSet = ()


def declared_families(
    owner: object, declared: Iterable[MetricField], path: str = ""
) -> List[Family]:
    """A family per declared field, read on *owner* — or on its
    attribute *path* (dotted) when given, looked up on every read."""
    prefix = path + "." if path else ""
    return [
        Family(
            spec.kind,
            spec.name,
            spec.help,
            partial(attrgetter(prefix + spec.attr), owner),
            spec.mode,
        )
        for spec in declared
    ]


def histogram_family(histogram: Histogram) -> Family:
    """The family of one live histogram."""
    return Family(
        HISTOGRAM,
        histogram.name,
        histogram.help,
        partial(_itself, histogram),
        labels=histogram.labels,
    )


def observe_emits(
    emits: Sequence["EmitEvent"], latency: Histogram, gap: Histogram
) -> None:
    """Fold an emission trace into the :data:`EMIT_LATENCY` and
    :data:`BOUND_GAP` histograms."""
    for emit in emits:
        latency.observe(emit.elapsed)
        gap.observe(max(0.0, emit.upper_bound - emit.similarity))


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
    # absorption — the bridge from repro.core.metrics

    def absorb(self, families: Iterable[Family]) -> None:
        """Fold the current value of every family in: counters add,
        gauges set (a ``None`` gauge is skipped), histograms merge."""
        for family in families:
            value = family.read()
            if family.kind == COUNTER:
                self.counter(family.name, family.help).inc(value)
            elif family.kind == GAUGE:
                if value is not None:
                    self.gauge(family.name, family.help, family.mode).set(value)
            else:
                self.histogram(
                    family.name, family.help, value.edges
                ).merge_from(value)

    def absorb_stats(self, stats: "DeclaredStats") -> None:
        """Fold every declared metric field of *stats* into its family.

        Counter fields add to ``<prefix><field>_total``; gauge fields
        set ``<prefix><field>`` (see :mod:`repro.core.metrics` for the
        declarations).
        """
        self.absorb(declared_families(stats, stats.metric_fields()))

    def absorb_topk_stats(
        self, stats: "TopkStats", record_count: Optional[int] = None
    ) -> None:
        """Fold one finished top-k run into metric families.

        Beyond the declared fields: the emission trace, verifications per
        record (when *record_count* is given) and the bitmap hit rate,
        re-derived from the summed counters of every run absorbed so far.
        """
        self.absorb_stats(stats)
        if record_count:
            self.gauge(
                VERIFICATIONS_PER_RECORD.name,
                VERIFICATIONS_PER_RECORD.help,
                VERIFICATIONS_PER_RECORD.mode,
            ).set(stats.verifications_per_record(record_count))
        self.counter(*RESULTS_EMITTED).inc(len(stats.emits))
        observe_emits(
            stats.emits,
            self.histogram(*EMIT_LATENCY),
            self.histogram(*BOUND_GAP),
        )
        rate = hit_rate(
            self.counter("repro_bitmap_pruned_total").value,
            self.counter("repro_bitmap_checked_total").value,
        )
        if rate is not None:
            self.gauge(
                BITMAP_HIT_RATE.name, BITMAP_HIT_RATE.help, BITMAP_HIT_RATE.mode
            ).set(rate)

    # ------------------------------------------------------------------
    # serialization

    def families(self) -> List[Family]:
        """Every series in the registry, as families to render."""
        out: List[Family] = []
        for item in self.counters():
            out.append(
                Family(COUNTER, item.name, item.help,
                       partial(getattr, item, "value"), labels=item.labels)
            )
        for gauge in self.gauges():
            out.append(
                Family(GAUGE, gauge.name, gauge.help,
                       partial(getattr, gauge, "value"), gauge.mode,
                       gauge.labels)
            )
        out.extend(histogram_family(item) for item in self.histograms())
        return out

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


def _itself(value: Any) -> Any:
    return value
