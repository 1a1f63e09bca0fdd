"""Instrumentation counters for the join algorithms, and their metric schema.

The paper's evaluation reports internal counters, not just wall-clock time:
candidate-pair counts (Fig. 4a–c), verification hash-table entries
(Fig. 3a), inverted-index entries (Fig. 3b), verifications per record
(Fig. 5a) and per-result emission traces (Fig. 5b–c).  Every algorithm in
this package fills one of these dataclasses so the benchmark harness can
regenerate those series.

Every exported counter and gauge is declared here, once, as a
:class:`MetricField`: its metric name, help text, kind, gauge merge mode
and the attribute its value is read from.

* Stats fields declare themselves: :func:`counter` fields become
  ``<prefix><field>_total`` counters and :func:`peak` fields become
  ``<prefix><field>`` gauges that sum across runs (aggregated runs are
  assumed concurrent, so the sum is the worst-case simultaneous
  footprint).  :meth:`DeclaredStats.metric_fields` lists them; a field
  declared without one is not exported.
* :class:`TopkEndState` declares the end-of-run gauges of a traced batch
  join the same way.
* :data:`STREAM_GAUGES` and :data:`SERVE_GAUGES` declare the live gauges
  of the streaming engine and the daemon, read from the attribute of the
  engine or the server they name.
* :data:`BITMAP_HIT_RATE` and :data:`VERIFICATIONS_PER_RECORD` are
  derived from a :class:`TopkStats` rather than read from one field.

The exporters (:mod:`repro.obs`) read only these declarations: a
:class:`~repro.obs.metrics.MetricsRegistry` absorbs them for traced batch
runs, and the live scrapes render them straight from the objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, List, NamedTuple, Optional, Tuple

#: Metric kind of a value exported as a ``_total`` counter.
COUNTER = "counter"
#: Metric kind of a value exported as a gauge.
GAUGE = "gauge"


class MetricField(NamedTuple):
    """One declared counter or gauge."""

    #: Attribute the value is read from (a field, property or method name).
    attr: str
    #: Exported metric name.
    name: str
    help: str
    #: :data:`COUNTER` or :data:`GAUGE`.
    kind: str
    #: How a registry aggregates a gauge over runs: ``sum`` (concurrent
    #: footprints add up), ``max`` (the best observation wins) or
    #: ``last`` (the latest snapshot replaces); empty for counters.
    mode: str = ""


def counter(help: str) -> int:
    """Declare an ``int`` field exported as a counter with *help*."""
    return field(default=0, metadata={"metric": COUNTER, "help": help})


def gauge(help: str, mode: str) -> Any:
    """Declare a field exported as a gauge merged by *mode*."""
    return field(
        default=0, metadata={"metric": GAUGE, "help": help, "mode": mode}
    )


def peak(help: str) -> int:
    """Declare an ``int`` field exported as a peak gauge with *help*."""
    return gauge(help, "sum")


def last_gauge(attr: str, name: str, help: str) -> MetricField:
    """Declare a ``last``-mode gauge *name* read from *attr*."""
    return MetricField(attr, name, help, GAUGE, "last")


_SCHEMAS: Dict[type, Tuple[MetricField, ...]] = {}


@dataclass
class DeclaredStats:
    """Base of the stats classes whose fields declare their metrics."""

    #: Prepended to every metric name derived from a field.
    metric_prefix: ClassVar[str]

    @classmethod
    def metric_fields(cls) -> Tuple[MetricField, ...]:
        """The declared metric fields, in field order (resolved once)."""
        schema = _SCHEMAS.get(cls)
        if schema is None:
            schema = tuple(
                MetricField(
                    spec.name,
                    cls.metric_prefix
                    + spec.name
                    + ("_total" if spec.metadata["metric"] == COUNTER else ""),
                    spec.metadata["help"],
                    spec.metadata["metric"],
                    spec.metadata.get("mode", ""),
                )
                for spec in fields(cls)
                if "metric" in spec.metadata
            )
            _SCHEMAS[cls] = schema
        return schema


@dataclass
class JoinStats(DeclaredStats):
    """Counters for a threshold join (All-Pairs / ppjoin / ppjoin+)."""

    metric_prefix: ClassVar[str] = "repro_threshold_"

    candidates: int = counter("Candidate pairs that reached the verification phase.")
    verifications: int = counter("Exact similarity computations performed.")
    results: int = counter("Results returned by the threshold join.")
    index_entries: int = counter("Postings inserted into the inverted index.")
    positional_pruned: int = counter("Candidates rejected by positional filtering.")
    suffix_pruned: int = counter("Candidates rejected by suffix filtering.")
    size_pruned: int = counter("Postings skipped or removed by size filtering.")
    bitmap_pruned: int = counter(
        "Candidates rejected by the bitmap-signature prefilter."
    )


@dataclass
class EmitEvent:
    """One progressively emitted result (Fig. 5b–c).

    ``index`` is the 1-based rank of the emitted result, ``upper_bound`` the
    probing similarity upper bound of the remaining events at emission time,
    ``s_k`` the k-th temporary similarity, and ``elapsed`` seconds since the
    join started.
    """

    index: int
    similarity: float
    upper_bound: float
    s_k: float
    elapsed: float


@dataclass
class TopkStats(DeclaredStats):
    """Counters for a top-k join run."""

    metric_prefix: ClassVar[str] = "repro_"

    events: int = counter("Prefix events popped from the event heap.")
    candidates: int = counter("Candidate pairs generated by probing inverted lists.")
    verifications: int = counter("Exact similarity computations performed.")
    duplicates_skipped: int = counter(
        "Candidate occurrences skipped as already verified."
    )
    hash_entries_peak: int = peak(
        "Peak size of the verified-pair hash table (Fig. 3a)."
    )
    index_inserted: int = counter("Postings inserted into the inverted index.")
    index_deleted: int = counter("Postings removed by the accessing-bound truncation.")
    index_entries_peak: int = peak(
        "Peak number of live inverted-index postings (Fig. 3b)."
    )
    size_pruned: int = counter("Candidates rejected by size filtering.")
    bitmap_checked: int = counter(
        "Candidates tested by the bitmap-signature prefilter."
    )
    bitmap_pruned: int = counter(
        "Candidates rejected by the bitmap-signature prefilter."
    )
    positional_pruned: int = counter("Candidates rejected by positional filtering.")
    suffix_pruned: int = counter("Candidates rejected by suffix filtering.")
    index_insertions_skipped: int = counter(
        "Index insertions skipped by the indexing bound."
    )
    #: Per-result emission trace (Fig. 5b-c).
    emits: List[EmitEvent] = field(default_factory=list)

    def verifications_per_record(self, record_count: int) -> float:
        """Average verifications per record — the Fig. 5(a) metric."""
        if record_count == 0:
            return 0.0
        return self.verifications / record_count

    @property
    def bitmap_hit_rate(self) -> float:
        """Fraction of bitmap-tested candidates the prefilter pruned."""
        if self.bitmap_checked == 0:
            return 0.0
        return self.bitmap_pruned / self.bitmap_checked


#: ``bitmap_pruned / bitmap_checked`` of a :class:`TopkStats`, exported
#: only once the prefilter tested a candidate (see :func:`hit_rate`).  A
#: registry re-derives it from its summed counters, because a ratio of
#: sums is not a sum of ratios.
BITMAP_HIT_RATE = last_gauge(
    "bitmap_hit_rate", "repro_bitmap_hit_rate",
    "Fraction of bitmap-tested candidates the prefilter pruned.",
)

#: :meth:`TopkStats.verifications_per_record` of one traced batch join.
VERIFICATIONS_PER_RECORD = last_gauge(
    "verifications_per_record", "repro_verifications_per_record",
    "Average verifications per record (Fig. 5a).",
)


def hit_rate(pruned: float, checked: float) -> Optional[float]:
    """The exported bitmap hit rate; ``None`` (not exported) until a
    candidate was tested."""
    return pruned / checked if checked > 0 else None


@dataclass
class TopkEndState(DeclaredStats):
    """The footprint of one top-k join at termination.

    Traced runs export it once, after the drain.  The modes say how runs
    combine: footprints sum (concurrent tasks' structures coexist in
    memory), ``s_k`` keeps the best.
    """

    metric_prefix: ClassVar[str] = "repro_"

    s_k: float = gauge("k-th best similarity at the end of the run.", "max")
    heap_size: int = gauge("Events left in the queue at termination.", "sum")
    heap_size_peak: int = gauge("Peak number of events in the queue.", "sum")
    index_entries_live: int = gauge(
        "Inverted-index postings alive at termination.", "sum"
    )
    hash_entries_live: int = gauge(
        "Verified-pair hash entries alive at termination.", "sum"
    )


@dataclass
class StreamStats(DeclaredStats):
    """Counters for a sliding-window streaming top-k engine.

    One instance accumulates over the engine's whole lifetime (many
    events), unlike :class:`TopkStats` which describes one batch run.
    Refill passes run the batch join internally; their internal counters
    land in the engine's per-refill :class:`TopkStats` aggregate, not
    here — these are the stream-level phase counters.
    """

    metric_prefix: ClassVar[str] = "repro_stream_"

    inserts: int = counter("Records inserted into the sliding window.")
    #: Explicit, displaced and timed-out expirations all count.
    expirations: int = counter("Records expired out of the sliding window.")
    advances: int = counter("Window advance operations applied.")
    refills: int = counter("Bound-relaxation refill passes after a top-k member died.")
    #: A death the reserve absorbs needs no refill, so the promotion hit
    #: rate is promotions / (promotions + refills).
    reserve_promotions: int = counter(
        "Reserve pairs promoted into the top-k after a member died."
    )
    probe_candidates: int = counter(
        "Candidate records produced by probing the live index."
    )
    #: Counts index probes and small-window scans alike.
    probe_verifications: int = counter("Exact similarity computations on arrival.")
    size_pruned: int = counter("Arrival candidates rejected by size filtering.")
    #: A candidate holding ``c`` of the ``p`` probed tokens of an arrival
    #: ``x`` overlaps it in at most ``c + |x| - p`` tokens.
    count_pruned: int = counter(
        "Arrival candidates rejected by their count of shared probed tokens."
    )
    bitmap_checked: int = counter(
        "Arrival candidates tested by the bitmap-signature prefilter."
    )
    bitmap_pruned: int = counter(
        "Arrival candidates rejected by the bitmap-signature prefilter."
    )
    pairs_entered: int = counter("Pairs that entered the live top-k result set.")
    #: Counts evictions and expiries alike.
    pairs_left: int = counter("Pairs that left the live top-k result set.")
    window_peak: int = peak("Peak number of live records in the sliding window.")
    index_entries_peak: int = peak(
        "Peak number of live postings in the streaming index."
    )


#: Live gauges of a streaming engine, each read from the engine
#: attribute it names.
STREAM_GAUGES: Tuple[MetricField, ...] = (
    last_gauge(
        "s_k", "repro_stream_s_k",
        "Current k-th live similarity of the streaming engine.",
    ),
    last_gauge(
        "window_live", "repro_stream_window_live",
        "Live records currently in the sliding window.",
    ),
    last_gauge(
        "clock", "repro_stream_clock",
        "Current stream clock (time-policy windows).",
    ),
    last_gauge(
        "results_live", "repro_stream_results_live",
        "Pairs currently in the live top-k result set.",
    ),
    last_gauge(
        "reserve_depth", "repro_stream_reserve_depth",
        "Most pairs the reserve below the live top-k may hold.",
    ),
)


@dataclass
class ServeStats(DeclaredStats):
    """Counters for one ``repro serve`` daemon lifetime.

    Updated only from the daemon's event loop (single-threaded), read
    by the ``stats`` verb and rendered as ``repro_serve_*`` metric
    families on every live ``/metrics`` scrape.
    """

    metric_prefix: ClassVar[str] = "repro_serve_"

    connections: int = counter("Client connections accepted by the daemon.")
    #: HTTP scrapes are not counted.
    requests: int = counter("Request frames received (well-formed or not).")
    errors: int = counter("Structured error replies sent.")
    #: Bad JSON, a bad shape or an unknown verb.
    malformed: int = counter("Frames rejected as unparseable.")
    oversized: int = counter("Frames rejected for exceeding the byte cap.")
    accepted: int = counter("Ingestion events admitted to the bounded queue.")
    #: Also counts events refused while shutting down.
    rejected: int = counter("Ingestion events refused under the reject policy.")
    shed: int = counter("Ingestion events dropped under the shed policy.")
    deltas_pushed: int = counter("Delta notifications written to subscriber outboxes.")
    idle_evictions: int = counter(
        "Connections closed for idling past the idle timeout."
    )
    read_timeouts: int = counter("Connections closed for stalling mid-frame.")
    subscriber_evictions: int = counter(
        "Subscribers evicted for overflowing their outbox."
    )
    queue_peak: int = peak("Peak depth of the bounded ingestion queue.")
    subscribers_peak: int = peak("Peak number of simultaneous subscribers.")


#: Live gauges of a ``repro serve`` daemon, each read from the server
#: attribute it names.
SERVE_GAUGES: Tuple[MetricField, ...] = (
    last_gauge(
        "queue_depth", "repro_serve_queue_depth",
        "Ingestion events currently pending.",
    ),
    last_gauge(
        "connections_open", "repro_serve_connections_open",
        "Client connections currently open.",
    ),
    last_gauge(
        "subscriber_count", "repro_serve_subscribers",
        "Clients currently subscribed to the delta stream.",
    ),
)


@dataclass
class PptopkStats:
    """Counters for the ``pptopk`` baseline (Table II / Fig. 4)."""

    #: Thresholds tried, in order.
    thresholds: List[float] = field(default_factory=list)
    #: Result-set size produced by each round (one entry per threshold).
    round_results: List[int] = field(default_factory=list)
    #: Candidate pairs across all rounds.
    candidates: int = 0
    #: Verifications across all rounds.
    verifications: int = 0
    #: Number of ppjoin+ invocations.
    rounds: int = 0
