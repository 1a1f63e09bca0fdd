"""Instrumentation counters for the join algorithms.

The paper's evaluation reports internal counters, not just wall-clock time:
candidate-pair counts (Fig. 4a–c), verification hash-table entries
(Fig. 3a), inverted-index entries (Fig. 3b), verifications per record
(Fig. 5a) and per-result emission traces (Fig. 5b–c).  Every algorithm in
this package fills one of these dataclasses so the benchmark harness can
regenerate those series.

Each counter field also declares, once, the metric it is exported as:
:func:`counter` fields become ``<prefix><field>_total`` counters and
:func:`peak` fields become ``<prefix><field>`` gauges that sum across
runs (aggregated runs are assumed concurrent, so the sum is the
worst-case simultaneous footprint).  ``MetricsRegistry.absorb_stats``
(:mod:`repro.obs.metrics`) reads the declarations through
:meth:`DeclaredStats.metric_fields`; a field declared without one is not
exported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Tuple

#: Metric kind of a field exported as a ``_total`` counter.
COUNTER = "counter"
#: Metric kind of a field exported as a ``sum``-mode gauge.
PEAK = "peak"

#: ``(attribute, metric name, help text, kind)`` of one declared field.
MetricField = Tuple[str, str, str, str]


def counter(help: str) -> int:
    """Declare an ``int`` field exported as a counter with *help*."""
    return field(default=0, metadata={"metric": COUNTER, "help": help})


def peak(help: str) -> int:
    """Declare an ``int`` field exported as a peak gauge with *help*."""
    return field(default=0, metadata={"metric": PEAK, "help": help})


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
                (
                    spec.name,
                    cls.metric_prefix
                    + spec.name
                    + ("_total" if spec.metadata["metric"] == COUNTER else ""),
                    spec.metadata["help"],
                    spec.metadata["metric"],
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


@dataclass
class ServeStats(DeclaredStats):
    """Counters for one ``repro serve`` daemon lifetime.

    Updated only from the daemon's event loop (single-threaded), read
    by the ``stats`` verb and absorbed into ``repro_serve_*`` metric
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
