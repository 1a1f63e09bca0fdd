"""Instrumentation counters for the join algorithms.

The paper's evaluation reports internal counters, not just wall-clock time:
candidate-pair counts (Fig. 4a–c), verification hash-table entries
(Fig. 3a), inverted-index entries (Fig. 3b), verifications per record
(Fig. 5a) and per-result emission traces (Fig. 5b–c).  Every algorithm in
this package fills one of these dataclasses so the benchmark harness can
regenerate those series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List


@dataclass
class JoinStats:
    """Counters for a threshold join (All-Pairs / ppjoin / ppjoin+)."""

    #: Candidate pairs that reached the verification phase.
    candidates: int = 0
    #: Exact similarity computations performed.
    verifications: int = 0
    #: Results returned.
    results: int = 0
    #: Total postings inserted into the inverted index.
    index_entries: int = 0
    #: Candidate pairs rejected by positional filtering.
    positional_pruned: int = 0
    #: Candidate pairs rejected by suffix filtering.
    suffix_pruned: int = 0
    #: Postings skipped or removed by size filtering.
    size_pruned: int = 0
    #: Candidate pairs rejected by the bitmap-signature prefilter.
    bitmap_pruned: int = 0


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
class TopkStats:
    """Counters for a top-k join run."""

    #: Prefix events popped from the event heap.
    events: int = 0
    #: Candidate pairs generated by probing inverted lists.
    candidates: int = 0
    #: Exact similarity computations performed.
    verifications: int = 0
    #: Candidate occurrences skipped because the pair was already verified.
    duplicates_skipped: int = 0
    #: Peak size of the verified-pair hash table (Fig. 3a).
    hash_entries_peak: int = 0
    #: Total postings inserted into the inverted index.
    index_inserted: int = 0
    #: Postings removed by the accessing-bound truncation.
    index_deleted: int = 0
    #: Peak number of live index postings (Fig. 3b).
    index_entries_peak: int = 0
    #: Candidates rejected by size filtering.
    size_pruned: int = 0
    #: Candidates tested by the bitmap-signature prefilter.
    bitmap_checked: int = 0
    #: Candidates rejected by the bitmap-signature prefilter.
    bitmap_pruned: int = 0
    #: Candidates rejected by positional filtering.
    positional_pruned: int = 0
    #: Candidates rejected by suffix filtering.
    suffix_pruned: int = 0
    #: Index insertions skipped by the indexing-bound optimisation.
    index_insertions_skipped: int = 0
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
class StreamStats:
    """Counters for a sliding-window streaming top-k engine.

    One instance accumulates over the engine's whole lifetime (many
    events), unlike :class:`TopkStats` which describes one batch run.
    Refill passes run the batch join internally; their internal counters
    land in the engine's per-refill :class:`TopkStats` aggregate, not
    here — these are the stream-level phase counters.
    """

    #: Records inserted into the window.
    inserts: int = 0
    #: Records expired out of the window (explicit, displaced, or timed out).
    expirations: int = 0
    #: ``advance`` calls applied to the window/stream clock.
    advances: int = 0
    #: Bound relaxations: refill passes run after a top-k member pair died.
    refills: int = 0
    #: Reserve pairs promoted into the top-k after a member died (a death
    #: the reserve absorbs needs no refill; hit rate = promotions /
    #: (promotions + refills)).
    reserve_promotions: int = 0
    #: Candidate records produced by probing the live index on arrival.
    probe_candidates: int = 0
    #: Exact similarity computations on arrival (probe or small-window scan).
    probe_verifications: int = 0
    #: Arrival candidates rejected by size filtering.
    size_pruned: int = 0
    #: Arrival candidates tested by the bitmap-signature prefilter.
    bitmap_checked: int = 0
    #: Arrival candidates rejected by the bitmap-signature prefilter.
    bitmap_pruned: int = 0
    #: Pairs that entered the live top-k result set.
    pairs_entered: int = 0
    #: Pairs that left the live top-k result set (eviction or expiry).
    pairs_left: int = 0
    #: Peak number of live records in the window.
    window_peak: int = 0
    #: Peak number of live postings in the streaming inverted index.
    index_entries_peak: int = 0

    def merge_from(self, other: "StreamStats") -> None:
        """Fold another engine's counters into this one.

        Additive counters sum; the peak gauges also sum — aggregated
        engines are assumed concurrent, so the aggregate peak is the
        worst-case simultaneous footprint.
        """
        self.inserts += other.inserts
        self.expirations += other.expirations
        self.advances += other.advances
        self.refills += other.refills
        self.reserve_promotions += other.reserve_promotions
        self.probe_candidates += other.probe_candidates
        self.probe_verifications += other.probe_verifications
        self.size_pruned += other.size_pruned
        self.bitmap_checked += other.bitmap_checked
        self.bitmap_pruned += other.bitmap_pruned
        self.pairs_entered += other.pairs_entered
        self.pairs_left += other.pairs_left
        self.window_peak += other.window_peak
        self.index_entries_peak += other.index_entries_peak

    @classmethod
    def combined(cls, runs: Iterable["StreamStats"]) -> "StreamStats":
        """Aggregate many engines' stats into one (see :meth:`merge_from`)."""
        total = cls()
        for run in runs:
            total.merge_from(run)
        return total


@dataclass
class ServeStats:
    """Counters for one ``repro serve`` daemon lifetime.

    Updated only from the daemon's event loop (single-threaded), read
    by the ``stats`` verb and absorbed into ``repro_serve_*`` metric
    families on every live ``/metrics`` scrape.
    """

    #: Connections accepted.
    connections: int = 0
    #: Request frames received (well-formed or not; HTTP scrapes excluded).
    requests: int = 0
    #: Error replies sent (any structured error code).
    errors: int = 0
    #: Frames rejected as unparseable (bad JSON/shape/verb).
    malformed: int = 0
    #: Frames rejected for exceeding the per-frame byte cap.
    oversized: int = 0
    #: Ingestion events admitted to the bounded queue.
    accepted: int = 0
    #: Ingestion events refused under the ``reject`` policy (or while
    #: shutting down).
    rejected: int = 0
    #: Ingestion events dropped under the ``shed`` policy.
    shed: int = 0
    #: Delta push notifications written to subscriber outboxes.
    deltas_pushed: int = 0
    #: Connections closed for idling past the idle timeout.
    idle_evictions: int = 0
    #: Connections closed for stalling mid-frame past the read timeout.
    read_timeouts: int = 0
    #: Subscribers evicted because their outbox overflowed (slow reader).
    subscriber_evictions: int = 0
    #: Peak depth of the bounded ingestion queue.
    queue_peak: int = 0
    #: Peak number of simultaneous subscribers.
    subscribers_peak: int = 0

    def merge_from(self, other: "ServeStats") -> None:
        """Fold another daemon's counters into this one.

        Additive counters sum; the peak gauges also sum — aggregated
        daemons are assumed concurrent, so the aggregate peak is the
        worst-case simultaneous footprint.
        """
        self.connections += other.connections
        self.requests += other.requests
        self.errors += other.errors
        self.malformed += other.malformed
        self.oversized += other.oversized
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.shed += other.shed
        self.deltas_pushed += other.deltas_pushed
        self.idle_evictions += other.idle_evictions
        self.read_timeouts += other.read_timeouts
        self.subscriber_evictions += other.subscriber_evictions
        self.queue_peak += other.queue_peak
        self.subscribers_peak += other.subscribers_peak

    @classmethod
    def combined(cls, runs: Iterable["ServeStats"]) -> "ServeStats":
        """Aggregate many daemons' stats into one (see :meth:`merge_from`)."""
        total = cls()
        for run in runs:
            total.merge_from(run)
        return total


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
