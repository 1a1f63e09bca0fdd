"""``StreamingTopkEngine`` — exact incremental top-k over a sliding window.

The engine keeps three pieces of state per live window:

* the :class:`~repro.stream.window.SlidingWindow` of live records
  (keyed by stream ids — arrival ordinals that never recycle);
* a full-token :class:`~repro.index.inverted.InvertedIndex` over the
  live records, postings in arrival order;
* a :class:`~repro.stream.buffer.StreamTopkBuffer` holding, at every
  instant, an exact top-``min(k, P)`` of the ``P`` live pairs, and
  below it a :class:`~repro.stream.buffer.PairReserve` of at most
  ``depth`` more pairs with a floor τ.  Every live pair with similarity
  above τ is in one of the two tiers, and every pair in either tier is
  ``>= τ``; τ unset means every live pair is tracked.

**Arrival.**  The probe bound is τ (raised first to the reserve minimum
when the reserve is full).  While τ is unset or ``<= 0`` the new record
is verified against every live record — token-disjoint (similarity-0)
pairs are part of the pair space exactly as the batch join's
zero-padding treats them, and they are not in the index.  Otherwise
the arrival probes ``p = probing_prefix_length(|x|, τ)`` of its tokens
against the index.  The argument is one-sided and holds for *any* ``p``
of them: the other ``|x| - p`` tokens are one short of the overlap
that ``sim >= τ`` needs, so a live ``y`` with ``sim(x, y) >= τ`` shares
a probed token, and the index stores *all* of ``y``'s tokens.  So the
engine probes the ``p`` tokens whose live posting lists are currently
shortest (sorted by ``(list length, token)``; tokens absent from the
window cost nothing and go first) — the rarest-first choice of the
paper's idf order, made per arrival, exact under every window policy
and without a global token order.  One pass over the probed lists
counts, per live record ``y``, the probed tokens it holds,
``c(y) = |probed(x) ∩ y|`` — exact, again because the index holds all
of ``y``'s tokens.  As ``|x ∩ y| <= c(y) + |x| - p``, a candidate with
``c(y) + |x| - p < α(|x|, |y|)`` is below τ.  The size filter and this
count bound need only ``|y|`` and ``c(y)``, so one pass over the counts
applies both, with ``|y|`` from a sid-to-size map: no record is read
for the candidates they reject.  The survivors alone are sorted by sid
and go through the bitmap-signature prefilter (when acceleration is
on) and verification with early abort at α.
A pair above τ enters the buffer if it beats ``s_k`` (the evicted
member moves to the reserve) and the reserve otherwise.  Then the
arrival's postings enter the index in one call
(:meth:`InvertedIndex.add_record`).

**Expiry.**  Expiry is strictly FIFO, so the dying record's posting is
at the head of every inverted list it appears in — eviction drops those
heads in one call (:meth:`InvertedIndex.trim_heads`) and the record's
size entry.  Its pairs leave both tiers.  If
buffer members died, the best reserve pairs are promoted until the
buffer is full again: every untracked pair is ``<= τ <=`` every reserve
pair, so the promoted pairs are a valid top-k, ties included.  Only when
buffer and reserve together hold fewer than ``min(k, P)`` pairs does a
refill pass run the exact batch join for the top-``(k + depth)`` over
the live window; the first ``k`` rebuild the buffer (``s_k`` may fall —
the paper's monotone-``s_k`` machinery restarts from the relaxed
bound), the rest refill the reserve, and τ becomes the
``(k + depth)``-th similarity.  The depth starts at ``k`` and doubles
at a refill that came within a few window lifetimes of the previous
one (see :meth:`StreamingTopkEngine._deepen_at_refill`); it never
shrinks.
The join ranks the window's tokens by their live document frequency,
rarest first, so its prefixes are selective too.  It reads those
frequencies off the live index (one posting per live record and
token, so a list's length is its token's frequency; an emptied list
leaves the index) and builds the join's collection from them in one
pass (:meth:`RecordCollection.from_frequency_ranks`), uncounted.
It also takes the window's bitmap signatures as they are (they hash
the original token ids; the signature bound holds under any
token-to-bit map applied to both records alike).  The refill join
runs unseeded and, under ``accel="on"`` and below
:data:`_REFILL_BATCH_LIMIT` pairs, record by record (see
:meth:`StreamingTopkEngine._batch_topk`).  Whenever the two tiers hold
every live pair, τ resets to unset.

**Reads.**  :meth:`StreamingTopkEngine.results` serves copies of one
snapshot of the answer, rebuilt only when the buffer's version moved
(every change of its contents moves it).  Readers ask far more often
than the answer changes, so most reads are a list copy.

Every mutation returns :class:`StreamDelta` notifications (pair entered
/ left the live top-k).  ``mode="recompute"`` swaps the incremental
maintenance for a full batch recompute after every event — the trivially
exact twin the differential fuzzer and the benchmark speedup row compare
against.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.engine import EngineLifecycle
from ..core.metrics import (
    BITMAP_HIT_RATE,
    COUNTER,
    GAUGE,
    STREAM_GAUGES,
    StreamStats,
    TopkStats,
    hit_rate,
)
from ..core.topk_join import TopkOptions, topk_join
from ..data.ordering import document_frequencies
from ..data.records import RecordCollection, popcount
from ..index.inverted import InvertedIndex
from ..obs.exporters import Exposition, phase_lines
from ..obs.metrics import (
    BOUND_GAP,
    EMIT_LATENCY,
    RESULTS_EMITTED,
    Family,
    Histogram,
    declared_families,
    histogram_family,
    observe_emits,
)
from ..oracle.invariants import StreamCheckHooks, invariant_checks_enabled
from ..result import JoinResult
from ..similarity.functions import Jaccard, SimilarityFunction
from ..similarity.overlap import overlap_with_early_abort
from .buffer import PairReserve, StreamTopkBuffer
from .events import ADVANCE, EXPIRE, INSERT, StreamEvent
from .window import LiveRecord, SlidingWindow

__all__ = ["DeltaSubscriber", "StreamDelta", "StreamingTopkEngine", "STREAM_MODES"]

Pair = Tuple[int, int]

#: A delta-subscription callback: receives each event's non-empty delta
#: list, synchronously, after the event fully applied.
DeltaSubscriber = Callable[[List["StreamDelta"]], None]

#: Engine maintenance modes.
STREAM_MODES = ("incremental", "recompute")

#: A posting's stream id (postings are ``(sid, position)``).
_SID_OF = itemgetter(0)

#: Refill joins for fewer pairs than this scan every event record by
#: record under ``accel="on"``, without the per-event test for the NumPy
#: event scan: their short prefixes seldom probe enough postings for the
#: batched scan to pay.  Measured on dblp- and trec-like windows of
#: 200-5,000 records (docs/PERFORMANCE.md, Piece 12), record by record
#: won or tied at every limit up to 200 and the per-event test won or
#: tied from 400 on.
_REFILL_BATCH_LIMIT = 256

#: A refill within this many window lifetimes (arrivals per live record)
#: of the previous one doubles the reserve depth.  On serve-mixed (k=1,
#: window 200, 8,000 inserts, seeds 501, 4242, 11 and 3) the depth
#: settled at 16 with 7-10 refills; at 2 lifetimes it stopped at 8-16
#: with 10-12 refills, at 8 it went on to 32 on two seeds, whose
#: arrivals then verified half as many pairs again (docs/PERFORMANCE.md,
#: Piece 16).
_CLOSE_REFILL_LIFETIMES = 4


def unprobed_overlap(size_x: int, probed: int) -> int:
    """The most tokens an arrival can share with a partner outside its probe.

    An arrival of *size_x* tokens that probed *probed* of them overlaps a
    live record holding ``c`` of the probed tokens in at most
    ``c + unprobed_overlap(size_x, probed)`` tokens; the index holds all
    of the partner's tokens, so ``c`` is exact.
    """
    return size_x - probed


@dataclass(frozen=True)
class StreamDelta:
    """One change of the live top-k result set."""

    #: ``"enter"`` or ``"leave"``.
    action: str
    #: The pair, by stream ids (``x < y``).
    x: int
    y: int
    similarity: float


class StreamingTopkEngine(EngineLifecycle):
    """Exact top-k over a count- or time-based sliding window.

    Window extent and policy come from ``TopkOptions.window_size`` /
    ``TopkOptions.window_policy``; ``options.accel`` toggles the
    bitmap-signature prefilter on the arrival probe and inside refill
    joins; ``options.check_invariants`` (or ``REPRO_CHECK=1``) arms the
    streaming runtime invariants; ``options.trace`` collects
    ``stream_ingest`` / ``stream_expire`` / ``stream_refill`` phase
    times and end-of-run metrics (phase timers overlap where phases
    nest: a displacement expiry inside an insert contributes to both).
    """

    def __init__(
        self,
        k: int,
        similarity: Optional[SimilarityFunction] = None,
        options: Optional[TopkOptions] = None,
        mode: str = "incremental",
        stats: Optional[StreamStats] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        if mode not in STREAM_MODES:
            raise ValueError(
                "unknown stream mode %r (choose from %s)"
                % (mode, ", ".join(STREAM_MODES))
            )
        opts = options or TopkOptions()
        if opts.bipartite_sides is not None:
            raise ValueError(
                "the streaming engine is a self-join; "
                "TopkOptions.bipartite_sides is not supported"
            )
        self.k = k
        self.mode = mode
        self.stats = stats if stats is not None else StreamStats()
        self._sim = similarity or Jaccard()
        self._options = opts
        self._tracer = opts.trace
        self._use_bitmap = opts.accel != "off"
        self._checks: Optional[StreamCheckHooks] = None
        # Validates window_size/window_policy eagerly (before open).
        self._window = SlidingWindow(
            opts.window_size, opts.window_policy, sig_bits=opts.sig_bits
        )
        self._index = InvertedIndex()
        #: Token count of every indexed live record, by sid: all the
        #: probe's size and count filters read of a candidate.
        self._sizes: Dict[int, int] = {}
        self._buffer = StreamTopkBuffer(k)
        self._reserve = PairReserve(k)
        #: ``stats.inserts`` at the latest refill (None: none since open).
        self._refilled_at: Optional[int] = None
        #: The answer as of buffer version ``_answer_version`` (None: no
        #: snapshot); :meth:`results` serves copies of it until the
        #: buffer changes.
        self._answer: List[JoinResult] = []
        self._answer_version: Optional[int] = None
        self._delta_subscribers: List[DeltaSubscriber] = []
        #: The probe's required shared-token counts, by τ, arrival size
        #: and partner size; only the latest τ is kept.
        self._needs: Dict[float, Dict[int, Dict[int, int]]] = {}
        #: Aggregate counters of every refill/recompute batch join.  Each
        #: join's emit trace is folded into the two emit histograms (whose
        #: count is the emitted count) and dropped once the join
        #: finishes, so ``refill_stats.emits`` never outgrows one refill.
        self.refill_stats = TopkStats()
        self._emit_latency = Histogram(*EMIT_LATENCY)
        self._bound_gap = Histogram(*BOUND_GAP)
        #: The live exposition, formatted on the first scrape.
        self._exposition: Optional[Exposition] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def _on_open(self) -> None:
        opts = self._options
        self._window = SlidingWindow(
            opts.window_size, opts.window_policy, sig_bits=opts.sig_bits
        )
        self._index = InvertedIndex()
        self._sizes = {}
        self._buffer = StreamTopkBuffer(self.k)
        self._reserve = PairReserve(self.k)
        self._refilled_at = None
        # The new buffer's version starts again at 0, so a snapshot of
        # the one it replaces could look current.
        self._answer_version = None
        if invariant_checks_enabled(opts):
            self._checks = StreamCheckHooks()

    def _on_close(self) -> None:
        tracer = self._tracer
        if tracer is not None:
            with tracer.span(
                "stream_close",
                inserts=self.stats.inserts,
                expirations=self.stats.expirations,
                refills=self.stats.refills,
            ):
                tracer.metrics.absorb(self.metric_families())
        # Release the index (the bulky structure); the window and buffer
        # stay readable so final results survive close.
        self._index = InvertedIndex()

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def apply(self, event: StreamEvent) -> List[StreamDelta]:
        """Apply one :class:`~repro.stream.events.StreamEvent`."""
        if event.kind == INSERT:
            return self.insert(event.tokens)
        if event.kind == EXPIRE:
            return self.expire(int(event.amount))
        if event.kind == ADVANCE:
            return self.advance(event.amount)
        raise ValueError("unknown event kind %r" % event.kind)

    def insert(self, tokens: Sequence[int]) -> List[StreamDelta]:
        """Admit one record; returns the top-k deltas it caused."""
        self._require_open("insert a record")
        started = time.perf_counter() if self._tracer is not None else 0.0
        deltas: List[StreamDelta] = []
        displaced = self._window.count_overflow(arriving=1)
        for __ in range(displaced):
            self._expire_one(deltas)
        record = self._window.append(tokens)
        self.stats.inserts += 1
        if len(self._window) > self.stats.window_peak:
            self.stats.window_peak = len(self._window)
        if self.mode == "recompute":
            # A displacement may kill a member pair, so s_k may fall.
            if displaced and self._checks is not None:
                self._checks.on_relaxation()
            self._rebuild_from_batch(deltas, self.k)
        elif record.tokens:
            self._probe(record, deltas)
            self._index.add_record(record.sid, record.tokens)
            self._sizes[record.sid] = len(record.tokens)
            if self._index.entry_count > self.stats.index_entries_peak:
                self.stats.index_entries_peak = self._index.entry_count
        if self._checks is not None:
            self._checks.after_event(self)
        if self._tracer is not None:
            self._tracer.add_phase_time(
                "stream_ingest", time.perf_counter() - started
            )
        self._notify(deltas)
        return deltas

    def expire(self, count: int = 1) -> List[StreamDelta]:
        """Explicitly expire the *count* oldest live records (clamped)."""
        self._require_open("expire records")
        if count < 0:
            raise ValueError("expire count must be >= 0, got %d" % count)
        deltas: List[StreamDelta] = []
        removed = min(count, len(self._window))
        for __ in range(removed):
            self._expire_one(deltas)
        if self.mode == "recompute" and removed:
            self._recompute_after_shrink(deltas)
        if self._checks is not None:
            self._checks.after_event(self)
        self._notify(deltas)
        return deltas

    def advance(self, amount: float) -> List[StreamDelta]:
        """Advance the window by *amount* (relative under both policies).

        ``"count"``: *amount* must be integral; that many oldest records
        expire (clamped to the live count).  ``"time"``: the stream
        clock moves forward by *amount* and every record that fell out
        of the window expires.  ``advance(a); advance(b)`` is equivalent
        to ``advance(a + b)`` under both policies.
        """
        self._require_open("advance the window")
        if amount < 0:
            raise ValueError("advance amount must be >= 0, got %r" % amount)
        self.stats.advances += 1
        deltas: List[StreamDelta] = []
        if self._window.policy == "count":
            if amount != int(amount):
                raise ValueError(
                    "count-policy advance amounts must be integral, "
                    "got %r" % amount
                )
            expired = min(int(amount), len(self._window))
        else:
            self._window.advance_clock(amount)
            expired = self._window.timed_out()
        for __ in range(expired):
            self._expire_one(deltas)
        if self.mode == "recompute" and expired:
            self._recompute_after_shrink(deltas)
        if self._checks is not None:
            self._checks.after_event(self)
        self._notify(deltas)
        return deltas

    # ------------------------------------------------------------------
    # Delta subscription
    # ------------------------------------------------------------------

    def subscribe(self, callback: DeltaSubscriber) -> Callable[[], None]:
        """Register *callback* for every event's non-empty delta list.

        Callbacks run synchronously inside :meth:`insert` /
        :meth:`expire` / :meth:`advance`, after the event fully applied
        and in registration order, so a subscriber observes the exact
        delta stream the caller receives — the ``repro serve`` daemon
        broadcasts push notifications from here.  Returns an unsubscribe
        callable (idempotent).  Subscriber exceptions propagate to the
        event caller; subscribers that must not disturb ingestion catch
        their own.
        """
        self._delta_subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._delta_subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self, deltas: List[StreamDelta]) -> None:
        if not deltas or not self._delta_subscribers:
            return
        for callback in tuple(self._delta_subscribers):
            callback(deltas)

    # ------------------------------------------------------------------
    # Results and inspection
    # ------------------------------------------------------------------

    def results(self) -> List[JoinResult]:
        """The live top-``min(k, P)`` pairs, best first, by stream ids.

        Every call returns its own list, copied from a snapshot that is
        rebuilt only after the buffer changed.
        """
        return list(self._snapshot())

    @property
    def options(self) -> TopkOptions:
        """The options this engine (and its refill joins) run with."""
        return self._options

    @property
    def s_k(self) -> float:
        """The k-th live similarity (0.0 while fewer than k live pairs)."""
        return self._buffer.s_k

    @property
    def buffer(self) -> StreamTopkBuffer:
        """The top-k tier itself (read it; do not mutate it)."""
        return self._buffer

    @property
    def reserve(self) -> PairReserve:
        """The pair tier below the top-k (read it; do not mutate it)."""
        return self._reserve

    @property
    def clock(self) -> float:
        return self._window.clock

    @property
    def window_live(self) -> int:
        return len(self._window)

    @property
    def nonempty_count(self) -> int:
        return self._window.nonempty_count

    def live_sids(self) -> List[int]:
        return self._window.live_sids()

    def index_entries(self) -> Iterator[Tuple[int, int]]:
        """``(token, sid)`` for every live posting (invariant checks)."""
        for token in self._index.tokens():
            for sid, __ in self._index.postings(token):
                yield token, sid

    @property
    def results_live(self) -> int:
        """Pairs currently in the live top-k."""
        return len(self._buffer)

    @property
    def reserve_depth(self) -> int:
        """The most pairs the reserve below the top-k may hold."""
        return self._reserve.depth

    def metric_families(self) -> List[Family]:
        """The engine's exported series, each read live from the engine.

        The ``repro serve`` daemon renders them beside its own
        ``repro_serve_*`` families in one exposition.
        """
        return [
            *declared_families(self, self.stats.metric_fields(), "stats"),
            *declared_families(
                self, self.refill_stats.metric_fields(), "refill_stats"
            ),
            *declared_families(self, STREAM_GAUGES),
            # Every emit lands in both histograms: their count is the
            # emitted count.
            Family(
                COUNTER,
                *RESULTS_EMITTED,
                partial(getattr, self._emit_latency, "count"),
            ),
            Family(
                GAUGE,
                BITMAP_HIT_RATE.name,
                BITMAP_HIT_RATE.help,
                self._refill_hit_rate,
                BITMAP_HIT_RATE.mode,
            ),
            histogram_family(self._emit_latency),
            histogram_family(self._bound_gap),
        ]

    def metrics_text(self) -> str:
        """A Prometheus-format snapshot of the engine's current metrics.

        The families are formatted once, on the first call; every call
        renders their current values (counters are cumulative), so the
        CLI can rewrite a scrape file mid-stream as a live endpoint.  A
        traced engine adds its micro-phase timers: each phase's
        accumulated seconds and call count.
        """
        if self._exposition is None:
            self._exposition = Exposition(self.metric_families())
        tail: List[str] = []
        if self._tracer is not None:
            tail = phase_lines(self._tracer.phase_times())
        return self._exposition.render(tail)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _snapshot(self) -> List[JoinResult]:
        """The answer at the buffer's current version, built once per
        version; callers must not mutate it.

        The buffer lists its members by ``(-similarity, pair)`` and
        every pair has ``x < y``, so that is already
        :meth:`JoinResult.sort_key` order.
        """
        buffer = self._buffer
        if self._answer_version != buffer.version:
            self._answer = [
                JoinResult(x, y, value) for (x, y), value in buffer.items()
            ]
            self._answer_version = buffer.version
        return self._answer

    def _probe(self, record: LiveRecord, deltas: List[StreamDelta]) -> None:
        """Generate and verify the new record's candidate pairs."""
        sim = self._sim
        stats = self.stats
        tokens = record.tokens
        bound = self._reserve.probe_floor()
        if bound is None or bound <= 0:
            # Every live pair above τ must be tracked — with τ unset,
            # token-disjoint similarity-0 pairs too (the streaming
            # analogue of the batch join's zero-padding), and those are
            # not in the index.
            for other in self._window.records():
                if other.sid == record.sid or not other.tokens:
                    continue
                value = sim.similarity(tokens, other.tokens)
                stats.probe_verifications += 1
                self._offer((other.sid, record.sid), value, deltas)
            return
        size_x = len(tokens)
        lists = list(map(self._index.postings, tokens))
        prefix = sim.probing_prefix_length(size_x, bound)
        if prefix < size_x:
            # Any `prefix` tokens reach every partner above τ: probe the
            # currently shortest lists.  The sort is stable and `tokens`
            # ascend, so ties (and absent tokens) go by token id.
            lists = sorted(lists, key=len)[:prefix]
        # One pass counts, per live sid, the probed tokens it holds.
        shared = Counter(map(_SID_OF, chain.from_iterable(lists)))
        stats.probe_candidates += len(shared)
        unprobed = unprobed_overlap(size_x, len(lists))
        # A candidate of `size` tokens needs c(y) >= α - unprobed, and
        # none does when α exceeds either size (the size filter; marked
        # by a need above any count, |x| + 1).  α depends only on τ and
        # the two sizes, `unprobed` on τ and |x|.  τ moves rarely, so
        # the engine keeps one table, for the latest τ, by size pair.
        by_size_x = self._needs.get(bound)
        if by_size_x is None:
            by_size_x = {}
            self._needs = {bound: by_size_x}
        needs = by_size_x.get(size_x)
        if needs is None:
            needs = by_size_x[size_x] = {}
        sizes = self._sizes
        required_overlap = sim.required_overlap
        size_pruned = count_pruned = 0
        # No record is read for the many candidates these two filters
        # reject.
        survivors: List[Tuple[int, int]] = []
        for sid, count in shared.items():
            size = sizes[sid]
            need = needs.get(size)
            if need is None:
                alpha = required_overlap(bound, size_x, size)
                if alpha > size or alpha > size_x:
                    need = size_x + 1
                else:
                    need = alpha - unprobed
                needs[size] = need
            if count >= need:
                survivors.append((sid, need + unprobed))
            elif need > size_x:
                size_pruned += 1
            else:
                count_pruned += 1
        stats.size_pruned += size_pruned
        stats.count_pruned += count_pruned
        if not survivors:
            return
        # The survivors go in sid order, so the offers (and the delta
        # stream) do not depend on the Counter's order.
        survivors.sort()
        live = self._window.by_sid
        from_overlap = sim.from_overlap
        offer = self._offer
        use_bitmap = self._use_bitmap
        signature = record.signature
        record_sid = record.sid
        checked = bitmap_pruned = verified = 0
        for sid, alpha in survivors:
            other = live[sid]
            other_tokens = other.tokens
            size = len(other_tokens)
            if use_bitmap:
                # signature_overlap_bound, inline.
                checked += 1
                if (
                    size_x + size - popcount(signature ^ other.signature)
                ) >> 1 < alpha:
                    bitmap_pruned += 1
                    continue
            value = from_overlap(
                overlap_with_early_abort(tokens, other_tokens, alpha),
                size_x,
                size,
            )
            verified += 1
            # An aborted merge returns some value < bound = τ, which
            # _offer rejects — only exact values are tracked.
            offer((sid, record_sid), value, deltas)
        stats.bitmap_checked += checked
        stats.bitmap_pruned += bitmap_pruned
        stats.probe_verifications += verified

    def _offer(
        self, pair: Pair, value: float, deltas: List[StreamDelta]
    ) -> None:
        reserve = self._reserve
        if reserve.floor is not None and value <= reserve.floor:
            return
        added, evicted = self._buffer.add(pair, value)
        if not added:
            reserve.add(pair, value)
            return
        if evicted is not None:
            self.stats.pairs_left += 1
            deltas.append(
                StreamDelta("leave", evicted[0][0], evicted[0][1], evicted[1])
            )
            reserve.add(*evicted)
        self.stats.pairs_entered += 1
        deltas.append(StreamDelta("enter", pair[0], pair[1], value))

    def _expire_one(self, deltas: List[StreamDelta]) -> None:
        """FIFO-expire the oldest record; replace any member pair that died."""
        started = time.perf_counter() if self._tracer is not None else 0.0
        record = self._window.pop_oldest()
        self.stats.expirations += 1
        if self.mode == "recompute":
            # No index, no incremental buffer surgery: the caller runs
            # one batch recompute after the whole event.
            if self._tracer is not None:
                self._tracer.add_phase_time(
                    "stream_expire", time.perf_counter() - started
                )
            return
        if record.tokens:
            if self._checks is not None:
                for token in record.tokens:
                    self._checks.on_trim(self._index, token, record.sid)
            self._index.trim_heads(record.tokens)
            del self._sizes[record.sid]
            bound_before = self._buffer.s_k
            dead = self._buffer.remove_record(record.sid)
            self._reserve.remove_record(record.sid)
            for pair, value in dead:
                self.stats.pairs_left += 1
                deltas.append(StreamDelta("leave", pair[0], pair[1], value))
            if dead and self._checks is not None:
                self._checks.on_relaxation()
            self._replace_dead(deltas, bound_before)
        if self._tracer is not None:
            self._tracer.add_phase_time(
                "stream_expire", time.perf_counter() - started
            )

    def _replace_dead(
        self, deltas: List[StreamDelta], bound_before: float
    ) -> None:
        """Bring the buffer back to ``min(k, P)`` pairs after an expiry.

        ``P`` is the live pair count.  Reserve pairs are promoted when
        the two tiers still hold enough; otherwise a refill re-joins
        the window.  *bound_before* is the pre-expiry ``s_k`` the
        relaxation check compares the refilled bound against.
        """
        buffer = self._buffer
        reserve = self._reserve
        live = self._window.nonempty_count
        possible = live * (live - 1) // 2
        target = min(self.k, possible)
        if len(buffer) + len(reserve) < target:
            self.stats.refills += 1
            self._deepen_at_refill(live, possible)
            self._rebuild_from_batch(deltas, self.k + reserve.depth)
            if self._checks is not None:
                self._checks.on_refill(bound_before, buffer.s_k)
            return
        while len(buffer) < target:
            pair, value = reserve.pop_best()
            buffer.add(pair, value)
            self.stats.reserve_promotions += 1
            self.stats.pairs_entered += 1
            deltas.append(StreamDelta("enter", pair[0], pair[1], value))
        if len(buffer) + len(reserve) == possible:
            reserve.floor = None

    def _deepen_at_refill(self, live: int, possible: int) -> None:
        """Double the reserve when this refill came soon after the last.

        "Soon" is within :data:`_CLOSE_REFILL_LIFETIMES` window
        lifetimes, counted in arrivals against the *live* records, so
        the policy reads only counts of events and never a clock: the
        delta stream stays a function of the events.  The refill then
        joins for ``k + depth`` pairs, which keeps the deeper reserve
        exact; ``k + depth`` grows no further than the *possible* live
        pairs.
        """
        arrivals = self.stats.inserts
        previous = self._refilled_at
        self._refilled_at = arrivals
        if (
            previous is not None
            and arrivals - previous <= _CLOSE_REFILL_LIFETIMES * live
        ):
            self._reserve.deepen(possible - self.k)

    def _recompute_after_shrink(self, deltas: List[StreamDelta]) -> None:
        """Recompute-mode rebuild after expiries (the pair space shrank)."""
        bound_before = self._buffer.s_k
        if self._checks is not None:
            self._checks.on_relaxation()
        self._rebuild_from_batch(deltas, self.k)
        if self._checks is not None:
            self._checks.on_refill(bound_before, self._buffer.s_k)

    def _rebuild_from_batch(
        self, deltas: List[StreamDelta], limit: int
    ) -> None:
        """Adopt the exact batch top-*limit* over the live window.

        The best ``k`` pairs become the buffer, the rest the reserve,
        and τ the *limit*-th similarity (unset when fewer came back:
        then every live pair is tracked).  A relaxation rebuild may
        swap boundary-tied members (the batch join picks its own valid
        tie-break); the deltas report the swap and the answer stays
        tie-equivalent to every valid top-k.
        """
        started = time.perf_counter() if self._tracer is not None else 0.0
        old_answer = self._snapshot()
        joined = self._batch_topk(limit)
        joined.sort(key=lambda item: (-item[1], item[0]))
        new_items = joined[: self.k]
        self._buffer.rebuild(new_items)
        self._reserve.reset(
            joined[self.k:],
            joined[-1][1] if len(joined) == limit else None,
        )
        new_pairs = {pair for pair, __ in new_items}
        old_pairs = {(old.x, old.y) for old in old_answer}
        for old in old_answer:
            if (old.x, old.y) not in new_pairs:
                self.stats.pairs_left += 1
                deltas.append(
                    StreamDelta("leave", old.x, old.y, old.similarity)
                )
        for pair, value in new_items:
            if pair not in old_pairs:
                self.stats.pairs_entered += 1
                deltas.append(StreamDelta("enter", pair[0], pair[1], value))
        if self._tracer is not None:
            self._tracer.add_phase_time(
                "stream_refill", time.perf_counter() - started
            )

    def _batch_topk(self, limit: int) -> List[Tuple[Pair, float]]:
        """The exact batch top-*limit* over the live window, by sid."""
        live = list(self._window.records())
        if self._window.nonempty_count < len(live):
            live = [record for record in live if record.tokens]
        if len(live) < 2:
            return []
        # Rank the window's tokens rarest first so the join's prefixes
        # hold its most selective tokens; similarities do not depend on
        # the order.  The live index holds one posting per live record
        # and token, so its list lengths are the window's document
        # frequencies (recompute mode keeps no index and counts them).
        if self.mode == "recompute":
            df = document_frequencies(record.tokens for record in live)
            tokens, frequencies = list(df), list(df.values())
        else:
            tokens, frequencies = self._index.list_lengths()
        collection = RecordCollection.from_frequency_ranks(
            [record.tokens for record in live], tokens, frequencies
        )
        # The window's signatures hash the original token ids.  A
        # signature bounds |x Δ y| under any token-to-bit map applied to
        # both records alike, so the join takes them instead of hashing
        # the ranks again.
        collection.adopt_signatures(
            self._window.sig_bits,
            [live[record.source_id].signature for record in collection],
        )
        # The inner join must not re-enter the tracer (its end-of-run
        # absorption would pollute the stream's metric families); its
        # counters aggregate into refill_stats instead.
        changes: Dict[str, object] = {"trace": None}
        if self.mode == "incremental":
            # A refill pays only for the join: no result seeding (under
            # rarest-first ranks it verifies more pairs than it saves),
            # and a small one skips the per-event NumPy dispatch test.
            # Recompute mode, the reference, joins as configured.
            changes["seed_results"] = False
            if self._options.accel == "on" and limit < _REFILL_BATCH_LIMIT:
                changes["accel"] = "python"
        options = replace(self._options, **changes)
        results = topk_join(
            collection, limit, similarity=self._sim, options=options,
            stats=self.refill_stats,
        )
        observe_emits(
            self.refill_stats.emits, self._emit_latency, self._bound_gap
        )
        self.refill_stats.emits.clear()
        records = collection.records
        out: List[Tuple[Pair, float]] = []
        for r in results:
            a = live[records[r.x].source_id].sid
            b = live[records[r.y].source_id].sid
            pair = (a, b) if a < b else (b, a)
            out.append((pair, r.similarity))
        return out

    def _refill_hit_rate(self) -> Optional[float]:
        stats = self.refill_stats
        return hit_rate(stats.bitmap_pruned, stats.bitmap_checked)
