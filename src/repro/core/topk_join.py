"""``topk-join`` — the paper's core contribution (Algorithms 3–10).

An event-driven, incremental prefix-filtering join that returns the *k*
most similar record pairs without a similarity threshold:

1. every record starts with a 1-token prefix and a probing upper bound of
   ``sim.max``; prefix events live in a max-heap (:mod:`.events`);
2. popping an event ``<x, p, s_p>`` probes the inverted list of token
   ``x[p]``, pairing *x* with earlier-probed records; survivors of size /
   positional / suffix filtering are verified exactly once
   (:mod:`.verification`) and offered to the top-k buffer (:mod:`.results`);
3. *x* is indexed at position *p* unless Lemma 4's indexing bound shows no
   future probe of that posting can beat ``s_k`` (Algorithms 7–8), in which
   case indexing stops for *x* forever;
4. while scanning a posting list, Algorithm 9/10's accessing bound
   truncates the list permanently as soon as it drops to ``s_k``;
5. the loop stops when the best remaining event bound cannot beat ``s_k``.

Results are emitted progressively: a temporary result whose similarity is
at least the best remaining event bound is final (Section VII-F) and is
yielded immediately.

One exact shortcut goes beyond the paper: a token that only one record
of the collection holds is shared by no pair, so the loop neither probes
nor indexes it (the record still gets its Lemma 4 indexing decision).

Every optimisation can be toggled through :class:`TopkOptions` — the
paper's ablations ``record-all`` (Fig. 3a) and ``w/o-index-opt``
(Fig. 3b–c) are ``verification_mode="all"`` and
``index_optimization=False`` respectively.

One further option generalizes the join beyond the paper's self-join:
``bipartite_sides`` — per-record side labels turning the self-join into
an exact R×S join (:mod:`repro.core.rs_join`): each side keeps its own
inverted index, records probe only the opposite side's index, and
therefore only cross pairs are ever generated.  No bound depends on
which side a record belongs to, so the event machinery runs unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..accel.kernel import make_kernel
from ..data.records import RecordCollection, signature_width
from ..index.inverted import BoundedInvertedIndex
from ..joins.filters import DEFAULT_MAXDEPTH, suffix_admits
from ..oracle.invariants import CheckHooks, invariant_checks_enabled
from ..result import JoinResult
from ..similarity.functions import Jaccard, SimilarityFunction
from ..similarity.overlap import overlap_with_common_positions
from .events import EventQueue
from .metrics import EmitEvent, TopkEndState, TopkStats
from .results import TopKBuffer
from .seeding import seed_temporary_results
from .verification import VerificationRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer

__all__ = ["TopkOptions", "topk_join", "topk_join_iter"]

#: Fewest records that must hold a token for the join to probe or index
#: it.  A token of document frequency 1 is shared by no pair, so
#: skipping it is exact; any larger value would drop real pairs.
_SHARED_DF = 2


@dataclass
class TopkOptions:
    """Feature switches for :func:`topk_join`.

    The defaults correspond to the fully optimized ``topk-join`` of the
    paper's experiments.
    """

    #: Group prefix events by ``(record size, prefix length)`` (Section V-C).
    compress_events: bool = True
    #: ``"optimized"`` (Algorithm 6), ``"all"`` (record-all), or ``"off"``.
    verification_mode: str = "optimized"
    #: Apply Lemma 4's indexing bound and the stop-indexing flag (Alg. 7–8).
    index_optimization: bool = True
    #: Truncate posting lists via the accessing bound (Alg. 9–10).
    access_optimization: bool = True
    #: Positional filtering (Section V-A).
    positional_filter: bool = True
    #: Suffix filtering (Section V-A).
    suffix_filter: bool = True
    #: Suffix-filter recursion depth (2 for word tokens, 4 for q-grams).
    maxdepth: int = DEFAULT_MAXDEPTH
    #: Seed ``T`` from a medium-frequency token (Section V-B).
    seed_results: bool = True
    #: Per-record side labels (0/1) turning the join into an exact R×S
    #: join over cross pairs only.  ``bipartite_sides[rid]`` must be
    #: indexable for every record id of the joined collection.
    bipartite_sides: Optional[Sequence[int]] = None
    #: Hot-path acceleration (see :mod:`repro.accel.kernel`).  ``"on"``
    #: dispatches per event once the buffer is full: an event whose
    #: probed posting lists hold at least 64 postings (the measured
    #: crossover, docs/PERFORMANCE.md) goes to the NumPy batch kernel,
    #: a smaller one is scanned record by record, which is cheaper; it
    #: falls back to the pure-Python kernel when NumPy is missing.
    #: ``"numpy"`` batches every post-fill event, ``"python"`` none;
    #: ``"off"`` runs the historical scan loop (kept for ablation and as
    #: the benchmark-gate baseline).  All modes are exact — the
    #: differential fuzzer cross-checks them against the oracle.
    accel: str = "on"
    #: Width of the bitmap-filter signatures in bits (any value in
    #: :data:`repro.data.records.SUPPORTED_SIGNATURE_BITS`).  Wider
    #: signatures collide less — higher prune rates on token-rich
    #: records — at the cost of more 64-bit words per XOR+popcount;
    #: 128 is the sweet spot for the paper's word-token workloads (see
    #: docs/PERFORMANCE.md for width-selection guidance).  Ignored with
    #: ``accel="off"`` *except* by result seeding and the streaming
    #: engine's arrival probe, which build signatures at exactly this
    #: width.
    sig_bits: int = 128
    #: Verify prefilter survivors in one vectorized pass over the flat
    #: token columns (the second-generation kernel's batch-verify layer)
    #: instead of the per-candidate Python suffix-filter + merge.  Only
    #: the NumPy kernel reads it; ``False`` restores the first-generation
    #: sequential tail — kept reachable as the benchmark gate's
    #: comparison point and as a differential-fuzzer backend.
    batch_verify: bool = True
    #: Assert the paper's invariants at runtime (event order, ``s_k``
    #: monotonicity, verify-exactly-once, Lemma 1/4 reference bounds,
    #: emission guarantees) via :mod:`repro.oracle.invariants`.  Also
    #: enabled globally by exporting ``REPRO_CHECK=1``.  Zero-cost when
    #: off: the hot loops pay one ``is not None`` test per hook site.
    check_invariants: bool = False
    #: Observability hook (see :mod:`repro.obs`): a tracer collecting
    #: spans, metrics and profiler samples for this run.  ``None`` (the
    #: default) disables all instrumentation — the join then pays one
    #: ``is not None`` test per *phase* boundary, never per event.
    trace: Optional["Tracer"] = None
    #: Sliding-window extent for the streaming engine
    #: (:mod:`repro.stream`): the number of most-recent records kept
    #: live under the ``"count"`` policy, or the window width in stream
    #: time units under the ``"time"`` policy.  ``0`` means unbounded —
    #: records then expire only through explicit ``expire``/``advance``
    #: calls.  The batch join ignores it.
    window_size: int = 0
    #: Streaming window policy: ``"count"`` (the window holds the last
    #: ``window_size`` records; an arrival displaces the oldest) or
    #: ``"time"`` (a record expires once the stream clock has advanced
    #: ``window_size`` past its arrival).  The batch join ignores it.
    window_policy: str = "count"


def topk_join(
    collection: RecordCollection,
    k: int,
    similarity: Optional[SimilarityFunction] = None,
    options: Optional[TopkOptions] = None,
    stats: Optional[TopkStats] = None,
) -> List[JoinResult]:
    """The k most similar pairs of *collection*, best first.

    When the collection holds fewer than *k* pairs sharing any token, the
    remainder is padded with (similarity-0) pairs so exactly
    ``min(k, n·(n-1)/2)`` results are returned — matching what an oracle
    scoring all pairs would report.  (With ``bipartite_sides`` the pair
    space, and hence the padding, covers cross pairs only.)
    """
    opts = options or TopkOptions()
    results = list(
        topk_join_iter(
            collection, k, similarity=similarity, options=opts, stats=stats
        )
    )
    if len(results) < k:
        results.extend(
            _zero_fill(
                collection,
                k - len(results),
                results,
                sides=opts.bipartite_sides,
            )
        )
    return results


def topk_join_iter(
    collection: RecordCollection,
    k: int,
    similarity: Optional[SimilarityFunction] = None,
    options: Optional[TopkOptions] = None,
    stats: Optional[TopkStats] = None,
) -> Iterator[JoinResult]:
    """Progressive top-k join: yields each result as soon as it is *final*.

    A yielded pair is guaranteed to have similarity no smaller than every
    pair yielded later and every pair not yielded at all — the progressive
    guarantee of Section VII-F.  Only pairs actually sharing a token are
    yielded (no zero-similarity padding; see :func:`topk_join`).
    """
    opts = options or TopkOptions()
    tracer = opts.trace
    if tracer is None:
        yield from _topk_join_run(collection, k, similarity, opts, stats)
        return
    with tracer.span(
        "topk_join", k=k, records=len(collection), accel=opts.accel
    ):
        yield from _topk_join_run(
            collection, k, similarity, opts, stats, tracer
        )


def _topk_join_run(
    collection: RecordCollection,
    k: int,
    similarity: Optional[SimilarityFunction],
    opts: TopkOptions,
    stats: Optional[TopkStats],
    tracer: Optional["Tracer"] = None,
) -> Iterator[JoinResult]:
    """The join proper; see :func:`topk_join_iter` for the contract.

    *tracer* is ``opts.trace``, threaded through by the wrapper that
    opened the ``topk_join`` root span.  When set, the run is carved
    into ``seed`` / ``event_loop`` / ``drain`` child spans and finishes
    by publishing end-of-run gauges and absorbing *run_stats* into the
    tracer's metrics registry; when ``None``, the historical code paths
    run untouched.
    """
    sim = similarity or Jaccard()
    # Reject unsupported widths up front, in every accel mode: sig_bits
    # configures seeding and kernel alike, so a typo'd width must fail
    # loudly here rather than silently join at the default.
    signature_width(opts.sig_bits)
    run_stats = stats if stats is not None else TopkStats()
    span = tracer.span if tracer is not None else _null_span
    start = time.perf_counter()

    buffer = TopKBuffer(k)
    registry = VerificationRegistry(sim, mode=opts.verification_mode)
    sides = opts.bipartite_sides
    if sides is None:
        indexes = (BoundedInvertedIndex(),)
    else:
        # Bipartite mode: one index per side; records probe the opposite
        # side's index, so only cross pairs are ever generated.
        indexes = (BoundedInvertedIndex(), BoundedInvertedIndex())
    queue = EventQueue(collection, sim, compressed=opts.compress_events)
    stop_indexing = bytearray(len(collection))
    checks = None
    if invariant_checks_enabled(opts):
        checks = CheckHooks(
            sim,
            k,
            collection=collection,
            sides=sides,
            dedup_active=opts.verification_mode != "off",
        )

    # The verified-pair set and the scan kernel are per-run state: both are
    # captured once here instead of once per event (the registry's set
    # object is stable for the lifetime of the run).
    seen_pairs = registry.fast_set()
    kernel = make_kernel(
        collection, sim, opts, buffer, registry, seen_pairs, run_stats,
        checks,
    )

    with span("seed"):
        if opts.seed_results:
            run_stats.verifications += seed_temporary_results(
                collection, sim, buffer, registry, sides=sides,
                checks=checks, stats=run_stats, bitmap=kernel is not None,
                sig_bits=opts.sig_bits,
            )

    emitted = 0
    records = collection.records
    # A token fewer than _SHARED_DF records hold (a singleton) is shared
    # by no pair: no other record would probe its posting, and its list
    # never holds a partner.  Such a record skips its probe (the batched
    # scan finds its list empty) and inserts no posting; its Lemma 4
    # indexing decision is still made.
    frequencies = collection.token_frequencies()
    # Once the buffer is full, a kernel that batches whole prefix events
    # takes every event whose probed lists hold at least `floor`
    # postings; smaller events, and every event before the buffer
    # fills, are scanned and indexed record by record, in one kernel
    # call per event.
    floor = kernel.event_scan_floor if kernel is not None else None

    with span("event_loop"):
        while queue:
            bound, prefix, rids = queue.pop()
            run_stats.events += 1
            if checks is not None:
                checks.on_pop(
                    bound, prefix, len(collection[rids[0]]), buffer.s_k
                )
            if buffer.full and bound <= buffer.s_k:
                break
            size = len(collection[rids[0]])
            position = prefix - 1
            if (
                floor is not None
                and buffer.full
                and _postings_reach(
                    records, rids, position, indexes, sides, floor
                )
            ):
                _process_event_batched(
                    collection, rids, prefix, bound, size, sim, opts,
                    buffer, indexes, sides, stop_indexing, run_stats, checks,
                    kernel, frequencies,
                )
            elif kernel is not None:
                run_stats.index_insertions_skipped += kernel.scan_records(
                    indexes, sides, rids, prefix, bound, stop_indexing,
                    frequencies, _SHARED_DF,
                )
            else:
                _process_event(
                    collection, rids, prefix, bound, size, sim, opts, buffer,
                    registry, indexes, sides, stop_indexing, run_stats,
                    checks, seen_pairs, frequencies,
                )
            queue.push_next(size, prefix, rids, cutoff=buffer.s_k)

            remaining = queue.peek_bound()
            if remaining is None:
                break
            for pair, value in buffer.pop_emittable(remaining):
                emitted += 1
                if checks is not None:
                    checks.on_emit(pair, value, remaining, progressive=True)
                run_stats.emits.append(
                    EmitEvent(
                        index=emitted,
                        similarity=value,
                        upper_bound=remaining,
                        s_k=buffer.s_k,
                        elapsed=time.perf_counter() - start,
                    )
                )
                yield JoinResult(pair[0], pair[1], value)

    with span("drain"):
        final_bound = queue.peek_bound() or 0.0
        for pair, value in buffer.drain():
            emitted += 1
            if checks is not None:
                checks.on_emit(pair, value, final_bound, progressive=False)
            run_stats.emits.append(
                EmitEvent(
                    index=emitted,
                    similarity=value,
                    upper_bound=final_bound,
                    s_k=buffer.s_k,
                    elapsed=time.perf_counter() - start,
                )
            )
            yield JoinResult(pair[0], pair[1], value)

    # Counters add up and peaks keep the maximum, so one stats object can
    # aggregate many joins (the streaming engine's refill_stats does).
    run_stats.hash_entries_peak = max(
        run_stats.hash_entries_peak, registry.peak_entries
    )
    run_stats.index_inserted += sum(ix.inserted for ix in indexes)
    run_stats.index_deleted += sum(ix.deleted for ix in indexes)
    run_stats.index_entries_peak = max(
        run_stats.index_entries_peak,
        sum(ix.peak_entries for ix in indexes),
    )

    if tracer is not None:
        _publish_run_metrics(
            tracer, run_stats, buffer, queue, indexes, registry,
            len(collection),
        )


class _NullSpan:
    """Inert context manager standing in for a span when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _null_span(name: str, **meta: Any) -> _NullSpan:
    """Span factory used in place of ``Tracer.span`` when tracing is off."""
    return _NULL_SPAN


def _publish_run_metrics(
    tracer: "Tracer",
    run_stats: TopkStats,
    buffer: TopKBuffer,
    queue: EventQueue,
    indexes: Tuple[BoundedInvertedIndex, ...],
    registry: VerificationRegistry,
    record_count: int,
) -> None:
    """End-of-run footprint plus counter/histogram absorption.

    Runs once per traced join, after the drain, so tracing adds nothing
    to the per-event path.
    """
    metrics = tracer.metrics
    metrics.absorb_stats(
        TopkEndState(
            s_k=buffer.s_k,
            heap_size=len(queue),
            heap_size_peak=queue.peak_size,
            index_entries_live=sum(ix.inserted - ix.deleted for ix in indexes),
            hash_entries_live=len(registry),
        )
    )
    metrics.absorb_topk_stats(run_stats, record_count=record_count)


def _process_event(
    collection: RecordCollection,
    rids: Sequence[int],
    prefix: int,
    bound: float,
    size: int,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    registry: VerificationRegistry,
    indexes: Tuple[BoundedInvertedIndex, ...],
    sides: Optional[Sequence[int]],
    stop_indexing: bytearray,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    seen_pairs: Optional[Set[Tuple[int, int]]],
    frequencies: Dict[int, int],
) -> None:
    """Probe, then maybe index, each record of one event (``accel="off"``).

    Every record of *rids* has *size* tokens; each probes its token at
    *prefix* and takes its Lemma 4 indexing decision before the next
    one probes.  A token fewer than :data:`_SHARED_DF` records hold is
    not probed (its list never holds a partner) and
    :func:`_index_records` inserts no posting for it.  With acceleration
    on the kernel's ``scan_records`` does all of this in one call.
    """
    position = prefix - 1
    records = collection.records
    for rid in rids:
        if sides is None:
            probe_index = insert_index = indexes[0]
        else:
            side = sides[rid]
            probe_index = indexes[1 - side]
            insert_index = indexes[side]
        if frequencies[records[rid].tokens[position]] >= _SHARED_DF:
            _probe_record(
                collection, rid, prefix, bound, sim, opts, buffer, registry,
                probe_index, stats, checks, seen_pairs,
            )
        _index_records(
            collection, sim, opts, buffer, (insert_index,), None,
            stop_indexing, stats, checks, (rid,), prefix, bound, size,
            frequencies,
        )


def _probe_record(
    collection: RecordCollection,
    rid: int,
    prefix: int,
    bound: float,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    registry: VerificationRegistry,
    probe_index: BoundedInvertedIndex,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    seen_pairs: Optional[Set[Tuple[int, int]]],
) -> None:
    """Probe one record's posting list at one prefix position.

    The historical loop, kept for ``accel="off"``: one iteration per
    posting scanned.  Invariants are hoisted aggressively: ``s_k``,
    fullness, the accessing-bound cutoff and the per-partner-size
    required overlap α are all locals refreshed only when the buffer
    changes.  Note the size filter *is* ``α <= min(|x|, |y|)`` (a
    partner too small/large to reach ``s_k`` has an impossible α), so
    one cached α serves the size, positional and suffix filters and the
    verification abort threshold.

    In the self-join *probe_index* is the index the record joins; in
    bipartite mode it is the opposite side's.  *seen_pairs* is the
    registry's live verified-pair set, captured once per run by the
    caller (``None`` when verification dedup is off).
    """
    x = collection[rid]
    size_x = len(x)
    tokens_x = x.tokens
    token = tokens_x[prefix - 1]

    columns = probe_index.columns(token)
    if columns is not None and len(columns.rids) > 0:
        col_rids = columns.rids
        col_positions = columns.positions
        col_bounds = columns.bounds
        records = collection.records
        positional_on = opts.positional_filter
        suffix_on = opts.suffix_filter
        maxdepth = opts.maxdepth
        access_on = opts.access_optimization
        rest_x = size_x - prefix

        full = buffer.full
        s_k = buffer.s_k
        alpha_by_size: dict = {}
        prefix_by_size: dict = {}
        access_cutoff = (
            sim.accessing_cutoff(bound, s_k) if (access_on and full) else -1.0
        )

        candidates = duplicates = size_pruned = 0
        positional_pruned = suffix_pruned = verifications = 0

        for position in range(len(col_rids)):
            bound_y = col_bounds[position]

            # Accessing-bound truncation (Algorithms 9-10): entries from
            # here on were inserted with even smaller bounds, and future
            # probes come with even smaller ``bound`` — the tail is dead
            # forever.  The cutoff is a conservative closed-form inverse;
            # the exact bound confirms before anything is deleted.
            if bound_y <= access_cutoff:
                if sim.accessing_upper_bound(bound, bound_y) <= s_k:
                    probe_index.truncate(token, position)
                    break

            candidates += 1
            rid_y = col_rids[position]
            pair = (rid, rid_y) if rid < rid_y else (rid_y, rid)
            if seen_pairs is not None and pair in seen_pairs:
                duplicates += 1
                continue

            size_y = len(records[rid_y].tokens)
            alpha = alpha_by_size.get(size_y)
            if alpha is None:
                alpha = (
                    sim.required_overlap(s_k, size_x, size_y) if full else 0
                )
                alpha_by_size[size_y] = alpha

            # Size filter: no partner of this size can reach s_k.
            if alpha > (size_x if size_x < size_y else size_y):
                size_pruned += 1
                continue
            if positional_on:
                rest_y = size_y - col_positions[position]
                best = 1 + (rest_x if rest_x < rest_y else rest_y)
                if best < alpha:
                    positional_pruned += 1
                    continue
            tokens_y = records[rid_y].tokens
            if suffix_on and alpha > 1:
                if not suffix_admits(
                    sim, s_k, tokens_x, tokens_y,
                    prefix, col_positions[position],
                    seen_overlap=1, maxdepth=maxdepth, alpha=alpha,
                ):
                    suffix_pruned += 1
                    continue

            # Let the merge cover the maximum prefixes before aborting so
            # the verification registry can decide re-generability exactly
            # (see OverlapProbe.scanned_x / scanned_y).
            scan_x = prefix_by_size.get(size_x)
            if scan_x is None:
                scan_x = sim.probing_prefix_length(size_x, s_k)
                prefix_by_size[size_x] = scan_x
            scan_y = prefix_by_size.get(size_y)
            if scan_y is None:
                scan_y = sim.probing_prefix_length(size_y, s_k)
                prefix_by_size[size_y] = scan_y

            probe = overlap_with_common_positions(
                tokens_x, tokens_y, alpha, scan_x, scan_y
            )
            verifications += 1
            if checks is not None:
                checks.on_verified(pair)
            if not probe.aborted:
                value = sim.from_overlap(probe.overlap, size_x, size_y)
                if buffer.add(pair, value):
                    new_s_k = buffer.s_k
                    # s_k is monotone non-decreasing, so "changed" is
                    # exactly "rose" — no float equality needed.
                    if new_s_k > s_k or not full:
                        s_k = new_s_k
                        full = buffer.full
                        alpha_by_size = {}
                        prefix_by_size = {}
                        access_cutoff = (
                            sim.accessing_cutoff(bound, s_k)
                            if (access_on and full)
                            else -1.0
                        )
            registry.record(pair, probe, size_x, size_y, s_k)

        stats.candidates += candidates
        stats.duplicates_skipped += duplicates
        stats.size_pruned += size_pruned
        stats.positional_pruned += positional_pruned
        stats.suffix_pruned += suffix_pruned
        stats.verifications += verifications


def _postings_reach(
    records: Sequence[Any],
    rids: Sequence[int],
    position: int,
    indexes: Tuple[BoundedInvertedIndex, ...],
    sides: Optional[Sequence[int]],
    floor: int,
) -> bool:
    """Whether the lists *rids* probe at *position* hold *floor* postings.

    One posting-list lookup per record at most, stopping as soon as the
    running total reaches *floor*.
    """
    total = 0
    for rid in rids:
        if total >= floor:
            return True
        probe_index = indexes[0] if sides is None else indexes[1 - sides[rid]]
        columns = probe_index.columns(records[rid].tokens[position])
        if columns is not None:
            total += len(columns.rids)
    return total >= floor


def _process_event_batched(
    collection: RecordCollection,
    rids: Sequence[int],
    prefix: int,
    bound: float,
    size: int,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    indexes: Tuple[BoundedInvertedIndex, ...],
    sides: Optional[Sequence[int]],
    stop_indexing: bytearray,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    kernel: Any,
    frequencies: Dict[int, int],
) -> None:
    """Probe a whole prefix event in one kernel call, then index in order.

    The kernel must know which records of the event will be indexed at
    this position, since a later record probing the same token would
    have seen them in the one-by-one order; that is decided here from
    the event-start threshold, with the same rule :func:`_index_records`
    applies (which may still stop a record if ``s_k`` rises meanwhile).
    """
    if not opts.index_optimization:
        indexable = [True] * len(rids)
    elif sim.indexing_upper_bound(size, prefix) > buffer.s_k:
        indexable = [not stop_indexing[rid] for rid in rids]
    else:
        indexable = [False] * len(rids)
    kernel.scan_event(indexes, sides, rids, prefix, bound, indexable)
    _index_records(
        collection, sim, opts, buffer, indexes, sides, stop_indexing,
        stats, checks, rids, prefix, bound, size, frequencies,
    )


def _index_records(
    collection: RecordCollection,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    indexes: Tuple[BoundedInvertedIndex, ...],
    sides: Optional[Sequence[int]],
    stop_indexing: bytearray,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    rids: Sequence[int],
    prefix: int,
    bound: float,
    size_x: int,
    frequencies: Dict[int, int],
) -> None:
    """Index insertion after the probes of one event (Algorithms 7-8).

    Every record of *rids* has size *size_x* and is indexed under its
    token at *prefix*, into ``indexes[0]`` or, in bipartite mode, its
    own side's index.  Indexing never moves ``s_k``, so Lemma 4's
    decision is the same for all of them.  A token fewer than
    :data:`_SHARED_DF` records hold (by the collection's *frequencies*)
    is decided but never inserted: no other record probes it.
    """
    position = prefix - 1
    optimize = opts.index_optimization
    threshold = buffer.s_k
    inserted = sim.indexing_upper_bound(size_x, prefix) > threshold
    shared_df = _SHARED_DF
    for rid in rids:
        if optimize:
            if stop_indexing[rid]:
                stats.index_insertions_skipped += 1
                continue
            if checks is not None:
                checks.on_index_decision(
                    rid, size_x, prefix, threshold, inserted
                )
            if not inserted:
                stop_indexing[rid] = 1
                stats.index_insertions_skipped += 1
                continue
        token = collection[rid].tokens[position]
        if frequencies[token] < shared_df:
            continue
        insert_index = indexes[0] if sides is None else indexes[sides[rid]]
        insert_index.add(token, rid, prefix, bound)


def _zero_fill(
    collection: RecordCollection,
    missing: int,
    found: List[JoinResult],
    sides: Optional[Sequence[int]] = None,
) -> List[JoinResult]:
    """Pad with similarity-0 pairs (records sharing no token).

    Only reachable when fewer than *k* pairs share any token, in which case
    the event loop has provably enumerated every pair with positive
    similarity — the remaining pairs all score exactly 0.  With *sides*
    only cross pairs are eligible (the bipartite pair space).
    """
    present: Set[Tuple[int, int]] = {(r.x, r.y) for r in found}
    padding: List[JoinResult] = []
    n = len(collection)
    for a in range(n):
        if missing <= 0:
            break
        for b in range(a + 1, n):
            if missing <= 0:
                break
            if (a, b) in present:
                continue
            if sides is not None and sides[a] == sides[b]:
                continue
            padding.append(JoinResult(a, b, 0.0))
            missing -= 1
    return padding
