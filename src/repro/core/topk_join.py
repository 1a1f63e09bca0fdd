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

Every optimisation can be toggled through :class:`TopkOptions` — the
paper's ablations ``record-all`` (Fig. 3a) and ``w/o-index-opt``
(Fig. 3b–c) are ``verification_mode="all"`` and
``index_optimization=False`` respectively.

Two further options generalize the join beyond the paper's single-process
self-join, and power :mod:`repro.parallel`:

* ``bound_provider`` — a cooperative *external lower bound* on the global
  ``s_k``.  Any full top-k buffer of any concurrently running sub-join
  holds *k* real pairs of the global collection, so its local ``s_k``
  never exceeds the global one; the paper's pruning rules (event
  termination, indexing bound, accessing bound, candidate filters) stay
  conservative when driven by ``max(local s_k, external bound)`` because
  Lemmas 2–5 hold for *any* lower bound on the true ``s_k``.
* ``bipartite_sides`` — per-record side labels turning the self-join into
  an exact R×S join: each side keeps its own inverted index, records probe
  only the opposite side's index, and therefore only cross pairs are ever
  generated.  No bound depends on which side a record belongs to, so the
  event machinery runs unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
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
from .metrics import EmitEvent, TopkStats
from .results import TopKBuffer
from .seeding import seed_temporary_results
from .verification import VerificationRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer

__all__ = ["TopkOptions", "topk_join", "topk_join_iter"]


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
    #: Cooperative lower bound on the *global* ``s_k`` for multi-task runs
    #: (see :mod:`repro.parallel`).  Any object with ``refresh() -> float``
    #: (sync, then return the latest external bound) and ``offer(value)``
    #: (publish this run's local ``s_k``); polled once per event.  A
    #: provider may also expose ``generation`` — a shared counter cell
    #: bumped on every cross-process publication — in which case the
    #: event loop detects foreign improvements every iteration from one
    #: unlocked load and refreshes only when the counter moved.
    bound_provider: Optional[Any] = None
    #: Per-record side labels (0/1) turning the join into an exact R×S
    #: join over cross pairs only.  ``bipartite_sides[rid]`` must be
    #: indexable for every record id of the joined collection.
    bipartite_sides: Optional[Sequence[int]] = None
    #: Hot-path acceleration (see :mod:`repro.accel.kernel`): ``"on"``
    #: picks the NumPy batch kernel when NumPy is importable and the
    #: pure-Python kernel otherwise; ``"python"`` / ``"numpy"`` force
    #: one implementation; ``"off"`` runs the historical scan loop (kept
    #: for ablation and as the benchmark-gate baseline).  All modes are
    #: exact — the differential fuzzer cross-checks them against the
    #: oracle.
    accel: str = "on"
    #: Width of the bitmap-filter signatures in bits (any value in
    #: :data:`repro.data.records.SUPPORTED_SIGNATURE_BITS`).  Wider
    #: signatures collide less — higher prune rates on token-rich
    #: records — at the cost of more 64-bit words per XOR+popcount;
    #: 128 is the sweet spot for the paper's word-token workloads (see
    #: docs/PERFORMANCE.md for width-selection guidance).  Ignored with
    #: ``accel="off"`` *except* by result seeding, the streaming
    #: engine's arrival probe and the shared-memory data plane, which
    #: serialize signatures at exactly this width.
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
    #: ``is not None`` test per *phase* boundary, never per event.  A
    #: tracer holds a lock and must not cross process boundaries:
    #: :mod:`repro.parallel` strips it from the options it ships to
    #: workers and merges worker-local trace payloads at the parent.
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
    # configures seeding/kernel/shm alike, so a typo'd width must fail
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
    provider = opts.bound_provider
    external = 0.0
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
        if provider is not None:
            if buffer.full:
                provider.offer(buffer.s_k)
            external = provider.refresh()

    emitted = 0
    # Kernels that batch whole prefix events take over once the buffer is
    # full (or an external bound is set); before that, records are
    # scanned and indexed one by one.
    event_scan = kernel is not None and kernel.batches_events

    # Shared-bound fast path (see repro.parallel.bound): providers backed
    # by shared-memory cells expose a generation counter bumped on every
    # publication.  One aligned load per iteration detects foreign bound
    # improvements immediately, without paying a refresh() per event;
    # plain providers (no such attribute) keep the per-event polling
    # below.  Reading the generation before refresh() can at worst pair a
    # new generation with a not-yet-visible value — the provider re-syncs
    # on the next bump, and a stale bound only weakens pruning.
    generation = getattr(provider, "generation", None)
    seen_generation = generation.value if generation is not None else 0

    with span("event_loop"):
        while queue:
            if generation is not None and generation.value != seen_generation:
                seen_generation = generation.value
                refreshed = provider.refresh()
                if refreshed > external:
                    external = refreshed
            bound, prefix, rids = queue.pop()
            run_stats.events += 1
            if checks is not None:
                checks.on_pop(
                    bound, prefix, len(collection[rids[0]]), buffer.s_k
                )
            if buffer.full and bound <= buffer.s_k:
                break
            if external > 0.0 and bound <= external:
                # No remaining event of this sub-join can beat the global
                # s_k lower bound: everything still findable is at best an
                # interchangeable tie of the global k-th result.
                break
            size = len(collection[rids[0]])
            if event_scan and (buffer.full or external > 0.0):
                _process_event_batched(
                    collection, rids, prefix, bound, size, sim, opts, buffer,
                    indexes, sides, stop_indexing, external, run_stats,
                    checks, kernel,
                )
            else:
                for rid in rids:
                    if sides is None:
                        probe_index = insert_index = indexes[0]
                    else:
                        side = sides[rid]
                        probe_index = indexes[1 - side]
                        insert_index = indexes[side]
                    _process_event(
                        collection, rid, prefix, bound, sim, opts, buffer,
                        registry, probe_index, insert_index, stop_indexing,
                        external, run_stats, checks, seen_pairs, kernel,
                    )
            cutoff = buffer.s_k
            if external > cutoff:
                cutoff = external
            queue.push_next(size, prefix, rids, cutoff=cutoff)
            if provider is not None:
                if buffer.full:
                    provider.offer(buffer.s_k)
                external = provider.refresh()

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

    run_stats.hash_entries_peak = registry.peak_entries
    run_stats.index_inserted = sum(ix.inserted for ix in indexes)
    run_stats.index_deleted = sum(ix.deleted for ix in indexes)
    run_stats.index_entries_peak = sum(ix.peak_entries for ix in indexes)

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
    """End-of-run gauge snapshot plus counter/histogram absorption.

    Runs once per traced join, after the drain, so tracing adds nothing
    to the per-event path.  Gauge modes encode how cooperating tasks
    merge: footprints (heap / index / hash peaks) *sum*, matching
    ``TopkStats.merge_from``'s worst-case-simultaneous semantics, while
    ``s_k`` takes the *max* because every task's local bound is a lower
    bound on the global one.
    """
    metrics = tracer.metrics
    metrics.gauge(
        "repro_s_k", "k-th best similarity at the end of the run.",
        mode="max",
    ).set(buffer.s_k)
    metrics.gauge(
        "repro_heap_size", "Events left in the queue at termination.",
        mode="sum",
    ).set(float(len(queue)))
    metrics.gauge(
        "repro_heap_size_peak", "Peak number of events in the queue.",
        mode="sum",
    ).set(float(queue.peak_size))
    metrics.gauge(
        "repro_index_entries_live",
        "Inverted-index postings alive at termination.", mode="sum",
    ).set(float(sum(ix.inserted - ix.deleted for ix in indexes)))
    registry.publish_metrics(metrics)
    metrics.absorb_topk_stats(run_stats, record_count=record_count)


def _process_event(
    collection: RecordCollection,
    rid: int,
    prefix: int,
    bound: float,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    registry: VerificationRegistry,
    probe_index: BoundedInvertedIndex,
    insert_index: BoundedInvertedIndex,
    stop_indexing: bytearray,
    external: float,
    stats: TopkStats,
    checks: Optional[CheckHooks] = None,
    seen_pairs: Optional[Set[Tuple[int, int]]] = None,
    kernel: Optional[Any] = None,
) -> None:
    """Probe one record at one prefix position, then maybe index it.

    This is the innermost loop of the whole algorithm (one iteration per
    posting scanned).  With acceleration on (the default), the probe is
    delegated to a scan kernel from :mod:`repro.accel.kernel` — flat
    column access and the bitmap-signature prefilter; the NumPy kernel
    takes whole events through :func:`_process_event_batched` once the
    buffer is full.  With ``accel="off"`` the historical loop below runs;
    invariants are hoisted aggressively there: ``s_k``, fullness, the
    accessing-bound cutoff and the per-partner-size required overlap α
    are all locals refreshed only when the buffer changes.  Note the size
    filter *is* ``α <= min(|x|, |y|)`` (a partner too small/large to
    reach ``s_k`` has an impossible α), so one cached α serves the size,
    positional and suffix filters and the verification abort threshold.

    *external* is a lower bound on the global ``s_k`` of a cooperating
    multi-task run (0.0 when standalone); every threshold below uses
    ``max(buffer.s_k, external)``, which is conservative because each
    bound holds for any lower bound on the true ``s_k``.  In the
    standalone self-join *probe_index* and *insert_index* are the same
    object; in bipartite mode they belong to opposite sides.
    *seen_pairs* is the registry's live verified-pair set, captured once
    per run by the caller (``None`` when verification dedup is off).
    """
    x = collection[rid]
    size_x = len(x)
    tokens_x = x.tokens
    token = tokens_x[prefix - 1]

    if kernel is not None:
        kernel.scan(probe_index, token, rid, prefix, bound, external)
        _index_records(
            collection, sim, opts, buffer, (insert_index,), None,
            stop_indexing, external, stats, checks, (rid,), prefix, bound,
            size_x,
        )
        return

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
        if external > 0.0:
            full = True
            if external > s_k:
                s_k = external
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
                    if external > new_s_k:
                        new_s_k = external
                    # s_k is monotone non-decreasing, so "changed" is
                    # exactly "rose" — no float equality needed.
                    if new_s_k > s_k or not full:
                        s_k = new_s_k
                        full = buffer.full or external > 0.0
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

    _index_records(
        collection, sim, opts, buffer, (insert_index,), None, stop_indexing,
        external, stats, checks, (rid,), prefix, bound, size_x,
    )


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
    external: float,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    kernel: Any,
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
    else:
        threshold = buffer.s_k
        if external > threshold:
            threshold = external
        if sim.indexing_upper_bound(size, prefix) > threshold:
            indexable = [not stop_indexing[rid] for rid in rids]
        else:
            indexable = [False] * len(rids)
    kernel.scan_event(indexes, sides, rids, prefix, bound, external, indexable)
    _index_records(
        collection, sim, opts, buffer, indexes, sides, stop_indexing,
        external, stats, checks, rids, prefix, bound, size,
    )


def _index_records(
    collection: RecordCollection,
    sim: SimilarityFunction,
    opts: TopkOptions,
    buffer: TopKBuffer,
    indexes: Tuple[BoundedInvertedIndex, ...],
    sides: Optional[Sequence[int]],
    stop_indexing: bytearray,
    external: float,
    stats: TopkStats,
    checks: Optional[CheckHooks],
    rids: Sequence[int],
    prefix: int,
    bound: float,
    size_x: int,
) -> None:
    """Index insertion after the probes of one event (Algorithms 7-8).

    Every record of *rids* has size *size_x* and is indexed under its
    token at *prefix*, into ``indexes[0]`` or, in bipartite mode, its
    own side's index.  Indexing never moves ``s_k``, so Lemma 4's
    decision is the same for all of them.
    """
    position = prefix - 1
    optimize = opts.index_optimization
    threshold = buffer.s_k
    if external > threshold:
        threshold = external
    inserted = sim.indexing_upper_bound(size_x, prefix) > threshold
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
        insert_index = indexes[0] if sides is None else indexes[sides[rid]]
        insert_index.add(collection[rid].tokens[position], rid, prefix, bound)


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
