"""Kernelized posting-scan for the event-driven top-k join.

:func:`repro.core.topk_join._process_event` pays full Python object
overhead per posting scanned.  This module consolidates the per-posting
filter chain — size / bitmap / positional / suffix, with the α and
probing-prefix caches — into two interchangeable kernels:

* :class:`PythonScanKernel` — a pure-Python loop over the flat posting
  columns of :class:`repro.index.inverted.BoundedInvertedIndex`.  Same
  shape as the historical loop plus the **bitmap prefilter**: one
  XOR + popcount per candidate that passes the size filter bounds the
  true overlap from above (see
  :func:`repro.data.records.signature_overlap_bound`), so most doomed
  candidates never reach the suffix filter or the O(|x|+|y|) merge.

* :class:`NumpyScanKernel` — the batch path.  Once the buffer is full
  it scans a whole prefix event at once (:meth:`NumpyScanKernel.scan_event`):
  every record of one ``(|x|, p)`` block shares the threshold tables,
  ``rest_x`` and the accessing cutoff, so the block's posting lists are
  concatenated and prefiltered with vectorized size / bitmap /
  positional tests in one pass, and only the survivors go through the
  sequential buffer / registry feed.  Used automatically by
  ``TopkOptions.accel = "on"`` when NumPy is importable.

Both kernels are *exact*: every test they add is a conservative upper
bound, so a candidate they prune can never reach the required overlap α.
The differential oracle (``repro fuzz``) cross-checks all kernels against
the brute-force reference, and the runtime invariants (``REPRO_CHECK=1``)
hold with acceleration on.

The α cache is keyed by ``(|x|, |y|)`` and the probing-prefix cache by
record size; both are shared across events and invalidated whenever
``s_k`` rises — the same discipline the historical loop applied per
event, amortized across the whole join.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from types import ModuleType
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..data.records import RecordCollection, popcount, signature_width
from ..joins.filters import suffix_admits
from ..similarity.functions import SimilarityFunction
from ..similarity.overlap import OverlapProbe
from ..similarity.overlap import overlap_with_common_positions as _merge

if TYPE_CHECKING:
    from ..core.metrics import TopkStats
    from ..core.results import TopKBuffer
    from ..core.topk_join import TopkOptions
    from ..core.verification import VerificationRegistry
    from ..index.inverted import BoundedInvertedIndex, PostingColumns
    from ..obs.tracer import Tracer
    from ..oracle.invariants import CheckHooks

Pair = Tuple[int, int]

__all__ = [
    "ACCEL_MODES",
    "make_kernel",
    "numpy_available",
    "resolve_accel_mode",
    "PythonScanKernel",
    "NumpyScanKernel",
]

#: Accepted values of ``TopkOptions.accel``.
ACCEL_MODES = ("on", "numpy", "python", "off")

_SIG_WORD_MASK = 0xFFFFFFFFFFFFFFFF

#: Sentinel threshold meaning "size filter already killed this |y|"
#: (no reachable Hamming bound ever satisfies it).
_TAB_INF = 1 << 62

#: Most candidate pairs one vectorized pass of the event scan handles.
#: An event's posting lists are cut into chunks of at most this many
#: pairs, which bounds the transient gathers and masks of events with
#: many long lists; ``s_k`` is re-read between chunks.
_EVENT_CHUNK = 16384

#: Most partner tokens one batched verify pass gathers.  Early in a
#: join, or on near-duplicate-heavy data, most of a chunk can survive
#: the prefilter; its survivors are verified in slices of about this
#: many tokens, which bounds the gathers' memory, and each slice starts
#: from the latest ``s_k``.
_VERIFY_TOKENS = 1 << 13

_NO_POSTINGS = array("q")

_np: Optional[ModuleType] = None
_np_checked = False


def _numpy() -> Optional[ModuleType]:
    """Import NumPy once, lazily; ``None`` when unavailable."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a test dep
            numpy = None
        _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether the NumPy batch kernel can run in this interpreter."""
    return _numpy() is not None


def resolve_accel_mode(mode: str) -> str:
    """Normalize ``TopkOptions.accel`` to ``"numpy"|"python"|"off"``.

    ``"on"`` selects the best always-available implementation (NumPy
    batch kernel when importable, pure-Python kernel otherwise).
    ``"numpy"`` demands NumPy and raises when it is missing.
    """
    if mode not in ACCEL_MODES:
        raise ValueError("accel must be one of %s, got %r" % (ACCEL_MODES, mode))
    if mode == "on":
        return "numpy" if numpy_available() else "python"
    if mode == "numpy" and not numpy_available():
        raise ValueError("accel='numpy' requested but NumPy is not importable")
    return mode


def make_kernel(
    collection: RecordCollection,
    similarity: SimilarityFunction,
    options: "TopkOptions",
    buffer: "TopKBuffer",
    registry: "VerificationRegistry",
    seen_pairs: Optional[Set[Pair]],
    stats: "TopkStats",
    checks: Optional["CheckHooks"] = None,
) -> Optional[Union["PythonScanKernel", "_TracedKernel"]]:
    """Build the scan kernel for one join run (``None`` when accel is off).

    *seen_pairs* is the live verified-pair set of *registry* (or ``None``
    when verification dedup is off); it is captured once per join instead
    of once per event.  With ``options.trace`` set the kernel comes back
    wrapped in a timing proxy — the choice is made here, once, so the
    untraced hot path never tests a flag.
    """
    mode = resolve_accel_mode(options.accel)
    if mode == "off":
        return None
    if mode == "numpy":
        cls: type = NumpyScanKernel
    else:
        cls = PythonScanKernel
    kernel = cls(
        collection, similarity, options, buffer, registry, seen_pairs, stats, checks
    )
    tracer = options.trace
    if tracer is not None:
        return _TracedKernel(kernel, tracer)
    return kernel


class _TracedKernel:
    """Timing proxy around a scan kernel, chosen once at construction.

    Charges every scan call — a per-record :meth:`scan` or a whole-event
    ``scan_event`` — to the tracer's ``kernel_scan`` micro-phase
    accumulator.  A span per call would swamp the span buffer, so only
    the ``(total seconds, call count)`` pair is kept; it exports as
    ``repro_phase_seconds_total{phase="kernel_scan"}``.
    """

    __slots__ = ("kernel", "_tracer", "batches_events")

    def __init__(self, kernel: "PythonScanKernel", tracer: "Tracer") -> None:
        self.kernel = kernel
        self._tracer = tracer
        self.batches_events = kernel.batches_events

    def scan(
        self,
        probe_index: "BoundedInvertedIndex",
        token: int,
        rid: int,
        prefix: int,
        bound: float,
        external: float,
    ) -> None:
        begin = time.perf_counter()
        self.kernel.scan(probe_index, token, rid, prefix, bound, external)
        self._tracer.add_phase_time("kernel_scan", time.perf_counter() - begin)

    def scan_event(
        self,
        indexes: Sequence["BoundedInvertedIndex"],
        sides: Optional[Sequence[int]],
        rids: Sequence[int],
        prefix: int,
        bound: float,
        external: float,
        indexable: Sequence[bool],
    ) -> None:
        begin = time.perf_counter()
        self.kernel.scan_event(  # type: ignore[attr-defined]
            indexes, sides, rids, prefix, bound, external, indexable
        )
        self._tracer.add_phase_time("kernel_scan", time.perf_counter() - begin)


class PythonScanKernel:
    """Pure-Python scan kernel: flat columns + bitmap prefilter."""

    #: Whether the join may hand this kernel a whole prefix event at
    #: once through ``scan_event`` (see :class:`NumpyScanKernel`).
    batches_events = False

    def __init__(
        self,
        collection: RecordCollection,
        similarity: SimilarityFunction,
        options: "TopkOptions",
        buffer: "TopKBuffer",
        registry: "VerificationRegistry",
        seen_pairs: Optional[Set[Pair]],
        stats: "TopkStats",
        checks: Optional["CheckHooks"] = None,
    ) -> None:
        self.records = collection.records
        self.sig_bits = signature_width(options.sig_bits)
        self.signatures = collection.signatures_at(self.sig_bits)
        self.sim = similarity
        self.buffer = buffer
        self.registry = registry
        self.seen_pairs = seen_pairs
        self.stats = stats
        self.checks = checks
        self.positional_on = options.positional_filter
        self.suffix_on = options.suffix_filter
        self.maxdepth = options.maxdepth
        self.access_on = options.access_optimization
        #: Second-generation batch verification (only the batch kernels
        #: read it; the pure-Python loop always merges sequentially).
        self.batch_verify = options.batch_verify
        # s_k-keyed caches shared across events (cleared whenever s_k
        # rises): α by (|x|, |y|), probing prefix length by size.
        self._cache_s_k = -1.0
        self._alpha_cache: dict = {}
        self._prefix_cache: dict = {}

    # ------------------------------------------------------------------

    def _sync_caches(self, s_k: float) -> None:
        # s_k is monotone non-decreasing over a run, so "changed" is
        # exactly "rose" — no float equality needed.
        if s_k > self._cache_s_k:
            self._cache_s_k = s_k
            self._alpha_cache.clear()
            self._prefix_cache.clear()

    # ------------------------------------------------------------------

    def scan(
        self,
        probe_index: "BoundedInvertedIndex",
        token: int,
        rid: int,
        prefix: int,
        bound: float,
        external: float,
    ) -> None:
        """Probe one posting list for record *rid* at prefix position.

        Mirrors the historical loop of ``_process_event`` with the bitmap
        prefilter inserted between the size filter and the positional
        filter, reading the flat posting columns directly.
        """
        columns = probe_index.columns(token)
        if columns is None:
            return
        col_rids = columns.rids
        total = len(col_rids)
        if total == 0:
            return
        col_positions = columns.positions
        col_bounds = columns.bounds

        records = self.records
        signatures = self.signatures
        sim = self.sim
        buffer = self.buffer
        registry = self.registry
        seen_pairs = self.seen_pairs
        checks = self.checks
        positional_on = self.positional_on
        suffix_on = self.suffix_on
        maxdepth = self.maxdepth
        access_on = self.access_on

        x = records[rid]
        tokens_x = x.tokens
        size_x = len(tokens_x)
        sig_x = signatures[rid]
        rest_x = size_x - prefix
        from_overlap = sim.from_overlap
        merge = _merge

        full = buffer.full
        s_k = buffer.s_k
        if external > 0.0:
            full = True
            if external > s_k:
                s_k = external
        self._sync_caches(s_k)
        alpha_cache = self._alpha_cache
        prefix_cache = self._prefix_cache
        required_overlap = sim.required_overlap
        prefix_length = sim.probing_prefix_length
        access_cutoff = (
            sim.accessing_cutoff(bound, s_k) if (access_on and full) else -1.0
        )

        candidates = duplicates = size_pruned = 0
        bitmap_checked = bitmap_pruned = 0
        positional_pruned = suffix_pruned = verifications = 0

        for position in range(total):
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

            tokens_y = records[rid_y].tokens
            size_y = len(tokens_y)
            if full:
                key = (size_x, size_y)
                alpha = alpha_cache.get(key)
                if alpha is None:
                    alpha = required_overlap(s_k, size_x, size_y)
                    alpha_cache[key] = alpha
            else:
                alpha = 0

            # Size filter: no partner of this size can reach s_k.
            if alpha > (size_x if size_x < size_y else size_y):
                size_pruned += 1
                continue
            if alpha > 0:
                # Bitmap prefilter: the signature Hamming bound caps the
                # overlap; below α the pair can never reach s_k.
                bitmap_checked += 1
                delta = popcount(sig_x ^ signatures[rid_y])
                if size_x + size_y - delta < 2 * alpha:
                    bitmap_pruned += 1
                    continue
            if positional_on:
                j = col_positions[position]
                rest_y = size_y - j
                best = 1 + (rest_x if rest_x < rest_y else rest_y)
                if best < alpha:
                    positional_pruned += 1
                    continue
            if suffix_on and alpha > 1:
                if not suffix_admits(
                    sim,
                    s_k,
                    tokens_x,
                    tokens_y,
                    prefix,
                    col_positions[position],
                    seen_overlap=1,
                    maxdepth=maxdepth,
                    alpha=alpha,
                ):
                    suffix_pruned += 1
                    continue

            # Let the merge cover the maximum prefixes before aborting so
            # the verification registry can decide re-generability exactly
            # (see OverlapProbe.scanned_x / scanned_y).
            scan_x = prefix_cache.get(size_x)
            if scan_x is None:
                scan_x = prefix_length(size_x, s_k)
                prefix_cache[size_x] = scan_x
            scan_y = prefix_cache.get(size_y)
            if scan_y is None:
                scan_y = prefix_length(size_y, s_k)
                prefix_cache[size_y] = scan_y

            probe = merge(tokens_x, tokens_y, alpha, scan_x, scan_y)
            verifications += 1
            if checks is not None:
                checks.on_verified(pair)
            if not probe.aborted:
                value = from_overlap(probe.overlap, size_x, size_y)
                if buffer.add(pair, value):
                    new_s_k = buffer.s_k
                    if external > new_s_k:
                        new_s_k = external
                    if new_s_k > s_k or not full:
                        s_k = new_s_k
                        full = buffer.full or external > 0.0
                        self._sync_caches(s_k)
                        access_cutoff = (
                            sim.accessing_cutoff(bound, s_k)
                            if (access_on and full)
                            else -1.0
                        )
            registry.record(pair, probe, size_x, size_y, s_k)

        stats = self.stats
        stats.candidates += candidates
        stats.duplicates_skipped += duplicates
        stats.size_pruned += size_pruned
        stats.bitmap_checked += bitmap_checked
        stats.bitmap_pruned += bitmap_pruned
        stats.positional_pruned += positional_pruned
        stats.suffix_pruned += suffix_pruned
        stats.verifications += verifications


class _EventChunk:
    """Candidate pairs of one prefix event, up to :data:`_EVENT_CHUNK`.

    Candidate ``c`` pairs partner ``rids[c]``, found at 1-based position
    ``positions[c]`` of its record, with the probing record of its
    segment: segment ``s`` holds the next ``seg_counts[s]`` candidates of
    probing record ``seg_rids[s]``.  The columns are copies, never views
    of posting lists.
    """

    __slots__ = ("seg_rids", "seg_counts", "rids", "positions", "room")

    def __init__(self) -> None:
        self.seg_rids: List[int] = []
        self.seg_counts: List[int] = []
        self.rids = array("q")
        self.positions = array("q")
        #: Candidates that still fit before the chunk must be scanned.
        self.room = _EVENT_CHUNK


class NumpyScanKernel(PythonScanKernel):
    """Batch scan kernel: one vectorized pass per prefix event.

    Before the buffer fills there is no threshold to prefilter with, and
    the join scans record by record through the inherited pure-Python
    :meth:`scan`.  From then on it hands over whole prefix events
    (:meth:`scan_event`).  Every record of one ``(|x|, p)`` block shares
    the size, prefix position and probing bound, so the threshold tables,
    ``rest_x`` and the accessing cutoff are computed once per event; the
    block's posting lists are concatenated and the size, word-parallel
    bitmap (at any supported signature width) and positional tests run
    once over all ``(x, y)`` candidate pairs.  Survivors are then
    *verified in one vectorized pass* over the flat token columns
    (``batch_verify``, the default): sorted ``(x slot, token)`` keys and
    one ``searchsorted`` count exact overlaps and recover the
    first/second common-token positions Algorithm 6's dedup rule needs.
    Only the buffer/registry feed stays sequential, in record-then-
    posting order.  With ``batch_verify=False`` the first-generation
    tail runs instead: per-survivor Python suffix-filter + early-abort
    merge.

    All vector thresholds use the ``s_k`` read at chunk start, which is
    conservative: ``s_k`` only rises, so a stale threshold prunes *less*,
    never more; every survivor is verified exactly, so a stale α can
    never cost correctness either.
    """

    batches_events = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        np = _numpy()
        if np is None:  # pragma: no cover - guarded by resolve_accel_mode
            raise RuntimeError("NumpyScanKernel requires NumPy")
        self._np = np
        records = self.records
        self._sizes_np = np.array(
            [len(record.tokens) for record in records], dtype=np.int64
        )
        self._present_sizes = (
            [int(s) for s in np.unique(self._sizes_np)] if records else []
        )
        self._max_size = self._present_sizes[-1] if self._present_sizes else 0
        # Signatures as (n, words) uint64 so XOR + popcount vectorize at
        # the configured width (sig_bits // 64 words per record).
        words = self.sig_bits // 64
        sig_words = np.zeros((len(records), words), dtype=np.uint64)
        signatures = self.signatures
        for w in range(words):
            shift = 64 * w
            sig_words[:, w] = [
                (signature >> shift) & _SIG_WORD_MASK
                for signature in signatures
            ]
        self._sig_words = sig_words
        # At one or two words (64/128-bit) a per-word contiguous column
        # beats the (n, words) row gather: np.take on a flat array plus
        # a uint8 popcount add, no axis reduction.  Word popcounts are
        # <= 64 so a two-word uint8 sum cannot overflow; wider widths
        # could (4 * 64 = 256), so they keep the row-matrix path.
        has_bitwise_count = hasattr(np, "bitwise_count")
        self._sig_cols = (
            [np.ascontiguousarray(sig_words[:, w]) for w in range(words)]
            if has_bitwise_count and words <= 2
            else None
        )
        # NumPy < 2.0 (the 3.9 CI lane) has no bitwise_count: 256-entry
        # LUT on bytes.  (A flag, not a bound method stored on self: that
        # would be a reference cycle keeping every finished join's kernel,
        # buffer and registry alive until the cyclic collector runs.)
        self._popcount_lut = (
            None
            if has_bitwise_count
            else np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
        )
        # Per-(|x|, s_k) packed threshold tables (see _threshold_tab);
        # a dict, not a single slot: the event queue interleaves
        # records of different sizes, and a one-entry cache would
        # rebuild the table on nearly every event.
        self._tab_cache: dict = {}
        # Batched-verification state, built lazily on the first batch
        # (a join whose buffer never fills pays nothing for it).
        self._tok_offsets: Any = None
        self._tok_flat: Any = None
        self._key_base = 1

    def _sync_caches(self, s_k: float) -> None:
        if s_k > self._cache_s_k:
            self._tab_cache.clear()
        PythonScanKernel._sync_caches(self, s_k)

    def _ensure_batch_state(self) -> None:
        """Flatten every record's tokens into one int64 column."""
        if self._tok_flat is not None:
            return
        np = self._np
        records = self.records
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(self._sizes_np, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        for i, record in enumerate(records):
            flat[offsets[i] : offsets[i + 1]] = record.tokens
        self._tok_offsets = offsets
        self._tok_flat = flat
        # Key stride of the batched verify: above every token present.
        self._key_base = int(flat.max()) + 1 if len(flat) else 1

    # ------------------------------------------------------------------

    def _row_popcount(self, xor_words: Any) -> Any:
        np = self._np
        lut = self._popcount_lut
        if lut is None:
            return np.bitwise_count(xor_words).sum(axis=1, dtype=np.int64)
        as_bytes = xor_words.view(np.uint8).reshape(len(xor_words), -1)
        return lut[as_bytes].sum(axis=1, dtype=np.int64)

    def _threshold_tab(self, size_x: int, s_k: float) -> Any:
        """Packed per-``|y|`` thresholds: one gather serves every filter.

        Returns two int64 tables of length ``max_size + 1`` indexed by
        partner size.  The first holds the bitmap threshold ``2α - |x|``
        (a candidate passes iff ``|y| - hamming >= tab0[|y|]``), with
        :data:`_TAB_INF` standing in whenever the size filter already
        rules the pair out (``α > min(|x|, |y|)``) — no reachable
        Hamming bound satisfies it, so the size filter costs nothing
        extra.  The second holds ``α - 1``, the positional-filter
        threshold: ``min(rest_x, |y| - position) >= α - 1`` splits into
        two scalar compares.  Only sizes present in the collection and
        within the size filter's range are filled; the rest keep the
        sentinel.
        """
        key = (size_x, s_k)
        tab = self._tab_cache.get(key)
        if tab is None:
            np = self._np
            tab0 = np.full(self._max_size + 1, _TAB_INF, dtype=np.int64)
            tab1 = np.full(self._max_size + 1, _TAB_INF, dtype=np.int64)
            required_overlap = self.sim.required_overlap
            # Size compatibility is monotone on each side of |x| (the
            # best overlap, min(|x|, |y|), only loses ground as |y| moves
            # away from |x|), so each walk outward stops at the first
            # partner size the size filter rules out.
            sizes = self._present_sizes
            middle = bisect_left(sizes, size_x)
            below = sizes[middle - 1 :: -1] if middle else []
            for walk in (sizes[middle:], below):
                for size in walk:
                    alpha = required_overlap(s_k, size_x, size)
                    if alpha > (size if size < size_x else size_x):
                        break
                    tab0[size] = 2 * alpha - size_x
                    tab1[size] = alpha - 1
            tab = (tab0, tab1)
            self._tab_cache[key] = tab
        return tab

    def _access_cut(self, bounds: "array[float]", bound: float, s_k: float) -> int:
        """First posting of a bound-sorted list failing the accessing test.

        The exact accessing bound is non-increasing along the list, so
        the first failing posting is found by binary search — everything
        from it on is dead for this and every future probe.  Returns
        ``len(bounds)`` when every posting passes.
        """
        upper = self.sim.accessing_upper_bound
        total = len(bounds)
        if upper(bound, bounds[total - 1]) > s_k:
            return total
        low, high = 0, total - 1
        while low < high:
            mid = (low + high) // 2
            if upper(bound, bounds[mid]) <= s_k:
                high = mid
            else:
                low = mid + 1
        return low

    # ------------------------------------------------------------------

    def scan_event(
        self,
        indexes: Sequence["BoundedInvertedIndex"],
        sides: Optional[Sequence[int]],
        rids: Sequence[int],
        prefix: int,
        bound: float,
        external: float,
        indexable: Sequence[bool],
    ) -> None:
        """Probe every record of one prefix event, in one batched pass.

        *rids* are the event's records (one size, one prefix position
        *prefix*, one probing bound *bound*); record ``rids[i]`` probes
        ``indexes[0]`` in the self-join, or ``indexes[1 - sides[rid]]``
        in bipartite mode.  The caller indexes the records afterwards,
        in order.  Scanning them one by one would have let record
        ``x_j`` see an earlier ``x_i`` of the same event that probed the
        same token and was indexed in between; those pairs are added
        here as extra candidates at position *prefix*, for every ``x_i``
        with ``indexable[i]`` (it has not stopped indexing and its
        indexing bound beats ``s_k``) whose posting would survive the
        accessing test.  Including one the sequential order would have
        missed is safe: it is a real candidate, verified exactly once.

        Each probed list is truncated once, at the event's accessing
        cutoff, before any of it is copied; the candidates are copies
        in flat ``array('q')`` chunks of at most :data:`_EVENT_CHUNK`
        pairs, so no NumPy view of a posting column is ever live while
        a list is cut.
        """
        records = self.records
        sim = self.sim
        s_k = self.buffer.s_k
        if external > s_k:
            s_k = external
        # Postings above the closed-form cutoff pass the accessing test
        # without an exact check.
        cutoff = sim.accessing_cutoff(bound, s_k) if self.access_on else -1.0
        # Postings this event appends carry insertion bound `bound`; a
        # later record of the event reaches them only if they pass.
        pending: Optional[Dict[Tuple[int, int], List[int]]] = (
            {}
            if bound > cutoff or sim.accessing_upper_bound(bound, bound) > s_k
            else None
        )
        # Per probed (token, side): the truncated list's rid and position
        # columns, which stay unchanged until the caller indexes.
        lists: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        position = prefix - 1
        chunk = _EventChunk()
        for i, rid in enumerate(rids):
            token = records[rid].tokens[position]
            if sides is None:
                side = probe_side = 0
            else:
                side = sides[rid]
                probe_side = 1 - side
            key = (token, probe_side)
            snapshot = lists.get(key)
            if snapshot is None:
                probe_index = indexes[probe_side]
                columns = probe_index.columns(token)
                if columns is None:
                    snapshot = lists[key] = (_NO_POSTINGS, _NO_POSTINGS)
                else:
                    snapshot = lists[key] = (columns.rids, columns.positions)
                    col_bounds = columns.bounds
                    if col_bounds and col_bounds[-1] <= cutoff:
                        cut = self._access_cut(col_bounds, bound, s_k)
                        if cut < len(col_bounds):
                            probe_index.truncate(token, cut)
            # Candidates: the list snapshot, then the earlier records of
            # this event indexed under the same token.
            col_rids, col_pos = snapshot
            earlier = pending.get(key, ()) if pending is not None else ()
            count = len(col_rids) + len(earlier)
            if count and count < chunk.room:
                chunk.rids.extend(col_rids)
                chunk.positions.extend(col_pos)
                if earlier:
                    chunk.rids.extend(earlier)
                    chunk.positions.extend([prefix] * len(earlier))
                chunk.seg_rids.append(rid)
                chunk.seg_counts.append(count)
                chunk.room -= count
            elif count:
                chunk = self._add_split(
                    chunk,
                    rid,
                    col_rids + array("q", earlier),
                    col_pos + array("q", [prefix] * len(earlier)),
                    prefix,
                    external,
                )
            if pending is not None and indexable[i]:
                pending.setdefault((token, side), []).append(rid)
        if chunk.rids:
            self._scan_chunk(chunk, prefix, external)

    def _add_split(
        self,
        chunk: "_EventChunk",
        rid: int,
        src_rids: "array[int]",
        src_pos: "array[int]",
        prefix: int,
        external: float,
    ) -> "_EventChunk":
        """Append *rid*'s candidates, scanning every chunk that fills up.

        Returns the chunk to keep appending to.
        """
        start, stop = 0, len(src_rids)
        while start < stop:
            end = min(stop, start + chunk.room)
            chunk.rids.extend(src_rids[start:end])
            chunk.positions.extend(src_pos[start:end])
            if chunk.seg_rids and chunk.seg_rids[-1] == rid:
                chunk.seg_counts[-1] += end - start
            else:
                chunk.seg_rids.append(rid)
                chunk.seg_counts.append(end - start)
            chunk.room -= end - start
            start = end
            if not chunk.room:
                self._scan_chunk(chunk, prefix, external)
                chunk = _EventChunk()
        return chunk

    def _scan_chunk(self, chunk: "_EventChunk", prefix: int, external: float) -> None:
        """Prefilter and verify one chunk of an event's candidate pairs."""
        np = self._np
        seg_rids = chunk.seg_rids
        s_k = self.buffer.s_k
        if external > s_k:
            s_k = external
        self._sync_caches(s_k)
        size_x = len(self.records[seg_rids[0]].tokens)
        count = len(chunk.rids)
        ys = np.frombuffer(chunk.rids, dtype=np.int64)
        seg_slot = np.arange(len(seg_rids), dtype=np.int64).repeat(chunk.seg_counts)
        seg_rids_np = np.array(seg_rids, dtype=np.int64)
        xs = seg_rids_np.take(seg_slot)
        sizes_y = self._sizes_np.take(ys, mode="clip")
        tab = self._threshold_tab(size_x, s_k)

        # Size + bitmap: the size filter is folded into the bitmap
        # compare — size-killed partner sizes carry the _TAB_INF
        # sentinel, which no Hamming bound can reach.  Bound-method
        # takes with mode="clip" skip the bounds check (every index is
        # a valid rid / record size).
        t_bitmap = tab[0].take(sizes_y, mode="clip")
        passed_size = count - int(np.count_nonzero(t_bitmap == _TAB_INF))
        # Word-parallel XOR + popcount Hamming bound:
        # |x| + |y| - hamming >= 2α rearranged as |y| - hamming >= 2α - |x|.
        cols = self._sig_cols
        if cols is not None:
            bitwise_count = np.bitwise_count
            col = cols[0]
            hamming = bitwise_count(
                col.take(ys, mode="clip") ^ col.take(xs, mode="clip")
            )
            if len(cols) == 2:
                col = cols[1]
                hamming += bitwise_count(
                    col.take(ys, mode="clip") ^ col.take(xs, mode="clip")
                )
        else:
            sig_words = self._sig_words
            hamming = self._row_popcount(sig_words[ys] ^ sig_words[xs])
        ok = sizes_y - hamming >= t_bitmap
        passed_bitmap = int(np.count_nonzero(ok))
        # Positional filter (Section V-A): min(rest_x, |y| - position)
        # >= α - 1 as two scalar-threshold compares (rest_x is shared).
        positions = np.frombuffer(chunk.positions, dtype=np.int64)
        if self.positional_on:
            t_pos = tab[1].take(sizes_y, mode="clip")
            ok &= sizes_y - positions >= t_pos
            ok &= t_pos <= size_x - prefix
        survivors = ok.nonzero()[0]

        # First-killing-filter attribution from the pass counts, matching
        # the sequential loop's accounting.
        stats = self.stats
        stats.candidates += count
        stats.size_pruned += count - passed_size
        stats.bitmap_checked += passed_size
        stats.bitmap_pruned += passed_size - passed_bitmap
        stats.positional_pruned += passed_bitmap - len(survivors)
        if not len(survivors):
            return
        if self.batch_verify:
            # Split where the survivors' token slices pass each multiple
            # of _VERIFY_TOKENS: the verify gathers scale with them.
            ends = sizes_y.take(survivors).cumsum()
            marks = np.arange(_VERIFY_TOKENS, int(ends[-1]), _VERIFY_TOKENS)
            for part in np.split(survivors, ends.searchsorted(marks)):
                if len(part):
                    self._verify_survivors_batched(
                        seg_rids_np,
                        seg_slot.take(part),
                        ys.take(part),
                        size_x,
                        external,
                    )
        else:
            self._process_survivors(
                xs.take(survivors).tolist(),
                ys.take(survivors).tolist(),
                positions.take(survivors).tolist(),
                prefix,
                external,
                s_k,
            )

    # ------------------------------------------------------------------

    def _verify_survivors_batched(
        self,
        seg_rids: Any,
        slots: Any,
        ys: Any,
        size_x: int,
        external: float,
    ) -> None:
        """Verify every prefilter survivor exactly, in one vectorized pass.

        Survivor ``i`` pairs probing record ``seg_rids[slots[i]]`` with
        partner ``ys[i]``.  Every probing record has ``size_x`` tokens,
        so slot ``s`` owns keys ``s * base + token`` at rows
        ``[s * size_x, (s + 1) * size_x)`` of one sorted key column;
        one ``searchsorted`` of every partner token, keyed by its
        survivor's slot, finds each common token and its 1-based
        position in x.  The full overlap is computed, so no merge can
        abort — every survivor yields a final, exact similarity and a
        decisive Algorithm 6 re-generability transcript.  Verifying a
        candidate the suffix filter would have skipped is safe: it is
        still verified at most once, since the registry remembers it
        whenever it could be generated again.
        Only the buffer/registry feed below is sequential, and it
        re-reads ``s_k`` as it rises.
        """
        np = self._np
        self._ensure_batch_state()
        offsets = self._tok_offsets
        flat = self._tok_flat
        base = self._key_base
        slot_count = len(seg_rids)
        # Sorted x keys, plus one sentinel above every query key so the
        # searchsorted index is always a valid row.
        x_rows = offsets.take(seg_rids)[:, None] + np.arange(size_x, dtype=np.int64)
        slot_keys = np.arange(slot_count, dtype=np.int64) * base
        x_keys = np.empty(slot_count * size_x + 1, dtype=np.int64)
        x_keys[:-1] = flat.take(x_rows.ravel()) + slot_keys.repeat(size_x)
        x_keys[-1] = slot_count * base

        # Gather every survivor's token slice in one shot: global flat
        # index = slice start + offset within the segment.
        starts = offsets.take(ys, mode="clip")
        lengths = self._sizes_np.take(ys, mode="clip")
        cum = lengths.cumsum()
        seg_starts = cum - lengths
        shift = (starts - seg_starts).repeat(lengths)
        gather = np.arange(int(cum[-1]), dtype=np.int64) + shift
        queries = flat.take(gather) + slot_keys.take(slots).repeat(lengths)
        rows = x_keys.searchsorted(queries)
        hit_slots = (x_keys.take(rows) == queries).nonzero()[0]
        segs = seg_starts.searchsorted(hit_slots, side="right") - 1
        overlap_np = np.bincount(segs, minlength=len(ys))
        # Hits are ordered by segment, so a segment's first and second
        # common tokens are hits first[s] and first[s] + 1.  Every
        # survivor shares its probed token with x: no segment is empty.
        first = overlap_np.cumsum() - overlap_np
        second = np.minimum(first + 1, len(hit_slots) - 1)
        has_second = overlap_np >= 2
        x_pos = rows.take(hit_slots) % size_x + 1
        y_pos = hit_slots - seg_starts.take(segs) + 1
        first_x = x_pos.take(first).tolist()
        first_y = y_pos.take(first).tolist()
        second_x = np.where(has_second, x_pos.take(second), 0).tolist()
        second_y = np.where(has_second, y_pos.take(second), 0).tolist()
        overlaps = overlap_np.tolist()

        buffer = self.buffer
        s_k = buffer.s_k
        if external > s_k:
            s_k = external
        registry = self.registry
        seen_pairs = self.seen_pairs
        checks = self.checks
        from_overlap = self.sim.from_overlap
        x_list = seg_rids.take(slots).tolist()
        y_list = ys.tolist()
        size_list = lengths.tolist()
        # Most survivors only passed the bitmap bound: their exact
        # overlap is below α at the buffer's own s_k, so buffer.add
        # would reject them.  They skip the offer, and — under
        # Algorithm 6, which never stores a fully merged pair with fewer
        # than two common tokens — the registry too.  (When an external
        # bound sits above the buffer's s_k, a pair between the two
        # would still be kept, so nothing is skipped.)
        if buffer.full and buffer.s_k >= external:
            twice_alpha = self._threshold_tab(size_x, s_k)[0].take(lengths) + size_x
            hopeless = (2 * overlap_np < twice_alpha).tolist()
        else:
            hopeless = [False] * len(y_list)
        record_all = registry.mode == "all"

        duplicates = verifications = 0
        for i in range(len(y_list)):
            rid = x_list[i]
            rid_y = y_list[i]
            pair = (rid, rid_y) if rid < rid_y else (rid_y, rid)
            if seen_pairs is not None and pair in seen_pairs:
                duplicates += 1
                continue
            verifications += 1
            if checks is not None:
                checks.on_verified(pair)
            if hopeless[i]:
                if overlaps[i] < 2 and not record_all:
                    continue
            elif buffer.add(pair, from_overlap(overlaps[i], size_x, size_list[i])):
                new_s_k = buffer.s_k
                if external > new_s_k:
                    new_s_k = external
                if new_s_k > s_k:
                    s_k = new_s_k
                    self._sync_caches(s_k)
            probe = OverlapProbe(
                overlaps[i],
                first_x[i],
                first_y[i],
                second_x[i] or None,
                second_y[i] or None,
                False,
                size_x,
                size_list[i],
            )
            registry.record(pair, probe, size_x, size_list[i], s_k)

        stats = self.stats
        stats.duplicates_skipped += duplicates
        stats.verifications += verifications

    # ------------------------------------------------------------------

    def _process_survivors(
        self,
        x_rids: List[int],
        y_rids: List[int],
        y_positions: List[int],
        prefix: int,
        external: float,
        s_k: float,
    ) -> None:
        """Sequential tail for prefilter survivors: suffix, merge, buffer.

        Survivor ``i`` pairs probing record ``x_rids[i]`` with partner
        ``y_rids[i]`` found at position ``y_positions[i]``.  Runs under
        the *current* ``s_k`` (which may rise mid-loop): α is re-read
        from the shared cache per survivor, so late survivors are still
        size-checked against the newest threshold before the merge.
        """
        records = self.records
        sim = self.sim
        buffer = self.buffer
        registry = self.registry
        seen_pairs = self.seen_pairs
        checks = self.checks
        suffix_on = self.suffix_on
        maxdepth = self.maxdepth
        self._sync_caches(s_k)
        alpha_cache = self._alpha_cache
        prefix_cache = self._prefix_cache
        required_overlap = sim.required_overlap
        prefix_length = sim.probing_prefix_length
        from_overlap = sim.from_overlap
        merge = _merge

        duplicates = size_pruned = suffix_pruned = verifications = 0

        for rid, rid_y, position_y in zip(x_rids, y_rids, y_positions):
            pair = (rid, rid_y) if rid < rid_y else (rid_y, rid)
            if seen_pairs is not None and pair in seen_pairs:
                duplicates += 1
                continue
            tokens_x = records[rid].tokens
            size_x = len(tokens_x)
            tokens_y = records[rid_y].tokens
            size_y = len(tokens_y)
            key = (size_x, size_y)
            alpha = alpha_cache.get(key)
            if alpha is None:
                alpha = required_overlap(s_k, size_x, size_y)
                alpha_cache[key] = alpha
            # s_k may have risen since the vector prefilter ran; re-apply
            # the size test so impossible merges are not attempted.
            if alpha > (size_x if size_x < size_y else size_y):
                size_pruned += 1
                continue
            if suffix_on and alpha > 1:
                if not suffix_admits(
                    sim,
                    s_k,
                    tokens_x,
                    tokens_y,
                    prefix,
                    position_y,
                    seen_overlap=1,
                    maxdepth=maxdepth,
                    alpha=alpha,
                ):
                    suffix_pruned += 1
                    continue
            scan_x = prefix_cache.get(size_x)
            if scan_x is None:
                scan_x = prefix_length(size_x, s_k)
                prefix_cache[size_x] = scan_x
            scan_y = prefix_cache.get(size_y)
            if scan_y is None:
                scan_y = prefix_length(size_y, s_k)
                prefix_cache[size_y] = scan_y

            probe = merge(tokens_x, tokens_y, alpha, scan_x, scan_y)
            verifications += 1
            if checks is not None:
                checks.on_verified(pair)
            if not probe.aborted:
                value = from_overlap(probe.overlap, size_x, size_y)
                if buffer.add(pair, value):
                    new_s_k = buffer.s_k
                    if external > new_s_k:
                        new_s_k = external
                    if new_s_k > s_k:
                        s_k = new_s_k
                        self._sync_caches(s_k)
            registry.record(pair, probe, size_x, size_y, s_k)

        stats = self.stats
        stats.duplicates_skipped += duplicates
        stats.size_pruned += size_pruned
        stats.suffix_pruned += suffix_pruned
        stats.verifications += verifications
