"""The streaming engine's two pair tiers: the visible top-k and its reserve.

:class:`StreamTopkBuffer` is the deletion-capable twin of ``TopKBuffer``.

The batch buffer (:mod:`repro.core.results`) rides on a monotone ``s_k``:
pairs are only ever displaced by better pairs, never deleted.  Streaming
breaks that — when a window member expires, every pair it participates
in dies, wherever it ranks — so this buffer adds per-record deletion
(:meth:`remove_record`) and accepts that ``s_k`` can *fall* after a
refill (:meth:`rebuild`).

Implementation: an exact member map (pair -> similarity), a per-sid pair
index for O(degree) deletion, and a lazy min-heap for the ``s_k`` /
eviction queries.  Heap entries are invalidated by integer sequence
number (never by comparing float similarities), mirroring the liveness
scheme of the batch buffer.  :attr:`StreamTopkBuffer.version` moves on
every change of the contents, so a reader can keep a snapshot of the
answer until it does.

:class:`PairReserve` is the tier below it: at most ``depth`` pairs that
lost to ``s_k``, plus a floor τ under which pairs are no longer
tracked.  When a member dies, the best reserve pairs are promoted into
the buffer instead of re-joining the window.  The depth starts at k and
only grows: the owner doubles it at refills (:meth:`deepen`), up to
:data:`MAX_DEPTH_FACTOR` times k.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["MAX_DEPTH_FACTOR", "PairReserve", "StreamTopkBuffer"]

Pair = Tuple[int, int]

#: The deepest a reserve grows, as a multiple of its initial depth k.
#: At fixed depths on serve-mixed (k=1, window 200, 8,000 inserts, seeds
#: 501 and 4242) an arrival cost the same at depth 64 as at 16 (median
#: 0.037 ms, against 0.028 ms at depth 1) and half as much again at 256
#: (0.052-0.056 ms, 3.5-4.1 verifications instead of 1.1), to save the
#: one refill depth 64 left (docs/PERFORMANCE.md, Piece 16).
MAX_DEPTH_FACTOR = 64


class StreamTopkBuffer:
    """Best-k pair buffer over a mutating pair space."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self._members: Dict[Pair, float] = {}
        self._by_sid: Dict[int, Set[Pair]] = {}
        self._heap: List[Tuple[float, int, Pair]] = []
        #: Sequence number of the live heap entry per member pair; stale
        #: entries (evicted/removed pairs) are discarded lazily when they
        #: surface at the heap top.
        self._live_seq: Dict[Pair, int] = {}
        self._sequence = 0
        #: Bumped by every change of the contents (each push and forget,
        #: and every rebuild, even to empty): a snapshot taken at one
        #: version is current while the version stays.
        self.version = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def s_k(self) -> float:
        """Similarity of the k-th best member (0.0 while not full).

        NOT monotone: expiry of a member pair relaxes the bound.
        """
        if len(self._members) < self.k:
            return 0.0
        self._settle()
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._members

    def similarity_of(self, pair: Pair) -> float:
        return self._members[pair]

    def items(self) -> List[Tuple[Pair, float]]:
        """Current contents, best first (similarity desc, then pair asc)."""
        return sorted(
            self._members.items(), key=lambda item: (-item[1], item[0])
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(
        self, pair: Pair, similarity: float
    ) -> Tuple[bool, Optional[Tuple[Pair, float]]]:
        """Offer a pair; returns ``(added, evicted)``.

        A full buffer keeps the offer only when it strictly beats the
        current ``s_k`` (ties lose — any boundary-tied pair is an equally
        valid k-th result, and the incumbent wins).  *evicted* is the
        displaced ``(pair, similarity)`` when the add pushed one out.
        """
        if pair in self._members:
            return False, None
        if len(self._members) >= self.k:
            self._settle()
            if similarity <= self._heap[0][0]:
                return False, None
            evicted_entry = heapq.heappop(self._heap)
            evicted_pair = evicted_entry[2]
            evicted = (evicted_pair, self._members[evicted_pair])
            self._forget(evicted_pair)
            self._push(pair, similarity)
            return True, evicted
        self._push(pair, similarity)
        return True, None

    def remove_record(self, sid: int) -> List[Tuple[Pair, float]]:
        """Delete every member pair involving *sid*; best-first list."""
        removed = [
            (pair, self._members[pair])
            for pair in self._by_sid.get(sid, ())
        ]
        for pair, __ in removed:
            self._forget(pair)
        removed.sort(key=lambda item: (-item[1], item[0]))
        return removed

    def rebuild(self, pairs: List[Tuple[Pair, float]]) -> None:
        """Replace the whole contents (the refill pass after relaxation)."""
        self.version += 1
        self._members.clear()
        self._by_sid.clear()
        self._heap = []
        self._live_seq.clear()
        for pair, similarity in pairs:
            self._push(pair, similarity)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push(self, pair: Pair, similarity: float) -> None:
        self.version += 1
        self._sequence += 1
        self._members[pair] = similarity
        self._live_seq[pair] = self._sequence
        heapq.heappush(self._heap, (similarity, self._sequence, pair))
        for sid in pair:
            self._by_sid.setdefault(sid, set()).add(pair)

    def _forget(self, pair: Pair) -> None:
        self.version += 1
        del self._members[pair]
        del self._live_seq[pair]
        for sid in pair:
            bucket = self._by_sid.get(sid)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._by_sid[sid]

    def _settle(self) -> None:
        """Drop stale heap entries until a live member tops the heap."""
        heap = self._heap
        live = self._live_seq
        while heap and live.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)


class PairReserve:
    """At most ``depth`` pairs ranked just below a :class:`StreamTopkBuffer`.

    Together with the buffer it keeps one invariant over the live pair
    space: every live pair with similarity above :attr:`floor` (τ) sits
    in the buffer or here, and every buffered or reserved pair is
    ``>= floor``.  ``floor is None`` means *every* live pair is tracked,
    similarity-0 pairs included.  τ only rises here — on overflow (the
    dropped minimum becomes the floor) and when a full reserve's
    minimum serves as the arrival probe's bound; the owner resets it.

    ``depth`` starts at *k* and stays within ``[k, MAX_DEPTH_FACTOR * k]``.
    Only :meth:`deepen` changes it.  The owner deepens right before a
    :meth:`reset` with a join for ``k + depth`` pairs, which finds every
    live pair down to the new, lower τ.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self.depth = k
        #: τ: live pairs above it are all tracked (None: every live pair).
        self.floor: Optional[float] = None
        self._members: Dict[Pair, float] = {}
        self._by_sid: Dict[int, Set[Pair]] = {}
        #: ``(-similarity, pair)`` keys, best first.
        self._order: List[Tuple[float, Pair]] = []

    def __len__(self) -> int:
        return len(self._members)

    def items(self) -> List[Tuple[Pair, float]]:
        """Current contents, best first (similarity desc, then pair asc)."""
        return [(pair, -negated) for negated, pair in self._order]

    def probe_floor(self) -> Optional[float]:
        """The bound an arrival must beat to be tracked.

        A full reserve would drop anything at or below its minimum, so
        τ first rises to that minimum.
        """
        if len(self._order) >= self.depth:
            self._raise_floor(-self._order[-1][0])
        return self.floor

    def add(self, pair: Pair, similarity: float) -> None:
        """Keep a pair that lost to (or was evicted at) ``s_k``.

        On overflow the minimum is dropped and τ rises to its similarity.
        """
        insort(self._order, (-similarity, pair))
        self._members[pair] = similarity
        for sid in pair:
            self._by_sid.setdefault(sid, set()).add(pair)
        if len(self._order) > self.depth:
            negated, dropped = self._order.pop()
            self._forget(dropped)
            self._raise_floor(-negated)

    def pop_best(self) -> Tuple[Pair, float]:
        """Remove and return the best pair (the next promotion)."""
        negated, pair = self._order.pop(0)
        self._forget(pair)
        return pair, -negated

    def remove_record(self, sid: int) -> None:
        """Delete every reserved pair involving *sid*."""
        pairs = self._by_sid.get(sid)
        if not pairs:
            return
        dead = {(-self._members[pair], pair) for pair in pairs}
        self._order = [key for key in self._order if key not in dead]
        for __, pair in dead:
            self._forget(pair)

    @property
    def max_depth(self) -> int:
        """The deepest this reserve may grow."""
        return MAX_DEPTH_FACTOR * self.k

    def deepen(self, limit: int) -> None:
        """Double the depth, to at most :attr:`max_depth` and *limit*.

        Never lowers it: a *limit* below the current depth keeps it.
        """
        self.depth = max(
            self.depth, min(2 * self.depth, self.max_depth, limit)
        )

    def reset(
        self, pairs: Iterable[Tuple[Pair, float]], floor: Optional[float]
    ) -> None:
        """Replace the contents and τ (the split of a refill join)."""
        self._members.clear()
        self._by_sid.clear()
        self._order = []
        self.floor = floor
        for pair, similarity in pairs:
            self.add(pair, similarity)

    def _raise_floor(self, value: float) -> None:
        if self.floor is None or value > self.floor:
            self.floor = value

    def _forget(self, pair: Pair) -> None:
        del self._members[pair]
        for sid in pair:
            bucket = self._by_sid.get(sid)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._by_sid[sid]
