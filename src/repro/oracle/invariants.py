"""Runtime invariant checks for the event-driven top-k join.

:class:`CheckHooks` is threaded through :func:`repro.core.topk_join.
topk_join_iter` when ``TopkOptions.check_invariants`` is set (or the
``REPRO_CHECK=1`` environment variable is exported).  When off, the core
pays exactly one ``is not None`` test per hook site — no object is even
constructed — so production runs are unaffected.

The hooks assert the paper's structural invariants *while the join runs*,
which localizes a violation to the exact event/decision that caused it
(a differential mismatch only says "some pair went missing"):

* events are popped in non-increasing probing-bound (``ub_p``) order, and
  every popped bound equals Lemma-1's reference value recomputed
  independently through ``from_overlap`` — an off-by-one in a
  ``probing_upper_bound`` override cannot hide;
* ``s_k`` is monotone non-decreasing over the join's lifetime;
* every pair is verified at most once while verification dedup is active
  (Algorithm 6's exactly-once claim), and every emitted pair was actually
  verified;
* the indexing decision (Algorithms 7–8) agrees with Lemma-4's reference
  bound ``F(|x|-p+1, |x|, |x|)``, and no insertion happens for a record
  whose indexing has stopped — "no index insertion after ``ub_i < s_k``";
* progressively emitted results are non-increasing, at least the best
  remaining event bound, cross-side in bipartite mode, and their reported
  similarity matches an independent re-scoring of the two records.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..similarity.functions import SimilarityFunction

if TYPE_CHECKING:
    from ..data.records import RecordCollection
    from ..index.inverted import InvertedIndex
    from ..result import JoinResult
    from ..stream.engine import StreamingTopkEngine

__all__ = [
    "CheckHooks",
    "InvariantViolation",
    "StreamCheckHooks",
    "invariant_checks_enabled",
]

Pair = Tuple[int, int]

#: Environment variable that force-enables invariant checks everywhere.
ENV_FLAG = "REPRO_CHECK"


class InvariantViolation(AssertionError):
    """A runtime invariant of the top-k join was violated."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__("invariant %r violated: %s" % (invariant, message))
        self.invariant = invariant


def invariant_checks_enabled(options: object) -> bool:
    """Whether to run invariant checks for *options* (flag or env var)."""
    if getattr(options, "check_invariants", False):
        return True
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class CheckHooks:
    """Invariant assertions observed by one join run.

    *collection* enables independent re-scoring of emitted pairs (pass
    ``None`` to skip, e.g. for the weighted join whose records are not
    plain token tuples).  *dedup_active* must be false when
    ``verification_mode == "off"`` — duplicate verifications are then
    expected and only the emitted-implies-verified half is asserted.
    *reference_bounds* disables the Lemma 1/4 recomputation for backends
    whose bound formulas take different arguments (the weighted join);
    the structural invariants (ordering, monotonicity, exactly-once,
    stop-indexing) still apply there.
    """

    def __init__(
        self,
        similarity: SimilarityFunction,
        k: int,
        collection: Optional["RecordCollection"] = None,
        sides: Optional[Sequence[int]] = None,
        dedup_active: bool = True,
        reference_bounds: bool = True,
    ) -> None:
        self.similarity = similarity
        self.k = k
        self.collection = collection
        self.sides = sides
        self.dedup_active = dedup_active
        self.reference_bounds = reference_bounds
        self._last_pop: Optional[float] = None
        self._last_s_k: Optional[float] = None
        self._last_emit: Optional[float] = None
        self._verified: Set[Pair] = set()
        self._stopped: Set[int] = set()
        self.events = 0
        self.verifications = 0
        self.emits = 0

    # ------------------------------------------------------------------

    @staticmethod
    def _fail(invariant: str, message: str) -> None:
        raise InvariantViolation(invariant, message)

    def _reference_bound(self, size: int, prefix: int, partner: int) -> float:
        """``F(|x|-p+1, |x|, partner)`` — the Lemma 1/4 reference bounds.

        Computed through ``from_overlap`` directly, independent of the
        ``probing_upper_bound`` / ``indexing_upper_bound`` methods under
        test, so a buggy override is caught by disagreement.
        """
        overlap = size - prefix + 1
        if overlap <= 0:
            return 0.0
        return self.similarity.from_overlap(overlap, size, partner)

    # ------------------------------------------------------------------
    # Hook sites
    # ------------------------------------------------------------------

    def on_pop(
        self, bound: float, prefix: int, size: int, s_k: float
    ) -> None:
        """A prefix event ``<(size), p, bound>`` was popped from the heap."""
        self.events += 1
        if self._last_pop is not None and bound > self._last_pop:
            self._fail(
                "event-order",
                "popped bound %r after %r — events must come out in "
                "non-increasing ub_p order" % (bound, self._last_pop),
            )
        self._last_pop = bound
        if not self.reference_bounds:
            self.on_s_k(s_k)
            return
        reference = self._reference_bound(size, prefix, size - prefix + 1)
        if bound != reference:
            self._fail(
                "ub_p",
                "event for size %d at prefix %d carries bound %r but "
                "Lemma 1 gives %r" % (size, prefix, bound, reference),
            )
        self.on_s_k(s_k)

    def on_s_k(self, s_k: float) -> None:
        """Observe the current k-th temporary similarity."""
        if self._last_s_k is not None and s_k < self._last_s_k:
            self._fail(
                "s_k-monotone",
                "s_k dropped from %r to %r" % (self._last_s_k, s_k),
            )
        self._last_s_k = s_k

    def on_verified(self, pair: Pair) -> None:
        """The exact similarity of *pair* was just computed."""
        self.verifications += 1
        if self.dedup_active and pair in self._verified:
            self._fail(
                "verify-once",
                "pair %r verified twice — Algorithm 6 guarantees every "
                "candidate is verified exactly once" % (pair,),
            )
        self._verified.add(pair)

    def on_index_decision(
        self,
        rid: int,
        size: int,
        prefix: int,
        threshold: float,
        inserted: bool,
    ) -> None:
        """Record *rid* was (not) indexed at prefix position *prefix*."""
        reference = (
            self._reference_bound(size, prefix, size)
            if self.reference_bounds
            else None
        )
        if reference is not None and inserted != (reference > threshold):
            self._fail(
                "ub_i",
                "indexing decision for rid %d (size %d, prefix %d) was "
                "%s, but Lemma 4's bound %r vs threshold %r requires %s"
                % (
                    rid,
                    size,
                    prefix,
                    "insert" if inserted else "stop",
                    reference,
                    threshold,
                    "insert" if reference > threshold else "stop",
                ),
            )
        if inserted:
            if rid in self._stopped:
                self._fail(
                    "stop-indexing",
                    "rid %d was indexed again after its indexing bound "
                    "fell below s_k" % rid,
                )
        else:
            self._stopped.add(rid)

    def on_emit(
        self,
        pair: Pair,
        value: float,
        remaining_bound: float,
        progressive: bool,
    ) -> None:
        """*pair* was emitted with similarity *value*.

        *remaining_bound* is the best unprocessed event bound;
        *progressive* distinguishes mid-join emission (where the paper's
        Section VII-F guarantee ``value >= remaining_bound`` must hold)
        from the final drain (where only the ordering is guaranteed —
        e.g. a cooperating sub-join drains rows below the shared global
        bound for the merger to cut).
        """
        self.emits += 1
        if self.sides is not None and self.sides[pair[0]] == self.sides[pair[1]]:
            self._fail(
                "cross-pair",
                "emitted pair %r joins two records of the same side" % (pair,),
            )
        if pair not in self._verified:
            self._fail(
                "emit-verified",
                "pair %r emitted without ever being verified" % (pair,),
            )
        if progressive and value < remaining_bound:
            self._fail(
                "emit-bound",
                "pair %r emitted at %r below the remaining event bound %r"
                % (pair, value, remaining_bound),
            )
        if self._last_emit is not None and value > self._last_emit:
            self._fail(
                "emit-order",
                "pair %r emitted at %r after a %r emission — results must "
                "be non-increasing" % (pair, value, self._last_emit),
            )
        self._last_emit = value
        if self.collection is not None:
            records = self.collection.records
            recomputed = self.similarity.similarity(
                records[pair[0]].tokens, records[pair[1]].tokens
            )
            if recomputed != value:
                self._fail(
                    "emit-similarity",
                    "pair %r emitted at %r but re-scoring the records "
                    "gives %r" % (pair, value, recomputed),
                )


class StreamCheckHooks:
    """Invariant assertions for one streaming-engine lifetime.

    Armed by :class:`repro.stream.engine.StreamingTopkEngine` under the
    same switch as the batch hooks (``TopkOptions.check_invariants`` or
    ``REPRO_CHECK=1``).  After every public event the engine calls
    :meth:`after_event`, which asserts the structural streaming
    invariants:

    * the answer :meth:`~repro.stream.engine.StreamingTopkEngine.results`
      serves equals one rebuilt from the buffer's members, sorted by
      ``(-similarity, x, y)``, every pair with ``x < y`` — a snapshot
      kept past a change of the buffer cannot hide;
    * every reported pair joins two currently-live window members;
    * the result set holds exactly ``min(k, P)`` pairs, ``P`` being the
      live pair count — the buffer is never silently under-filled;
    * no expired record survives in any posting list, and every posting
      list stays in arrival (sid) order — the precondition of FIFO
      head eviction (``trim_heads``);
    * ``s_k`` is monotone non-decreasing *between relaxations*: it may
      fall only across an event the engine flagged via
      :meth:`on_relaxation` (a top-k member died), mirroring the batch
      ``s_k-monotone`` invariant piecewise.
    * the reserve below the top-k has a depth in ``[k, MAX_DEPTH_FACTOR
      * k]`` that moves only across a refill (:meth:`on_refill`), and
      holds at most that many pairs, all live, none also in the result
      set, each with ``τ <= similarity <= s_k``.

    The expiry path additionally asserts, per trimmed token, that the
    head posting belongs to the expiring record (:meth:`on_trim`), and
    each refill asserts the rebuilt bound never exceeds the pre-expiry
    bound (:meth:`on_refill` — relaxation only loosens).
    """

    def __init__(self) -> None:
        self._last_s_k: Optional[float] = None
        self._relaxed = False
        self._last_depth: Optional[int] = None
        self._refilled = False
        self.events = 0
        self.refills = 0

    @staticmethod
    def _fail(invariant: str, message: str) -> None:
        raise InvariantViolation(invariant, message)

    # ------------------------------------------------------------------
    # Hook sites
    # ------------------------------------------------------------------

    def on_trim(self, index: "InvertedIndex", token: int, sid: int) -> None:
        """About to drop the head posting of *token*'s list while
        expiring record *sid*."""
        postings = index.postings(token)
        if not postings or postings[0][0] != sid:
            head = postings[0][0] if postings else None
            self._fail(
                "stream-trim-head",
                "expiring sid %d but the head posting of token %d is %r "
                "— FIFO expiry requires the oldest record at every list "
                "head" % (sid, token, head),
            )

    def on_relaxation(self) -> None:
        """The current event may legitimately lower ``s_k`` (a member
        of the top-k died)."""
        self._relaxed = True

    def on_refill(self, bound_before: float, bound_after: float) -> None:
        """A refill rebuilt the buffer; *bound_before* is the pre-expiry
        ``s_k``."""
        self.refills += 1
        self._refilled = True
        if bound_after > bound_before:
            self._fail(
                "stream-s_k-relaxation",
                "refill raised s_k from %r to %r — the live pair space "
                "only shrank, so the bound may only relax"
                % (bound_before, bound_after),
            )

    def after_event(self, engine: "StreamingTopkEngine") -> None:
        """Assert the structural invariants of the post-event state."""
        self.events += 1
        live = set(engine.live_sids())
        results = engine.results()
        self._check_answer_snapshot(engine, results)
        for result in results:
            if result.x not in live or result.y not in live:
                self._fail(
                    "stream-window-membership",
                    "result pair (%d, %d) references an expired record "
                    "(live sids: %s)"
                    % (result.x, result.y, sorted(live)),
                )
        nonempty = engine.nonempty_count
        expected = min(engine.k, nonempty * (nonempty - 1) // 2)
        if len(results) != expected:
            self._fail(
                "stream-completeness",
                "%d results for %d nonempty live records and k=%d — "
                "the buffer must hold exactly min(k, P) = %d pairs"
                % (len(results), nonempty, engine.k, expected),
            )
        last_by_token: Dict[int, int] = {}
        for token, sid in engine.index_entries():
            if sid not in live:
                self._fail(
                    "stream-expired-posting",
                    "token %d still lists expired sid %d after the event"
                    % (token, sid),
                )
            previous = last_by_token.get(token)
            if previous is not None and sid <= previous:
                self._fail(
                    "stream-posting-order",
                    "token %d postings out of arrival order (%d after %d) "
                    "— FIFO head eviction would evict the wrong record"
                    % (token, sid, previous),
                )
            last_by_token[token] = sid
        s_k = engine.s_k
        if (
            self._last_s_k is not None
            and not self._relaxed
            and s_k < self._last_s_k
        ):
            self._fail(
                "stream-s_k-monotone",
                "s_k dropped from %r to %r without a relaxation event"
                % (self._last_s_k, s_k),
            )
        self._check_reserve(engine, live, results, s_k)
        self._last_s_k = s_k
        self._relaxed = False

    def _check_answer_snapshot(
        self, engine: "StreamingTopkEngine", results: List["JoinResult"]
    ) -> None:
        members = [(x, y, value) for (x, y), value in engine.buffer.items()]
        for x, y, __ in members:
            if x >= y:
                self._fail(
                    "stream-answer-snapshot",
                    "buffer pair (%d, %d) is not in canonical x < y order"
                    % (x, y),
                )
        expected = sorted(members, key=lambda row: (-row[2], row[0], row[1]))
        served = [(r.x, r.y, r.similarity) for r in results]
        if served != expected:
            self._fail(
                "stream-answer-snapshot",
                "results() served %r but the buffer holds %r — the "
                "answer snapshot outlived a change of the buffer"
                % (served[:8], expected[:8]),
            )

    def _check_reserve(
        self,
        engine: "StreamingTopkEngine",
        live: Set[int],
        results: List["JoinResult"],
        s_k: float,
    ) -> None:
        from ..stream.buffer import MAX_DEPTH_FACTOR

        reserve = engine.reserve
        items = reserve.items()
        depth = reserve.depth
        if not engine.k <= depth <= MAX_DEPTH_FACTOR * engine.k:
            self._fail(
                "stream-reserve-depth",
                "reserve depth %d lies outside [k=%d, %d]"
                % (depth, engine.k, MAX_DEPTH_FACTOR * engine.k),
            )
        if len(items) > depth:
            self._fail(
                "stream-reserve-depth",
                "the reserve holds %d pairs at depth %d" % (len(items), depth),
            )
        if (
            self._last_depth is not None
            and depth != self._last_depth
            and not self._refilled
        ):
            self._fail(
                "stream-reserve-depth",
                "reserve depth moved from %d to %d without a refill"
                % (self._last_depth, depth),
            )
        self._last_depth = depth
        self._refilled = False
        floor = reserve.floor
        visible = {(result.x, result.y) for result in results}
        for (x, y), value in items:
            if x not in live or y not in live:
                self._fail(
                    "stream-reserve-live",
                    "reserve pair (%d, %d) references an expired record"
                    % (x, y),
                )
            if (x, y) in visible:
                self._fail(
                    "stream-reserve-disjoint",
                    "pair (%d, %d) is in both the top-k and the reserve"
                    % (x, y),
                )
            if value > s_k or (floor is not None and value < floor):
                self._fail(
                    "stream-reserve-range",
                    "reserve pair (%d, %d) at %r lies outside [τ=%r, "
                    "s_k=%r]" % (x, y, value, floor, s_k),
                )
