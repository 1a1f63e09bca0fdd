"""Verification with exact-once deduplication (Section IV-A, Algorithm 6).

A candidate pair sharing *d* prefix tokens can be generated up to *d* times
by the event loop.  Remembering every verified pair in a hash table would
work but waste memory: most pairs can only be generated once and need no
entry.  The paper's optimisation stores a pair **only if** it can actually
be generated again — i.e. only if the pair's *second* common token lies
inside both records' *maximum prefixes*, the longest prefixes the event
loop can still reach given the current ``s_k`` (prefixes shrink as ``s_k``
rises, so the test is conservative in the right direction).

``mode`` selects the paper's ablations:

* ``"optimized"`` — Algorithm 6 (the default);
* ``"all"``       — the ``record-all`` baseline of Fig. 3(a): remember every
  verified pair;
* ``"off"``       — no hash table at all; duplicates are re-verified (the
  result buffer still deduplicates pairs, so answers are unchanged).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..similarity.functions import SimilarityFunction
from ..similarity.overlap import OverlapProbe

__all__ = ["VerificationRegistry"]

Pair = Tuple[int, int]

_MODES = ("optimized", "all", "off")


class VerificationRegistry:
    """Hash table of pairs that must not be verified a second time."""

    def __init__(self, similarity: SimilarityFunction, mode: str = "optimized") -> None:
        if mode not in _MODES:
            raise ValueError("mode must be one of %s, got %r" % (_MODES, mode))
        self.similarity = similarity
        self.mode = mode
        self._seen: set = set()
        self.peak_entries = 0
        self._cached_s_k = -1.0
        self._prefix_cache: dict = {}

    def __len__(self) -> int:
        return len(self._seen)

    def fast_set(self) -> Optional[Set[Pair]]:
        """The seen-pair set for hot-loop membership tests (None if off).

        This is the *live* set object — it reflects later insertions, so
        callers hoist it once per run.  It replaced a per-pair
        ``already_verified(pair)`` method that paid a Python call per
        candidate in the hottest loop.
        """
        if self.mode == "off":
            return None
        return self._seen

    def _max_prefix(self, size: int, s_k: float) -> int:
        """Cached maximum probing prefix length under the current ``s_k``."""
        # s_k is monotone non-decreasing over a run, so "changed" is
        # exactly "rose" — no float equality needed.
        if s_k > self._cached_s_k:
            self._cached_s_k = s_k
            self._prefix_cache.clear()
        length = self._prefix_cache.get(size)
        if length is None:
            length = self.similarity.probing_prefix_length(size, s_k)
            self._prefix_cache[size] = length
        return length

    def record(
        self,
        pair: Pair,
        probe: OverlapProbe,
        size_x: int,
        size_y: int,
        s_k: float,
    ) -> None:
        """Register a just-verified pair if it could be generated again.

        *probe* is the merge transcript of the verification.  The pair is
        remembered exactly when it could be generated again, i.e. when a
        second common token exists at 1-based positions within both
        records' *maximum prefixes* (the longest prefixes still reachable
        under the current ``s_k``).  Pairs without such a token can never
        be re-generated and are never stored — that is the whole memory
        saving.

        When the probe aborted before covering either maximum prefix
        (``scanned_x`` / ``scanned_y``), the existence of a second common
        token is unknown and the pair is stored conservatively; skipping a
        duplicate is always safe because ``s_k`` only rises, so a
        verification outcome is final.
        """
        if self.mode == "off":
            return
        if self.mode == "all":
            self._insert(pair)
            return
        max_x = self._max_prefix(size_x, s_k)
        max_y = self._max_prefix(size_y, s_k)
        if probe.second_x is not None:
            if probe.second_x <= max_x and probe.second_y <= max_y:
                self._insert(pair)
            return
        # No second common token found; decisive only if the merge covered
        # at least one maximum prefix entirely.
        if probe.scanned_x >= max_x or probe.scanned_y >= max_y:
            return
        self._insert(pair)

    def record_seed(
        self,
        pair: Pair,
        probe: OverlapProbe,
        size_x: int,
        size_y: int,
        s_k: float,
    ) -> None:
        """Register a pair verified during *seeding* (Section V-B).

        Algorithm 6's second-common-token rule assumes the pair was
        already generated once by the event loop; a seed pair has not
        been, so it must be stored whenever the loop can generate it *at
        all* — i.e. when its **first** common token lies within both
        records' maximum prefixes.  (Common tokens of two sorted arrays
        appear at monotonically increasing positions in both, so if the
        first one is out of reach every later one is too.)  Using the
        loop rule here double-verified every seed pair whose only common
        token sits inside the prefixes — caught by the ``verify-once``
        runtime invariant of :mod:`repro.oracle.invariants`.
        """
        if self.mode == "off":
            return
        if self.mode == "all":
            self._insert(pair)
            return
        if probe.first_x is None:
            # No common token: the event loop can never generate the
            # pair (unless the merge aborted before finding one, which a
            # full seeding merge never does — handled conservatively).
            if probe.aborted:
                self._insert(pair)
            return
        if (
            probe.first_x <= self._max_prefix(size_x, s_k)
            and probe.first_y <= self._max_prefix(size_y, s_k)
        ):
            self._insert(pair)

    def _insert(self, pair: Pair) -> None:
        self._seen.add(pair)
        if len(self._seen) > self.peak_entries:
            self.peak_entries = len(self._seen)
