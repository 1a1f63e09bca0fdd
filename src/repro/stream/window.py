"""The sliding window: a FIFO store of live records with expiry rules.

Records are keyed by *stream ids* (sids) — monotonically increasing
arrival numbers that never recycle, so a pair ``(sid_a, sid_b)`` names
the same logical pair for the engine's whole lifetime.  Expiry is
strictly FIFO (always the oldest live record), which is what lets the
engine evict postings with ``InvertedIndex.trim_head``: the globally
oldest record's posting is at the head of every list it appears in.

Two policies, selected by ``TopkOptions.window_policy``:

* ``"count"`` — the window holds the last ``window_size`` records; the
  engine displaces the oldest before an arrival of a full window.
* ``"time"`` — records carry the stream clock at arrival; the clock
  moves only on ``advance``, and a record expires once
  ``clock - arrival >= window_size`` (the window is the half-open
  interval ``(clock - window_size, clock]``).

``window_size == 0`` means unbounded under both policies: records then
expire only through explicit ``expire``/``advance`` calls.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from ..data.records import SIGNATURE_BITS, signature_of, signature_width

__all__ = ["LiveRecord", "SlidingWindow", "WINDOW_POLICIES"]

#: Accepted ``TopkOptions.window_policy`` values.
WINDOW_POLICIES = ("count", "time")


@dataclass(frozen=True)
class LiveRecord:
    """One live window member."""

    #: Stream id: the arrival ordinal, unique for the engine's lifetime.
    sid: int
    #: Sorted, deduplicated tokens (may be empty; empty records occupy a
    #: window slot but join no pairs).
    tokens: Tuple[int, ...]
    #: Stream-clock value at arrival (0.0 under the count policy).
    arrival: float
    #: XOR-fold bitmap signature at the window's configured width
    #: (see :mod:`repro.data.records`).
    signature: int


class SlidingWindow:
    """FIFO live-record store; the engine drives all expiry decisions."""

    def __init__(
        self, size: int, policy: str, sig_bits: int = SIGNATURE_BITS
    ) -> None:
        if policy not in WINDOW_POLICIES:
            raise ValueError(
                "unknown window policy %r (choose from %s)"
                % (policy, ", ".join(WINDOW_POLICIES))
            )
        if size < 0:
            raise ValueError("window size must be >= 0, got %d" % size)
        self.size = size
        self.policy = policy
        self.sig_bits = signature_width(sig_bits)
        self.clock = 0.0
        self._records: "OrderedDict[int, LiveRecord]" = OrderedDict()
        self._next_sid = 0
        self._nonempty = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, tokens: Iterable[int]) -> LiveRecord:
        """Admit a record (canonicalized) and assign it the next sid."""
        canonical = tuple(sorted({int(t) for t in tokens}))
        record = LiveRecord(
            sid=self._next_sid,
            tokens=canonical,
            arrival=self.clock,
            signature=signature_of(canonical, self.sig_bits),
        )
        self._next_sid += 1
        self._records[record.sid] = record
        if canonical:
            self._nonempty += 1
        return record

    def pop_oldest(self) -> LiveRecord:
        """Remove and return the oldest live record (FIFO expiry)."""
        if not self._records:
            raise LookupError("the window is empty; nothing to expire")
        __, record = self._records.popitem(last=False)
        if record.tokens:
            self._nonempty -= 1
        return record

    def advance_clock(self, amount: float) -> float:
        """Move the stream clock forward by *amount*; returns the clock."""
        if amount < 0:
            raise ValueError("the stream clock cannot move backwards")
        self.clock += amount
        return self.clock

    # ------------------------------------------------------------------
    # Expiry queries (the engine applies the answers)
    # ------------------------------------------------------------------

    def count_overflow(self, arriving: int = 0) -> int:
        """How many oldest records a count-window must shed so that
        *arriving* more records fit.

        Always 0 under the ``"time"`` policy: time windows never
        displace on arrival — records only leave when the clock passes
        them.
        """
        if self.policy != "count" or self.size <= 0:
            return 0
        return max(0, len(self._records) + arriving - self.size)

    def timed_out(self) -> int:
        """How many oldest records have fallen out of the time window."""
        if self.size <= 0:
            return 0
        horizon = self.clock - self.size
        expired = 0
        for record in self._records.values():
            if record.arrival <= horizon:
                expired += 1
            else:
                break
        return expired

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, sid: int) -> bool:
        return sid in self._records

    def get(self, sid: int) -> Optional[LiveRecord]:
        return self._records.get(sid)

    @property
    def by_sid(self) -> Mapping[int, LiveRecord]:
        """Live records keyed by sid (a read-only view for hot loops)."""
        return self._records

    def oldest(self) -> Optional[LiveRecord]:
        if not self._records:
            return None
        return next(iter(self._records.values()))

    def records(self) -> Iterator[LiveRecord]:
        """Live records in arrival (= sid) order."""
        return iter(self._records.values())

    def live_sids(self) -> List[int]:
        return list(self._records)

    @property
    def nonempty_count(self) -> int:
        """Live records with at least one token (the pair-space members)."""
        return self._nonempty
