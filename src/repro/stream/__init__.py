"""Sliding-window streaming top-k join (SWOOP-style incremental engine).

The batch join answers "the k most similar pairs of this collection"
once.  This package answers it *continuously*: records arrive and expire
over a count- or time-based sliding window and the top-k result set over
the live window is maintained incrementally —

* an **arrival** probes the live inverted index under the current
  ``s_k`` bound, exactly as a prefix event of the batch loop probes the
  batch index (the one-sided prefix-filter lemma keeps this exact);
* an **expiry** evicts the oldest record's postings via
  ``InvertedIndex.trim_heads`` (FIFO expiry means its postings sit at the
  head of every list they appear in) and, when a member of the top-k
  dies, triggers **bound relaxation**: the best pairs of a reserve
  below the top-k are promoted, and only when the reserve runs dry does
  a refill pass over the live window restore the exact top-k; either
  way ``s_k`` may fall.  The reserve is k pairs deep at first and
  doubles at refills that come close together;
* every mutation reports **result deltas** — which pairs entered or
  left the live top-k;
* a **read** of the answer is a copy of a snapshot kept until the
  top-k changes.

See ``docs/STREAMING.md`` for the model, the window semantics and the
exactness argument, and :mod:`repro.oracle` for the streaming oracle,
differential backends and event-trace fuzzer that hold the engine to
the brute-force answer after every single event.
"""

from __future__ import annotations

from .buffer import StreamTopkBuffer
from .engine import StreamDelta, StreamingTopkEngine
from .events import (
    StreamEvent,
    format_event,
    load_event_file,
    parse_event,
    read_events,
    save_event_file,
)
from .window import LiveRecord, SlidingWindow

__all__ = [
    "LiveRecord",
    "SlidingWindow",
    "StreamDelta",
    "StreamEvent",
    "StreamTopkBuffer",
    "StreamingTopkEngine",
    "format_event",
    "load_event_file",
    "parse_event",
    "read_events",
    "save_event_file",
]
