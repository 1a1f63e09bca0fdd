"""Adversarial fuzzing with failure shrinking and a replayable corpus.

:func:`fuzz_run` generates synthetic collections engineered to stress the
join's weak spots — tied similarities, skewed token frequencies,
near-duplicates, token-disjoint blocks, degenerate records — and feeds
each through :func:`repro.oracle.differential.run_differential` (every
backend vs the brute-force oracle, runtime invariants on) plus the
metamorphic relations.  A failing input is *shrunk* by delta debugging to
a minimal reproducing case and saved as JSON under ``tests/corpus/``;
the corpus replays in CI forever after, so a fixed bug stays fixed.

The streaming twin (:func:`fuzz_stream_run`) does the same for the
sliding-window engine: random insert/expire/advance traces run through
:func:`repro.oracle.differential.run_stream_differential` (incremental
vs full recompute vs the window oracle after *every* event) plus the
streaming metamorphic relations; failing traces shrink to minimal event
sequences and persist as ``tests/corpus/stream_*.json``.

The service twin (:func:`fuzz_serve_run`) attacks the ``repro serve``
daemon itself: seeded generators build adversarial byte sessions —
mutated JSON, raw junk, truncated frames, oversized payloads,
mid-request disconnects — and throw each at a live in-process daemon
over a real socket.  The invariant is *survival*: every reply line must
still parse, the daemon must answer a fresh ``ping`` afterwards, and no
unhandled exception may have been swallowed.  Failing sessions shrink
to minimal byte sequences and persist as ``tests/corpus/serve_*.json``.

Everything is seeded: ``fuzz_run(seed=0, iterations=200)`` explores the
same 200 cases on every machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.topk_join import TopkOptions, topk_join
from ..data.records import RecordCollection
from ..result import JoinResult
from ..similarity.functions import SimilarityFunction
from ..stream.events import INSERT, StreamEvent
from .differential import (
    DifferentialCase,
    StreamCase,
    run_differential,
    run_stream_differential,
)
from .metamorphic import metamorphic_failures, stream_metamorphic_failures

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve import InProcessDaemon

__all__ = [
    "CASE_SCHEMA",
    "SERVE_CASE_SCHEMA",
    "STREAM_CASE_SCHEMA",
    "FuzzReport",
    "ServeCase",
    "ServeFuzzReport",
    "StreamFuzzReport",
    "fuzz_run",
    "fuzz_serve_run",
    "fuzz_stream_run",
    "load_corpus_case",
    "load_serve_case",
    "load_stream_case",
    "replay_corpus",
    "save_corpus_case",
    "save_serve_case",
    "save_stream_case",
    "shrink_case",
    "shrink_serve_case",
    "shrink_stream_case",
]

#: Version stamp of the corpus JSON layout.
CASE_SCHEMA = 1

#: Version stamp of the streaming corpus JSON layout.
STREAM_CASE_SCHEMA = 1

#: Version stamp of the daemon-session corpus JSON layout.
SERVE_CASE_SCHEMA = 1

#: Similarity functions cycled through by the fuzzer.
_SIMILARITIES = ("jaccard", "cosine", "dice", "overlap")

#: Run the (4x-more-joins) metamorphic relations every Nth iteration.
_METAMORPHIC_EVERY = 5

TokenLists = List[List[int]]
Generator = Callable[[random.Random, int], TokenLists]


# ----------------------------------------------------------------------
# Adversarial generators
# ----------------------------------------------------------------------

def _gen_tie_heavy(rng: random.Random, max_records: int) -> TokenLists:
    """Tiny token universe: almost every similarity value is tied."""
    universe = rng.randint(4, 8)
    count = rng.randint(4, max_records)
    return [
        [rng.randrange(universe) for __ in range(rng.randint(1, 5))]
        for __ in range(count)
    ]


def _gen_skewed(rng: random.Random, max_records: int) -> TokenLists:
    """Zipf-like token frequencies: a few tokens appear everywhere."""
    universe = rng.randint(20, 60)
    weights = [1.0 / (rank + 1) for rank in range(universe)]
    count = rng.randint(4, max_records)
    return [
        rng.choices(range(universe), weights=weights,
                    k=rng.randint(1, 12))
        for __ in range(count)
    ]


def _gen_near_duplicates(rng: random.Random, max_records: int) -> TokenLists:
    """Clusters of single-edit variants: the top-k boundary is razor thin."""
    universe = rng.randint(30, 80)
    lists: TokenLists = []
    while len(lists) < max(4, max_records - 2):
        base = sorted(
            rng.sample(range(universe), rng.randint(2, min(10, universe)))
        )
        lists.append(list(base))
        for __ in range(rng.randint(1, 3)):
            variant = list(base)
            if rng.random() < 0.5 and len(variant) > 1:
                variant.pop(rng.randrange(len(variant)))
            else:
                variant.append(rng.randrange(universe))
            lists.append(variant)
    return lists[:max_records]


def _gen_blocks(rng: random.Random, max_records: int) -> TokenLists:
    """Token-disjoint blocks: most pairs share nothing (zero padding)."""
    blocks = rng.randint(2, 4)
    per_block = rng.randint(25, 40)
    count = rng.randint(4, max_records)
    lists: TokenLists = []
    for __ in range(count):
        block = rng.randrange(blocks)
        offset = block * per_block
        size = rng.randint(1, 6)
        lists.append(
            [offset + rng.randrange(per_block) for __ in range(size)]
        )
    return lists


def _gen_degenerate(rng: random.Random, max_records: int) -> TokenLists:
    """Empty records, singletons, exact copies, one giant record."""
    universe = rng.randint(5, 20)
    lists: TokenLists = []
    for __ in range(rng.randint(3, max_records - 1)):
        kind = rng.randrange(4)
        if kind == 0:
            lists.append([])
        elif kind == 1:
            lists.append([rng.randrange(universe)])
        elif kind == 2 and lists:
            lists.append(list(rng.choice(lists)))
        else:
            lists.append(
                [rng.randrange(universe) for __ in range(rng.randint(1, 4))]
            )
    lists.append(list(range(universe)))  # the giant
    return lists


GENERATORS: Dict[str, Generator] = {
    "tie-heavy": _gen_tie_heavy,
    "skewed": _gen_skewed,
    "near-duplicates": _gen_near_duplicates,
    "blocks": _gen_blocks,
    "degenerate": _gen_degenerate,
}


# ----------------------------------------------------------------------
# Streaming generators: adversarial event traces
# ----------------------------------------------------------------------

StreamGenerator = Callable[[random.Random], StreamCase]


def _stream_insert(
    rng: random.Random,
    universe: int,
    history: List[List[int]],
) -> StreamEvent:
    """One insert event: sometimes empty, sometimes an exact re-arrival."""
    if rng.random() < 0.10:
        tokens: List[int] = []
    elif history and rng.random() < 0.15:
        tokens = list(rng.choice(history))
    else:
        size = rng.randint(1, min(6, universe))
        tokens = [rng.randrange(universe) for __ in range(size)]
    history.append(tokens)
    return StreamEvent.insert(tokens)


def _stream_advance(rng: random.Random, policy: str) -> StreamEvent:
    """A policy-appropriate advance (count amounts must stay integral)."""
    if policy == "count":
        return StreamEvent.advance(float(rng.randint(0, 3)))
    return StreamEvent.advance(rng.randint(0, 6) / 2.0)


def _gen_stream_mixed(rng: random.Random) -> StreamCase:
    """The generic trace: ~60% inserts, ~20% expiries, ~20% advances."""
    universe = rng.randint(4, 12)
    policy = "count" if rng.random() < 0.5 else "time"
    events: List[StreamEvent] = []
    history: List[List[int]] = []
    for __ in range(rng.randint(6, 32)):
        roll = rng.random()
        if roll < 0.6:
            events.append(_stream_insert(rng, universe, history))
        elif roll < 0.8:
            events.append(StreamEvent.expire(rng.randint(1, 3)))
        else:
            events.append(_stream_advance(rng, policy))
    return StreamCase.make(
        events,
        k=rng.randint(1, 8),
        window=rng.randint(0, 8),
        policy=policy,
        similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
    )


def _gen_stream_churn(rng: random.Random) -> StreamCase:
    """A tiny full count window: every arrival displaces and most
    expiries kill a top-k member — bound relaxation and refill on
    nearly every event."""
    universe = rng.randint(3, 6)
    events: List[StreamEvent] = []
    history: List[List[int]] = []
    for __ in range(rng.randint(8, 40)):
        if rng.random() < 0.7:
            events.append(_stream_insert(rng, universe, history))
        else:
            events.append(StreamEvent.expire(1))
    return StreamCase.make(
        events,
        k=rng.randint(1, 4),
        window=rng.randint(2, 4),
        policy="count",
        similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
    )


def _gen_stream_bursty(rng: random.Random) -> StreamCase:
    """Insert bursts separated by big clock jumps: mass expiry under the
    time policy, including whole-window wipeouts."""
    universe = rng.randint(4, 10)
    events: List[StreamEvent] = []
    history: List[List[int]] = []
    for __ in range(rng.randint(2, 5)):
        for __ in range(rng.randint(2, 6)):
            events.append(_stream_insert(rng, universe, history))
        events.append(StreamEvent.advance(rng.randint(0, 8) / 2.0))
    return StreamCase.make(
        events,
        k=rng.randint(1, 8),
        window=rng.randint(0, 5),
        policy="time",
        similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
    )


def _gen_stream_hub(rng: random.Random) -> StreamCase:
    """Hub records and their partners: each partner is two of the
    current hub's tokens plus at most one stray, so most tracked pairs
    involve a hub and its expiry drains the top-k *and* the k-pair
    reserve — the batch-refill path that windows of at most 8 rarely
    reach."""
    k = rng.randint(1, 3)
    universe = rng.randint(6, 12)
    hub: List[int] = []
    events: List[StreamEvent] = []
    history: List[List[int]] = []
    for __ in range(rng.randint(12, 40)):
        roll = rng.random()
        if not hub or roll < 0.2:
            hub = rng.sample(range(universe), rng.randint(3, 6))
            tokens = list(hub)
        elif roll < 0.8:
            tokens = rng.sample(hub, 2)
            if rng.random() < 0.5:
                tokens.append(universe + rng.randrange(4))
        elif roll < 0.9:
            events.append(StreamEvent.expire(1))
            continue
        else:
            events.append(_stream_insert(rng, universe, history))
            continue
        history.append(tokens)
        events.append(StreamEvent.insert(tokens))
    return StreamCase.make(
        events,
        k=k,
        window=rng.randint(2 * k + 2, 2 * k + 6),
        policy="count",
        similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
    )


STREAM_GENERATORS: Dict[str, StreamGenerator] = {
    "stream-mixed": _gen_stream_mixed,
    "stream-churn": _gen_stream_churn,
    "stream-bursty": _gen_stream_bursty,
    "stream-hub": _gen_stream_hub,
}


# ----------------------------------------------------------------------
# Serve generators: adversarial daemon sessions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeCase:
    """One adversarial byte session against the daemon.

    ``chunks`` are written to the socket in order (the chunking itself
    is adversarial: frames may arrive one byte at a time or many frames
    per segment).  ``abort`` closes the socket without the write-side
    shutdown — a mid-request disconnect rather than a polite EOF.
    """

    chunks: Tuple[bytes, ...]
    abort: bool = False

    @classmethod
    def make(
        cls, chunks: Sequence[bytes], abort: bool = False
    ) -> "ServeCase":
        return cls(tuple(bytes(chunk) for chunk in chunks), bool(abort))

    def chunks_payload(self) -> List[str]:
        """JSON-safe chunk encoding (latin-1: every byte round-trips)."""
        return [chunk.decode("latin-1") for chunk in self.chunks]

    @classmethod
    def from_payload(
        cls, chunks: Sequence[str], abort: bool = False
    ) -> "ServeCase":
        return cls(
            tuple(chunk.encode("latin-1") for chunk in chunks), bool(abort)
        )


ServeGenerator = Callable[[random.Random], ServeCase]

#: Verbs the session generators draw from.  ``shutdown`` is included on
#: purpose: the fuzz daemon refuses remote shutdown, so the frame must
#: earn a ``forbidden`` error, not a dead daemon.
_SERVE_VERBS = (
    "ping",
    "insert",
    "expire",
    "advance",
    "query",
    "subscribe",
    "unsubscribe",
    "stats",
    "metrics",
    "shutdown",
)


def _serve_valid_frame(rng: random.Random) -> bytes:
    """One well-formed request frame (the raw material for mutation)."""
    verb = _SERVE_VERBS[rng.randrange(len(_SERVE_VERBS))]
    payload: Dict[str, object] = {"verb": verb, "id": rng.randint(0, 999)}
    if verb == "insert":
        payload["tokens"] = [
            rng.randrange(50) for __ in range(rng.randint(0, 6))
        ]
    elif verb == "expire":
        payload["count"] = rng.randint(1, 3)
    elif verb == "advance":
        payload["amount"] = rng.randint(0, 6) / 2.0
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _random_chunking(rng: random.Random, data: bytes) -> List[bytes]:
    """Split *data* into adversarially sized socket writes."""
    chunks: List[bytes] = []
    position = 0
    while position < len(data):
        size = rng.randint(1, max(1, min(len(data) - position, 97)))
        chunks.append(data[position:position + size])
        position += size
    return chunks or [b""]


def _gen_serve_mutated(rng: random.Random) -> ServeCase:
    """Valid request frames with random byte flips/inserts/deletes."""
    blob = bytearray(
        b"".join(_serve_valid_frame(rng) for __ in range(rng.randint(1, 6)))
    )
    for __ in range(rng.randint(1, max(2, len(blob) // 8))):
        if not blob:
            break
        position = rng.randrange(len(blob))
        roll = rng.randrange(3)
        if roll == 0:
            blob[position] = rng.randrange(256)
        elif roll == 1:
            del blob[position]
        else:
            blob.insert(position, rng.randrange(256))
    if rng.random() < 0.8:
        blob.extend(b"\n")
    return ServeCase.make(
        _random_chunking(rng, bytes(blob)), abort=rng.random() < 0.2
    )


def _gen_serve_junk(rng: random.Random) -> ServeCase:
    """Raw random bytes, newlines sprinkled in so frames terminate."""
    data = bytearray(
        rng.randrange(256) for __ in range(rng.randint(1, 512))
    )
    for __ in range(rng.randint(0, 6)):
        data[rng.randrange(len(data))] = 0x0A
    return ServeCase.make(
        _random_chunking(rng, bytes(data)), abort=rng.random() < 0.3
    )


def _gen_serve_truncated(rng: random.Random) -> ServeCase:
    """Valid frames cut mid-frame, sometimes with a hard disconnect."""
    frames = b"".join(
        _serve_valid_frame(rng) for __ in range(rng.randint(1, 5))
    )
    cut = rng.randrange(1, len(frames))
    return ServeCase.make(
        _random_chunking(rng, frames[:cut]), abort=rng.random() < 0.5
    )


def _gen_serve_oversized(rng: random.Random) -> ServeCase:
    """Frames straddling the byte cap, with and without a newline."""
    roll = rng.randrange(3)
    if roll == 0:
        frame = (
            json.dumps(
                {
                    "verb": "insert",
                    "id": 1,
                    "tokens": [
                        rng.randrange(9)
                        for __ in range(rng.randint(1500, 4000))
                    ],
                },
                separators=(",", ":"),
            ).encode("utf-8")
            + b"\n"
        )
    elif roll == 1:
        frame = b'{"verb":"' + b"x" * rng.randint(5000, 20000) + b'"}\n'
    else:
        frame = b"A" * rng.randint(5000, 30000)  # cap hit without a newline
    return ServeCase.make(
        _random_chunking(rng, frame + _serve_valid_frame(rng)), abort=False
    )


def _gen_serve_mixed(rng: random.Random) -> ServeCase:
    """Interleaved valid frames, blank lines, ASCII junk, mutations."""
    parts: List[bytes] = []
    for __ in range(rng.randint(2, 10)):
        roll = rng.random()
        if roll < 0.4:
            parts.append(_serve_valid_frame(rng))
        elif roll < 0.6:
            parts.append(b"\n")
        elif roll < 0.8:
            parts.append(
                bytes(
                    rng.randrange(32, 127)
                    for __ in range(rng.randint(1, 40))
                )
                + b"\n"
            )
        else:
            frame = bytearray(_serve_valid_frame(rng))
            frame[rng.randrange(len(frame))] = rng.randrange(256)
            parts.append(bytes(frame))
    return ServeCase.make(parts, abort=rng.random() < 0.15)


SERVE_GENERATORS: Dict[str, ServeGenerator] = {
    "serve-mutated-json": _gen_serve_mutated,
    "serve-junk-bytes": _gen_serve_junk,
    "serve-truncated": _gen_serve_truncated,
    "serve-oversized": _gen_serve_oversized,
    "serve-mixed": _gen_serve_mixed,
}


# ----------------------------------------------------------------------
# Failure evaluation and shrinking
# ----------------------------------------------------------------------

def _sequential_backend(
    token_lists: Sequence[Sequence[int]],
    k: int,
    sim: SimilarityFunction,
) -> List[JoinResult]:
    collection = RecordCollection.from_integer_sets(token_lists, dedupe=False)
    return topk_join(
        collection, k, similarity=sim,
        options=TopkOptions(check_invariants=True),
    )


def _case_failures(
    case: DifferentialCase,
    backends: Optional[Sequence[str]],
    metamorphic: bool,
    rng_seed: int,
) -> List[str]:
    """All failures of *case*: differential sweep plus (optionally)
    metamorphic relations over the invariant-checked sequential join."""
    failures = run_differential(case, backends=backends)
    if metamorphic:
        try:
            failures.extend(
                "metamorphic: %s" % message
                for message in metamorphic_failures(
                    _sequential_backend,
                    [list(tokens) for tokens in case.records],
                    case.k,
                    case.similarity,
                    random.Random(rng_seed),
                )
            )
        except Exception as crash:  # noqa: BLE001 — crashes are findings
            failures.append(
                "metamorphic: crashed with %s: %s"
                % (type(crash).__name__, crash)
            )
    return failures


def shrink_case(
    case: DifferentialCase,
    failing: Callable[[DifferentialCase], List[str]],
) -> DifferentialCase:
    """Delta-debug *case* to a locally minimal still-failing input.

    Passes, in order: chunk removal (halves, quarters, …), single-record
    removal, per-record token dropping, token renumbering (compress the
    universe to ``0..n``), and k reduction.  Each accepted candidate must
    still make *failing* return a non-empty list.  The result is 1-minimal
    with respect to these operations, not globally minimal — good enough
    to read.
    """

    def still_fails(candidate: DifferentialCase) -> bool:
        try:
            return bool(failing(candidate))
        except Exception:  # noqa: BLE001 — a shrunk crash still reproduces
            return True

    current = case

    # Chunk removal: try dropping ever-smaller contiguous runs of records.
    chunk = max(1, len(current.records) // 2)
    while chunk >= 1:
        start = 0
        progressed = False
        while start < len(current.records) and len(current.records) > 1:
            remaining = (
                current.records[:start] + current.records[start + chunk:]
            )
            candidate = DifferentialCase(
                remaining, current.k, current.similarity
            )
            if remaining and still_fails(candidate):
                current = candidate
                progressed = True
            else:
                start += chunk
        chunk = chunk // 2 if chunk > 1 and not progressed else chunk - 1

    # Token dropping: shorten individual records.
    changed = True
    while changed:
        changed = False
        for index, tokens in enumerate(current.records):
            position = 0
            while position < len(current.records[index]):
                tokens = current.records[index]
                shrunk = tokens[:position] + tokens[position + 1:]
                records = (
                    current.records[:index]
                    + (shrunk,)
                    + current.records[index + 1:]
                )
                candidate = DifferentialCase(
                    records, current.k, current.similarity
                )
                if still_fails(candidate):
                    current = candidate
                    changed = True
                else:
                    position += 1

    # Token renumbering: compress the universe to consecutive integers.
    universe = sorted({t for tokens in current.records for t in tokens})
    mapping = {token: rank for rank, token in enumerate(universe)}
    renumbered = DifferentialCase(
        tuple(
            tuple(mapping[t] for t in tokens) for tokens in current.records
        ),
        current.k,
        current.similarity,
    )
    if still_fails(renumbered):
        current = renumbered

    # k reduction.
    while current.k > 1:
        candidate = DifferentialCase(
            current.records, current.k - 1, current.similarity
        )
        if not still_fails(candidate):
            break
        current = candidate

    return current


def _stream_case_failures(
    case: StreamCase,
    backends: Optional[Sequence[str]],
    metamorphic: bool,
) -> List[str]:
    """All failures of *case*: the per-event differential sweep plus
    (optionally) the streaming metamorphic relations."""
    failures = run_stream_differential(case, backends=backends)
    if metamorphic:
        try:
            failures.extend(
                "metamorphic: %s" % message
                for message in stream_metamorphic_failures(case)
            )
        except Exception as crash:  # noqa: BLE001 — crashes are findings
            failures.append(
                "metamorphic: crashed with %s: %s"
                % (type(crash).__name__, crash)
            )
    return failures


def shrink_stream_case(
    case: StreamCase,
    failing: Callable[[StreamCase], List[str]],
) -> StreamCase:
    """Delta-debug a failing event trace to a locally minimal one.

    Passes, in order: event chunk removal (halves, quarters, …),
    per-insert token dropping, window shrinking, and k reduction.  Each
    accepted candidate must still make *failing* return a non-empty
    list; the result is 1-minimal with respect to these operations.
    """

    def still_fails(candidate: StreamCase) -> bool:
        try:
            return bool(failing(candidate))
        except Exception:  # noqa: BLE001 — a shrunk crash still reproduces
            return True

    current = case

    # Event chunk removal: drop ever-smaller contiguous runs of events.
    chunk = max(1, len(current.events) // 2)
    while chunk >= 1:
        start = 0
        progressed = False
        while start < len(current.events) and len(current.events) > 1:
            remaining = (
                current.events[:start] + current.events[start + chunk:]
            )
            candidate = replace(current, events=remaining)
            if remaining and still_fails(candidate):
                current = candidate
                progressed = True
            else:
                start += chunk
        chunk = chunk // 2 if chunk > 1 and not progressed else chunk - 1

    # Token dropping: shorten individual insert payloads.
    changed = True
    while changed:
        changed = False
        for index in range(len(current.events)):
            if current.events[index].kind != INSERT:
                continue
            position = 0
            while position < len(current.events[index].tokens):
                event = current.events[index]
                shrunk = StreamEvent.insert(
                    event.tokens[:position] + event.tokens[position + 1:]
                )
                candidate = replace(
                    current,
                    events=(
                        current.events[:index]
                        + (shrunk,)
                        + current.events[index + 1:]
                    ),
                )
                if still_fails(candidate):
                    current = candidate
                    changed = True
                else:
                    position += 1

    # Window shrinking (0 = unbounded changes semantics, but the
    # still-fails gate keeps only candidates that reproduce).
    while current.window > 0:
        candidate = replace(current, window=current.window - 1)
        if not still_fails(candidate):
            break
        current = candidate

    # k reduction.
    while current.k > 1:
        candidate = replace(current, k=current.k - 1)
        if not still_fails(candidate):
            break
        current = candidate

    return current


# ----------------------------------------------------------------------
# Serve sessions: drive the daemon over a raw socket
# ----------------------------------------------------------------------


def _make_fuzz_daemon() -> "InProcessDaemon":
    """A hardened, tightly limited daemon for adversarial sessions.

    Small caps make the interesting edges cheap to reach (a 4 KiB frame
    cap instead of 1 MiB, a 32-deep queue) and short timeouts keep
    stalling sessions from dominating the budget.  Remote shutdown is
    refused so a fuzz case that happens to spell ``shutdown`` correctly
    exercises the ``forbidden`` path instead of killing the daemon mid
    campaign.
    """
    from ..serve import InProcessDaemon, ServeOptions
    from ..stream.engine import StreamingTopkEngine

    def engine() -> StreamingTopkEngine:
        return StreamingTopkEngine(3, options=TopkOptions(window_size=8))

    return InProcessDaemon(
        engine,
        ServeOptions(
            queue_limit=32,
            degradation="reject",
            read_timeout=1.0,
            idle_timeout=2.0,
            max_frame_bytes=4096,
            outbox_limit=256,
            allow_remote_shutdown=False,
        ),
    )


def _run_serve_session(
    host: str, port: int, case: ServeCase, timeout: float = 10.0
) -> List[str]:
    """Throw one adversarial session at the daemon; return failures.

    The session may be refused mid-write (the daemon legitimately hangs
    up on abusive peers) — only reply *content* and reachability count
    as findings: every reply line must parse as a JSON object (or be an
    HTTP response, when the junk happened to spell a request line).
    """
    import socket

    failures: List[str] = []
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        return ["serve: cannot connect: %s" % error]
    received = b""
    try:
        try:
            for chunk in case.chunks:
                sock.sendall(chunk)
            if not case.abort:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # hung up on us mid-send — a legitimate daemon response
        if not case.abort:
            while True:
                try:
                    data = sock.recv(65536)
                except socket.timeout:
                    failures.append(
                        "serve: daemon neither replied nor closed within "
                        "%.1fs" % timeout
                    )
                    break
                except OSError:
                    break
                if not data:
                    break
                received += data
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass
    if received.startswith(b"HTTP/"):
        return failures  # the junk spelled an HTTP request; any reply is fine
    for line in received.split(b"\n"):
        if not line.strip():
            continue
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            failures.append(
                "serve: unparseable reply line %r" % line[:80]
            )
            continue
        if not isinstance(payload, dict):
            failures.append("serve: non-object reply %r" % line[:80])
    return failures


def _serve_case_failures(
    host: str, port: int, case: ServeCase, daemon: "InProcessDaemon"
) -> List[str]:
    """All failures of one session: replies, swallowed crashes, liveness."""
    from ..serve import ServeClient

    failures = _run_serve_session(host, port, case)
    server = daemon.server
    if server is not None:
        failures.extend(
            "serve: unhandled exception: %s" % message
            for message in server.drain_unhandled()
        )
    try:
        with ServeClient(host, port, timeout=10.0) as probe:
            reply = probe.request("ping")
            if not reply.get("ok"):
                failures.append(
                    "serve: post-session ping refused: %r" % reply
                )
    except (OSError, ValueError) as error:
        failures.append(
            "serve: daemon unreachable after the session: %s" % error
        )
    return failures


def shrink_serve_case(
    case: ServeCase,
    failing: Callable[[ServeCase], List[str]],
) -> ServeCase:
    """Delta-debug a failing byte session to a locally minimal one.

    Passes, in order: chunk removal (halves, quarters, …), per-chunk
    byte truncation (repeated halving), and abort simplification.  Each
    accepted candidate must still make *failing* return a non-empty
    list.
    """

    def still_fails(candidate: ServeCase) -> bool:
        try:
            return bool(failing(candidate))
        except Exception:  # noqa: BLE001 — a shrunk crash still reproduces
            return True

    current = case

    # Chunk removal: drop ever-smaller contiguous runs of writes.
    chunk = max(1, len(current.chunks) // 2)
    while chunk >= 1:
        start = 0
        progressed = False
        while start < len(current.chunks) and len(current.chunks) > 1:
            remaining = (
                current.chunks[:start] + current.chunks[start + chunk:]
            )
            candidate = replace(current, chunks=remaining)
            if remaining and still_fails(candidate):
                current = candidate
                progressed = True
            else:
                start += chunk
        chunk = chunk // 2 if chunk > 1 and not progressed else chunk - 1

    # Byte truncation: repeatedly halve individual chunks.
    changed = True
    while changed:
        changed = False
        for index in range(len(current.chunks)):
            while current.chunks[index]:
                data = current.chunks[index]
                candidate = replace(
                    current,
                    chunks=(
                        current.chunks[:index]
                        + (data[: len(data) // 2],)
                        + current.chunks[index + 1:]
                    ),
                )
                if still_fails(candidate):
                    current = candidate
                    changed = True
                else:
                    break

    # Abort simplification: a polite EOF is easier to reason about.
    if current.abort:
        candidate = replace(current, abort=False)
        if still_fails(candidate):
            current = candidate

    return current


# ----------------------------------------------------------------------
# Corpus persistence
# ----------------------------------------------------------------------

def _case_digest(case: DifferentialCase) -> str:
    payload = json.dumps(
        [list(list(t) for t in case.records), case.k, case.similarity],
        separators=(",", ":"),
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def save_corpus_case(
    corpus_dir: str,
    case: DifferentialCase,
    failures: Sequence[str],
    seed: Optional[int] = None,
    generator: Optional[str] = None,
    description: str = "",
) -> str:
    """Write *case* as ``case_<digest>.json`` under *corpus_dir*."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, "case_%s.json" % _case_digest(case))
    document = {
        "schema": CASE_SCHEMA,
        "description": description,
        "seed": seed,
        "generator": generator,
        "similarity": case.similarity,
        "k": case.k,
        "records": [list(tokens) for tokens in case.records],
        "failures": list(failures),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus_case(path: str) -> Tuple[DifferentialCase, dict]:
    """Read one corpus file; returns the case and the raw document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != CASE_SCHEMA:
        raise ValueError(
            "%s: unsupported corpus schema %r" % (path, document.get("schema"))
        )
    case = DifferentialCase.make(
        document["records"], document["k"], document["similarity"]
    )
    return case, document


def _stream_case_digest(case: StreamCase) -> str:
    payload = json.dumps(
        [
            case.events_payload(),
            case.k,
            case.window,
            case.policy,
            case.similarity,
        ],
        separators=(",", ":"),
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def save_stream_case(
    corpus_dir: str,
    case: StreamCase,
    failures: Sequence[str],
    seed: Optional[int] = None,
    generator: Optional[str] = None,
    description: str = "",
) -> str:
    """Write *case* as ``stream_<digest>.json`` under *corpus_dir*."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(
        corpus_dir, "stream_%s.json" % _stream_case_digest(case)
    )
    document = {
        "schema": STREAM_CASE_SCHEMA,
        "description": description,
        "seed": seed,
        "generator": generator,
        "similarity": case.similarity,
        "k": case.k,
        "window": case.window,
        "policy": case.policy,
        "events": case.events_payload(),
        "failures": list(failures),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_stream_case(path: str) -> Tuple[StreamCase, dict]:
    """Read one streaming corpus file; the case and the raw document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != STREAM_CASE_SCHEMA:
        raise ValueError(
            "%s: unsupported stream corpus schema %r"
            % (path, document.get("schema"))
        )
    case = StreamCase.from_payload(
        document["events"],
        document["k"],
        window=document.get("window", 0),
        policy=document.get("policy", "count"),
        similarity=document.get("similarity", "jaccard"),
    )
    return case, document


def _serve_case_digest(case: ServeCase) -> str:
    payload = json.dumps(
        [case.chunks_payload(), case.abort], separators=(",", ":")
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def save_serve_case(
    corpus_dir: str,
    case: ServeCase,
    failures: Sequence[str],
    seed: Optional[int] = None,
    generator: Optional[str] = None,
    description: str = "",
) -> str:
    """Write *case* as ``serve_<digest>.json`` under *corpus_dir*."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(
        corpus_dir, "serve_%s.json" % _serve_case_digest(case)
    )
    document = {
        "schema": SERVE_CASE_SCHEMA,
        "description": description,
        "seed": seed,
        "generator": generator,
        "abort": case.abort,
        "chunks": case.chunks_payload(),
        "failures": list(failures),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_serve_case(path: str) -> Tuple[ServeCase, dict]:
    """Read one daemon-session corpus file; the case and the document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SERVE_CASE_SCHEMA:
        raise ValueError(
            "%s: unsupported serve corpus schema %r"
            % (path, document.get("schema"))
        )
    case = ServeCase.from_payload(
        document["chunks"], abort=document.get("abort", False)
    )
    return case, document


def _replay_serve_case(case: ServeCase) -> List[str]:
    """Replay one saved session against a fresh hardened daemon.

    Quietly skipped (empty failure list) where loopback sockets do not
    work — the capability gate, not a pass.
    """
    from .differential import sockets_usable

    if not sockets_usable():
        return []
    failures: List[str] = []
    daemon = _make_fuzz_daemon()
    try:
        host, port = daemon.start()
        failures.extend(_serve_case_failures(host, port, case, daemon))
    except RuntimeError as error:
        failures.append("serve: %s" % error)
    else:
        try:
            daemon.stop()
        except RuntimeError as error:
            failures.append("serve: %s" % error)
    return failures


def replay_corpus(
    corpus_dir: str,
    backends: Optional[Sequence[str]] = None,
    stream_backends: Optional[Sequence[str]] = None,
) -> List[Tuple[str, List[str]]]:
    """Re-run every saved case; return ``(path, failures)`` per failure.

    Replays all three flavors — batch ``case_*.json`` through
    :func:`run_differential`, streaming ``stream_*.json`` through
    :func:`run_stream_differential`, and daemon sessions
    ``serve_*.json`` against a fresh in-process daemon.  An empty list
    means the whole corpus passes — every bug the fuzzer ever shrank
    stays fixed.
    """
    failing: List[Tuple[str, List[str]]] = []
    if not os.path.isdir(corpus_dir):
        return failing
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        if name.startswith("case_"):
            case, __ = load_corpus_case(path)
            failures = run_differential(case, backends=backends)
        elif name.startswith("stream_"):
            stream_case, __ = load_stream_case(path)
            failures = run_stream_differential(
                stream_case, backends=stream_backends
            )
        elif name.startswith("serve_"):
            serve_case, __ = load_serve_case(path)
            failures = _replay_serve_case(serve_case)
        else:
            continue
        if failures:
            failing.append((path, failures))
    return failing


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz_run`."""

    seed: int
    iterations: int = 0
    #: ``(iteration, generator, case, failure messages, corpus path)``.
    failures: List[
        Tuple[int, str, DifferentialCase, List[str], Optional[str]]
    ] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_run(
    seed: int = 0,
    iterations: int = 200,
    budget: Optional[float] = None,
    max_records: int = 28,
    backends: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    max_failures: int = 5,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Differentially fuzz every backend; shrink and save what fails.

    Deterministic in *seed*.  Stops after *iterations* cases, after
    *budget* seconds (whichever first), or once *max_failures* distinct
    failures were shrunk (shrinking is the expensive part; a fundamental
    breakage would otherwise spend the whole budget re-finding itself).
    Failures are shrunk via :func:`shrink_case` and, when *corpus_dir* is
    given, saved via :func:`save_corpus_case`.
    """
    rng = random.Random(seed)
    names = sorted(GENERATORS)
    started = time.monotonic()
    report = FuzzReport(seed=seed)

    for iteration in range(iterations):
        if budget is not None and time.monotonic() - started >= budget:
            break
        if len(report.failures) >= max_failures:
            break
        generator = names[iteration % len(names)]
        token_lists = GENERATORS[generator](rng, max_records)
        case = DifferentialCase.make(
            token_lists,
            k=rng.randint(1, 10),
            similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
        )
        metamorphic = iteration % _METAMORPHIC_EVERY == 0
        metamorphic_seed = rng.randrange(2 ** 31)

        failures = _case_failures(case, backends, metamorphic, metamorphic_seed)
        report.iterations += 1
        if on_progress is not None:
            on_progress(iteration + 1, len(report.failures))
        if not failures:
            continue

        shrunk = shrink_case(
            case,
            lambda candidate: _case_failures(
                candidate, backends, metamorphic, metamorphic_seed
            ),
        )
        final_failures = _case_failures(
            shrunk, backends, metamorphic, metamorphic_seed
        ) or failures
        path = None
        if corpus_dir is not None:
            path = save_corpus_case(
                corpus_dir,
                shrunk,
                final_failures,
                seed=seed,
                generator=generator,
                description="fuzz seed=%d iteration=%d" % (seed, iteration),
            )
        report.failures.append(
            (iteration, generator, shrunk, final_failures, path)
        )

    report.elapsed = time.monotonic() - started
    return report


@dataclass
class StreamFuzzReport:
    """Outcome of one :func:`fuzz_stream_run`."""

    seed: int
    iterations: int = 0
    #: ``(iteration, generator, case, failure messages, corpus path)``.
    failures: List[
        Tuple[int, str, StreamCase, List[str], Optional[str]]
    ] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_stream_run(
    seed: int = 0,
    iterations: int = 200,
    budget: Optional[float] = None,
    backends: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    max_failures: int = 5,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> StreamFuzzReport:
    """Differentially fuzz the streaming engine; shrink and save failures.

    The streaming twin of :func:`fuzz_run`: each iteration generates one
    adversarial event trace, runs it through every streaming backend
    (checked against the brute-force window oracle after *every* event,
    invariants armed) and, every :data:`_METAMORPHIC_EVERY`-th
    iteration, through the streaming metamorphic relations.  Failing
    traces are shrunk via :func:`shrink_stream_case` and, when
    *corpus_dir* is given, saved via :func:`save_stream_case`.
    Deterministic in *seed*; stops at *iterations*, *budget* seconds, or
    *max_failures* shrunk failures — whichever first.
    """
    rng = random.Random(seed)
    names = sorted(STREAM_GENERATORS)
    started = time.monotonic()
    report = StreamFuzzReport(seed=seed)

    for iteration in range(iterations):
        if budget is not None and time.monotonic() - started >= budget:
            break
        if len(report.failures) >= max_failures:
            break
        generator = names[iteration % len(names)]
        case = STREAM_GENERATORS[generator](rng)
        metamorphic = iteration % _METAMORPHIC_EVERY == 0

        failures = _stream_case_failures(case, backends, metamorphic)
        report.iterations += 1
        if on_progress is not None:
            on_progress(iteration + 1, len(report.failures))
        if not failures:
            continue

        shrunk = shrink_stream_case(
            case,
            lambda candidate: _stream_case_failures(
                candidate, backends, metamorphic
            ),
        )
        final_failures = _stream_case_failures(
            shrunk, backends, metamorphic
        ) or failures
        path = None
        if corpus_dir is not None:
            path = save_stream_case(
                corpus_dir,
                shrunk,
                final_failures,
                seed=seed,
                generator=generator,
                description="stream fuzz seed=%d iteration=%d"
                % (seed, iteration),
            )
        report.failures.append(
            (iteration, generator, shrunk, final_failures, path)
        )

    report.elapsed = time.monotonic() - started
    return report


@dataclass
class ServeFuzzReport:
    """Outcome of one :func:`fuzz_serve_run`."""

    seed: int
    iterations: int = 0
    #: ``(iteration, generator, case, failure messages, corpus path)``.
    failures: List[
        Tuple[int, str, ServeCase, List[str], Optional[str]]
    ] = field(default_factory=list)
    elapsed: float = 0.0
    #: ``False`` when loopback sockets are unusable and nothing ran.
    sockets: bool = True

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_serve_run(
    seed: int = 0,
    iterations: int = 200,
    budget: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    max_failures: int = 5,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> ServeFuzzReport:
    """Throw adversarial byte sessions at a live daemon; it must survive.

    The service twin of :func:`fuzz_run`.  One hardened in-process
    daemon (tight frame/queue caps, remote shutdown refused) serves the
    whole campaign; each iteration generates one adversarial session,
    runs it over a real socket and then checks three survival
    invariants — parseable replies, no swallowed unhandled exceptions,
    and a fresh ``ping`` still answered.  A failing session is shrunk
    against *fresh* daemons (so shrinking cannot be confused by state
    the failing session left behind) and saved to *corpus_dir* as
    ``serve_*.json``.  After a failure the campaign daemon is replaced,
    isolating iterations from each other.  Deterministic in *seed*;
    stops at *iterations*, *budget* seconds, or *max_failures* shrunk
    failures — whichever first.  Where loopback sockets are unusable the
    report returns immediately with ``sockets=False``.
    """
    from .differential import sockets_usable

    report = ServeFuzzReport(seed=seed)
    if not sockets_usable():
        report.sockets = False
        return report

    rng = random.Random(seed)
    names = sorted(SERVE_GENERATORS)
    started = time.monotonic()
    daemon = _make_fuzz_daemon()
    host, port = daemon.start()
    try:
        for iteration in range(iterations):
            if budget is not None and time.monotonic() - started >= budget:
                break
            if len(report.failures) >= max_failures:
                break
            generator = names[iteration % len(names)]
            case = SERVE_GENERATORS[generator](rng)

            failures = _serve_case_failures(host, port, case, daemon)
            report.iterations += 1
            if on_progress is not None:
                on_progress(iteration + 1, len(report.failures))
            if not failures:
                continue

            shrunk = shrink_serve_case(case, _replay_serve_case)
            final_failures = _replay_serve_case(shrunk) or failures
            path = None
            if corpus_dir is not None:
                path = save_serve_case(
                    corpus_dir,
                    shrunk,
                    final_failures,
                    seed=seed,
                    generator=generator,
                    description="serve fuzz seed=%d iteration=%d"
                    % (seed, iteration),
                )
            report.failures.append(
                (iteration, generator, shrunk, final_failures, path)
            )
            # The failing session may have wedged the campaign daemon;
            # replace it so later iterations start clean.
            try:
                daemon.stop()
            except RuntimeError:
                pass  # already recorded as a failure above
            daemon = _make_fuzz_daemon()
            host, port = daemon.start()
    finally:
        try:
            daemon.stop()
        except RuntimeError:
            pass  # the death is the recorded finding, not a new one

    report.elapsed = time.monotonic() - started
    return report
