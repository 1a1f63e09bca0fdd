"""Adversarial fuzzing with failure shrinking and a replayable corpus.

One campaign, three flavors.  :func:`fuzz_run` draws seeded adversarial
cases and checks each; a failing case is *shrunk* by delta debugging to
a locally minimal reproducing case and saved as JSON under
``tests/corpus/``, which replays in CI forever after
(:func:`replay_corpus`), so a fixed bug stays fixed.

* :data:`BATCH` — collections that stress the join's weak spots, run
  through every backend vs the brute-force oracle (``case_*.json``);
* :data:`STREAM` — insert/expire/advance traces, checked against the
  window oracle after *every* event (``stream_*.json``);
* :data:`SERVE` — adversarial byte sessions against a live daemon,
  which must survive: replies parse, a fresh ``ping`` is answered, no
  unhandled exception was swallowed (``serve_*.json``).

A :class:`Flavor` holds what differs between them; the seeded loop, the
shrink driver, save/load and replay are shared.  Everything is seeded:
``fuzz_run(seed=0, iterations=200)`` explores the same 200 cases on
every machine.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.topk_join import TopkOptions, topk_join
from ..data.records import RecordCollection
from ..result import JoinResult
from ..similarity.functions import SimilarityFunction
from ..stream.events import (
    INSERT,
    StreamEvent,
    events_from_lists,
    events_to_lists,
)
from .differential import (
    DifferentialCase,
    StreamCase,
    run_differential,
    run_stream_differential,
    sockets_usable,
)
from .metamorphic import metamorphic_failures, stream_metamorphic_failures

__all__ = [
    "BATCH",
    "CASE_SCHEMA",
    "FLAVORS",
    "SERVE",
    "STREAM",
    "Flavor",
    "FuzzReport",
    "ServeCase",
    "campaign_cases",
    "corpus_file_name",
    "fuzz_run",
    "load_corpus_case",
    "replay_corpus",
    "save_corpus_case",
    "shrink_case",
]

#: Version stamp of the corpus JSON layout (every flavor is at 1).
CASE_SCHEMA = 1

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
# Serve sessions: drive the daemon over a raw socket
# ----------------------------------------------------------------------


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


class _FuzzDaemon:
    """A hardened, tightly limited daemon for adversarial sessions.

    A serve campaign shares one between iterations; shrinking and replay
    start a fresh one per case.  Small caps make the interesting edges
    cheap to reach (a 4 KiB frame cap instead of 1 MiB, a 32-deep queue)
    and short timeouts keep stalling sessions from dominating the
    budget.  Remote shutdown is refused so a fuzz case that happens to
    spell ``shutdown`` correctly exercises the ``forbidden`` path
    instead of killing the daemon mid campaign.
    """

    def __init__(self) -> None:
        from ..serve import InProcessDaemon, ServeOptions
        from ..stream.engine import StreamingTopkEngine

        def engine() -> StreamingTopkEngine:
            return StreamingTopkEngine(3, options=TopkOptions(window_size=8))

        self.daemon = InProcessDaemon(
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
        self.host, self.port = self.daemon.start()

    def check(self, case: ServeCase) -> List[str]:
        """Failures of one session: replies, swallowed crashes, liveness."""
        from ..serve import ServeClient

        failures = _run_serve_session(self.host, self.port, case)
        server = self.daemon.server
        if server is not None:
            failures.extend(
                "serve: unhandled exception: %s" % message
                for message in server.drain_unhandled()
            )
        try:
            with ServeClient(self.host, self.port, timeout=10.0) as probe:
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

    def close(self) -> List[str]:
        """Stop the daemon; failing to stop is a finding."""
        try:
            self.daemon.stop()
        except RuntimeError as error:
            return ["serve: %s" % error]
        return []


def _replay_serve_case(
    case: ServeCase, backends: Optional[Sequence[str]] = None
) -> List[str]:
    """One session against a fresh daemon, so state a failing session
    left behind cannot confuse shrinking or replay; *backends* do not
    apply to a daemon session."""
    del backends
    try:
        daemon = _FuzzDaemon()
        failures = daemon.check(case)
    except RuntimeError as error:
        return ["serve: %s" % error]
    return failures + daemon.close()


# ----------------------------------------------------------------------
# Batch metamorphic relations
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


def _batch_relations(case: DifferentialCase, rng_seed: int) -> List[str]:
    """The metamorphic relations over the invariant-checked join."""
    return metamorphic_failures(
        _sequential_backend,
        [list(tokens) for tokens in case.records],
        case.k,
        case.similarity,
        random.Random(rng_seed),
    )


# ----------------------------------------------------------------------
# The shrink driver
# ----------------------------------------------------------------------

#: One shrink pass: ``(case, still_fails) -> smaller case``.
ShrinkPass = Callable[[Any, Callable[[Any], bool]], Any]


def _drop_runs(name: str) -> ShrinkPass:
    """ddmin over the sequence field *name*: drop ever-smaller contiguous
    runs (halves, quarters, …, single elements) while the case fails."""

    def run(current: Any, still_fails: Callable[[Any], bool]) -> Any:
        items = getattr(current, name)
        chunk = max(1, len(items) // 2)
        while chunk >= 1:
            start = 0
            progressed = False
            while start < len(items) and len(items) > 1:
                remaining = items[:start] + items[start + chunk:]
                candidate = replace(current, **{name: remaining})
                if remaining and still_fails(candidate):
                    current, items = candidate, remaining
                    progressed = True
                else:
                    start += chunk
            chunk = chunk // 2 if chunk > 1 and not progressed else chunk - 1
        return current

    return run


def _shrink_each(
    name: str, smaller: Callable[[Any, int], Any]
) -> ShrinkPass:
    """Shrink single elements of the sequence field *name* in place.

    ``smaller(element, position)`` is an element's *position*-th smaller
    variant, or ``None`` past the last; a variant that still fails
    replaces the element.  Repeats until a sweep changes nothing.
    """

    def run(current: Any, still_fails: Callable[[Any], bool]) -> Any:
        changed = True
        while changed:
            changed = False
            for index in range(len(getattr(current, name))):
                position = 0
                while True:
                    items = getattr(current, name)
                    variant = smaller(items[index], position)
                    if variant is None:
                        break
                    shrunk = items[:index] + (variant,) + items[index + 1:]
                    candidate = replace(current, **{name: shrunk})
                    if still_fails(candidate):
                        current = candidate
                        changed = True
                    else:
                        position += 1
        return current

    return run


def _simplify(step: Callable[[Any], Any], repeat: bool = True) -> ShrinkPass:
    """Replace the case by ``step(case)`` while that is not ``None`` and
    still fails — once only unless *repeat*."""

    def run(current: Any, still_fails: Callable[[Any], bool]) -> Any:
        candidate = step(current)
        while candidate is not None and still_fails(candidate):
            current = candidate
            candidate = step(current) if repeat else None
        return current

    return run


def _decrement(name: str, floor: int) -> Callable[[Any], Any]:
    """The step lowering the integer field *name* by one, down to *floor*."""
    return lambda case: (
        replace(case, **{name: getattr(case, name) - 1})
        if getattr(case, name) > floor
        else None
    )


def _drop_token(tokens: Tuple[int, ...], position: int) -> Any:
    if position >= len(tokens):
        return None
    return tokens[:position] + tokens[position + 1:]


def _drop_insert_token(event: StreamEvent, position: int) -> Any:
    if event.kind != INSERT or position >= len(event.tokens):
        return None
    return StreamEvent.insert(
        event.tokens[:position] + event.tokens[position + 1:]
    )


def _halve(data: bytes, position: int) -> Any:
    return data[: len(data) // 2] if data and position == 0 else None


def _renumber(case: DifferentialCase) -> DifferentialCase:
    """Compress the token universe to consecutive integers."""
    universe = sorted({t for tokens in case.records for t in tokens})
    mapping = {token: rank for rank, token in enumerate(universe)}
    return replace(
        case,
        records=tuple(
            tuple(mapping[t] for t in tokens) for tokens in case.records
        ),
    )


def _polite_eof(case: ServeCase) -> Optional[ServeCase]:
    """A polite EOF is easier to reason about than an abort."""
    return replace(case, abort=False) if case.abort else None


def shrink_case(case: Any, failing: Callable[[Any], List[str]]) -> Any:
    """Delta-debug *case* to a locally minimal still-failing input.

    Runs the case's flavor's :attr:`Flavor.passes` in order — ddmin
    chunk removal over the records / events / chunks, then shrinking
    single elements (drop a token, halve a chunk), then the one-shot
    and field-decrement passes.  Each accepted candidate must still make
    *failing* return a non-empty list (a crash counts as failing).  The
    result is 1-minimal with respect to these operations, not globally
    minimal — good enough to read.
    """

    def still_fails(candidate: Any) -> bool:
        try:
            return bool(failing(candidate))
        except Exception:  # noqa: BLE001 — a shrunk crash still reproduces
            return True

    for shrink in _flavor_of(case).passes:
        case = shrink(case, still_fails)
    return case


# ----------------------------------------------------------------------
# The flavors
# ----------------------------------------------------------------------


def _draw_batch(
    rng: random.Random, generate: Callable[..., Any], max_records: int
) -> Tuple[DifferentialCase, int]:
    case = DifferentialCase.make(
        generate(rng, max_records),
        k=rng.randint(1, 10),
        similarity=_SIMILARITIES[rng.randrange(len(_SIMILARITIES))],
    )
    return case, rng.randrange(2 ** 31)


def _draw_case(
    rng: random.Random, generate: Callable[..., Any], max_records: int
) -> Tuple[Any, int]:
    del max_records  # stream traces and serve sessions size themselves
    return generate(rng), 0


@dataclass(frozen=True)
class Flavor:
    """Everything the shared campaign needs to know about one kind of case."""

    #: ``batch``, ``stream`` or ``serve``.
    name: str
    #: Leads saved case descriptions and the CLI summary line.
    title: str
    #: Corpus file prefix; load and replay dispatch on it.
    prefix: str
    case_type: type
    generators: Mapping[str, Callable[..., Any]]
    #: Ordered ``(field, value)`` pairs: the content digest hashes the
    #: values in order, the corpus document stores the pairs.
    encode: Callable[[Any], List[Tuple[str, Any]]]
    decode: Callable[[Dict[str, Any]], Any]
    #: ``(case, backends) -> failures``: the differential sweep (for
    #: serve, one session against a fresh daemon).
    sweep: Callable[[Any, Optional[Sequence[str]]], List[str]]
    passes: Tuple[ShrinkPass, ...]
    #: One line naming the case, for the CLI's ``FAIL`` report.
    describe: Callable[[Any], str]
    #: ``(case, rng_seed) -> failures`` of the metamorphic relations.
    relations: Optional[Callable[[Any, int], List[str]]] = None
    #: The stateful checker a campaign shares between iterations and
    #: reopens after each failure; ``None`` checks with :attr:`failures`.
    campaign: Optional[Callable[[], _FuzzDaemon]] = None
    #: Whether the checks need loopback sockets.
    needs_sockets: bool = False
    #: Version stamp of this flavor's corpus JSON layout.
    schema: int = CASE_SCHEMA
    #: ``(rng, generator, max_records) -> (case, metamorphic seed)``.
    draw: Callable[
        [random.Random, Callable[..., Any], int], Tuple[Any, int]
    ] = _draw_case

    def failures(
        self,
        case: Any,
        backends: Optional[Sequence[str]] = None,
        metamorphic: bool = False,
        rng_seed: int = 0,
    ) -> List[str]:
        """Check *case* from scratch (shrinking uses this): the sweep
        plus, when *metamorphic*, the relations.  A crash while
        checking the relations is a finding too."""
        failures = self.sweep(case, backends)
        if metamorphic and self.relations is not None:
            try:
                failures.extend(
                    "metamorphic: %s" % message
                    for message in self.relations(case, rng_seed)
                )
            except Exception as crash:  # noqa: BLE001 — crashes are findings
                failures.append(
                    "metamorphic: crashed with %s: %s"
                    % (type(crash).__name__, crash)
                )
        return failures


BATCH = Flavor(
    name="batch",
    title="fuzz",
    prefix="case_",
    case_type=DifferentialCase,
    generators=GENERATORS,
    draw=_draw_batch,
    encode=lambda case: [
        ("records", [list(tokens) for tokens in case.records]),
        ("k", case.k),
        ("similarity", case.similarity),
    ],
    decode=lambda document: DifferentialCase.make(
        document["records"], document["k"], document["similarity"]
    ),
    sweep=run_differential,
    relations=_batch_relations,
    passes=(
        _drop_runs("records"),
        _shrink_each("records", _drop_token),
        _simplify(_renumber, repeat=False),
        _simplify(_decrement("k", 1)),
    ),
    describe=lambda case: "k=%d similarity=%s records=%r"
    % (case.k, case.similarity, case.records),
)

STREAM = Flavor(
    name="stream",
    title="stream fuzz",
    prefix="stream_",
    case_type=StreamCase,
    generators=STREAM_GENERATORS,
    encode=lambda case: [
        ("events", events_to_lists(case.events)),
        ("k", case.k),
        ("window", case.window),
        ("policy", case.policy),
        ("similarity", case.similarity),
    ],
    decode=lambda document: StreamCase.make(
        events_from_lists(document["events"]),
        document["k"],
        window=document.get("window", 0),
        policy=document.get("policy", "count"),
        similarity=document.get("similarity", "jaccard"),
    ),
    sweep=run_stream_differential,
    relations=lambda case, rng_seed: stream_metamorphic_failures(case),
    passes=(
        _drop_runs("events"),
        _shrink_each("events", _drop_insert_token),
        # 0 = unbounded changes semantics, but the still-fails gate
        # keeps only candidates that reproduce.
        _simplify(_decrement("window", 0)),
        _simplify(_decrement("k", 1)),
    ),
    describe=lambda case: "k=%d window=%d policy=%s similarity=%s events=%r"
    % (case.k, case.window, case.policy, case.similarity,
       events_to_lists(case.events)),
)

SERVE = Flavor(
    name="serve",
    title="serve fuzz",
    prefix="serve_",
    case_type=ServeCase,
    generators=SERVE_GENERATORS,
    encode=lambda case: [
        # latin-1 is JSON-safe and round-trips every byte.
        ("chunks", [chunk.decode("latin-1") for chunk in case.chunks]),
        ("abort", case.abort),
    ],
    decode=lambda document: ServeCase.make(
        [chunk.encode("latin-1") for chunk in document["chunks"]],
        abort=document.get("abort", False),
    ),
    sweep=_replay_serve_case,
    passes=(
        _drop_runs("chunks"),
        _shrink_each("chunks", _halve),
        _simplify(_polite_eof),
    ),
    describe=lambda case: "chunks=%d abort=%s"
    % (len(case.chunks), case.abort),
    campaign=_FuzzDaemon,
    needs_sockets=True,
)

FLAVORS: Tuple[Flavor, ...] = (BATCH, STREAM, SERVE)


def _flavor_of(case: Any) -> Flavor:
    for flavor in FLAVORS:
        if isinstance(case, flavor.case_type):
            return flavor
    raise TypeError("not a fuzz case: %r" % (case,))


def _flavor_of_file(path: str) -> Optional[Flavor]:
    name = os.path.basename(path)
    for flavor in FLAVORS:
        if name.startswith(flavor.prefix) and name.endswith(".json"):
            return flavor
    return None


# ----------------------------------------------------------------------
# Corpus persistence
# ----------------------------------------------------------------------


def corpus_file_name(case: Any) -> str:
    """``<prefix><digest>.json``: the corpus file name of *case*.

    The digest hashes the flavor's encoded field values, so equal cases
    share one name whatever their failure messages or provenance.
    """
    flavor = _flavor_of(case)
    payload = json.dumps(
        [value for __, value in flavor.encode(case)], separators=(",", ":")
    )
    digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]
    return "%s%s.json" % (flavor.prefix, digest)


def save_corpus_case(
    corpus_dir: str,
    case: Any,
    failures: Sequence[str],
    seed: Optional[int] = None,
    generator: Optional[str] = None,
    description: str = "",
) -> str:
    """Write *case* as ``<prefix><digest>.json`` under *corpus_dir*.

    Saving the same case twice writes the same file (see
    :func:`corpus_file_name`).
    """
    flavor = _flavor_of(case)
    encoded = flavor.encode(case)
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, corpus_file_name(case))
    document = dict(
        encoded,
        schema=flavor.schema,
        description=description,
        seed=seed,
        generator=generator,
        failures=list(failures),
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus_case(path: str) -> Tuple[Any, Dict[str, Any]]:
    """Read one corpus file; returns the case and the raw document.

    The file name's prefix (``case_``, ``stream_``, ``serve_``) picks
    the flavor.
    """
    flavor = _flavor_of_file(path)
    if flavor is None:
        raise ValueError("%s: not a corpus case file name" % path)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != flavor.schema:
        raise ValueError(
            "%s: unsupported %s corpus schema %r"
            % (path, flavor.name, document.get("schema"))
        )
    return flavor.decode(document), document


def replay_corpus(
    corpus_dir: str,
    backends: Optional[Sequence[str]] = None,
    stream_backends: Optional[Sequence[str]] = None,
) -> List[Tuple[str, List[str]]]:
    """Re-run every saved case; return ``(path, failures)`` per failure.

    Dispatches on the file prefix: batch ``case_*.json`` through
    :func:`run_differential` (restricted to *backends*), streaming
    ``stream_*.json`` through :func:`run_stream_differential`
    (restricted to *stream_backends*), and daemon sessions
    ``serve_*.json`` against a fresh in-process daemon — skipped, not
    passed, where loopback sockets are unusable.  An empty list means
    every case that ran passes: every bug the fuzzer ever shrank stays
    fixed.
    """
    failing: List[Tuple[str, List[str]]] = []
    if not os.path.isdir(corpus_dir):
        return failing
    chosen = {BATCH.name: backends, STREAM.name: stream_backends}
    for name in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, name)
        flavor = _flavor_of_file(path)
        if flavor is None or (flavor.needs_sockets and not sockets_usable()):
            continue
        case, __ = load_corpus_case(path)
        failures = flavor.sweep(case, chosen.get(flavor.name))
        if failures:
            failing.append((path, failures))
    return failing


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz_run`."""

    seed: int
    iterations: int = 0
    #: ``(iteration, generator, case, failure messages, corpus path)``.
    failures: List[Tuple[int, str, Any, List[str], Optional[str]]] = field(
        default_factory=list
    )
    elapsed: float = 0.0
    #: ``False`` when the flavor needs loopback sockets, they are
    #: unusable here, and nothing ran.
    sockets: bool = True

    @property
    def ok(self) -> bool:
        return not self.failures


def campaign_cases(
    flavor: Flavor, seed: int, max_records: int = 28
) -> Iterator[Tuple[str, Any, int]]:
    """The endless seeded ``(generator, case, metamorphic seed)`` sequence
    a campaign checks, cycling through the generators in name order."""
    rng = random.Random(seed)
    for generator in itertools.cycle(sorted(flavor.generators)):
        case, metamorphic_seed = flavor.draw(
            rng, flavor.generators[generator], max_records
        )
        yield generator, case, metamorphic_seed


def fuzz_run(
    flavor: Flavor = BATCH,
    seed: int = 0,
    iterations: int = 200,
    budget: Optional[float] = None,
    max_records: int = 28,
    backends: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    max_failures: int = 5,
) -> FuzzReport:
    """Fuzz one flavor; shrink and save what fails.

    Deterministic in *seed*: the cases are :func:`campaign_cases`, and
    every :data:`_METAMORPHIC_EVERY`-th one also runs the metamorphic
    relations.  Stops after *iterations* cases, after *budget* seconds,
    or once *max_failures* distinct failures were shrunk (shrinking is
    the expensive part; a fundamental breakage would otherwise spend the
    whole budget re-finding itself).  Failures are shrunk via
    :func:`shrink_case` and, given *corpus_dir*, saved there; one that
    shrinks to a case (a :func:`corpus_file_name`) already shrunk this
    run is the same failure found again, and is neither reported nor
    counted.  A serve campaign shares one daemon between iterations and
    replaces it after each failure; without loopback sockets it returns
    ``sockets=False`` at once.
    """
    if flavor.needs_sockets and not sockets_usable():
        return FuzzReport(seed=seed, sockets=False)

    report = FuzzReport(seed=seed)
    cases = campaign_cases(flavor, seed, max_records)
    shrunk_names: Set[str] = set()
    started = time.monotonic()
    live = flavor.campaign() if flavor.campaign is not None else None
    try:
        for iteration in range(iterations):
            if len(report.failures) >= max_failures or (
                budget is not None and time.monotonic() - started >= budget
            ):
                break
            generator, case, metamorphic_seed = next(cases)
            check = partial(
                flavor.failures,
                backends=backends,
                metamorphic=iteration % _METAMORPHIC_EVERY == 0,
                rng_seed=metamorphic_seed,
            )
            failures = live.check(case) if live is not None else check(case)
            report.iterations += 1
            if not failures:
                continue

            if live is not None:
                # The failing session may have wedged the campaign
                # daemon; replace it so later iterations start clean.
                live.close()
                live = flavor.campaign()
            shrunk = shrink_case(case, check)
            name = corpus_file_name(shrunk)
            if name in shrunk_names:
                # One bug found twice: report and count it once.
                continue
            shrunk_names.add(name)
            final_failures = check(shrunk) or failures
            path = None
            if corpus_dir is not None:
                path = save_corpus_case(
                    corpus_dir,
                    shrunk,
                    final_failures,
                    seed=seed,
                    generator=generator,
                    description="%s seed=%d iteration=%d"
                    % (flavor.title, seed, iteration),
                )
            report.failures.append(
                (iteration, generator, shrunk, final_failures, path)
            )
    finally:
        if live is not None:
            live.close()

    report.elapsed = time.monotonic() - started
    return report
