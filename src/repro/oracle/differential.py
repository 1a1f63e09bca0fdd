"""Differential testing: every backend against the brute-force oracle.

One adversarial input, one exhaustive reference answer, every production
backend checked against it under the appropriate equivalence relation:

================  =====================================================
backend           relation to :func:`repro.oracle.reference.naive_topk`
================  =====================================================
``sequential``    tie-equivalent (default options, invariants on)
``record-all``    tie-equivalent (``verification_mode="all"``, no event
                  compression — the paper's Fig. 3 ablation)
``ablated``       tie-equivalent (every optimisation off, verification
                  dedup off, no seeding — the plainest event loop)
``accel-off``     tie-equivalent (``accel="off"`` — the historical
                  scan loop, no bitmap prefilter)
``accel-python``  tie-equivalent (``accel="python"`` — flat-column
                  loop + bitmap prefilter, no NumPy)
``accel-numpy``   tie-equivalent (``accel="numpy"`` — vectorized prefilter
                  over whole prefix events; registered only when NumPy
                  is importable)
``accel-nobatch`` tie-equivalent (``batch_verify=False`` — the
                  first-generation per-survivor verification tail
                  behind the vectorized prefilter)
``sig-64``        tie-equivalent (``sig_bits=64`` — narrowest signature)
``sig-256``       tie-equivalent (``sig_bits=256``)
``sig-512``       tie-equivalent (``sig_bits=512`` — widest signature)
``rs``            tie-equivalent on the *cross* pair space (records
                  split alternately into R and S)
                  (these five run ``accel="numpy"`` when NumPy is
                  importable, so fuzz-sized cases reach the batched
                  kernel; ``accel="on"`` otherwise)
``rs-accel-off``  the same, with acceleration disabled
``weighted``      same similarity multiset under uniform weights
                  (weighted Jaccard/cosine degenerate to the unweighted
                  functions; record-id spaces differ, so pairs are not
                  compared)
``pptopk``        its answer is a prefix of the oracle multiset, and
                  every oracle pair it misses lies below the threshold
                  schedule's floor (the baseline cannot enumerate pairs
                  below its last threshold)
``trace-on``      **byte-identical** — installing a tracer must be a
                  pure observation: the exact ordered ``(x, y, sim)``
                  row list of the sequential, accel-off and accel-numpy
                  (when importable) backends must not change when
                  ``TopkOptions.trace`` is set, the tracer must actually
                  record spans (no silent no-op), and each traced
                  answer must be tie-equivalent to the oracle
================  =====================================================

All invariant-capable backends run with ``check_invariants=True``, so a
differential sweep is simultaneously a runtime-invariant sweep; an
:class:`~repro.oracle.invariants.InvariantViolation` is reported as a
failure naming the violated invariant rather than crashing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..accel.kernel import numpy_available
from ..core.pptopk import _MIN_THRESHOLD, pptopk_join
from ..core.rs_join import TaggedCollection, topk_join_rs
from ..core.topk_join import TopkOptions, topk_join
from ..data.records import RecordCollection
from ..obs.tracer import Tracer
from ..result import JoinResult
from ..similarity.functions import SimilarityFunction, similarity_by_name
from ..weighted.functions import WeightedCosine, WeightedJaccard
from ..weighted.join import weighted_topk_join
from ..weighted.records import WeightedCollection
from ..stream.engine import StreamingTopkEngine
from ..stream.events import ADVANCE, EXPIRE, INSERT, StreamEvent
from .invariants import InvariantViolation
from .reference import (
    assert_topk_equivalent,
    naive_topk,
    naive_window_topk,
    topk_multiset,
)

__all__ = [
    "DifferentialCase",
    "StreamCase",
    "available_backends",
    "available_stream_backends",
    "run_differential",
    "run_stream_differential",
    "sockets_usable",
]

#: Uniform-weight twins of the unweighted similarity functions.
_WEIGHTED_TWINS = {"jaccard": WeightedJaccard, "cosine": WeightedCosine}

#: The pptopk baseline only has threshold schedules for these functions.
_PPTOPK_SIMS = ("jaccard", "cosine")


@dataclass(frozen=True)
class DifferentialCase:
    """One fuzz input: raw integer token lists plus join parameters."""

    records: Tuple[Tuple[int, ...], ...]
    k: int
    similarity: str = "jaccard"

    @classmethod
    def make(
        cls,
        records: Sequence[Sequence[int]],
        k: int,
        similarity: str = "jaccard",
    ) -> "DifferentialCase":
        return cls(
            tuple(tuple(tokens) for tokens in records), k, similarity
        )

    def collection(self) -> RecordCollection:
        """The canonical collection (duplicates kept — they are the point)."""
        return RecordCollection.from_integer_sets(self.records, dedupe=False)


BackendFn = Callable[
    [DifferentialCase, RecordCollection, List[JoinResult], SimilarityFunction],
    Optional[str],
]


def _rows(results: List[JoinResult]) -> List[Tuple[int, int, float]]:
    """The exact ordered row list — the byte-identity comparison key."""
    return [(r.x, r.y, r.similarity) for r in results]


def _equivalence_backend(options: TopkOptions) -> BackendFn:
    def run(
        case: DifferentialCase,
        collection: RecordCollection,
        expected: List[JoinResult],
        sim: SimilarityFunction,
    ) -> Optional[str]:
        actual = topk_join(collection, case.k, similarity=sim, options=options)
        assert_topk_equivalent(actual, expected)
        return None

    return run


def _rs_backend(options: TopkOptions) -> BackendFn:
    def run(
        case: DifferentialCase,
        collection: RecordCollection,
        expected: List[JoinResult],
        sim: SimilarityFunction,
    ) -> Optional[str]:
        r_side = [
            tokens for i, tokens in enumerate(case.records) if i % 2 == 0
        ]
        s_side = [
            tokens for i, tokens in enumerate(case.records) if i % 2 == 1
        ]
        tagged = TaggedCollection.from_integer_sets(r_side, s_side)
        cross_expected = naive_topk(
            tagged.collection, case.k, similarity=sim, sides=tagged.sides
        )
        actual = topk_join_rs(
            tagged, case.k, similarity=sim, options=options
        )
        assert_topk_equivalent(actual, cross_expected)
        return None

    return run


def _weighted_backend(
    case: DifferentialCase,
    collection: RecordCollection,
    expected: List[JoinResult],
    sim: SimilarityFunction,
) -> Optional[str]:
    twin = _WEIGHTED_TWINS.get(case.similarity)
    if twin is None:
        return None  # no uniform-weight twin for this function
    universe = {t for tokens in case.records for t in tokens}
    if not universe:
        if expected:
            raise AssertionError(
                "oracle found %d pairs in a token-free collection"
                % len(expected)
            )
        return None
    weighted = WeightedCollection.from_integer_sets(
        case.records, weights={token: 1.0 for token in universe}
    )
    actual = weighted_topk_join(
        weighted, case.k, similarity=twin(), check_invariants=True
    )
    if topk_multiset(actual) != topk_multiset(expected):
        raise AssertionError(
            "uniform-weight %s multiset %r != unweighted oracle %r"
            % (
                case.similarity,
                topk_multiset(actual)[:8],
                topk_multiset(expected)[:8],
            )
        )
    return None


def _pptopk_backend(
    case: DifferentialCase,
    collection: RecordCollection,
    expected: List[JoinResult],
    sim: SimilarityFunction,
) -> Optional[str]:
    if case.similarity not in _PPTOPK_SIMS:
        return None
    actual = pptopk_join(collection, case.k, similarity=sim)
    actual_multiset = topk_multiset(actual)
    expected_multiset = topk_multiset(expected)
    if actual_multiset != expected_multiset[: len(actual_multiset)]:
        raise AssertionError(
            "pptopk multiset %r is not a prefix of the oracle's %r"
            % (actual_multiset[:8], expected_multiset[:8])
        )
    missed = [r.similarity for r in expected[len(actual):]]
    if any(value >= _MIN_THRESHOLD for value in missed):
        raise AssertionError(
            "pptopk returned %d results but the oracle has reachable "
            "pairs above the schedule floor %r: %r"
            % (len(actual), _MIN_THRESHOLD, missed[:8])
        )
    return None


def _trace_on_backend(
    case: DifferentialCase,
    collection: RecordCollection,
    expected: List[JoinResult],
    sim: SimilarityFunction,
) -> Optional[str]:
    """Tracing must be a pure observation, not a third code path.

    Every backend that accepts ``TopkOptions.trace`` is run twice —
    once plain, once with a fresh tracer installed — and the exact
    *ordered* ``(x, y, similarity)`` row lists must match byte for
    byte (strictly stronger than the tie-equivalence the other
    backends use: even a tie reordering would flag).  Each traced run
    must also record at least one span, so the plumbing cannot rot
    into a silent no-op that this check would then vacuously pass, and
    must match the oracle, so the rows are never vacuously compared
    against an already-wrong twin.
    """

    configs = [
        ("sequential", TopkOptions()),
        ("accel-off", TopkOptions(accel="off")),
    ]
    if numpy_available():
        configs.append(("accel-numpy", TopkOptions(accel="numpy")))
    for label, options in configs:
        plain = topk_join(collection, case.k, similarity=sim, options=options)
        tracer = Tracer()
        traced = topk_join(
            collection, case.k, similarity=sim,
            options=replace(options, trace=tracer),
        )
        if _rows(traced) != _rows(plain):
            raise AssertionError(
                "trace-on %s output diverges from trace-off: %r != %r"
                % (label, _rows(traced)[:8], _rows(plain)[:8])
            )
        if not tracer.spans:
            raise AssertionError(
                "trace-on %s recorded no spans — tracing silently no-ops"
                % label
            )
        assert_topk_equivalent(traced, expected)
    return None


def _backend_registry() -> Dict[str, BackendFn]:
    # The kernel variants below exist to cover the NumPy kernel's tail;
    # under "on" fuzz-sized events fall below its dispatch crossover.
    kernel = "numpy" if numpy_available() else "on"
    registry = {
        "sequential": _equivalence_backend(
            TopkOptions(check_invariants=True)
        ),
        "accel-off": _equivalence_backend(
            TopkOptions(check_invariants=True, accel="off")
        ),
        "accel-python": _equivalence_backend(
            TopkOptions(check_invariants=True, accel="python")
        ),
        "accel-nobatch": _equivalence_backend(
            TopkOptions(
                check_invariants=True, accel=kernel, batch_verify=False
            )
        ),
        "sig-64": _equivalence_backend(
            TopkOptions(check_invariants=True, accel=kernel, sig_bits=64)
        ),
        "sig-256": _equivalence_backend(
            TopkOptions(check_invariants=True, accel=kernel, sig_bits=256)
        ),
        "sig-512": _equivalence_backend(
            TopkOptions(check_invariants=True, accel=kernel, sig_bits=512)
        ),
        "record-all": _equivalence_backend(
            TopkOptions(
                check_invariants=True,
                verification_mode="all",
                compress_events=False,
            )
        ),
        "ablated": _equivalence_backend(
            TopkOptions(
                check_invariants=True,
                compress_events=False,
                verification_mode="off",
                index_optimization=False,
                access_optimization=False,
                positional_filter=False,
                suffix_filter=False,
                seed_results=False,
            )
        ),
        "rs": _rs_backend(TopkOptions(check_invariants=True, accel=kernel)),
        "rs-accel-off": _rs_backend(
            TopkOptions(check_invariants=True, accel="off")
        ),
        "weighted": _weighted_backend,
        "pptopk": _pptopk_backend,
        "trace-on": _trace_on_backend,
    }
    if numpy_available():
        registry["accel-numpy"] = _equivalence_backend(
            TopkOptions(check_invariants=True, accel="numpy")
        )
    return registry


_BACKENDS = _backend_registry()


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`run_differential`'s *backends* argument."""
    return tuple(_BACKENDS)


def run_differential(
    case: DifferentialCase,
    backends: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run *case* through every backend; return failure descriptions.

    An empty list means all backends agreed with the oracle and no runtime
    invariant fired.  Unexpected exceptions (crashes on degenerate input)
    are failures too, not propagated errors — the fuzzer must survive its
    own findings to shrink them.
    """

    def prepare() -> Tuple[object, ...]:
        sim = similarity_by_name(case.similarity)
        collection = case.collection()
        expected = naive_topk(collection, case.k, similarity=sim)
        return case, collection, expected, sim

    return _sweep("backends", _BACKENDS, backends, prepare)


def _sweep(
    kind: str,
    registry: Mapping[str, Callable[..., Optional[str]]],
    backends: Optional[Sequence[str]],
    prepare: Callable[[], Tuple[object, ...]],
) -> List[str]:
    """Run the selected *registry* backends on ``prepare()``'s arguments
    (called only once the names check out) and classify what they raise:
    invariant violation, mismatch (``AssertionError``) or crash."""
    names = list(backends) if backends is not None else list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(
            "unknown %s %r (choose from %s)"
            % (kind, unknown, ", ".join(registry))
        )
    arguments = prepare()
    failures: List[str] = []
    for name in names:
        try:
            message = registry[name](*arguments)
        except InvariantViolation as violation:
            failures.append(
                "%s: runtime invariant %r: %s"
                % (name, violation.invariant, violation)
            )
        except AssertionError as mismatch:
            failures.append("%s: differential mismatch: %s" % (name, mismatch))
        except Exception as crash:  # noqa: BLE001 — crashes are findings
            failures.append(
                "%s: crashed with %s: %s" % (name, type(crash).__name__, crash)
            )
        else:
            if message:
                failures.append("%s: %s" % (name, message))
    return failures


# ----------------------------------------------------------------------
# Streaming differential: the sliding-window engine against the oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamCase:
    """One streaming fuzz input: an event trace plus engine parameters."""

    events: Tuple[StreamEvent, ...]
    k: int
    window: int = 0
    policy: str = "count"
    similarity: str = "jaccard"

    @classmethod
    def make(
        cls,
        events: Sequence[StreamEvent],
        k: int,
        window: int = 0,
        policy: str = "count",
        similarity: str = "jaccard",
    ) -> "StreamCase":
        return cls(tuple(events), k, window, policy, similarity)

    def options(self, **overrides: object) -> TopkOptions:
        base = TopkOptions(
            window_size=self.window, window_policy=self.policy
        )
        return replace(base, **overrides)  # type: ignore[arg-type]


def _window_snapshots(
    case: StreamCase,
) -> List[List[Tuple[int, Tuple[int, ...]]]]:
    """The live ``(sid, tokens)`` set after each event of *case*.

    An independent ~20-line replay of the window semantics (count
    displacement, relative advance, half-open time window, FIFO expiry)
    so a bug in :mod:`repro.stream.window` cannot cancel out of the
    comparison.
    """
    live: List[Tuple[int, float, Tuple[int, ...]]] = []
    next_sid = 0
    clock = 0.0
    snapshots: List[List[Tuple[int, Tuple[int, ...]]]] = []
    for event in case.events:
        if event.kind == "insert":
            if case.policy == "count" and case.window > 0:
                while len(live) >= case.window:
                    live.pop(0)
            canonical = tuple(sorted(set(event.tokens)))
            live.append((next_sid, clock, canonical))
            next_sid += 1
        elif event.kind == "expire":
            del live[: min(int(event.amount), len(live))]
        elif case.policy == "count":
            del live[: min(int(event.amount), len(live))]
        else:
            clock += event.amount
            if case.window > 0:
                while live and live[0][1] <= clock - case.window:
                    live.pop(0)
        snapshots.append(
            [(sid, tokens) for sid, __, tokens in live if tokens]
        )
    return snapshots


StreamBackendFn = Callable[
    [
        StreamCase,
        List[List[Tuple[int, Tuple[int, ...]]]],
        SimilarityFunction,
    ],
    Optional[str],
]


def _stream_rows(engine: StreamingTopkEngine) -> List[Tuple[int, int, float]]:
    return [(r.x, r.y, r.similarity) for r in engine.results()]


def _run_stream_engine(
    case: StreamCase,
    snapshots: List[List[Tuple[int, Tuple[int, ...]]]],
    sim: SimilarityFunction,
    mode: str,
    options: TopkOptions,
) -> StreamingTopkEngine:
    """Drive one engine through *case*, checking after **every** event.

    Three per-event checks: (1) the engine's answer is tie-equivalent to
    the brute-force oracle over the independently-replayed live window;
    (2) the emitted deltas, folded into a shadow result set, reproduce
    the engine's reported rows exactly — a lost "leave" or duplicate
    "enter" cannot hide; (3) the runtime invariants are armed, so the
    structural streaming invariants fire at the offending event.
    """
    engine = StreamingTopkEngine(
        case.k, similarity=sim, options=options, mode=mode
    )
    shadow: Dict[Tuple[int, int], float] = {}
    with engine:
        for index, event in enumerate(case.events):
            deltas = engine.apply(event)
            for delta in deltas:
                pair = (delta.x, delta.y)
                if delta.action == "leave":
                    if pair not in shadow:
                        raise AssertionError(
                            "event %d: delta says pair %r left but it was "
                            "never reported live" % (index, pair)
                        )
                    del shadow[pair]
                else:
                    if pair in shadow:
                        raise AssertionError(
                            "event %d: delta says pair %r entered twice"
                            % (index, pair)
                        )
                    shadow[pair] = delta.similarity
            rows = _stream_rows(engine)
            row_map = {(x, y): value for x, y, value in rows}
            if shadow != row_map:
                raise AssertionError(
                    "event %d: replaying the deltas gives %r but the "
                    "engine reports %r"
                    % (index, sorted(shadow.items())[:8], rows[:8])
                )
            expected = naive_window_topk(snapshots[index], case.k, sim)
            assert_topk_equivalent(
                engine.results(), expected, context="event %d" % index
            )
    return engine


def _stream_backend(mode: str, accel: str) -> StreamBackendFn:
    def run(
        case: StreamCase,
        snapshots: List[List[Tuple[int, Tuple[int, ...]]]],
        sim: SimilarityFunction,
    ) -> Optional[str]:
        options = case.options(check_invariants=True, accel=accel)
        _run_stream_engine(case, snapshots, sim, mode, options)
        return None

    return run


def _stream_trace_backend(
    case: StreamCase,
    snapshots: List[List[Tuple[int, Tuple[int, ...]]]],
    sim: SimilarityFunction,
) -> Optional[str]:
    """Tracing a stream must be a pure observation (cf. ``trace-on``).

    The engine runs twice — plain, then with a tracer installed — and
    the final row lists must be byte-identical; the traced run must
    record phase times and at least one span at close.
    """
    plain = _run_stream_engine(
        case, snapshots, sim, "incremental", case.options()
    )
    tracer = Tracer()
    traced = _run_stream_engine(
        case, snapshots, sim, "incremental", case.options(trace=tracer)
    )
    if _stream_rows(traced) != _stream_rows(plain):
        raise AssertionError(
            "stream trace-on rows diverge from trace-off: %r != %r"
            % (_stream_rows(traced)[:8], _stream_rows(plain)[:8])
        )
    if any(e.kind == "insert" for e in case.events):
        if not tracer.phase_times():
            raise AssertionError(
                "stream trace-on recorded no phase times — the ingest "
                "timers silently no-op"
            )
        if not tracer.spans:
            raise AssertionError(
                "stream trace-on recorded no spans — close() dropped "
                "the summary span"
            )
    return None


def sockets_usable() -> bool:
    """Whether loopback TCP sockets work in this environment.

    Capability-gated backends (the ``serve-daemon`` differential)
    register only where the capability actually exists, so sandboxes
    without networking skip them instead of failing them.
    """
    import socket

    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError:
        return False
    return True


def _event_request(event: StreamEvent) -> Tuple[str, Dict[str, object]]:
    """The protocol verb and payload fields of one stream event."""
    if event.kind == INSERT:
        return "insert", {"tokens": list(event.tokens)}
    if event.kind == EXPIRE:
        return "expire", {"count": int(event.amount)}
    assert event.kind == ADVANCE
    return "advance", {"amount": event.amount}


def _serve_daemon_backend(
    case: StreamCase,
    snapshots: List[List[Tuple[int, Tuple[int, ...]]]],
    sim: SimilarityFunction,
) -> Optional[str]:
    """The daemon must be a **byte-identical** network veneer.

    The case replays twice.  In process: a plain engine applies every
    event and each delta is serialized through
    :func:`repro.serve.protocol.delta_line`.  Over the wire: a real
    daemon (own thread, real sockets) receives the same events from a
    scripted client while a second client subscribes.  Three byte-level
    checks: every reply's delta list re-encodes to exactly the
    in-process lines; the final ``query`` rows equal the in-process
    rows; and the subscriber's full push stream — flushed by graceful
    shutdown and terminated by the ``shutdown`` event frame — equals
    the flattened in-process delta sequence.  ``snapshots`` is unused:
    the in-process engine *is* the reference here (the other stream
    backends already tie it to the window oracle).
    """
    del snapshots
    from ..serve import (
        InProcessDaemon,
        ServeClient,
        ServeOptions,
        delta_line,
        encode,
    )

    def fresh_engine() -> StreamingTopkEngine:
        return StreamingTopkEngine(
            case.k,
            similarity=similarity_by_name(case.similarity),
            options=case.options(),
            mode="incremental",
        )

    expected: List[List[bytes]] = []
    apply_errors: List[Optional[str]] = []
    engine = fresh_engine()
    with engine:
        for event in case.events:
            try:
                deltas = engine.apply(event)
            except ValueError as error:
                expected.append([])
                apply_errors.append(str(error))
            else:
                expected.append([delta_line(d) for d in deltas])
                apply_errors.append(None)
        final_rows = _stream_rows(engine)

    daemon = InProcessDaemon(
        fresh_engine,
        ServeOptions(
            queue_limit=max(16, len(case.events) + 1),
            read_timeout=30.0,
            idle_timeout=0.0,
        ),
    )
    host, port = daemon.start()
    subscriber: Optional[ServeClient] = None
    requester: Optional[ServeClient] = None
    try:
        subscriber = ServeClient(host, port)
        reply = subscriber.request("subscribe")
        if not reply.get("ok"):
            raise AssertionError("subscribe refused: %r" % reply)
        requester = ServeClient(host, port)
        for index, event in enumerate(case.events):
            verb, fields = _event_request(event)
            reply = requester.request(verb, **fields)
            if apply_errors[index] is not None:
                error = reply.get("error")
                if reply.get("ok") is not False or (
                    not isinstance(error, dict)
                    or error.get("code") != "bad-request"
                ):
                    raise AssertionError(
                        "event %d: engine raised %r but the daemon replied "
                        "%r" % (index, apply_errors[index], reply)
                    )
                continue
            if not reply.get("ok"):
                raise AssertionError(
                    "event %d: daemon refused a valid event: %r"
                    % (index, reply)
                )
            got = [
                encode(
                    {
                        "action": delta["action"],
                        "x": delta["x"],
                        "y": delta["y"],
                        "similarity": delta["similarity"],
                    }
                )
                for delta in reply.get("deltas", ())
            ]
            if got != expected[index]:
                raise AssertionError(
                    "event %d: daemon reply deltas diverge from the "
                    "in-process engine: %r != %r"
                    % (index, got[:4], expected[index][:4])
                )
        query = requester.request("query")
        rows = [
            (int(x), int(y), float(value))
            for x, y, value in query.get("results", ())
        ]
        if rows != final_rows:
            raise AssertionError(
                "final query rows diverge from the in-process engine: "
                "%r != %r" % (rows[:8], final_rows[:8])
            )
        requester.close()
        requester = None
        daemon.stop()  # graceful: flushes subscriber deltas, sends shutdown
        frames = subscriber.drain_until_eof()
        pushed = [
            encode(
                {
                    "action": frame["action"],
                    "x": frame["x"],
                    "y": frame["y"],
                    "similarity": frame["similarity"],
                }
            )
            for frame in frames
            if frame.get("event") == "delta"
        ]
        flattened = [line for lines in expected for line in lines]
        if pushed != flattened:
            raise AssertionError(
                "subscriber push stream diverges from the in-process "
                "delta sequence: %d pushed vs %d expected (first "
                "difference at %d)"
                % (
                    len(pushed),
                    len(flattened),
                    next(
                        (
                            i
                            for i, (a, b) in enumerate(zip(pushed, flattened))
                            if a != b
                        ),
                        min(len(pushed), len(flattened)),
                    ),
                )
            )
        if not frames or frames[-1].get("event") != "shutdown":
            raise AssertionError(
                "graceful shutdown sent no terminal shutdown event frame"
            )
        server = daemon.server
        unhandled = server.drain_unhandled() if server is not None else []
        if unhandled:
            raise AssertionError(
                "daemon swallowed unhandled exceptions: %r" % unhandled
            )
    finally:
        for client in (requester, subscriber):
            if client is not None:
                try:
                    client.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
        daemon.stop()
    return None


_STREAM_BACKENDS: Dict[str, StreamBackendFn] = {
    "stream-incremental": _stream_backend("incremental", "on"),
    "stream-incremental-accel-off": _stream_backend("incremental", "off"),
    "stream-recompute": _stream_backend("recompute", "on"),
    "stream-recompute-accel-off": _stream_backend("recompute", "off"),
    "stream-trace-on": _stream_trace_backend,
}
if sockets_usable():
    _STREAM_BACKENDS["serve-daemon"] = _serve_daemon_backend


def available_stream_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`run_stream_differential`."""
    return tuple(_STREAM_BACKENDS)


def run_stream_differential(
    case: StreamCase,
    backends: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run *case* through every streaming backend; return failure strings.

    The incremental engine, the per-event full-recompute twin, and their
    acceleration variants must all stay tie-equivalent to the
    brute-force window oracle after **every single event**, with runtime
    invariants armed.  Where loopback sockets work, ``serve-daemon``
    additionally replays the case through a real network daemon and
    requires byte-identical delta lines (see
    :func:`_serve_daemon_backend`).  Failure semantics match
    :func:`run_differential`: invariant violations, mismatches and
    crashes are collected, not propagated.
    """
    return _sweep(
        "stream backends",
        _STREAM_BACKENDS,
        backends,
        lambda: (
            case,
            _window_snapshots(case),
            similarity_by_name(case.similarity),
        ),
    )
