"""The asyncio top-k daemon: one engine, one writer task, many clients.

Concurrency model — the whole design in four sentences.  The daemon
owns exactly one mutable :class:`StreamingTopkEngine`; only the **writer
task** ever calls ``engine.apply``, so engine state needs no locks.
Session tasks parse frames and either answer read-only verbs inline
(safe: asyncio interleaves tasks only at ``await`` points, and the
read-only dispatch path contains none) or push mutating events through
the bounded :class:`IngestionGate`, where the ``reject``/``shed``
degradation policy applies when producers outrun the writer.  A reply
(the writer's ack or an inline answer) is written straight to the
socket when nothing is queued ahead of it on that connection and joins
the outbox otherwise; push notifications always go through per-session
bounded outboxes drained by sender tasks, so one slow reader never
blocks the event loop and no reply overtakes a queued push.
Graceful shutdown is drain-then-close: stop accepting, seal the queue,
let the writer finish every accepted event (whose deltas broadcast to
subscriber outboxes), send the ``shutdown`` event frame, flush every
outbox, then close the engine.

The same port speaks two dialects: newline-delimited JSON (the
protocol) and plain HTTP ``GET /metrics`` (the Prometheus scrape path),
distinguished by a connection's first frame.

Every server registers itself in a module-level live table for the
duration of ``start()``..``shutdown()``; :func:`open_servers` exposes it
so the test suite's autouse teardown can prove no daemon, session task
or listening socket outlived its test.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..accel.kernel import resolve_accel_mode
from ..core.engine import EngineStateError
from ..core.metrics import SERVE_GAUGES, ServeStats
from ..obs.exporters import Exposition
from ..obs.metrics import (
    SERVE_LATENCY,
    Histogram,
    declared_families,
    histogram_family,
)
from ..stream.engine import StreamDelta, StreamingTopkEngine
from .degradation import (
    ACCEPTED,
    REJECTED,
    SHED,
    IngestionGate,
    QueuedEvent,
    validate_gate,
)
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    delta_payload,
    encode,
    error_payload,
    http_request_path,
    http_response,
    looks_like_http,
    ok_payload,
    parse_request,
)
from .session import (
    FrameReader,
    FrameTooLarge,
    IdleTimeout,
    ReadStalled,
    Session,
    TruncatedFrame,
)

__all__ = ["ServeOptions", "TopkServer", "open_servers"]

#: Servers currently between ``start()`` and completed ``shutdown()``.
_LIVE: Dict[int, "TopkServer"] = {}


def open_servers() -> List[str]:
    """``host:port`` of every daemon not yet fully shut down.

    The autouse test fixture asserts this is empty after every test —
    a daemon that outlives its test holds a listening socket, session
    tasks and an open engine, exactly the leak class this surfaces.
    """
    return sorted("%s:%d" % server.address for server in _LIVE.values())


@dataclass(frozen=True)
class ServeOptions:
    """Daemon configuration (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (reported by ``address``).
    port: int = 0
    #: Bounded ingestion queue depth.
    queue_limit: int = 256
    #: ``"reject"`` or ``"shed"`` (see :mod:`repro.serve.degradation`).
    degradation: str = "reject"
    #: Seconds a peer may stall mid-frame before eviction (0 disables).
    read_timeout: float = 30.0
    #: Seconds an unsubscribed peer may idle between frames (0 disables).
    idle_timeout: float = 300.0
    #: Per-frame byte cap.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Per-session outbox depth (overflow evicts the subscriber).
    outbox_limit: int = 1024
    #: Artificial per-event writer delay in seconds — a test/chaos knob
    #: that makes backpressure deterministic (0 in production).
    ingest_delay: float = 0.0
    #: Whether the ``shutdown`` verb is honored (fuzz daemons refuse it).
    allow_remote_shutdown: bool = True


class TopkServer:
    """One streaming top-k daemon around one engine.

    Construct with an **unopened** engine, ``await start()``, and the
    daemon serves until ``await shutdown()`` (or the process stops it
    via SIGTERM -> ``request_shutdown``).  All methods must be called on
    the event loop that ran ``start()``.
    """

    def __init__(
        self,
        engine: StreamingTopkEngine,
        options: Optional[ServeOptions] = None,
    ) -> None:
        opts = options or ServeOptions()
        # Validate eagerly (the gate itself is built on the loop in
        # start(); a bad flag should fail before any socket binds).
        validate_gate(opts.queue_limit, opts.degradation)
        self._engine = engine
        self._options = opts
        self.stats = ServeStats()
        self._latency = Histogram(*SERVE_LATENCY)
        #: The live exposition, formatted on the first scrape.
        self._exposition: Optional[Exposition] = None
        self._gate: Optional[IngestionGate] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional["asyncio.Task[None]"] = None
        self._shutdown_task: Optional["asyncio.Task[None]"] = None
        self._session_tasks: "Set[asyncio.Task[None]]" = set()
        self._sessions: Dict[int, Session] = {}
        self._subscribers: Set[int] = set()
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._closed_event: Optional[asyncio.Event] = None
        self._next_sid = 0
        self._seq = 0
        self._closing = False
        self._unhandled: List[str] = []
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after ``start()``)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    async def start(self) -> None:
        """Open the engine, bind the socket, start the writer task."""
        if self._server is not None:
            raise RuntimeError("server already started")
        opts = self._options
        self._closed_event = asyncio.Event()
        self._gate = IngestionGate(
            opts.queue_limit, opts.degradation, self.stats
        )
        # Resolve the scan kernel now: under accel="on" that imports
        # NumPy, which would otherwise stall the first refill join.
        resolve_accel_mode(self._engine.options.accel)
        self._engine.open()
        self._unsubscribe = self._engine.subscribe(self._broadcast)
        self._server = await asyncio.start_server(
            self._on_connection, opts.host, opts.port
        )
        sockets = self._server.sockets or []
        name = sockets[0].getsockname()
        self._address = (str(name[0]), int(name[1]))
        self._writer_task = asyncio.create_task(self._writer_loop())
        _LIVE[id(self)] = self

    def request_shutdown(self) -> None:
        """Begin graceful shutdown from sync context (signal handlers)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())

    async def wait_closed(self) -> None:
        """Block until a shutdown (from any trigger) completed."""
        if self._closed_event is None:
            raise RuntimeError("server not started")
        await self._closed_event.wait()

    async def shutdown(self) -> None:
        """Drain-then-close graceful shutdown (idempotent).

        Order matters: (1) stop accepting connections; (2) seal the
        ingestion queue and let the writer apply every event already
        accepted — their deltas broadcast into subscriber outboxes;
        (3) append the ``shutdown`` event frame and close every outbox;
        (4) cancel the session read loops and wait for each sender to
        flush its backlog onto the socket; (5) close the engine and
        leave the live table.  Accepted events are therefore never
        dropped, and subscribers see every pending delta before EOF.
        """
        if self._closing:
            await self.wait_closed()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._gate is not None:
            self._gate.close()
        if self._writer_task is not None:
            await self._writer_task
        farewell = encode({"event": "shutdown", "seq": self._seq})
        for session in list(self._sessions.values()):
            if session.sid in self._subscribers:
                session.send(farewell)
            session.closing = True
            session.close_outbox()
        for task in list(self._session_tasks):
            task.cancel()
        if self._session_tasks:
            await asyncio.gather(
                *list(self._session_tasks), return_exceptions=True
            )
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._engine.close()
        _LIVE.pop(id(self), None)
        if self._closed_event is not None:
            self._closed_event.set()

    def drain_unhandled(self) -> List[str]:
        """Unexpected exceptions caught since the last drain.

        The fault-injection harness polls this after every adversarial
        session: the daemon surviving is necessary but not sufficient —
        a swallowed crash is still a finding.
        """
        found = list(self._unhandled)
        del self._unhandled[: len(found)]
        return found

    def _record_unhandled(self, where: str, crash: BaseException) -> None:
        self._unhandled.append(
            "%s: %s: %s" % (where, type(crash).__name__, crash)
        )

    # ------------------------------------------------------------------
    # The writer task — sole owner of engine mutation
    # ------------------------------------------------------------------

    async def _writer_loop(self) -> None:
        gate = self._gate
        assert gate is not None
        delay = self._options.ingest_delay
        while True:
            item = await gate.next_event()
            if item is None:
                break
            self._apply_event(item)
            if delay > 0:
                await asyncio.sleep(delay)

    def _apply_event(self, item: QueuedEvent) -> None:
        request = item.request
        session = item.session
        try:
            deltas = self._engine.apply(request.event())
        except (ValueError, EngineStateError) as error:
            self.stats.errors += 1
            if session is not None:
                session.reply(
                    encode(
                        error_payload(request.id, "bad-request", str(error))
                    )
                )
            return
        except Exception as crash:  # noqa: BLE001 — daemon must survive
            self._record_unhandled("writer", crash)
            self.stats.errors += 1
            if session is not None:
                session.reply(
                    encode(
                        error_payload(
                            request.id, "internal-error", str(crash)
                        )
                    )
                )
            return
        self._latency.observe(time.perf_counter() - item.received)
        if session is not None:
            session.reply(
                encode(
                    ok_payload(
                        request.id,
                        shed=False,
                        deltas=[delta_payload(d) for d in deltas],
                        s_k=self._engine.s_k,
                        window=self._engine.window_live,
                    )
                )
            )

    def _broadcast(self, deltas: List[StreamDelta]) -> None:
        """Engine delta hook: fan each delta out to subscriber outboxes."""
        if not self._subscribers:
            self._seq += len(deltas)
            return
        lines: List[bytes] = []
        for delta in deltas:
            self._seq += 1
            payload: Dict[str, object] = {"event": "delta", "seq": self._seq}
            payload.update(delta_payload(delta))
            lines.append(encode(payload))
        for sid in sorted(self._subscribers):
            session = self._sessions.get(sid)
            if session is None:
                self._subscribers.discard(sid)
                continue
            for line in lines:
                if session.send(line):
                    self.stats.deltas_pushed += 1
                else:
                    # The subscriber reads slower than the stream moves;
                    # evict instead of buffering without bound.
                    self._subscribers.discard(sid)
                    session.subscribed = False
                    self.stats.subscriber_evictions += 1
                    break

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._session_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown cancelled the read loop; teardown already ran
        except Exception as crash:  # noqa: BLE001 — daemon must survive
            self._record_unhandled("connection", crash)
        finally:
            if task is not None:
                self._session_tasks.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        opts = self._options
        self.stats.connections += 1
        self._next_sid += 1
        session = Session(self._next_sid, writer, opts.outbox_limit)
        frames = FrameReader(
            reader, opts.max_frame_bytes, opts.read_timeout, opts.idle_timeout
        )
        self._sessions[session.sid] = session
        sender = asyncio.create_task(session.sender_loop())
        try:
            await self._session_loop(session, frames)
        except Exception as crash:  # noqa: BLE001 — daemon must survive
            self._record_unhandled("session", crash)
        finally:
            frames.close()
            self._sessions.pop(session.sid, None)
            self._subscribers.discard(session.sid)
            session.close_outbox()
            try:
                await asyncio.wait_for(sender, timeout=2.0)
            except asyncio.TimeoutError:
                pass  # wait_for cancelled the stuck sender for us
            except Exception as crash:  # noqa: BLE001 — daemon must survive
                self._record_unhandled("sender", crash)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _session_loop(
        self, session: Session, frames: FrameReader
    ) -> None:
        while not session.closing:
            try:
                frame = await frames.next_frame(idle_exempt=session.subscribed)
            except FrameTooLarge as error:
                self.stats.requests += 1
                self.stats.oversized += 1
                self.stats.errors += 1
                session.reply(
                    encode(error_payload(None, "frame-too-large", str(error)))
                )
                return
            except ReadStalled as error:
                self.stats.read_timeouts += 1
                self.stats.errors += 1
                session.reply(
                    encode(error_payload(None, "read-timeout", str(error)))
                )
                return
            except IdleTimeout as error:
                self.stats.idle_evictions += 1
                self.stats.errors += 1
                session.reply(
                    encode(error_payload(None, "idle-timeout", str(error)))
                )
                return
            except TruncatedFrame:
                return  # the peer vanished mid-frame
            except (ConnectionError, OSError):
                return
            if frame is None:
                return  # clean EOF
            if not frame.strip():
                continue  # blank lines are a keepalive no-op
            if not session.saw_frame and looks_like_http(frame):
                await self._serve_http(session, frames, frame)
                return
            session.saw_frame = True
            self.stats.requests += 1
            try:
                request = parse_request(frame)
            except ProtocolError as error:
                self.stats.malformed += 1
                self.stats.errors += 1
                session.reply(
                    encode(
                        error_payload(error.request_id, error.code, str(error))
                    )
                )
                continue
            self._dispatch(session, request)

    # ------------------------------------------------------------------
    # Dispatch (session task; read-only or enqueue, never engine writes)
    # ------------------------------------------------------------------

    def _dispatch(self, session: Session, request: Request) -> None:
        verb = request.verb
        if verb in ("insert", "expire", "advance"):
            self._ingest(session, request)
            return
        if verb == "ping":
            session.reply(encode(ok_payload(request.id, pong=True)))
            return
        if verb == "query":
            rows = [
                [r.x, r.y, r.similarity] for r in self._engine.results()
            ]
            session.reply(
                encode(
                    ok_payload(
                        request.id,
                        results=rows,
                        s_k=self._engine.s_k,
                        window=self._engine.window_live,
                        seq=self._seq,
                    )
                )
            )
            return
        if verb == "subscribe":
            self._subscribers.add(session.sid)
            session.subscribed = True
            if len(self._subscribers) > self.stats.subscribers_peak:
                self.stats.subscribers_peak = len(self._subscribers)
            session.reply(
                encode(
                    ok_payload(request.id, subscribed=True, seq=self._seq)
                )
            )
            return
        if verb == "unsubscribe":
            self._subscribers.discard(session.sid)
            session.subscribed = False
            session.reply(
                encode(ok_payload(request.id, subscribed=False, seq=self._seq))
            )
            return
        if verb == "stats":
            session.reply(
                encode(ok_payload(request.id, stats=self.stats_payload()))
            )
            return
        if verb == "metrics":
            session.reply(
                encode(ok_payload(request.id, text=self.metrics_text()))
            )
            return
        if verb == "shutdown":
            if not self._options.allow_remote_shutdown:
                self.stats.errors += 1
                session.reply(
                    encode(
                        error_payload(
                            request.id,
                            "forbidden",
                            "this daemon refuses remote shutdown",
                        )
                    )
                )
                return
            session.reply(encode(ok_payload(request.id, stopping=True)))
            self.request_shutdown()
            return
        raise AssertionError("unhandled verb %r" % verb)  # pragma: no cover

    def _ingest(self, session: Session, request: Request) -> None:
        gate = self._gate
        assert gate is not None
        if self._closing or gate.closed:
            self.stats.rejected += 1
            self.stats.errors += 1
            session.reply(
                encode(
                    error_payload(
                        request.id,
                        "shutting-down",
                        "the daemon is draining; event refused",
                    )
                )
            )
            return
        verdict = gate.offer(
            QueuedEvent(request, session, time.perf_counter())
        )
        if verdict == ACCEPTED:
            return  # the writer task replies once the event applied
        if verdict == SHED:
            session.reply(
                encode(ok_payload(request.id, shed=True, deltas=[]))
            )
            return
        assert verdict == REJECTED
        self.stats.errors += 1
        session.reply(
            encode(
                error_payload(
                    request.id,
                    "overloaded",
                    "ingestion queue full (limit %d); event refused"
                    % gate.queue_limit,
                )
            )
        )

    # ------------------------------------------------------------------
    # The HTTP scrape path
    # ------------------------------------------------------------------

    async def _serve_http(
        self, session: Session, frames: FrameReader, request_line: bytes
    ) -> None:
        """Answer one ``GET /metrics``-style scrape, then close."""
        try:
            while True:  # drain the header block up to the blank line
                line = await frames.next_frame()
                if line is None or not line.strip():
                    break
        except (FrameTooLarge, ReadStalled, IdleTimeout, TruncatedFrame):
            pass  # answer with what we have; the response closes anyway
        path = http_request_path(request_line)
        if path.split("?", 1)[0].rstrip("/") in ("", "/metrics"):
            session.reply(http_response(200, "OK", self.metrics_text()))
        else:
            session.reply(
                http_response(404, "Not Found", "try GET /metrics\n")
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats_payload(self) -> Dict[str, object]:
        """The ``stats`` verb's reply body (counters plus live gauges)."""
        payload: Dict[str, object] = dict(asdict(self.stats))
        payload.update(
            {
                "degradation": self._options.degradation,
                "queue_limit": self._options.queue_limit,
                "queue_depth": self.queue_depth,
                "connections_open": self.connections_open,
                "subscribers": self.subscriber_count,
                "seq": self._seq,
                "closing": self._closing,
                "engine": dict(asdict(self._engine.stats)),
                "s_k": self._engine.s_k,
                "window_live": self._engine.window_live,
            }
        )
        return payload

    @property
    def queue_depth(self) -> int:
        """Ingestion events currently pending."""
        gate = self._gate
        return gate.depth() if gate is not None else 0

    @property
    def connections_open(self) -> int:
        return len(self._sessions)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def metrics_text(self) -> str:
        """One live Prometheus exposition: engine + daemon families.

        The families are formatted once, on the first scrape; every
        scrape renders their current values (counters are cumulative) —
        the live replacement for the write-file-at-close pattern the CLI
        stream command uses.
        """
        if self._exposition is None:
            self._exposition = Exposition([
                *self._engine.metric_families(),
                *declared_families(self, self.stats.metric_fields(), "stats"),
                *declared_families(self, SERVE_GAUGES),
                histogram_family(self._latency),
            ])
        return self._exposition.render()
