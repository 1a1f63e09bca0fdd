"""Per-connection state: frame reading with timeouts, and the outbox.

Each accepted connection gets a :class:`Session` (identity, subscription
flag, a bounded outbox queue drained by one sender task) and a
:class:`FrameReader` (newline-delimited frame extraction with the two
timeout regimes the protocol distinguishes):

* **read timeout** — the peer stalled *mid-frame*: bytes arrived but the
  newline never did.  That is a misbehaving or wedged client and the
  connection is closed with a ``read-timeout`` error.
* **idle timeout** — the peer is connected but silent *between* frames.
  Plain request/reply clients are evicted (``idle-timeout``) so
  abandoned connections cannot accumulate; subscribed clients are
  exempt — a subscriber's silence is the normal case.

Both limits share one deadline timer per session (a ``loop.call_at``
handle), not a ``wait_for`` per read: a read awaits the stream directly,
and the timer moves only when a deadline must come earlier.  When it
fires past the pending read's deadline it cancels the session task,
which the reader turns into :class:`ReadStalled` or :class:`IdleTimeout`.

Nothing a session writes blocks the event loop.  A reply goes straight
to the transport when nothing is queued ahead of it (empty outbox, empty
transport buffer) and otherwise joins the outbox behind what is already
there, so frames leave in the order they were produced.  Pushes (deltas,
the ``shutdown`` event) always go through the bounded outbox, written by
the sender task.  A full outbox means the peer reads slower than the
daemon produces — :meth:`Session.send` reports the overflow and the
server evicts the subscriber rather than buffering without bound.
"""

from __future__ import annotations

import asyncio
from typing import Optional

__all__ = [
    "FrameReader",
    "FrameTooLarge",
    "IdleTimeout",
    "ReadStalled",
    "Session",
    "TruncatedFrame",
]

_READ_CHUNK = 65536


class FrameTooLarge(Exception):
    """A frame exceeded the per-frame byte cap before its newline."""


class ReadStalled(Exception):
    """The peer stalled mid-frame past the read timeout."""


class IdleTimeout(Exception):
    """The peer sent nothing for longer than the idle timeout."""


class TruncatedFrame(Exception):
    """The peer disconnected mid-frame (EOF before the newline)."""


class FrameReader:
    """Newline-delimited frames from an ``asyncio.StreamReader``.

    ``read_timeout`` bounds mid-frame stalls; ``idle_timeout`` bounds
    silence between frames (``0`` disables either).  Frames are returned
    without their trailing newline; a clean EOF between frames returns
    ``None``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_frame_bytes: int,
        read_timeout: float,
        idle_timeout: float,
    ) -> None:
        self._reader = reader
        self._max_frame_bytes = max_frame_bytes
        self._read_timeout = read_timeout
        self._idle_timeout = idle_timeout
        self._buffer = bytearray()
        self._loop = asyncio.get_running_loop()
        #: The task whose pending read the deadline bounds.
        self._task: "Optional[asyncio.Task[object]]" = None
        #: Loop time by which the pending read must return (``None``
        #: while no bounded read is pending).
        self._deadline: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._expired = False

    def close(self) -> None:
        """Cancel the deadline timer (the session is over)."""
        self._deadline = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self, timeout: float) -> None:
        """Bound the read about to start by *timeout* seconds.

        The timer is only moved when the new deadline is earlier than
        the armed one; a later deadline is picked up when it fires.
        """
        deadline = self._loop.time() + timeout
        self._deadline = deadline
        if self._task is None:
            self._task = asyncio.current_task()
        timer = self._timer
        if timer is None or timer.when() > deadline:
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._on_timer)

    def _on_timer(self) -> None:
        timer = self._timer
        assert timer is not None
        self._timer = None
        deadline = self._deadline
        if deadline is None:
            return  # no bounded read pending; the next one re-arms
        if deadline > timer.when():
            self._timer = self._loop.call_at(deadline, self._on_timer)
            return
        assert self._task is not None
        self._expired = True
        self._task.cancel()

    async def next_frame(self, idle_exempt: bool = False) -> Optional[bytes]:
        """The next complete frame (or ``None`` on a clean EOF).

        Raises :class:`FrameTooLarge`, :class:`ReadStalled`,
        :class:`IdleTimeout` or :class:`TruncatedFrame`; transport
        errors (``ConnectionError``/``OSError``) propagate as such.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                if newline > self._max_frame_bytes:
                    raise FrameTooLarge(
                        "frame of %d bytes exceeds the %d-byte cap"
                        % (newline, self._max_frame_bytes)
                    )
                frame = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return frame
            if len(self._buffer) > self._max_frame_bytes:
                raise FrameTooLarge(
                    "frame exceeds the %d-byte cap without a newline"
                    % self._max_frame_bytes
                )
            mid_frame = bool(self._buffer)
            if mid_frame:
                timeout = self._read_timeout
            elif idle_exempt:
                timeout = 0.0
            else:
                timeout = self._idle_timeout
            if timeout > 0:
                self._arm(timeout)
            try:
                chunk = await self._reader.read(_READ_CHUNK)
            except asyncio.CancelledError:
                if not self._expired:
                    raise  # a real cancellation (shutdown)
                # Our own timer's cancellation, consumed here.  The
                # session ends after its error reply; a timeout it awaits
                # meanwhile (3.12's ``wait_for``) counts cancellations
                # from its own entry, so this one cannot confuse it.
                self._expired = False
                if mid_frame:
                    raise ReadStalled(
                        "no frame completion within %.1fs"
                        % self._read_timeout
                    ) from None
                raise IdleTimeout(
                    "no request within %.1fs" % self._idle_timeout
                ) from None
            finally:
                self._deadline = None
            if not chunk:
                if mid_frame:
                    raise TruncatedFrame(
                        "EOF %d bytes into a frame" % len(self._buffer)
                    )
                return None
            self._buffer.extend(chunk)


class Session:
    """One connected client: identity, subscription flag, outbox."""

    def __init__(
        self,
        sid: int,
        writer: asyncio.StreamWriter,
        outbox_limit: int,
    ) -> None:
        self.sid = sid
        self.subscribed = False
        #: Set by the server to make the session loop stop after the
        #: current frame (graceful shutdown).
        self.closing = False
        #: Whether any JSON frame was dispatched yet (the HTTP sniff
        #: only applies to a connection's very first frame).
        self.saw_frame = False
        self._writer = writer
        self._transport = writer.transport
        self._outbox_limit = outbox_limit
        self._outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self._outbox_closed = False

    @property
    def peername(self) -> str:
        peer = self._writer.get_extra_info("peername")
        if isinstance(peer, tuple) and len(peer) >= 2:
            return "%s:%s" % (peer[0], peer[1])
        return repr(peer)

    def reply(self, frame: bytes) -> bool:
        """Send one reply; ``False`` on overflow or closed.

        Written straight to the transport when nothing is queued ahead
        of it, so a reply costs no wake-up of the sender task; otherwise
        queued like :meth:`send`, behind the frames already waiting.
        """
        transport = self._transport
        if (
            not self._outbox_closed
            and self._outbox.empty()
            and transport.get_write_buffer_size() == 0
            and not transport.is_closing()
        ):
            transport.write(frame)
            return True
        return self.send(frame)

    def send(self, frame: bytes) -> bool:
        """Queue one outgoing frame; ``False`` on overflow or closed."""
        if self._outbox_closed:
            return False
        if self._outbox.qsize() >= self._outbox_limit:
            return False
        self._outbox.put_nowait(frame)
        return True

    def close_outbox(self) -> None:
        """No more frames; the sender flushes the backlog and exits."""
        if self._outbox_closed:
            return
        self._outbox_closed = True
        self._outbox.put_nowait(None)

    async def sender_loop(self) -> None:
        """Drain the outbox onto the transport until the close sentinel.

        Transport errors end the loop quietly — the reader side of the
        connection surfaces the disconnect.
        """
        try:
            while True:
                frame = await self._outbox.get()
                if frame is None:
                    break
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, OSError):
            pass
