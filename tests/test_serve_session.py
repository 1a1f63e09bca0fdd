"""Per-connection contracts of the serve daemon.

Three families, each through a real socket:

* **timeouts** — a peer that stalls mid-frame gets ``read-timeout``, a
  silent request/reply peer gets ``idle-timeout``, a subscriber may stay
  silent for as long as it likes, and a closed connection leaves no
  deadline behind that could fire later;
* **frame order** — on a connection that both subscribes and inserts,
  an insert's delta pushes arrive before its ack, and no reply overtakes
  a push that was queued before it;
* **startup** — the daemon resolves its scan kernel (and imports NumPy
  when that kernel needs it) before it binds, not in the first refill.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from typing import Any, Dict, List, Tuple

import pytest

from repro.accel import numpy_available
from repro.core import TopkOptions
from repro.oracle.differential import sockets_usable
from repro.serve import InProcessDaemon, ServeClient, ServeOptions
from repro.stream.engine import StreamingTopkEngine

pytestmark = pytest.mark.skipif(
    not sockets_usable(), reason="cannot bind local sockets"
)

READ_TIMEOUT = 0.3
IDLE_TIMEOUT = 0.6


def timed_daemon(**options: Any) -> InProcessDaemon:
    return InProcessDaemon(
        lambda: StreamingTopkEngine(2, options=TopkOptions(window_size=8)),
        ServeOptions(
            read_timeout=READ_TIMEOUT, idle_timeout=IDLE_TIMEOUT, **options
        ),
    )


def daemon_stats(host: str, port: int) -> Dict[str, Any]:
    with ServeClient(host, port) as client:
        return client.request("stats")["stats"]


class TestTimeouts:
    def test_half_sent_frame_gets_read_timeout(self):
        with timed_daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b'{"verb":"ping","id":1')
                started = time.monotonic()
                frame = client.read_frame()
                waited = time.monotonic() - started
                assert frame["ok"] is False
                assert frame["id"] is None
                assert frame["error"] == {
                    "code": "read-timeout",
                    "message": "no frame completion within %.1fs"
                    % READ_TIMEOUT,
                }
                assert waited >= READ_TIMEOUT * 0.8
                with pytest.raises(ConnectionError):
                    client.read_frame()
            stats = daemon_stats(host, port)
            assert stats["read_timeouts"] == 1
            assert stats["idle_evictions"] == 0

    def test_silent_connection_gets_idle_timeout(self):
        with timed_daemon() as (host, port):
            with ServeClient(host, port) as client:
                assert client.request("ping")["pong"] is True
                started = time.monotonic()
                frame = client.read_frame()
                waited = time.monotonic() - started
                assert frame["ok"] is False
                assert frame["error"] == {
                    "code": "idle-timeout",
                    "message": "no request within %.1fs" % IDLE_TIMEOUT,
                }
                assert waited >= IDLE_TIMEOUT * 0.8
                with pytest.raises(ConnectionError):
                    client.read_frame()
            stats = daemon_stats(host, port)
            assert stats["idle_evictions"] == 1
            assert stats["read_timeouts"] == 0

    def test_subscriber_is_exempt_from_idle_timeout(self):
        with timed_daemon() as (host, port):
            with ServeClient(host, port) as subscriber:
                subscriber.request("subscribe")
                time.sleep(IDLE_TIMEOUT * 2)
                assert subscriber.request("ping")["pong"] is True
                assert subscriber.pushes == []
            stats = daemon_stats(host, port)
            assert stats["idle_evictions"] == 0
            assert stats["read_timeouts"] == 0

    def test_closed_connection_leaves_no_deadline_behind(self):
        daemon = timed_daemon()
        host, port = daemon.start()
        try:
            with ServeClient(host, port) as client:
                for i in range(300):
                    verb = ("insert", "query", "ping")[i % 3]
                    fields = {"tokens": [i % 5, 5 + i % 7]}
                    reply = client.request(
                        verb, **(fields if verb == "insert" else {})
                    )
                    assert reply["ok"], reply
            # Past both limits: a deadline the closed session left armed
            # would fire now and count an eviction or a stall.
            time.sleep(IDLE_TIMEOUT * 1.5)
            stats = daemon_stats(host, port)
            assert stats["idle_evictions"] == 0
            assert stats["read_timeouts"] == 0
            assert stats["connections_open"] == 1  # the stats client
            server = daemon.server
            assert server is not None
            assert server.drain_unhandled() == []
        finally:
            daemon.stop()
        assert server.drain_unhandled() == []


def read_until_ids(
    client: ServeClient, ids: List[int]
) -> List[Dict[str, Any]]:
    """Every frame up to and including the replies to all of *ids*."""
    pending = set(ids)
    frames: List[Dict[str, Any]] = []
    while pending:
        frame = client.read_frame()
        frames.append(frame)
        pending.discard(frame.get("id"))
    return frames


def delta_key(frame: Dict[str, Any]) -> Tuple[Any, ...]:
    return (frame["action"], frame["x"], frame["y"], frame["similarity"])


def send_request(client: ServeClient, rid: int, verb: str, **fields: Any):
    payload: Dict[str, Any] = {"verb": verb, "id": rid}
    payload.update(fields)
    client.send_raw(json.dumps(payload).encode("utf-8") + b"\n")


class TestFrameOrder:
    """Raw frame order on one connection that subscribes and inserts."""

    @staticmethod
    def check_order(frames: List[Dict[str, Any]], verbs: Dict[int, str]):
        """Pushes precede the ack that carries them; no reply that names
        a ``seq`` arrives before the pushes up to that ``seq``."""
        since_ack: List[Tuple[Any, ...]] = []
        last_seq = 0
        for frame in frames:
            if frame.get("event") == "delta":
                assert frame["seq"] == last_seq + 1, frames
                last_seq = frame["seq"]
                since_ack.append(delta_key(frame))
                continue
            assert frame["ok"], frame
            verb = verbs[frame["id"]]
            if verb == "insert":
                assert since_ack == [delta_key(d) for d in frame["deltas"]]
                since_ack = []
            elif verb == "query":
                assert frame["seq"] == last_seq, (frame, last_seq)

    def test_pushes_precede_acks_one_request_at_a_time(self):
        with timed_daemon() as (host, port):
            with ServeClient(host, port) as client:
                assert client.request("subscribe")["seq"] == 0
                verbs: Dict[int, str] = {}
                frames: List[Dict[str, Any]] = []
                for rid in range(100, 160):
                    verb = "query" if rid % 4 == 0 else "insert"
                    verbs[rid] = verb
                    fields = {"tokens": [rid % 3, 3 + rid % 4]}
                    send_request(
                        client, rid, verb, **(fields if verb == "insert" else {})
                    )
                    frames.extend(read_until_ids(client, [rid]))
                assert any(f.get("event") == "delta" for f in frames)
                self.check_order(frames, verbs)

    def test_pipelined_replies_never_overtake_queued_pushes(self):
        with timed_daemon(ingest_delay=0.0005) as (host, port):
            with ServeClient(host, port) as client:
                assert client.request("subscribe")["seq"] == 0
                verbs: Dict[int, str] = {}
                batch = b""
                for rid in range(200, 320):
                    verb = ("insert", "insert", "query", "ping")[rid % 4]
                    verbs[rid] = verb
                    payload: Dict[str, Any] = {"verb": verb, "id": rid}
                    if verb == "insert":
                        payload["tokens"] = [rid % 3, 3 + rid % 5]
                    batch += json.dumps(payload).encode("utf-8") + b"\n"
                client.send_raw(batch)
                frames = read_until_ids(client, sorted(verbs))
                assert any(f.get("event") == "delta" for f in frames)
                self.check_order(frames, verbs)


@pytest.mark.skipif(not numpy_available(), reason="NumPy not importable")
class TestStartup:
    def test_numpy_is_imported_before_the_socket_binds(self):
        """Run in a fresh interpreter: this process imported NumPy long
        ago, which would hide where the daemon imports it."""
        script = textwrap.dedent(
            """
            import asyncio, sys
            from repro.core import TopkOptions
            from repro.serve import ServeOptions, TopkServer
            from repro.stream.engine import StreamingTopkEngine

            async def main():
                engine = StreamingTopkEngine(
                    2, options=TopkOptions(window_size=8, accel="on")
                )
                server = TopkServer(engine, ServeOptions())
                before = "numpy" in sys.modules
                await server.start()
                after = "numpy" in sys.modules
                await server.shutdown()
                print(before, after)

            asyncio.run(main())
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]
