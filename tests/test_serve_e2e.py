"""End-to-end tests for the ``repro serve`` daemon.

The acceptance bar: a scripted client session against a real daemon (real
sockets, real event loop) produces a delta stream **byte-identical** to
replaying the same events through an in-process engine — proven both
directly here and via the ``serve-daemon`` differential backend, which
holds the daemon against the same oracle as every other backend.
"""

from __future__ import annotations

import json
import random
import threading
from typing import List, Tuple

import pytest

from repro.core import TopkOptions
from repro.oracle.differential import (
    StreamCase,
    available_stream_backends,
    run_stream_differential,
    sockets_usable,
)
from repro.oracle.fuzz import STREAM_GENERATORS
from repro.serve import (
    InProcessDaemon,
    ServeClient,
    ServeOptions,
    delta_line,
    encode,
    open_servers,
)
from repro.stream.engine import StreamingTopkEngine

pytestmark = pytest.mark.skipif(
    not sockets_usable(), reason="cannot bind local sockets"
)


def make_engine(
    k: int = 3, window: int = 16, policy: str = "count"
) -> StreamingTopkEngine:
    return StreamingTopkEngine(
        k,
        options=TopkOptions(window_size=window, window_policy=policy),
        mode="incremental",
    )


def daemon(
    k: int = 3,
    window: int = 16,
    policy: str = "count",
    **options: object,
) -> InProcessDaemon:
    return InProcessDaemon(
        lambda: make_engine(k, window, policy), ServeOptions(**options)
    )


def reencode_push(frame: dict) -> bytes:
    """Re-encode a pushed delta frame for byte comparison to delta_line."""
    keys = ("action", "x", "y", "similarity")
    return encode({key: frame[key] for key in keys})


class TestRequestReply:
    def test_insert_query_round_trip(self):
        with daemon() as (host, port), ServeClient(host, port) as client:
            for tokens in ([1, 2, 3], [1, 2, 3], [1, 2, 4]):
                reply = client.request("insert", tokens=tokens)
                assert reply["ok"], reply
                assert reply["shed"] is False
            query = client.request("query")
            assert query["ok"]
            rows = query["results"]
            assert rows[0] == [0, 1, 1.0]
            assert query["s_k"] == pytest.approx(0.5)
            assert query["window"] == 3

    def test_insert_replies_carry_deltas(self):
        with daemon(k=1) as (host, port), ServeClient(host, port) as client:
            client.request("insert", tokens=[1, 2])
            reply = client.request("insert", tokens=[1, 2])
            actions = [d["action"] for d in reply["deltas"]]
            assert actions == ["enter"]
            assert reply["deltas"][0]["similarity"] == pytest.approx(1.0)

    def test_expire_and_advance(self):
        with daemon(k=2, window=2) as (host, port):
            with ServeClient(host, port) as client:
                client.request("insert", tokens=[1, 2])
                client.request("insert", tokens=[1, 2])
                reply = client.request("expire", count=1)
                assert reply["ok"]
                assert [d["action"] for d in reply["deltas"]] == ["leave"]
                reply = client.request("advance", amount=3.0)
                assert reply["ok"]

    def test_ping_stats_and_metrics_verbs(self):
        with daemon() as (host, port), ServeClient(host, port) as client:
            assert client.request("ping")["pong"] is True
            client.request("insert", tokens=[7, 8])
            stats = client.request("stats")["stats"]
            assert stats["accepted"] == 1
            assert stats["connections"] == 1
            assert stats["degradation"] == "reject"
            assert stats["engine"]["inserts"] == 1
            text = client.request("metrics")["text"]
            assert "repro_serve_connections_total 1" in text
            assert "repro_serve_accepted_total 1" in text
            assert "repro_stream_inserts_total 1" in text
            assert "repro_serve_request_latency_seconds_bucket" in text

    def test_http_scrape_on_same_port(self):
        with daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.request("insert", tokens=[1, 2, 3])
            with ServeClient(host, port) as scraper:
                scraper.send_raw(
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                raw = scraper._reader.read()
            head, __, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.0 200 OK")
            assert b"text/plain" in head
            text = body.decode("utf-8")
            assert "repro_serve_connections_total" in text
            assert "repro_stream_inserts_total 1" in text
            assert "repro_serve_request_latency_seconds_bucket" in text

    def test_http_and_verb_scrapes_return_the_same_body(self):
        with daemon(k=1, window=4) as (host, port):
            with ServeClient(host, port) as client, \
                    ServeClient(host, port) as scraper:
                for tokens in ([1, 2, 3], [1, 2, 4], [2, 3, 4], [5, 6],
                               [1, 2, 3, 4], [5, 6, 7]):
                    assert client.request("insert", tokens=tokens)["ok"]
                # Both connections open before either scrape renders; an
                # HTTP scrape counts no request, so the state is the same.
                while client.request("stats")["stats"]["connections_open"] < 2:
                    pass
                verb = client.request("metrics")["text"]
                scraper.send_raw(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                raw = scraper._reader.read()
            head, __, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.0 200 OK")
            assert "repro_serve_connections_open 2\n" in verb
            assert body.decode("utf-8") == verb

    def test_http_unknown_path_is_404(self):
        with daemon() as (host, port):
            with ServeClient(host, port) as scraper:
                scraper.send_raw(b"GET /nope HTTP/1.1\r\n\r\n")
                raw = scraper._reader.read()
            assert raw.startswith(b"HTTP/1.0 404 Not Found")


class TestSubscription:
    def test_subscriber_sees_every_delta_in_seq_order(self):
        with daemon(k=2) as (host, port):
            with ServeClient(host, port) as sub:
                assert sub.request("subscribe")["subscribed"] is True
                with ServeClient(host, port) as writer_client:
                    for tokens in ([1, 2], [1, 2], [1, 3], [2, 3]):
                        writer_client.request("insert", tokens=tokens)
                    expected: List[bytes] = []
                    for d in writer_client.request("query")["results"]:
                        del d  # query proves the engine settled
                # Drain pushes that arrived during the writer session.
                sub.request("ping")
            deltas = [
                f for f in sub.pushes if f.get("event") == "delta"
            ]
            assert deltas, "subscriber saw no deltas"
            seqs = [f["seq"] for f in deltas]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            assert {f["action"] for f in deltas} <= {"enter", "leave"}

    def test_unsubscribe_stops_the_stream(self):
        with daemon() as (host, port):
            with ServeClient(host, port) as sub:
                sub.request("subscribe")
                sub.request("unsubscribe")
                with ServeClient(host, port) as writer_client:
                    writer_client.request("insert", tokens=[1, 2])
                    writer_client.request("insert", tokens=[1, 2])
                sub.request("ping")
                deltas = [
                    f for f in sub.pushes if f.get("event") == "delta"
                ]
                assert deltas == []

    def test_delta_stream_matches_in_process_replay(self):
        """The byte-identity proof, scripted end to end.

        Every accepted event's deltas — both in the requester's acks and
        in the subscriber's push stream — must re-encode to the exact
        bytes an in-process engine replay produces via delta_line().
        """
        rng = random.Random(20090401)
        events: List[List[int]] = [
            sorted(rng.sample(range(12), rng.randint(1, 5)))
            for __ in range(30)
        ]
        expected: List[bytes] = []
        with make_engine(k=3, window=8) as engine:
            for tokens in events:
                expected.extend(
                    delta_line(d) for d in engine.insert(tokens)
                )
            final = [
                [r.x, r.y, r.similarity] for r in engine.results()
            ]
        with daemon(k=3, window=8, ingest_delay=0.001) as (host, port):
            with ServeClient(host, port) as sub:
                sub.request("subscribe")
                got_acks: List[bytes] = []
                with ServeClient(host, port) as writer_client:
                    for tokens in events:
                        reply = writer_client.request(
                            "insert", tokens=tokens
                        )
                        got_acks.extend(
                            reencode_push(d) for d in reply["deltas"]
                        )
                    rows = writer_client.request("query")["results"]
                sub.request("ping")
                pushed = [
                    reencode_push(f)
                    for f in sub.pushes
                    if f.get("event") == "delta"
                ]
        assert got_acks == expected
        assert pushed == expected
        assert rows == final


class TestDifferentialBackend:
    def test_backend_registered(self):
        assert "serve-daemon" in available_stream_backends()

    def test_generated_cases_both_policies(self):
        """Seeded fuzz cases through the daemon vs the in-process oracle.

        run_stream_differential spins a daemon per case, drives the event
        list through a scripted session, and byte-compares every delta
        (per-request acks AND the subscriber push stream) against
        delta_line() of an in-process replay.
        """
        rng = random.Random(777)
        names = sorted(STREAM_GENERATORS)
        for i in range(12):
            case = STREAM_GENERATORS[names[i % len(names)]](rng)
            failures = run_stream_differential(
                case, backends=["serve-daemon"]
            )
            assert failures == [], "\n".join(failures)

    def test_handcrafted_case_with_expire_and_advance(self):
        from repro.stream.events import StreamEvent

        case = StreamCase.make(
            [
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.insert([]),
                StreamEvent.expire(1),
                StreamEvent.advance(2.0),
                StreamEvent.insert([1, 2]),
            ],
            k=2,
            window=4,
        )
        failures = run_stream_differential(
            case, backends=["serve-daemon"]
        )
        assert failures == [], "\n".join(failures)


class TestEngineSubscription:
    """The engine-side hook the daemon's broadcast is built on."""

    def test_subscribe_delivers_deltas_and_unsubscribes(self):
        seen: List[Tuple[str, int, int]] = []
        with make_engine(k=1) as engine:
            cancel = engine.subscribe(
                lambda deltas: seen.extend(
                    (d.action, d.x, d.y) for d in deltas
                )
            )
            engine.insert([1, 2])
            engine.insert([1, 2])
            assert seen == [("enter", 0, 1)]
            cancel()
            engine.insert([1, 2])
            assert seen == [("enter", 0, 1)]

    def test_no_callback_for_empty_delta_batches(self):
        calls: List[int] = []
        with make_engine(k=1) as engine:
            engine.subscribe(lambda deltas: calls.append(len(deltas)))
            engine.insert([1])  # no pairs yet, no deltas
            assert calls == []


class TestHarnessHygiene:
    def test_no_servers_or_daemon_threads_leak(self):
        with daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.request("insert", tokens=[1, 2])
            assert open_servers() == ["%s:%d" % (host, port)]
        assert open_servers() == []
        names = [t.name for t in threading.enumerate()]
        assert "repro-serve-daemon" not in names

    def test_client_buffers_pipelined_replies(self):
        with daemon() as (host, port), ServeClient(host, port) as client:
            client.send_raw(
                json.dumps({"verb": "ping", "id": 900}).encode() + b"\n"
            )
            reply = client.request("ping")
            assert reply["pong"] is True
            assert any(f.get("id") == 900 for f in client.pushes)
