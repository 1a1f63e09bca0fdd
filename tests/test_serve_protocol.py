"""Protocol parsing, fault injection, and the serve fuzz campaign.

The daemon's survival contract: any byte sequence a client sends yields
a structured error reply or a dropped connection — never a daemon death,
never a corrupted engine.  The acceptance bar at the bottom runs >= 200
fuzzed adversarial sessions against one hardened daemon and requires
zero crashes.
"""

from __future__ import annotations

import json

import pytest

from repro.oracle.differential import sockets_usable
from repro.oracle.fuzz import (
    SERVE,
    SERVE_GENERATORS,
    FuzzReport,
    ServeCase,
    fuzz_run,
    load_corpus_case,
    replay_corpus,
    save_corpus_case,
    shrink_case,
)
from repro.serve import (
    ERROR_CODES,
    VERBS,
    InProcessDaemon,
    ProtocolError,
    ServeClient,
    ServeOptions,
    parse_request,
)
from repro.stream.engine import StreamingTopkEngine

needs_sockets = pytest.mark.skipif(
    not sockets_usable(), reason="cannot bind local sockets"
)


def make_daemon(**options: object) -> InProcessDaemon:
    from repro.core import TopkOptions

    return InProcessDaemon(
        lambda: StreamingTopkEngine(
            2, options=TopkOptions(window_size=8), mode="incremental"
        ),
        ServeOptions(**options),
    )


class TestParseRequest:
    def parse(self, payload: object) -> object:
        return parse_request(json.dumps(payload).encode("utf-8"))

    def test_valid_verbs_round_trip(self):
        request = self.parse({"verb": "insert", "id": 1, "tokens": [3, 1]})
        assert request.verb == "insert"
        assert request.tokens == (3, 1)
        assert self.parse({"verb": "expire", "id": 2}).amount == 1.0
        advance = self.parse({"verb": "advance", "id": 3, "amount": 2.5})
        assert advance.amount == 2.5

    def error(self, payload: object) -> ProtocolError:
        with pytest.raises(ProtocolError) as caught:
            self.parse(payload)
        assert caught.value.code in ERROR_CODES
        return caught.value

    def test_rejects_non_utf8(self):
        with pytest.raises(ProtocolError) as caught:
            parse_request(b"\xff\xfe{}")
        assert caught.value.code == "parse-error"

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError) as caught:
            parse_request(b"{nope")
        assert caught.value.code == "parse-error"

    def test_rejects_non_object_frames(self):
        assert self.error([1, 2, 3]).code == "bad-request"
        assert self.error("hello").code == "bad-request"

    def test_rejects_unknown_verbs(self):
        error = self.error({"verb": "destroy", "id": 1})
        assert error.code == "unknown-verb"
        assert error.request_id == 1

    def test_id_is_optional_but_must_be_int_or_string(self):
        assert self.parse({"verb": "ping"}).id is None
        assert self.parse({"verb": "ping", "id": "abc"}).id == "abc"
        assert self.error({"verb": "ping", "id": True}).code == "bad-request"
        assert self.error({"verb": "ping", "id": 1.5}).code == "bad-request"

    def test_rejects_bad_insert_tokens(self):
        for tokens in (None, "abc", [1, "x"], [1, True], [-1]):
            error = self.error(
                {"verb": "insert", "id": 1, "tokens": tokens}
            )
            assert error.code == "bad-request"

    def test_rejects_bad_expire_and_advance(self):
        assert (
            self.error({"verb": "expire", "id": 1, "count": 0}).code
            == "bad-request"
        )
        for amount in (None, "x", float("nan"), float("inf"), -1.0):
            error = self.error(
                {"verb": "advance", "id": 1, "amount": amount}
            )
            assert error.code == "bad-request"

    def test_verb_table_is_closed(self):
        assert set(VERBS) == {
            "insert", "expire", "advance", "query", "subscribe",
            "unsubscribe", "stats", "metrics", "ping", "shutdown",
        }


@needs_sockets
class TestFaultInjection:
    """Scripted broken clients; the daemon must answer or hang up."""

    def test_invalid_json_gets_structured_error(self):
        with make_daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b"this is not json\n")
                frame = client.read_frame()
                assert frame["ok"] is False
                assert frame["error"]["code"] == "parse-error"
                # The connection survives a malformed frame.
                assert client.request("ping")["pong"] is True

    def test_unknown_verb_keeps_connection(self):
        with make_daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b'{"verb":"launch","id":4}\n')
                frame = client.read_frame()
                assert frame["error"]["code"] == "unknown-verb"
                assert frame["id"] == 4
                assert client.request("ping")["pong"] is True

    def test_oversized_frame_errors_then_disconnects(self):
        with make_daemon(max_frame_bytes=256) as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b"x" * 600 + b"\n")
                frame = client.read_frame()
                assert frame["error"]["code"] == "frame-too-large"
                with pytest.raises(ConnectionError):
                    client.read_frame()

    def test_oversized_frame_without_newline(self):
        with make_daemon(max_frame_bytes=256) as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b"y" * 600)
                frame = client.read_frame()
                assert frame["error"]["code"] == "frame-too-large"

    def test_mid_request_disconnect_is_harmless(self):
        with make_daemon() as (host, port):
            client = ServeClient(host, port)
            client.send_raw(b'{"verb":"insert","id":1,"tok')
            client.close()  # truncated frame, no newline, hard close
            with ServeClient(host, port) as probe:
                assert probe.request("ping")["pong"] is True

    def test_bad_request_counts_in_stats(self):
        with make_daemon() as (host, port):
            with ServeClient(host, port) as client:
                client.send_raw(b"junk\n")
                client.read_frame()
                client.send_raw(b'{"verb":"warp","id":1}\n')
                client.read_frame()
                stats = client.request("stats")["stats"]
                assert stats["malformed"] == 2
                assert stats["errors"] >= 2

    def test_remote_shutdown_can_be_forbidden(self):
        with make_daemon(allow_remote_shutdown=False) as (host, port):
            with ServeClient(host, port) as client:
                reply = client.request("shutdown")
                assert reply["ok"] is False
                assert reply["error"]["code"] == "forbidden"
                assert client.request("ping")["pong"] is True


class TestServeCaseMachinery:
    def test_case_payload_round_trip(self):
        case = ServeCase.make([b"\xff{broken\n", b"tail"], abort=True)
        clone = SERVE.decode(dict(SERVE.encode(case)))
        assert clone == case

    def test_generators_are_deterministic(self):
        import random

        for name, generator in sorted(SERVE_GENERATORS.items()):
            first = generator(random.Random(42))
            second = generator(random.Random(42))
            assert first == second, name
            assert first.chunks, name

    def test_shrinker_drops_irrelevant_chunks(self):
        case = ServeCase.make(
            [b"aaaa", b"MAGIC", b"bbbb", b"cccc"], abort=True
        )

        def failing(candidate: ServeCase) -> list:
            joined = b"".join(candidate.chunks)
            return ["boom"] if b"MAGIC" in joined else []

        shrunk = shrink_case(case, failing)
        assert b"MAGIC" in b"".join(shrunk.chunks)
        assert len(shrunk.chunks) == 1
        assert shrunk.abort is False

    def test_shrinker_returns_passing_case_unchanged(self):
        case = ServeCase.make([b"ok"], abort=False)
        assert shrink_case(case, lambda c: []) == case

    def test_save_load_roundtrip(self, tmp_path):
        case = ServeCase.make([b"\x00\xffjunk\n"], abort=True)
        path = save_corpus_case(
            str(tmp_path), case, ["it died"], seed=3,
            generator="serve-junk-bytes", description="roundtrip",
        )
        assert path.endswith(".json")
        loaded, document = load_corpus_case(path)
        assert loaded == case
        assert document["failures"] == ["it died"]
        assert document["generator"] == "serve-junk-bytes"

    @needs_sockets
    def test_replay_corpus_covers_serve_cases(self, tmp_path):
        case = ServeCase.make([b'{"verb":"ping","id":1}\n'])
        save_corpus_case(str(tmp_path), case, [])
        assert replay_corpus(str(tmp_path)) == []


@needs_sockets
class TestFuzzServeRun:
    def test_small_campaign_is_clean(self):
        report = fuzz_run(SERVE, seed=5, iterations=20)
        assert isinstance(report, FuzzReport)
        assert report.ok, report.failures
        assert report.iterations == 20

    def test_budget_stops_early(self):
        report = fuzz_run(SERVE, seed=5, iterations=10_000, budget=0.0)
        assert report.iterations == 0

    def test_acceptance_bar_200_adversarial_sessions(self):
        """The issue's acceptance criterion: >= 200 malformed/adversarial
        sessions against a hardened daemon with zero crashes."""
        report = fuzz_run(SERVE, seed=0, iterations=200)
        assert report.iterations == 200
        assert report.ok, "\n".join(
            "iteration=%d generator=%s: %s" % (it, gen, "; ".join(msgs))
            for it, gen, __, msgs, ___ in report.failures
        )
