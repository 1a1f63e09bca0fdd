"""The live exposition equals the registry rendering of the same state.

``StreamingTopkEngine.metrics_text`` and ``TopkServer.metrics_text`` (the
``metrics`` verb and HTTP ``/metrics``) render the engine's and the
daemon's state on every scrape.  :func:`reference_exposition` renders
that same state the batch way, through a :class:`MetricsRegistry`
(``absorb_stats`` / ``absorb_topk_stats``) and ``to_prometheus_text``;
the two must agree byte for byte.  The refill joins' emit traces are
captured as they finish, so the reference owns every emit the engine
has folded into its histograms.

Checkpoints cover a scrape before the first refill (emit histograms all
zero), the first scrape that shows ``repro_bitmap_hit_rate``, scrapes
between, and one after ``close()``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

import pytest

import repro.stream.engine as stream_engine
from repro.core.metrics import EmitEvent
from repro.core.topk_join import TopkOptions
from repro.data.synthetic import dblp_like
from repro.obs import SERVE_LATENCY_BUCKETS, Tracer, to_prometheus_text
from repro.oracle.differential import sockets_usable
from repro.serve import InProcessDaemon, ServeClient, ServeOptions
from repro.stream.engine import STREAM_MODES, StreamingTopkEngine

STREAM_GAUGES = (
    ("repro_stream_s_k",
     "Current k-th live similarity of the streaming engine."),
    ("repro_stream_window_live",
     "Live records currently in the sliding window."),
    ("repro_stream_clock",
     "Current stream clock (time-policy windows)."),
    ("repro_stream_results_live",
     "Pairs currently in the live top-k result set."),
    ("repro_stream_reserve_depth",
     "Most pairs the reserve below the live top-k may hold."),
)
SERVE_GAUGES = (
    ("repro_serve_queue_depth", "Ingestion events currently pending.",
     "queue_depth"),
    ("repro_serve_connections_open", "Client connections currently open.",
     "connections_open"),
    ("repro_serve_subscribers",
     "Clients currently subscribed to the delta stream.", "subscribers"),
)


def reference_exposition(
    engine: StreamingTopkEngine,
    emits: List[EmitEvent],
    server: Optional[object] = None,
    tracer: Optional[Tracer] = None,
) -> str:
    """The registry rendering of *engine*'s (and *server*'s) state."""
    snapshot = Tracer()
    registry = snapshot.metrics
    registry.absorb_stats(engine.stats)
    registry.absorb_topk_stats(
        dataclasses.replace(engine.refill_stats, emits=list(emits))
    )
    values = (engine.s_k, engine.window_live, engine.clock,
              len(engine.results()), engine.reserve.depth)
    for (name, help_text), value in zip(STREAM_GAUGES, values):
        registry.gauge(name, help_text, mode="last").set(float(value))
    if server is not None:
        registry.absorb_stats(server.stats)
        payload = server.stats_payload()
        for name, help_text, key in SERVE_GAUGES:
            registry.gauge(name, help_text, mode="last").set(
                float(payload[key])
            )
        latency = server._latency
        registry.histogram(
            latency.name, latency.help, edges=SERVE_LATENCY_BUCKETS
        ).merge_from(latency)
    if tracer is not None:
        for name, (total, calls) in sorted(tracer.phase_times().items()):
            snapshot.add_phase_time(name, total)
            for __ in range(calls - 1):
                snapshot.add_phase_time(name, 0.0)
    return to_prometheus_text(snapshot)


@pytest.fixture
def refill_emits(monkeypatch):
    """Every emit of every refill join, in the order the joins ran."""
    emits: List[EmitEvent] = []
    join = stream_engine.topk_join

    def capturing_join(*args, **kwargs):
        stats = kwargs["stats"]
        before = len(stats.emits)
        results = join(*args, **kwargs)
        emits.extend(stats.emits[before:])
        return results

    monkeypatch.setattr(stream_engine, "topk_join", capturing_join)
    return emits


def hub_tokens(rng, index, hub):
    """Every 4th record a fresh 4-token hub, the rest two of its tokens
    plus a stray: hub expiries keep forcing refills."""
    if index % 4 == 0:
        hub[:] = rng.sample(range(12), 4)
        return list(hub)
    return rng.sample(hub, 2) + [12 + rng.randrange(20)]


def overlapping_tokens(count):
    """Records of 6 of the same 10 tokens, so every pair overlaps.

    Hub refills test no bitmap once the reserve has deepened to every
    live pair of the window; the first refill over these records joins
    for only some of the pairs and tests bitmaps on the rest.
    """
    rng = random.Random(1)
    return [sorted(rng.sample(range(10), 6)) for __ in range(count)]


class TestEngineExposition:
    @pytest.mark.parametrize("mode", STREAM_MODES)
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_every_scrape_matches_the_registry(
        self, refill_emits, mode, traced
    ):
        tracer = Tracer() if traced else None
        engine = StreamingTopkEngine(
            3, options=TopkOptions(window_size=6, trace=tracer), mode=mode
        )
        rng = random.Random(5)
        hub: List[int] = []
        # The reserve deepens at refills that come close together, so it
        # takes this many hub records to pass 50 refills.
        trace = overlapping_tokens(12) + [
            hub_tokens(rng, index, hub) for index in range(1200)
        ]
        seen_zero_histograms = seen_hit_rate = False
        with engine:
            for index, tokens in enumerate(trace):
                engine.insert(tokens)
                if index % 50 == 49:
                    engine.expire()
                text = engine.metrics_text()
                assert text == reference_exposition(
                    engine, refill_emits, tracer=tracer
                ), index
                if not refill_emits:
                    assert "repro_emit_latency_seconds_count 0\n" in text
                    seen_zero_histograms = True
                if "repro_bitmap_hit_rate " in text:
                    seen_hit_rate = True
        assert engine.stats.refills > 50 or mode == "recompute"
        assert seen_zero_histograms and seen_hit_rate
        if traced and mode == "incremental":
            # Each refill is one call of its phase timer.
            assert 'repro_phase_calls_total{phase="stream_refill"} %d\n' % (
                engine.stats.refills
            ) in text
        assert engine.metrics_text() == reference_exposition(
            engine, refill_emits, tracer=tracer
        )


def dblp_trace(count: int) -> List[List[int]]:
    collection = dblp_like(count + 200, seed=7)
    ordered = sorted(collection.records, key=lambda r: r.source_id)
    return [list(record.tokens) for record in ordered[:count]]


@pytest.mark.skipif(not sockets_usable(), reason="cannot bind local sockets")
class TestDaemonExposition:
    def test_scrapes_match_the_registry(self, refill_emits):
        engines: List[StreamingTopkEngine] = []

        def make_engine() -> StreamingTopkEngine:
            engine = StreamingTopkEngine(
                1, options=TopkOptions(window_size=200)
            )
            engines.append(engine)
            return engine

        daemon = InProcessDaemon(make_engine, ServeOptions())
        host, port = daemon.start()
        try:
            server = daemon.server
            engine = engines[0]
            checked = []
            with ServeClient(host, port) as client:
                refilled = hit_rate = False
                for index, tokens in enumerate(dblp_trace(3000)):
                    assert client.request("insert", tokens=tokens)["ok"]
                    due = index in (0, 199) or index % 500 == 499
                    if not refilled and engine.stats.refills:
                        refilled = due = True
                    if not hit_rate and engine.refill_stats.bitmap_checked:
                        hit_rate = due = True
                    if not due:
                        continue
                    text = client.request("metrics")["text"]
                    assert text == reference_exposition(
                        engine, refill_emits, server=server
                    ), index
                    checked.append(
                        (index, "repro_bitmap_hit_rate " in text,
                         "repro_emit_latency_seconds_count 0\n" in text)
                    )
            # Before the first refill the emit histograms are empty; the
            # hit rate appears with the first refill that tested bitmaps.
            assert checked[0] == (0, False, True)
            assert any(hit for __, hit, __ in checked)
            assert engine.stats.refills > 0
        finally:
            daemon.stop()
        assert engine.closed
        assert server.metrics_text() == reference_exposition(
            engine, refill_emits, server=server
        )
