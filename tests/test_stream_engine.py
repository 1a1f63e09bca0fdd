"""Unit tests for the sliding-window streaming engine and its parts."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import EngineStateError
from repro.core.topk_join import TopkOptions
from repro.obs import Tracer
from repro.similarity.functions import Cosine
from repro.stream.buffer import StreamTopkBuffer
from repro.stream.engine import STREAM_MODES, StreamingTopkEngine
from repro.stream.events import (
    StreamEvent,
    events_from_lists,
    events_to_lists,
    format_event,
    load_event_file,
    parse_event,
    read_events,
    save_event_file,
)
from repro.stream.window import SlidingWindow


def make_engine(k=2, window=0, policy="count", **overrides):
    options = TopkOptions(
        window_size=window, window_policy=policy, **overrides
    )
    return StreamingTopkEngine(k, options=options)


class TestLifecycle:
    def test_insert_before_open_rejected(self):
        engine = make_engine()
        with pytest.raises(EngineStateError, match="call open"):
            engine.insert([1, 2])

    def test_reopen_after_close_rejected(self):
        engine = make_engine()
        with engine:
            engine.insert([1, 2])
        with pytest.raises(EngineStateError, match="cannot be reopened"):
            engine.open()

    def test_close_is_idempotent(self):
        engine = make_engine()
        engine.open()
        engine.close()
        engine.close()
        assert engine.closed

    def test_open_is_idempotent_while_open(self):
        engine = make_engine()
        engine.open()
        assert engine.open() is engine
        assert engine.is_open
        engine.close()

    def test_results_survive_close(self):
        engine = make_engine(k=1)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
        [result] = engine.results()
        assert (result.x, result.y) == (0, 1)
        assert result.similarity == pytest.approx(1.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown stream mode"):
            StreamingTopkEngine(2, mode="magic")
        assert STREAM_MODES == ("incremental", "recompute")

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            StreamingTopkEngine(0)

    def test_bound_provider_rejected(self):
        options = TopkOptions(bound_provider=lambda state: 0.0)
        with pytest.raises(ValueError, match="bound_provider"):
            StreamingTopkEngine(2, options=options)

    def test_bipartite_sides_rejected(self):
        options = TopkOptions(bipartite_sides=(0, 1))
        with pytest.raises(ValueError, match="self-join"):
            StreamingTopkEngine(2, options=options)

    def test_bad_window_policy_rejected_before_open(self):
        with pytest.raises(ValueError, match="unknown window policy"):
            make_engine(policy="session")

    def test_negative_window_rejected_before_open(self):
        with pytest.raises(ValueError, match="window size"):
            make_engine(window=-1)


class TestCountWindow:
    def test_arrival_displaces_oldest_when_full(self):
        engine = make_engine(k=3, window=2)
        with engine:
            engine.insert([1])
            engine.insert([2])
            engine.insert([3])
            assert engine.window_live == 2
            assert engine.live_sids() == [1, 2]

    def test_displaced_member_pairs_leave(self):
        engine = make_engine(k=3, window=2)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            deltas = engine.insert([9])
        leaves = [d for d in deltas if d.action == "leave"]
        assert {(d.x, d.y) for d in leaves} == {(0, 1)}

    def test_unbounded_window_never_displaces(self):
        engine = make_engine(k=1, window=0)
        with engine:
            for token in range(20):
                engine.insert([token])
            assert engine.window_live == 20

    def test_expire_clamps_to_window_length(self):
        engine = make_engine(k=1, window=0)
        with engine:
            engine.insert([1])
            deltas = engine.expire(5)
            assert engine.window_live == 0
            assert deltas == []

    def test_advance_expires_count(self):
        engine = make_engine(k=1, window=0)
        with engine:
            for token in range(4):
                engine.insert([token])
            engine.advance(3)
            assert engine.live_sids() == [3]

    def test_non_integral_advance_rejected(self):
        engine = make_engine(k=1, window=0)
        with engine:
            engine.insert([1])
            with pytest.raises(ValueError, match="integral"):
                engine.advance(1.5)

    def test_negative_advance_rejected(self):
        engine = make_engine(k=1)
        with engine:
            with pytest.raises(ValueError):
                engine.advance(-1)


class TestTimeWindow:
    def test_arrival_never_displaces(self):
        # Regression: a full-looking time window must keep every record
        # until the clock moves past it.
        engine = make_engine(k=1, window=1, policy="time")
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            assert engine.window_live == 2
            [result] = engine.results()
            assert result.similarity == pytest.approx(1.0)

    def test_clock_advancing_expires(self):
        engine = make_engine(k=1, window=2, policy="time")
        with engine:
            engine.insert([1])          # arrival 0.0
            engine.advance(1.0)
            engine.insert([2])          # arrival 1.0
            engine.advance(1.0)         # clock 2.0: sid 0 falls out
            assert engine.live_sids() == [1]
            assert engine.clock == pytest.approx(2.0)

    def test_fractional_advance_accumulates(self):
        engine = make_engine(k=1, window=1, policy="time")
        with engine:
            engine.insert([1])
            engine.advance(0.5)
            assert engine.window_live == 1
            engine.advance(0.5)
            assert engine.window_live == 0


class TestDeltasAndRefill:
    def test_enter_then_leave_on_eviction(self):
        engine = make_engine(k=1)
        with engine:
            first = engine.insert([1, 2, 3])
            second = engine.insert([3, 4])   # enters with 0.25
            third = engine.insert([1, 2, 3])  # (0, 2) @ 1.0 evicts (0, 1)
        assert [d.action for d in first] == []
        assert [(d.action, d.x, d.y) for d in second] == [("enter", 0, 1)]
        assert [(d.action, d.x, d.y) for d in third] == [
            ("leave", 0, 1),
            ("enter", 0, 2),
        ]

    def test_refill_after_topk_member_expires(self):
        engine = make_engine(k=2, window=3)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3])
            engine.insert([1, 2])
            # Expiring sid 0 kills both buffered pairs; the bound must
            # relax and a refill restores the exact top-2.
            engine.expire()
            assert engine.stats.refills == 1
            pairs = {(r.x, r.y) for r in engine.results()}
            assert pairs == {(1, 2)}
            engine.insert([4, 5])
            assert len(engine.results()) == 2

    def test_deltas_replay_to_results(self):
        engine = make_engine(k=3, window=4)
        shadow = {}
        with engine:
            for event in [
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.insert([2, 3, 4]),
                StreamEvent.insert([1, 4]),
                StreamEvent.expire(1),
                StreamEvent.insert([1, 2]),
            ]:
                for delta in engine.apply(event):
                    if delta.action == "leave":
                        del shadow[(delta.x, delta.y)]
                    else:
                        shadow[(delta.x, delta.y)] = delta.similarity
            rows = {(r.x, r.y): r.similarity for r in engine.results()}
        assert shadow == rows

    def test_empty_record_occupies_slot_but_joins_nothing(self):
        engine = make_engine(k=1, window=2)
        with engine:
            engine.insert([1, 2])
            engine.insert([])
            assert engine.window_live == 2
            assert engine.nonempty_count == 1
            assert engine.results() == []
            engine.insert([1, 2])   # displaces sid 0: only (0, 2) dies
            assert engine.results() == []

    def test_duplicate_tokens_canonicalized(self):
        engine = make_engine(k=1)
        with engine:
            engine.insert([2, 1, 2, 1])
            engine.insert([1, 2])
        [result] = engine.results()
        assert result.similarity == pytest.approx(1.0)

    def test_s_k_zero_while_not_full(self):
        engine = make_engine(k=5)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            assert engine.s_k == 0.0

    def test_no_expired_sid_in_postings(self):
        engine = make_engine(k=2, window=2)
        with engine:
            engine.insert([1, 2])
            engine.insert([2, 3])
            engine.insert([3, 4])
            live = set(engine.live_sids())
            for __, sid in engine.index_entries():
                assert sid in live


class TestModesAndChecks:
    def test_recompute_mode_matches_incremental(self):
        events = [
            StreamEvent.insert([1, 2, 3]),
            StreamEvent.insert([2, 3]),
            StreamEvent.insert([1, 3, 4]),
            StreamEvent.expire(1),
            StreamEvent.insert([1, 2]),
            StreamEvent.advance(1),
        ]
        rows = {}
        for mode in STREAM_MODES:
            options = TopkOptions(window_size=4, window_policy="count")
            engine = StreamingTopkEngine(
                2, similarity=Cosine(), options=options, mode=mode
            )
            with engine:
                for event in events:
                    engine.apply(event)
                rows[mode] = [
                    (r.x, r.y, round(r.similarity, 9))
                    for r in engine.results()
                ]
        assert rows["incremental"] == rows["recompute"]

    def test_check_invariants_option_arms_hooks(self):
        engine = make_engine(k=2, window=3, check_invariants=True)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3])
            engine.insert([1, 2])
            engine.expire()
            engine.insert([4, 5])
            assert engine._checks is not None
            assert engine._checks.events == 5

    def test_repro_check_env_arms_hooks(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        engine = make_engine(k=1)
        with engine:
            engine.insert([1, 2])
            assert engine._checks is not None

    def test_accel_off_matches_accel_on(self):
        events = [
            StreamEvent.insert([1, 2, 3]),
            StreamEvent.insert([2, 3, 4]),
            StreamEvent.insert([1, 2]),
            StreamEvent.insert([3, 4]),
        ]
        rows = {}
        for accel in ("on", "off"):
            engine = make_engine(k=2, window=3, accel=accel)
            with engine:
                for event in events:
                    engine.apply(event)
                rows[accel] = [
                    (r.x, r.y, round(r.similarity, 9))
                    for r in engine.results()
                ]
        assert rows["on"] == rows["off"]


class TestObservability:
    def test_tracer_records_phases_and_close_span(self):
        tracer = Tracer()
        engine = make_engine(k=2, window=3, trace=tracer)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3])
            engine.insert([1, 2])
            engine.expire()
        phases = tracer.phase_times()
        assert "stream_ingest" in phases
        assert "stream_expire" in phases
        assert "stream_refill" in phases
        assert any(span.name == "stream_close" for span in tracer.spans)

    def test_metrics_text_exposes_stream_counters(self):
        engine = make_engine(k=2, window=3)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3])
            engine.insert([1, 2])
            engine.expire()
        text = engine.metrics_text()
        assert "repro_stream_inserts_total 3" in text
        assert "repro_stream_expirations_total 1" in text
        assert "repro_stream_refills_total 1" in text
        assert "repro_stream_s_k" in text
        assert "repro_stream_window_live" in text

    def test_refill_emit_trace_stays_bounded(self, monkeypatch):
        # Each refill's emit trace is folded into the exposition and
        # dropped: the engine keeps no per-result trace for its lifetime,
        # while the emitted total and the emit histograms keep counting.
        import repro.stream.engine as stream_engine

        emitted = []
        join = stream_engine.topk_join

        def counting_join(*args, **kwargs):
            before = len(kwargs["stats"].emits)
            results = join(*args, **kwargs)
            emitted.append(len(kwargs["stats"].emits) - before)
            return results

        monkeypatch.setattr(stream_engine, "topk_join", counting_join)
        engine = make_engine(k=3, window=6)
        rng = random.Random(5)
        retained = 0
        with engine:
            for __ in range(300):
                engine.insert(rng.sample(range(12), rng.randint(2, 5)))
                retained = max(retained, len(engine.refill_stats.emits))
        total = sum(emitted)
        assert engine.stats.refills > 50 and total > 50
        assert retained == 0
        text = engine.metrics_text()
        assert "repro_results_emitted_total %d\n" % total in text
        assert "repro_emit_latency_seconds_count %d\n" % total in text
        assert "repro_event_bound_gap_count %d\n" % total in text

    def test_stats_peaks(self):
        engine = make_engine(k=1, window=2)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2])
            engine.insert([5])
            assert engine.stats.window_peak == 2
            assert engine.stats.index_entries_peak >= 3


class TestSlidingWindowUnit:
    def test_count_overflow_only_under_count_policy(self):
        count = SlidingWindow(2, "count")
        timed = SlidingWindow(2, "time")
        for window in (count, timed):
            window.append([1])
            window.append([2])
        assert count.count_overflow(arriving=1) == 1
        assert timed.count_overflow(arriving=1) == 0

    def test_pop_oldest_is_fifo(self):
        window = SlidingWindow(0, "count")
        window.append([1])
        window.append([2])
        assert window.pop_oldest().sid == 0
        assert window.pop_oldest().sid == 1
        with pytest.raises(LookupError):
            window.pop_oldest()

    def test_sids_never_recycle(self):
        window = SlidingWindow(0, "count")
        window.append([1])
        window.pop_oldest()
        assert window.append([2]).sid == 1

    def test_clock_cannot_move_backwards(self):
        window = SlidingWindow(2, "time")
        with pytest.raises(ValueError):
            window.advance_clock(-0.5)

    def test_timed_out_half_open_boundary(self):
        window = SlidingWindow(2, "time")
        window.append([1])          # arrival 0.0
        window.advance_clock(2.0)
        assert window.timed_out() == 1   # arrival <= clock - size


class TestStreamTopkBufferUnit:
    def test_s_k_zero_until_full(self):
        buffer = StreamTopkBuffer(2)
        buffer.add((0, 1), 0.9)
        assert buffer.s_k == 0.0
        buffer.add((0, 2), 0.5)
        assert buffer.s_k == pytest.approx(0.5)

    def test_ties_at_s_k_lose(self):
        buffer = StreamTopkBuffer(1)
        assert buffer.add((0, 1), 0.5) == (True, None)
        added, evicted = buffer.add((0, 2), 0.5)
        assert not added and evicted is None

    def test_better_offer_evicts_worst(self):
        buffer = StreamTopkBuffer(1)
        buffer.add((0, 1), 0.5)
        added, evicted = buffer.add((0, 2), 0.9)
        assert added and evicted == ((0, 1), 0.5)

    def test_duplicate_pair_rejected(self):
        buffer = StreamTopkBuffer(2)
        buffer.add((0, 1), 0.5)
        assert buffer.add((0, 1), 0.5) == (False, None)

    def test_remove_record_returns_dead_pairs(self):
        buffer = StreamTopkBuffer(3)
        buffer.add((0, 1), 0.5)
        buffer.add((0, 2), 0.7)
        buffer.add((1, 2), 0.3)
        dead = buffer.remove_record(0)
        assert {(pair, round(v, 9)) for pair, v in dead} == {
            ((0, 1), 0.5), ((0, 2), 0.7)
        }
        assert buffer.items() == [((1, 2), 0.3)]

    def test_rebuild_replaces_contents(self):
        buffer = StreamTopkBuffer(2)
        buffer.add((0, 1), 0.5)
        buffer.rebuild([((2, 3), 0.8), ((2, 4), 0.6)])
        assert buffer.items() == [((2, 3), 0.8), ((2, 4), 0.6)]
        assert buffer.s_k == pytest.approx(0.6)

    def test_items_sorted_best_first_then_pair(self):
        buffer = StreamTopkBuffer(3)
        buffer.add((1, 2), 0.5)
        buffer.add((0, 3), 0.5)
        buffer.add((0, 1), 0.9)
        assert buffer.items() == [
            ((0, 1), 0.9), ((0, 3), 0.5), ((1, 2), 0.5)
        ]


class TestStreamEvents:
    def test_parse_insert_forms(self):
        assert parse_event("+ 1 2 3") == StreamEvent.insert([1, 2, 3])
        assert parse_event("1 2 3") == StreamEvent.insert([1, 2, 3])
        assert parse_event("+") == StreamEvent.insert([])

    def test_parse_expire_and_advance(self):
        assert parse_event("-") == StreamEvent.expire(1)
        assert parse_event("- 3") == StreamEvent.expire(3)
        assert parse_event("> 1.5") == StreamEvent.advance(1.5)

    def test_parse_skips_blanks_and_comments(self):
        assert parse_event("") is None
        assert parse_event("  # note") is None

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_event("walrus")
        with pytest.raises(ValueError):
            parse_event("- 1 2")
        with pytest.raises(ValueError):
            parse_event(">")

    def test_read_events_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            list(read_events(["+ 1", "> a b"]))

    def test_format_parse_roundtrip(self):
        events = [
            StreamEvent.insert([3, 1, 4]),
            StreamEvent.insert([]),
            StreamEvent.expire(2),
            StreamEvent.advance(0.5),
        ]
        assert [parse_event(format_event(e)) for e in events] == events

    def test_event_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        events = [StreamEvent.insert([1, 2]), StreamEvent.advance(2.0)]
        save_event_file(path, events)
        assert load_event_file(path) == events

    def test_lists_roundtrip(self):
        events = [
            StreamEvent.insert([1, 2]),
            StreamEvent.expire(2),
            StreamEvent.advance(1.5),
        ]
        payload = events_to_lists(events)
        assert payload == [["+", [1, 2]], ["-", 2], [">", 1.5]]
        assert events_from_lists(payload) == events

    def test_lists_reject_malformed(self):
        with pytest.raises(ValueError):
            events_from_lists([["+", 3]])
        with pytest.raises(ValueError):
            events_from_lists([["-", True]])
        with pytest.raises(ValueError):
            events_from_lists([["?", 1]])
