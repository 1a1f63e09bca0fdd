"""The streaming oracle harness: differential sweeps, fuzzing, corpus.

The acceptance bar for the streaming engine: the incremental engine is
tie-aware identical to a full recompute (and to the brute-force window
oracle) after **every** event of hundreds of fuzzed event sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.oracle.differential import (
    StreamCase,
    available_stream_backends,
    run_stream_differential,
)
from repro.oracle.fuzz import (
    STREAM,
    STREAM_GENERATORS,
    FuzzReport,
    fuzz_run,
    load_corpus_case,
    replay_corpus,
    save_corpus_case,
    shrink_case,
)
from repro.oracle.invariants import InvariantViolation, StreamCheckHooks
from repro.oracle.reference import naive_window_topk
from repro.result import JoinResult
from repro.stream.engine import StreamingTopkEngine
from repro.stream.events import StreamEvent


def generated_cases(seed, count):
    """*count* seeded cases, cycling through the trace generators."""
    rng = random.Random(seed)
    names = sorted(STREAM_GENERATORS)
    return [
        STREAM_GENERATORS[names[i % len(names)]](rng) for i in range(count)
    ]


class TestNaiveWindowOracle:
    def test_scores_all_live_pairs(self):
        live = [(0, (1, 2)), (3, (1, 2)), (7, (9,))]
        results = naive_window_topk(live, k=3)
        assert [(r.x, r.y) for r in results] == [(0, 3), (0, 7), (3, 7)]
        assert results[0].similarity == pytest.approx(1.0)

    def test_empty_records_excluded_from_pair_space(self):
        live = [(0, (1, 2)), (1, ()), (2, (1, 2))]
        results = naive_window_topk(live, k=5)
        assert [(r.x, r.y) for r in results] == [(0, 2)]

    def test_boundary_ties_keep_smallest_pairs(self):
        live = [(0, (1,)), (1, (1,)), (2, (1,))]
        results = naive_window_topk(live, k=2)
        assert [(r.x, r.y) for r in results] == [(0, 1), (0, 2)]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            naive_window_topk([], k=0)


class TestStreamDifferential:
    def test_backend_registry(self):
        names = available_stream_backends()
        assert "stream-incremental" in names
        assert "stream-recompute" in names
        assert "stream-trace-on" in names

    def test_unknown_backend_rejected(self):
        case = StreamCase.make([StreamEvent.insert([1])], k=1)
        with pytest.raises(ValueError, match="unknown stream backends"):
            run_stream_differential(case, backends=["stream-nope"])

    def test_relaxation_trace_passes_all_backends(self):
        case = StreamCase.make(
            [
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.insert([1, 2]),
                StreamEvent.expire(1),
                StreamEvent.insert([4, 5]),
            ],
            k=2,
            window=3,
        )
        assert run_stream_differential(case) == []

    def test_catches_an_engine_that_drops_results(self, monkeypatch):
        """The harness must flag a broken engine, not vacuously pass."""
        monkeypatch.setattr(
            StreamingTopkEngine, "results", lambda self: []
        )
        case = StreamCase.make(
            [StreamEvent.insert([1, 2]), StreamEvent.insert([1, 2])], k=1
        )
        failures = run_stream_differential(
            case, backends=["stream-incremental"]
        )
        assert failures
        # The runtime invariants (stream-completeness) fire before the
        # oracle comparison even gets a look.
        assert "mismatch" in failures[0] or "invariant" in failures[0]

    def test_catches_lost_deltas(self, monkeypatch):
        """A result present without an 'enter' delta must be flagged."""
        original = StreamingTopkEngine.apply
        monkeypatch.setattr(
            StreamingTopkEngine,
            "apply",
            lambda self, event: original(self, event) and [],
        )
        case = StreamCase.make(
            [StreamEvent.insert([1, 2]), StreamEvent.insert([1, 2])], k=1
        )
        failures = run_stream_differential(
            case, backends=["stream-incremental"]
        )
        assert failures

    def test_fuzzed_sequences_fast_subset(self):
        """40 seeded traces, every backend, checked after every event."""
        for case in generated_cases(seed=1234, count=40):
            failures = run_stream_differential(case)
            assert failures == [], "\n".join(failures)

    def test_fuzzed_sequences_acceptance_bar(self):
        """>= 200 fuzzed event sequences: the incremental engine stays
        tie-aware identical to the full recompute and to the window
        oracle after every single event."""
        for case in generated_cases(seed=20260808, count=200):
            failures = run_stream_differential(case)
            assert failures == [], "\n".join(failures)

    @pytest.mark.slow
    def test_fuzzed_sequences_deep(self):
        report = fuzz_run(STREAM, seed=97, iterations=400)
        assert report.ok, report.failures
        assert report.iterations == 400


class TestStreamCheckHooks:
    def test_on_trim_flags_wrong_head(self):
        from repro.index.inverted import InvertedIndex

        index = InvertedIndex()
        index.add(5, rid=0, position=1)
        hooks = StreamCheckHooks()
        with pytest.raises(InvariantViolation) as caught:
            hooks.on_trim(index, token=5, sid=1)
        assert caught.value.invariant == "stream-trim-head"

    def test_eviction_catches_a_foreign_head_posting(self, monkeypatch):
        # Record eviction is one index call; under REPRO_CHECK every
        # token's head is still checked before it.
        monkeypatch.setenv("REPRO_CHECK", "1")
        engine = StreamingTopkEngine(1)
        with engine:
            engine.insert([1, 2])
            engine.insert([2, 3])
            # Drop sid 0's posting of token 2: sid 1 now heads that list.
            engine._index.trim_head(2, 1)
            with pytest.raises(InvariantViolation) as caught:
                engine.expire()
        assert caught.value.invariant == "stream-trim-head"
        assert "token 2" in str(caught.value)

    def test_on_refill_flags_rising_bound(self):
        hooks = StreamCheckHooks()
        with pytest.raises(InvariantViolation) as caught:
            hooks.on_refill(0.4, 0.5)
        assert caught.value.invariant == "stream-s_k-relaxation"

    def test_after_event_flags_foreign_result_pair(self):
        engine = StreamingTopkEngine(1)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            hooks = StreamCheckHooks()
            engine._buffer.rebuild([((0, 9), 1.0)])
            with pytest.raises(InvariantViolation) as caught:
                hooks.after_event(engine)
        assert caught.value.invariant == "stream-window-membership"

    def test_after_event_flags_incomplete_buffer(self):
        engine = StreamingTopkEngine(1)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            engine._buffer.rebuild([])
            hooks = StreamCheckHooks()
            with pytest.raises(InvariantViolation) as caught:
                hooks.after_event(engine)
        assert caught.value.invariant == "stream-completeness"


    def test_after_event_flags_a_stale_answer(self, monkeypatch):
        from repro.stream.buffer import StreamTopkBuffer

        # A forget that leaves the version alone: expiring the only
        # member (no promotion, no refill) would keep serving it.
        forget = StreamTopkBuffer._forget

        def forget_keeping_version(buffer, pair):
            version = buffer.version
            forget(buffer, pair)
            buffer.version = version

        monkeypatch.setattr(
            StreamTopkBuffer, "_forget", forget_keeping_version
        )
        monkeypatch.setenv("REPRO_CHECK", "1")
        engine = StreamingTopkEngine(1)
        with engine:
            engine.insert([1, 2])
            engine.insert([1, 2])
            with pytest.raises(InvariantViolation) as caught:
                engine.expire()
        assert caught.value.invariant == "stream-answer-snapshot"


class TestShrinker:
    def test_shrinks_to_single_relevant_event(self):
        case = StreamCase.make(
            [
                StreamEvent.insert([1, 2, 3]),
                StreamEvent.expire(1),
                StreamEvent.insert([4, 5]),
                StreamEvent.advance(1),
                StreamEvent.insert([6]),
            ],
            k=4,
            window=6,
        )

        def failing(candidate):
            big = any(
                e.kind == "insert" and len(e.tokens) >= 2
                for e in candidate.events
            )
            return ["boom"] if big else []

        shrunk = shrink_case(case, failing)
        assert len(shrunk.events) == 1
        assert len(shrunk.events[0].tokens) == 2
        assert shrunk.k == 1
        assert shrunk.window == 0

    def test_keeps_failing_case_intact_when_nothing_shrinks(self):
        case = StreamCase.make([StreamEvent.insert([1, 2])], k=1)
        shrunk = shrink_case(case, lambda c: ["always"])
        assert len(shrunk.events) == 1

    def test_passing_case_is_returned_unchanged(self):
        case = StreamCase.make(
            [StreamEvent.insert([1, 2]), StreamEvent.expire(1)], k=2,
            window=3,
        )
        assert shrink_case(case, lambda c: []) == case


class TestCorpusPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        case = StreamCase.make(
            [
                StreamEvent.insert([1, 2]),
                StreamEvent.expire(2),
                StreamEvent.advance(1.5),
            ],
            k=3,
            window=4,
            policy="time",
            similarity="cosine",
        )
        path = save_corpus_case(
            str(tmp_path), case, ["failure text"], seed=9,
            generator="stream-mixed", description="roundtrip",
        )
        assert path.endswith(".json")
        loaded, document = load_corpus_case(path)
        assert loaded == case
        assert document["failures"] == ["failure text"]
        assert document["policy"] == "time"

    def test_digest_is_content_addressed(self, tmp_path):
        case = StreamCase.make([StreamEvent.insert([1])], k=1)
        first = save_corpus_case(str(tmp_path), case, [])
        second = save_corpus_case(str(tmp_path), case, ["other"])
        assert first == second

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "stream_bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_corpus_case(str(path))

    def test_replay_corpus_covers_stream_cases(self, tmp_path, monkeypatch):
        case = StreamCase.make(
            [StreamEvent.insert([1, 2]), StreamEvent.insert([1, 2])], k=1
        )
        save_corpus_case(str(tmp_path), case, [])
        assert replay_corpus(str(tmp_path)) == []
        monkeypatch.setattr(
            StreamingTopkEngine, "results", lambda self: []
        )
        failing = replay_corpus(str(tmp_path))
        assert len(failing) == 1


class TestFuzzStreamRun:
    def test_clean_run_reports_ok(self):
        report = fuzz_run(STREAM, seed=5, iterations=15)
        assert isinstance(report, FuzzReport)
        assert report.ok
        assert report.iterations == 15

    def test_budget_stops_early(self):
        report = fuzz_run(STREAM, seed=5, iterations=10_000, budget=0.0)
        assert report.iterations == 0

    def test_failures_are_shrunk_and_saved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            StreamingTopkEngine, "results", lambda self: []
        )
        report = fuzz_run(
            STREAM, seed=11, iterations=30, max_failures=1,
            backends=["stream-incremental"], corpus_dir=str(tmp_path),
        )
        assert len(report.failures) == 1
        __, generator, shrunk, failures, path = report.failures[0]
        assert generator in STREAM_GENERATORS
        assert failures
        assert path is not None
        loaded, document = load_corpus_case(path)
        assert loaded == shrunk
        assert document["failures"] == failures

    def test_campaign_reaches_refill_and_promotion(self, monkeypatch):
        # The fuzzer must exercise both ways a dead top-k member is
        # replaced: promotion from the reserve and a batch refill.
        stats = []
        close = StreamingTopkEngine._on_close

        def recording_close(self):
            stats.append(self.stats)
            close(self)

        monkeypatch.setattr(StreamingTopkEngine, "_on_close", recording_close)
        report = fuzz_run(
            STREAM, seed=7, iterations=40, backends=["stream-incremental"]
        )
        assert report.ok, report.failures
        assert sum(s.refills for s in stats) > 0
        assert sum(s.reserve_promotions for s in stats) > 0

    def test_differential_catches_a_floor_that_never_rises(self, monkeypatch):
        # Without the τ raise, pairs dropped from a full reserve are
        # forgotten and a later promotion skips a better live pair; the
        # hub traces drain the reserve often enough to expose it.
        from repro.stream.buffer import PairReserve

        rng = random.Random(3)
        cases = [STREAM_GENERATORS["stream-hub"](rng) for __ in range(60)]
        assert not any(
            run_stream_differential(case, backends=["stream-incremental"])
            for case in cases
        )
        monkeypatch.setattr(
            PairReserve, "_raise_floor", lambda self, value: None
        )
        caught = [
            case for case in cases
            if run_stream_differential(case, backends=["stream-incremental"])
        ]
        assert caught

    def test_deterministic_in_seed(self):
        first = fuzz_run(STREAM, seed=21, iterations=9)
        second = fuzz_run(STREAM, seed=21, iterations=9)
        assert first.iterations == second.iterations == 9
        assert first.ok and second.ok


def test_results_type_is_join_result():
    engine = StreamingTopkEngine(1)
    with engine:
        engine.insert([1, 2])
        engine.insert([1, 2])
        [result] = engine.results()
    assert isinstance(result, JoinResult)
