"""Unit tests for the sliding-window streaming engine and its parts."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.engine import EngineStateError
from repro.core.topk_join import TopkOptions
from repro.obs import Tracer
from repro.similarity.functions import Cosine
from repro.stream.buffer import PairReserve, StreamTopkBuffer
from repro.stream.engine import STREAM_MODES, StreamDelta, StreamingTopkEngine
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


#: A hub trace for ``k=1``: sid 0 is in both tracked pairs (the top-1
#: and the one-pair reserve), so expiring it drains both tiers and a
#: real batch refill runs; the refilled top-1 is (1, 2) at 1/6.
HUB_TRACE = [[1, 2, 3, 4, 5, 6], [1, 2, 7], [3, 4, 7, 8], [5, 6, 8, 9]]


def hub_tokens(rng, index, hub):
    """Every 4th record a fresh 4-token hub, the rest two of its tokens
    plus a stray: most tracked pairs involve a hub, so hub expiries
    keep draining the reserve."""
    if index % 4 == 0:
        hub[:] = rng.sample(range(12), 4)
        return list(hub)
    return rng.sample(hub, 2) + [12 + rng.randrange(20)]


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
        engine = make_engine(k=1, window=4)
        with engine:
            for tokens in HUB_TRACE:
                engine.insert(tokens)
            # Expiring the hub kills the top-1 and the whole reserve;
            # the bound must relax and a refill restores the exact top-1.
            engine.expire()
            assert engine.stats.refills == 1
            pairs = {(r.x, r.y) for r in engine.results()}
            assert pairs == {(1, 2)}
            engine.insert([1, 2, 7])
            assert len(engine.results()) == 1
            assert {(r.x, r.y) for r in engine.results()} == {(1, 4)}

    def test_refill_join_reuses_the_window_signatures(self, monkeypatch):
        import repro.data.records as records

        def no_hashing(*args, **kwargs):
            raise AssertionError("the refill join hashed a record again")

        monkeypatch.setattr(records, "signature_of", no_hashing)
        engine = make_engine(k=1, window=4, accel="on")
        with engine:
            for tokens in HUB_TRACE:
                engine.insert(tokens)
            engine.expire()
            assert engine.stats.refills == 1
            assert {(r.x, r.y) for r in engine.results()} == {(1, 2)}

    def test_promotion_replaces_dead_member_without_refill(self):
        engine = make_engine(k=1, check_invariants=True)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3, 4])   # (0, 1) @ 0.75
            engine.insert([5, 6, 7])      # similarity-0 pairs
            engine.insert([5, 6, 7, 8])   # (2, 3) @ 0.75 ties s_k
            assert [pair for pair, __ in engine.reserve.items()] == [(2, 3)]
            deltas = engine.expire()
        assert deltas == [
            StreamDelta("leave", 0, 1, 0.75),
            StreamDelta("enter", 2, 3, 0.75),
        ]
        assert engine.stats.refills == 0
        assert engine.stats.reserve_promotions == 1
        assert len(engine.reserve) == 0

    def test_floor_resets_when_every_live_pair_is_tracked(self):
        engine = make_engine(k=1, check_invariants=True)
        with engine:
            engine.insert([1, 2, 3])
            engine.insert([1, 2, 3])
            engine.insert([1, 2])        # reserve overflow: floor 2/3
            engine.insert([1, 2])
            assert engine.reserve.floor == pytest.approx(2 / 3)
            engine.expire()              # promotes (2, 3)
            assert engine.stats.reserve_promotions == 1
            assert engine.reserve.floor is not None
            engine.expire()              # one live pair, and it is tracked
            assert engine.reserve.floor is None
            engine.insert([9])           # token-disjoint: still tracked
            assert [pair for pair, __ in engine.reserve.items()] == [(2, 4)]
        assert engine.stats.refills == 0

    def test_zero_floor_keeps_similarity_zero_pairs_complete(self):
        # A floor of 0 keeps the verify-every-live-record branch: the
        # index cannot produce token-disjoint pairs.  Shrinking the
        # window to two records and adding a disjoint arrival must still
        # leave min(k, P) pairs, equal to the oracle after every event.
        from repro.oracle.reference import naive_window_topk

        engine = make_engine(k=2, check_invariants=True)
        live = {}
        floors = []
        with engine:
            for event in [
                StreamEvent.insert([1, 2]),
                StreamEvent.insert([1, 2]),
                StreamEvent.insert([5]),
                StreamEvent.insert([6]),
                StreamEvent.expire(2),
                StreamEvent.insert([9]),
                StreamEvent.insert([10]),
            ]:
                engine.apply(event)
                floors.append(engine.reserve.floor)
                live = {
                    sid: tuple(sorted(engine._window.get(sid).tokens))
                    for sid in engine.live_sids()
                }
                expected = naive_window_topk(sorted(live.items()), 2)
                assert [(r.x, r.y, r.similarity) for r in engine.results()] \
                    == [(r.x, r.y, r.similarity) for r in expected]
        assert 0.0 in floors
        assert len(live) == 4 and len(engine.results()) == 2

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


#: Ascending ids put the commonest tokens first: 0 and 1 are in every
#: record, 2-4 in most, the rest in one or two.  The two 0.8 pairs make
#: the k=1 probe bound τ = 0.8, so a 7-9-token arrival probes 2 tokens.
RARE_LAST_WINDOW = [
    [0, 1, 2, 3, 4, 10, 11, 12, 14],
    [0, 1, 2, 3, 4, 10, 11, 12, 15],
    [0, 1, 2, 3, 20, 21, 22, 23, 24],
    [0, 1, 2, 3, 20, 21, 22, 23, 25],
    [0, 1, 2, 4, 30, 31, 32, 33, 34],
    [0, 1, 3, 4, 40, 41, 42, 43, 44],
]


class TestRarestFirstProbe:
    """The arrival probes its ``prefix`` shortest live posting lists."""

    @staticmethod
    def probe(arrival):
        """Insert *arrival* after the window and report on its probe.

        ``candidates`` is what the engine counted; ``shortest``,
        ``ascending`` and ``higher_id_wins`` are the sizes of the posting
        list unions each pick rule would have probed.
        """
        from repro.oracle import assert_topk_equivalent
        from repro.oracle.reference import naive_window_topk
        from repro.similarity.functions import Jaccard

        engine = make_engine(k=1, check_invariants=True)
        with engine:
            for tokens in RARE_LAST_WINDOW:
                engine.insert(tokens)
            lists = {}
            for token, sid in engine.index_entries():
                lists.setdefault(token, set()).add(sid)
            bound = engine.reserve.probe_floor()
            assert bound == pytest.approx(0.8)
            prefix = Jaccard().probing_prefix_length(len(arrival), bound)
            assert prefix < len(arrival)

            def union(tokens):
                return len(set().union(*(lists.get(t, ()) for t in tokens)))

            def shortest(tie):
                return sorted(
                    arrival, key=lambda t: (len(lists.get(t, ())), tie(t))
                )[:prefix]

            before = engine.stats.probe_candidates
            engine.insert(arrival)
            candidates = engine.stats.probe_candidates - before
        live = list(enumerate([*RARE_LAST_WINDOW, arrival]))
        assert_topk_equivalent(engine.results(), naive_window_topk(live, 1))
        return SimpleNamespace(
            candidates=candidates,
            shortest=union(shortest(lambda t: t)),
            ascending=union(arrival[:prefix]),
            higher_id_wins=union(shortest(lambda t: -t)),
            results=[(r.x, r.y) for r in engine.results()],
        )

    def test_probes_shortest_lists_not_commonest_ids(self):
        probe = self.probe([0, 1, 2, 3, 4, 10, 11, 12, 14])
        assert probe.candidates == probe.shortest == 2  # lists of 14, 10
        assert probe.ascending == 6  # 0 and 1 reach every record
        assert probe.results == [(0, 6)]

    def test_equal_list_lengths_pick_the_lower_token(self):
        # After 14 (record 0), 10 and 20 tie at two postings each; 10
        # wins and adds record 1, where 20 would have added records 2, 3.
        probe = self.probe([0, 1, 2, 3, 10, 14, 20])
        assert probe.candidates == probe.shortest == 2
        assert probe.higher_id_wins == 3
        assert probe.candidates < probe.ascending

    def test_absent_tokens_are_picked_first_and_cost_nothing(self):
        # 98 is in no live record: the second probed list is 10's.
        probe = self.probe([0, 1, 2, 3, 4, 10, 11, 98])
        assert probe.candidates == probe.shortest == 2
        assert probe.candidates < probe.ascending
        assert self.probe([0, 1, 2, 3, 97, 98, 99]).candidates == 0


#: Two 0.8 pairs make the k=1 probe bound τ = 0.8; sid 4 is a 10-token
#: record disjoint from the rest.
COUNT_BOUND_WINDOW = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8],
    [0, 1, 2, 3, 4, 5, 6, 7, 9],
    [20, 21, 22, 23, 24, 25, 26, 27, 28],
    [20, 21, 22, 23, 24, 25, 26, 27, 29],
    [40, 41, 42, 43, 44, 45, 46, 47, 48, 49],
]


def near_duplicate_events(rng, policy, count=60):
    """Inserts drawn from a few mutated base sets (so τ stays high and
    arrivals probe short prefixes), with advances under ``"time"``."""
    bases = [rng.sample(range(60), rng.randint(4, 12)) for __ in range(4)]
    events = []
    for __ in range(count):
        tokens = set(rng.choice(bases))
        for __ in range(rng.randint(0, 3)):
            tokens.symmetric_difference_update({rng.randrange(60)})
        events.append(StreamEvent.insert(sorted(tokens)))
        if policy == "time" and rng.random() < 0.4:
            events.append(StreamEvent.advance(rng.choice([0.5, 1, 2])))
    return events


def replay_against_window_oracle(engine, events, k):
    """Apply *events*; after each, the answer must be tie-equivalent to
    :func:`naive_window_topk` over the live window."""
    from repro.oracle import assert_topk_equivalent
    from repro.oracle.reference import naive_window_topk

    with engine:
        for index, event in enumerate(events):
            engine.apply(event)
            live = [
                (sid, engine._window.get(sid).tokens)
                for sid in engine.live_sids()
            ]
            assert_topk_equivalent(
                engine.results(),
                naive_window_topk(live, k),
                context="event %d" % index,
            )


class TestCountBoundedProbe:
    """A candidate holding ``c`` of the ``p`` probed tokens of an arrival
    ``x`` is pruned when ``c + |x| - p`` is below its α."""

    @pytest.mark.parametrize("accel", ["on", "off"])
    def test_one_shared_probed_token_is_pruned_unverified(self, accel):
        from repro.oracle import assert_topk_equivalent
        from repro.oracle.reference import naive_window_topk
        from repro.similarity.functions import Jaccard

        # 99 is absent and 40 has the shortest list, so the arrival
        # probes {99, 40}: sid 4 is the only candidate, with c = 1.
        arrival = [0, 1, 2, 3, 4, 5, 6, 40, 99]
        engine = make_engine(k=1, accel=accel, check_invariants=True)
        with engine:
            for tokens in COUNT_BOUND_WINDOW:
                engine.insert(tokens)
            bound = engine.reserve.probe_floor()
            assert bound == pytest.approx(0.8)
            jaccard = Jaccard()
            prefix = jaccard.probing_prefix_length(len(arrival), bound)
            alpha = jaccard.required_overlap(bound, len(arrival), 10)
            assert prefix == 2 and alpha == 9
            assert 1 + len(arrival) - prefix < alpha <= len(arrival)
            before = dict(vars(engine.stats))
            engine.insert(arrival)
            moved = {
                name: value - before[name]
                for name, value in vars(engine.stats).items()
                if value != before[name]
            }
        assert moved["probe_candidates"] == 1
        assert moved["count_pruned"] == 1
        assert "probe_verifications" not in moved
        assert "bitmap_checked" not in moved
        assert "size_pruned" not in moved
        live = list(enumerate([*COUNT_BOUND_WINDOW, arrival]))
        assert_topk_equivalent(engine.results(), naive_window_topk(live, 1))

    @pytest.mark.parametrize("policy, window", [("count", 9), ("time", 4)])
    @pytest.mark.parametrize("accel", ["on", "off"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_random_windows_match_the_window_oracle(
        self, policy, window, accel, k
    ):
        rng = random.Random("%s-%s-%d" % (policy, accel, k))
        pruned = 0
        for __ in range(6):
            engine = make_engine(
                k=k, window=window, policy=policy, accel=accel,
                check_invariants=True,
            )
            replay_against_window_oracle(
                engine, near_duplicate_events(rng, policy), k
            )
            pruned += engine.stats.count_pruned
        assert pruned > 0

    def test_a_bound_one_too_tight_is_caught(self, monkeypatch):
        import repro.stream.engine as stream_engine

        monkeypatch.setattr(
            stream_engine,
            "unprobed_overlap",
            lambda size_x, probed: size_x - probed - 1,
        )
        rng = random.Random(7)
        with pytest.raises(AssertionError):
            for __ in range(20):
                replay_against_window_oracle(
                    make_engine(k=1, window=9),
                    near_duplicate_events(rng, "count"),
                    1,
                )


class TestObservability:
    def test_tracer_records_phases_and_close_span(self):
        tracer = Tracer()
        engine = make_engine(k=1, window=4, trace=tracer)
        with engine:
            for tokens in HUB_TRACE:
                engine.insert(tokens)
            engine.expire()
        phases = tracer.phase_times()
        assert "stream_ingest" in phases
        assert "stream_expire" in phases
        assert "stream_refill" in phases
        assert any(span.name == "stream_close" for span in tracer.spans)

    def test_metrics_text_exposes_stream_counters(self):
        engine = make_engine(k=1, window=4)
        with engine:
            for tokens in HUB_TRACE:
                engine.insert(tokens)
            engine.expire()
        text = engine.metrics_text()
        assert "repro_stream_inserts_total 4" in text
        assert "repro_stream_expirations_total 1" in text
        assert "repro_stream_refills_total 1" in text
        assert "repro_stream_reserve_promotions_total 0" in text
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
        hub = []
        retained = 0
        with engine:
            for index in range(300):
                engine.insert(hub_tokens(rng, index, hub))
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


class TestPairReserveUnit:
    def test_overflow_drops_minimum_and_raises_floor(self):
        reserve = PairReserve(2)
        reserve.add((0, 1), 0.5)
        reserve.add((0, 2), 0.4)
        assert reserve.floor is None
        reserve.add((1, 2), 0.3)
        assert reserve.floor == 0.3
        assert reserve.items() == [((0, 1), 0.5), ((0, 2), 0.4)]
        reserve.add((1, 3), 0.45)
        assert reserve.floor == 0.4
        assert reserve.items() == [((0, 1), 0.5), ((1, 3), 0.45)]

    def test_full_reserve_probe_floor_is_its_minimum(self):
        reserve = PairReserve(2)
        reserve.add((0, 1), 0.5)
        assert reserve.probe_floor() is None
        reserve.add((0, 2), 0.4)
        assert reserve.probe_floor() == 0.4
        assert reserve.floor == 0.4

    def test_remove_record_and_pop_best(self):
        reserve = PairReserve(3)
        reserve.add((0, 1), 0.2)
        reserve.add((1, 2), 0.9)
        reserve.add((2, 3), 0.5)
        reserve.remove_record(1)
        assert reserve.items() == [((2, 3), 0.5)]
        assert reserve.pop_best() == ((2, 3), 0.5)
        assert len(reserve) == 0

    def test_reset_replaces_contents_and_floor(self):
        reserve = PairReserve(2)
        reserve.add((0, 1), 0.2)
        reserve.reset([((2, 3), 0.7)], 0.6)
        assert reserve.items() == [((2, 3), 0.7)]
        assert reserve.floor == 0.6


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
