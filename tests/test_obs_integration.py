"""End-to-end: tracing observes the join stack without changing it."""

import time

import pytest

from repro.core.metrics import JoinStats, TopkStats
from repro.core.rs_join import TaggedCollection, topk_join_rs
from repro.core.topk_join import TopkOptions, topk_join
from repro.data.records import RecordCollection
from repro.joins.ppjoin import ppjoin
from repro.obs import SamplingProfiler, Tracer, maybe_profile

RECORDS = [
    (1, 2, 3, 4),
    (1, 2, 3, 5),
    (1, 2, 3, 4, 5),
    (2, 3, 4, 6),
    (7, 8, 9),
    (7, 8, 10),
    (7, 9, 10, 11),
    (1, 5, 8, 12),
    (3, 4, 5, 13),
    (2, 6, 9, 14),
]


def _collection():
    return RecordCollection.from_integer_sets(RECORDS, dedupe=False)


def _rows(results):
    return [(r.x, r.y, r.similarity) for r in results]


class TestSequentialTracing:
    def test_results_identical_and_phases_present(self):
        collection = _collection()
        plain = topk_join(collection, 6, options=TopkOptions())
        tracer = Tracer()
        stats = TopkStats()
        traced = topk_join(
            collection, 6, options=TopkOptions(trace=tracer), stats=stats
        )
        assert _rows(traced) == _rows(plain)
        names = {s.name for s in tracer.spans}
        assert {"topk_join", "seed", "event_loop", "drain"} <= names
        counters = {c.name: c.value for c in tracer.metrics.counters()}
        assert counters["repro_events_total"] == stats.events
        assert counters["repro_results_emitted_total"] == len(stats.emits)

    def test_kernel_micro_phase_recorded(self):
        tracer = Tracer()
        topk_join(_collection(), 4, options=TopkOptions(trace=tracer, accel="python"))
        phases = tracer.phase_times()
        assert "kernel_scan" in phases
        total, count = phases["kernel_scan"]
        assert count >= 1 and total >= 0.0

    def test_runtime_gauges_published(self):
        tracer = Tracer()
        topk_join(_collection(), 4, options=TopkOptions(trace=tracer))
        gauges = {g.name: g for g in tracer.metrics.gauges()}
        assert gauges["repro_heap_size_peak"].value > 0
        assert gauges["repro_s_k"].mode == "max"
        assert 0.0 <= gauges["repro_s_k"].value <= 1.0
        assert "repro_hash_entries_live" in gauges
        assert "repro_index_entries_live" in gauges


class TestOtherBackends:
    def test_rs_join_traced(self):
        tagged = TaggedCollection.from_integer_sets(RECORDS[::2], RECORDS[1::2])
        plain = topk_join_rs(tagged, 4, options=TopkOptions())
        tracer = Tracer()
        traced = topk_join_rs(tagged, 4, options=TopkOptions(trace=tracer))
        assert _rows(traced) == _rows(plain)
        names = {s.name for s in tracer.spans}
        assert "topk_join_rs" in names and "topk_join" in names

    def test_ppjoin_traced(self):
        collection = _collection()
        plain = ppjoin(collection, 0.5)
        tracer = Tracer()
        stats = JoinStats()
        traced = ppjoin(collection, 0.5, stats=stats, tracer=tracer)
        assert _rows(traced) == _rows(plain)
        assert any(s.name == "ppjoin" for s in tracer.spans)
        counters = {c.name: c.value for c in tracer.metrics.counters()}
        assert counters["repro_threshold_results_total"] == len(traced)
        assert counters["repro_threshold_candidates_total"] == stats.candidates


class TestProfiler:
    def test_profiler_charges_open_spans(self):
        tracer = Tracer()
        profiler = SamplingProfiler(tracer, interval=0.001)
        profiler.start()
        with tracer.span("busy"):
            time.sleep(0.05)
        samples = profiler.stop()
        assert samples
        assert tracer.profile_samples.get("busy", 0) >= 1

    def test_maybe_profile_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with maybe_profile(Tracer()) as profiler:
            assert profiler is None

    def test_maybe_profile_respects_the_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        tracer = Tracer()
        with maybe_profile(tracer, interval=0.001) as profiler:
            assert profiler is not None
            with tracer.span("busy"):
                time.sleep(0.02)
        assert tracer.profile_samples

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(Tracer(), interval=0.0)
