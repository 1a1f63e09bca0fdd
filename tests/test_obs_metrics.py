"""Unit tests for the metrics registry, absorbers and exporters.

``TestAbsorberCoverage`` proves that every field of every stats class
actually *changes* the exported registry, with the field list discovered
through ``dataclasses.fields``: a counter added without a metric
declaration (``counter``/``peak`` in ``repro.core.metrics``) fails here.
``TestGoldenExposition`` pins the exported names, kinds, help texts and
values byte for byte.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.metrics import (
    EmitEvent,
    JoinStats,
    ServeStats,
    StreamStats,
    TopkStats,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    to_prometheus_text,
)
from repro.obs.metrics import Gauge, Histogram


class TestGaugeModes:
    def test_max_mode_keeps_best_value(self):
        gauge = Gauge(name="g", help="", mode="max")
        gauge.set(2.0)
        gauge.set(1.0)
        assert gauge.value == 2.0
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Gauge(name="g", help="", mode="median")


class TestHistogram:
    def test_observe_fills_the_right_buckets(self):
        histogram = Histogram(name="h", help="", edges=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)  # lands in the implicit +Inf bucket
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == 11.0

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(name="h", help="", edges=(2.0, 1.0))

    def test_merge_requires_identical_edges(self):
        a = Histogram(name="h", help="", edges=(1.0,))
        with pytest.raises(ValueError):
            a.merge_from(Histogram(name="h", help="", edges=(2.0,)))

    def test_merge_adds_buckets_and_totals(self):
        a = Histogram(name="h", help="", edges=(1.0,))
        b = Histogram(name="h", help="", edges=(1.0,))
        a.observe(0.5)
        b.observe(5.0)
        a.merge_from(b)
        assert a.bucket_counts == [1, 1]
        assert a.count == 2 and a.total == 5.5


def absorb(registry, stats):
    """Absorb *stats* the way its producer does."""
    if isinstance(stats, TopkStats):
        registry.absorb_topk_stats(stats)
    else:
        registry.absorb_stats(stats)


class TestAbsorberCoverage:
    @pytest.mark.parametrize(
        "cls",
        [TopkStats, JoinStats, StreamStats, ServeStats],
        ids=lambda cls: cls.__name__,
    )
    def test_every_field_influences_the_export(self, cls):
        baseline = MetricsRegistry()
        absorb(baseline, cls())
        for spec in dataclasses.fields(cls):
            if spec.type in ("int", int):
                bumped = cls(**{spec.name: 7})
            elif cls is TopkStats and spec.name == "emits":
                bumped = TopkStats(emits=[EmitEvent(1, 0.5, 0.9, 0.4, 0.002)])
            else:
                pytest.fail(
                    "extend this test for %s.%s (type %r)"
                    % (cls.__name__, spec.name, spec.type)
                )
            registry = MetricsRegistry()
            absorb(registry, bumped)
            assert registry.export() != baseline.export(), spec.name

    def test_counter_values_match_the_stats(self):
        registry = MetricsRegistry()
        registry.absorb_topk_stats(
            TopkStats(events=5, candidates=9, verifications=4),
            record_count=2,
        )
        counters = {c.name: c.value for c in registry.counters()}
        assert counters["repro_events_total"] == 5
        assert counters["repro_candidates_total"] == 9
        assert counters["repro_verifications_total"] == 4
        gauges = {g.name: g.value for g in registry.gauges()}
        assert gauges["repro_verifications_per_record"] == 2.0

    def test_bitmap_hit_rate_is_rederived_from_merged_counters(self):
        # A ratio of sums is not a sum (or average) of ratios: 5/10 and
        # 10/10 must merge to 15/20 = 0.75, not 0.5, 1.0 or 1.5.
        a = MetricsRegistry()
        a.absorb_topk_stats(TopkStats(bitmap_checked=10, bitmap_pruned=5))
        a.absorb_topk_stats(TopkStats(bitmap_checked=10, bitmap_pruned=10))
        gauges = {g.name: g.value for g in a.gauges()}
        assert gauges["repro_bitmap_hit_rate"] == pytest.approx(0.75)


class TestWireFormat:
    def test_labeled_families_stay_distinct(self):
        registry = MetricsRegistry()
        registry.counter("c", "help", labels={"side": "r"}).inc(1)
        registry.counter("c", "help", labels={"side": "s"}).inc(2)
        values = sorted(c.value for c in registry.counters())
        assert values == [1, 2]


class TestPrometheusText:
    def test_families_and_histogram_series(self):
        tracer = Tracer()
        with tracer.span("topk_join"):
            pass
        tracer.add_phase_time("kernel_scan", 0.5)
        tracer.metrics.absorb_topk_stats(
            TopkStats(
                events=5,
                bitmap_checked=4,
                bitmap_pruned=3,
                emits=[EmitEvent(1, 0.5, 0.9, 0.4, 0.002)],
            )
        )
        text = to_prometheus_text(tracer)
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total 5" in text
        assert "# TYPE repro_emit_latency_seconds histogram" in text
        assert 'repro_emit_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_emit_latency_seconds_count 1" in text
        assert 'repro_span_seconds_total{phase="topk_join"}' in text
        assert 'repro_phase_calls_total{phase="kernel_scan"} 1' in text

    def test_label_values_are_escaped(self):
        tracer = Tracer()
        tracer.metrics.counter("c", "help", labels={"dataset": 'a"b\nc\\d'}).inc(1)
        text = to_prometheus_text(tracer)
        assert 'dataset="a\\"b\\nc\\\\d"' in text


GOLDEN_EXPOSITION = Path(__file__).parent / "golden" / "stats_exposition.prom"

# Every field of every stats class carries a distinct non-zero value, so
# a field exported under the wrong name, kind, help text or value shows
# up as a diff against the committed exposition.
GOLDEN_TOPK = {
    "events": 101,
    "candidates": 102,
    "verifications": 103,
    "duplicates_skipped": 104,
    "hash_entries_peak": 105,
    "index_inserted": 106,
    "index_deleted": 107,
    "index_entries_peak": 108,
    "size_pruned": 109,
    "bitmap_checked": 111,
    "bitmap_pruned": 110,
    "positional_pruned": 112,
    "suffix_pruned": 113,
    "index_insertions_skipped": 114,
}
GOLDEN_EMITS = [
    EmitEvent(1, 0.9, 0.95, 0.5, 0.0004),
    EmitEvent(2, 0.8, 0.85, 0.6, 0.03),
    EmitEvent(3, 0.7, 0.7, 0.7, 20.0),
]
GOLDEN_JOIN = {
    "candidates": 201,
    "verifications": 202,
    "results": 203,
    "index_entries": 204,
    "positional_pruned": 205,
    "suffix_pruned": 206,
    "size_pruned": 207,
    "bitmap_pruned": 208,
}
GOLDEN_STREAM = {
    "inserts": 301,
    "expirations": 302,
    "advances": 303,
    "refills": 304,
    "reserve_promotions": 305,
    "probe_candidates": 306,
    "probe_verifications": 307,
    "size_pruned": 308,
    "count_pruned": 315,
    "bitmap_checked": 310,
    "bitmap_pruned": 309,
    "pairs_entered": 311,
    "pairs_left": 312,
    "window_peak": 313,
    "index_entries_peak": 314,
}
GOLDEN_SERVE = {
    "connections": 401,
    "requests": 402,
    "errors": 403,
    "malformed": 404,
    "oversized": 405,
    "accepted": 406,
    "rejected": 407,
    "shed": 408,
    "deltas_pushed": 409,
    "idle_evictions": 410,
    "read_timeouts": 411,
    "subscriber_evictions": 412,
    "queue_peak": 413,
    "subscribers_peak": 414,
}


def render_golden_exposition():
    """The exposition of one registry that absorbed all four stats classes.

    The committed ``golden/stats_exposition.prom`` is this function's
    output; regenerate it only when the exported metric surface is meant
    to change.
    """
    tracer = Tracer()
    metrics = tracer.metrics
    metrics.absorb_topk_stats(
        TopkStats(emits=list(GOLDEN_EMITS), **GOLDEN_TOPK), record_count=50
    )
    metrics.absorb_stats(JoinStats(**GOLDEN_JOIN))
    metrics.absorb_stats(StreamStats(**GOLDEN_STREAM))
    metrics.absorb_stats(ServeStats(**GOLDEN_SERVE))
    return to_prometheus_text(tracer)


class TestGoldenExposition:
    @pytest.mark.parametrize(
        "cls, values",
        [
            (TopkStats, GOLDEN_TOPK),
            (JoinStats, GOLDEN_JOIN),
            (StreamStats, GOLDEN_STREAM),
            (ServeStats, GOLDEN_SERVE),
        ],
    )
    def test_fixture_sets_every_counter_distinctly(self, cls, values):
        counters = {f.name for f in dataclasses.fields(cls)} - {"emits"}
        assert set(values) == counters
        assert 0 not in values.values()
        assert len(set(values.values())) == len(values)

    def test_exposition_matches_the_committed_golden(self):
        expected = GOLDEN_EXPOSITION.read_text(encoding="utf-8")
        assert render_golden_exposition() == expected
