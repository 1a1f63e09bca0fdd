"""Unit tests for the span tracer: nesting, clocks and export."""

import json
import threading

import pytest

from repro.obs import TRACE_SCHEMA, Tracer


class TestSpans:
    def test_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("outer", k=3):
            assert tracer.spans == []  # nothing recorded until exit
        assert [s.name for s in tracer.spans] == ["outer"]
        record = tracer.spans[0]
        assert record.parent == 0
        assert record.duration >= 0.0
        assert record.meta == {"k": 3}

    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].span_id == outer_id
        assert by_name["inner"].span_id == inner_id
        assert by_name["inner"].parent == outer_id
        assert outer_id != inner_id

    def test_span_recorded_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        assert tracer.active_stacks() == {}  # stack popped on the way out

    def test_child_span_lies_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        inner, outer = by_name["inner"], by_name["outer"]
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= outer.start + outer.duration + 1e-6

    def test_sibling_threads_do_not_nest(self):
        tracer = Tracer()
        seen = {}

        def work():
            with tracer.span("child"):
                seen["stacks"] = tracer.active_stacks()

        with tracer.span("parent"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        child = next(s for s in tracer.spans if s.name == "child")
        assert child.parent == 0  # another thread's stack is not a parent
        assert sorted(len(v) for v in seen["stacks"].values()) == [1, 1]


class TestPhaseTimers:
    def test_accumulates_totals_and_counts(self):
        tracer = Tracer()
        tracer.add_phase_time("kernel_scan", 0.25)
        tracer.add_phase_time("kernel_scan", 0.75)
        assert tracer.phase_times() == {"kernel_scan": (1.0, 2)}


class TestExportAbsorb:
    def test_payload_is_json_serializable(self):
        tracer = Tracer()
        with tracer.span("run", k=2):
            tracer.add_phase_time("scan", 0.1)
        tracer.metrics.counter("repro_events_total", "help").inc(7)
        payload = tracer.export()
        assert payload["schema"] == TRACE_SCHEMA
        rebuilt = json.loads(json.dumps(payload))
        assert rebuilt["spans"][0]["name"] == "run"
        assert rebuilt["phases"]["scan"]["count"] == 1
