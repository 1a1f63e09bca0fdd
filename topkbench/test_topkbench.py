"""The benchmark's own tests: drift correction, determinism, metric names.

Run with ``python3 -m pytest topkbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402

checkout.use_program()

import drift  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.7, 3.0])
def test_scaling_op_and_reference_together_leaves_corrected_unchanged(
    factor: float,
) -> None:
    raw, before, after = 0.42, 0.0021, 0.0025
    base = drift.corrected(raw, before, after)
    scaled = drift.corrected(raw * factor, before * factor, after * factor)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_closed_loop_corrects_a_uniformly_slowed_box() -> None:
    """A box twice as slow doubles op and reference alike: same result."""

    def runner(slowdown: float) -> float:
        readings = iter([0.002 * slowdown] * 1000)
        clock = drift.Drift(nominal=0.002, reading=lambda: next(readings))

        def op(index: int) -> measure.OpSample:
            raw = 0.01 * (1 + index % 3) * slowdown
            return measure.OpSample("op", raw, raw, raw)

        measured = measure.closed_loop(clock, op, 0.0, cycle=3, min_ops=30)
        return sum(s.s for s in measured.samples)

    assert runner(2.0) == pytest.approx(runner(1.0), rel=1e-12)


def test_drift_reuses_the_after_reading_until_invalidated() -> None:
    readings = iter([1.0, 2.0, 3.0, 4.0])
    clock = drift.Drift(nominal=2.0, reading=lambda: next(readings))
    before = clock.begin()
    assert clock.end(before) == pytest.approx(2.0 / 1.5)
    assert clock.begin() == 2.0  # the last "after" serves as "before"
    clock.invalidate()
    assert clock.begin() == 3.0


def _tiny_batch() -> workloads.BatchDblp:
    bench = workloads.BatchDblp()
    bench.records, bench.k = 150, 20
    return bench


def _tiny_stream() -> workloads.StreamDblp:
    bench = workloads.StreamDblp()
    bench.records, bench.window, bench.k = 300, 60, 5
    bench.traces, bench.offset = 4, 200
    bench.segment_ops = bench.cycle = 10
    bench.counter_ops = 20
    return bench


def _tiny_serve() -> workloads.ServeMixed:
    bench = workloads.ServeMixed()
    bench.records, bench.window = 200, 30
    bench.counter_ops = 2 * bench.cycle
    return bench


def _counters(bench, seed: int):
    clock = drift.Drift()
    phase = run._phase(bench, seed, clock, 0.0, 1)
    assert phase["failed"] == 0, phase["failures"]
    return phase["counters"]


@pytest.mark.parametrize("make", [_tiny_batch, _tiny_stream, _tiny_serve])
def test_counters_repeat_for_one_seed_and_differ_for_another(make) -> None:
    first = _counters(make(), 3)
    assert _counters(make(), 3) == first
    assert _counters(make(), 4) != first


def test_traced_run_matches_benchmark_json() -> None:
    """Every declared metric is printed with its declared unit."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bench = _tiny_stream()
    clock = drift.Drift()
    plain = run._phase(bench, 5, clock, 0.0, 1)
    from spans import SpanLog, installed

    log = SpanLog()
    with installed(log):
        traced = run._phase(bench, 5, clock, 0.0, 1, log=log)
    assert plain["counters"] == traced["counters"]
    layer = run.per_layer(bench, plain, traced, log, clock)
    assert {name: m["unit"] for name, m in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert layer["obs.reconcile_err"]["value"] < 0.05
    e2e = run.end_to_end(bench, plain)
    assert {name: m["unit"] for name, m in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in e2e.values())
