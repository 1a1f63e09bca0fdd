"""Run one benchmark workload; print its metrics as the last stdout line.

Usage::

    python3 topkbench/run.py --workload batch-dblp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice, untraced then with spans recorded
around the program's layer functions, and prints the per-layer metrics;
the spans are written to ``.bench_out/`` in the checkout.  See
``topkbench/README.md`` for the metrics, the workloads and why they were
chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Any, Dict, List, Optional, Tuple

import checkout
from drift import Drift
from measure import beyond, closed_loop, median, percentile
from spans import (
    NAME, OP, PARENT, SpanLog, durations, installed, self_times,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _setup(workload: Any, seed: int, drift: Drift, repeats: int
           ) -> Tuple[Any, List[float]]:
    """Set the workload up *repeats* times; keep the last, time them all."""
    times: List[float] = []
    state = None
    for __ in range(repeats):
        if state is not None:
            workload.close(state)
            state = None
        before = drift.begin()
        state, raw = workload.setup(seed)
        times.append(raw * drift.end(before))
    return state, times


def _phase(workload: Any, seed: int, drift: Drift, seconds: float,
           repeats: int, log: Optional[SpanLog] = None) -> Dict[str, Any]:
    """Set up, measure for *seconds*, stop and check one phase."""
    state, setups = _setup(workload, seed, drift, repeats)
    op = workload.op
    if log is not None:
        def op(state: Any, index: int) -> Any:
            log.op = index
            try:
                return workload.op(state, index)
            finally:
                log.op = -1

    rss_mb = []

    def after_block(done: int) -> bool:
        if done == workload.counter_ops:
            # Peak memory through set-up and the fixed op window: the same
            # work on every run, however far the timed loop gets.
            rss_mb.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return workload.after_block(state, done)

    measured = closed_loop(
        drift,
        lambda index: op(state, index),
        seconds,
        cycle=workload.cycle,
        min_ops=workload.counter_ops,
        boundary=workload.boundary,
        after_block=after_block,
    )
    workload.finish(state)
    ops = len(measured.samples)
    failed, failures = workload.check(state, ops)
    return {
        "setups": setups,
        "measured": measured,
        "counters": workload.counters(state),
        "rss_mb": rss_mb[0],
        "failed": failed,
        "failures": failures,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload: Any, phase: Dict[str, Any]) -> Dict[str, Any]:
    samples = phase["measured"].samples
    op_ms = [s.s * 1e3 for s in samples]
    tail = percentile(op_ms, workload.tail_pct)
    print("op_ms.tail is p%g of %d ops (%d beyond it); p90/p99/p99.9: %s"
          % (workload.tail_pct, len(op_ms),
             beyond(len(op_ms), workload.tail_pct),
             " ".join("%.4g" % percentile(op_ms, p) for p in (90, 99, 99.9))))
    reads = [s.read_s * s.factor * 1e3 for s in samples
             if s.read_s is not None]
    return {
        "setup_s": _metric(median(phase["setups"]), "s"),
        "ops_per_s": _metric(len(samples) / sum(s.s for s in samples), "1/s"),
        "op_ms.p50": _metric(median(op_ms), "ms"),
        "op_ms.tail": _metric(tail, "ms"),
        "first_result_ms.p50": _metric(
            median([s.first_s * s.factor * 1e3 for s in samples]), "ms"),
        "read_ms.p50": _metric(median(reads), "ms"),
        "peak_rss_mb": _metric(phase["rss_mb"], "MB"),
    }


def per_layer(workload: Any, plain: Dict[str, Any], traced: Dict[str, Any],
              log: SpanLog, drift: Drift) -> Dict[str, Any]:
    """Per-layer metrics from the traced phase and the counter window."""
    window = workload.counter_ops
    counters = traced["counters"]
    samples = traced["measured"].samples
    ops = len(samples)
    raw_total = sum(s.raw_s for s in samples)
    # Span times are raw CPU seconds; rescale them by the phase's mean
    # correction so they add up against corrected op times.
    scale = sum(s.s for s in samples) / raw_total
    spans = log.spans
    own = self_times(spans)

    def count(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name and 0 <= s[OP] < window)

    def per_op(seconds: float) -> float:
        return seconds * scale / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = counters.get
    in_ops = lambda op: op >= 0  # noqa: E731
    rebuild_s = sum(durations(spans, "data.build", in_ops))
    refill_s = sum(durations(spans, "stream.refill", in_ops)) + rebuild_s
    scans = durations(spans, "accel.scan", in_ops)
    postings = [n for op, n in log.scan_postings if 0 <= op < window]
    parse = durations(spans, "serve.parse", in_ops)
    encode = durations(spans, "serve.encode", in_ops)
    server_s: Dict[int, float] = {}
    for span in spans:
        if span[OP] >= 0 and span[PARENT] is None and \
                span[NAME].startswith(("serve.", "stream.read")):
            server_s[span[OP]] = server_s.get(span[OP], 0.0) + span[2] - span[1]
    # Only the daemon parses frames; elsewhere there is no transport.
    transport = [
        (s.first_s - server_s.get(i, 0.0)) * s.factor * 1e3
        for i, s in enumerate(samples)
    ] if parse else [0.0]
    # Every span is a call into a layer, so their self times add up.
    layer_self = sum(own.values())
    traced_mean, plain_mean = traced["measured"].common_mean(plain["measured"])
    wall = plain["measured"].samples
    results = c("core.results", 0)
    metrics = {
        "data.build_s": (sum(durations(spans, "data.build", lambda op: op < 0))
                         * scale, "s"),
        "data.rebuild_calls": (count("data.build"), "count"),
        "data.rebuild_s": (per_op(rebuild_s), "s/op"),
        "core.queue_build_s": (per_op(own.get("core.queue_build", 0.0)), "s/op"),
        "core.seed_s": (per_op(own.get("core.seed", 0.0)), "s/op"),
        "core.other_s": (per_op(own.get("core.join", 0.0)), "s/op"),
        "core.events": (c("topk.events", 0), "count"),
        "core.candidates": (c("topk.candidates", 0), "count"),
        "core.verifications": (c("topk.verifications", 0), "count"),
        "core.verify_per_result": (
            ratio(c("topk.verifications", 0), results), "ratio"),
        "core.hash_entries_peak": (c("topk.hash_entries_peak", 0), "count"),
        "accel.kernel_build_s": (
            per_op(own.get("accel.kernel_build", 0.0)), "s/op"),
        "accel.scan_calls": (count("accel.scan"), "count"),
        "accel.scan_s": (per_op(own.get("accel.scan", 0.0)), "s/op"),
        "accel.scan_us_per_call": (
            ratio(own.get("accel.scan", 0.0) * scale * 1e6, len(scans)), "us"),
        "accel.postings_per_scan": (
            ratio(sum(postings), len(postings)), "count"),
        "accel.bitmap_prune_ratio": (
            ratio(c("topk.bitmap_pruned", 0), c("topk.bitmap_checked", 0)),
            "ratio"),
        "index.inserted": (c("topk.index_inserted", 0), "count"),
        "index.deleted": (c("topk.index_deleted", 0), "count"),
        "index.entries_peak": (
            max(c("topk.index_entries_peak", 0),
                c("stream.index_entries_peak", 0)), "count"),
        "index.trim_calls": (count("index.trim"), "count"),
        "index.trim_s": (per_op(own.get("index.trim", 0.0)), "s/op"),
        "stream.refills": (c("stream.refills", 0), "count"),
        "stream.refills_per_insert": (
            ratio(c("stream.refills", 0), c("stream.inserts", 0)), "ratio"),
        "stream.refill_s": (per_op(refill_s), "s/op"),
        "stream.refill_ms_per_call": (
            ratio(refill_s * scale * 1e3,
                  len(durations(spans, "stream.refill", in_ops))), "ms"),
        "stream.refill_share": (ratio(refill_s, raw_total), "ratio"),
        "stream.probe_s": (per_op(own.get("stream.insert", 0.0)), "s/op"),
        "stream.probe_candidates": (c("stream.probe_candidates", 0), "count"),
        "stream.probe_verifications": (
            c("stream.probe_verifications", 0), "count"),
        "stream.bitmap_prune_ratio": (
            ratio(c("stream.bitmap_pruned", 0), c("stream.bitmap_checked", 0)),
            "ratio"),
        "serve.parse_us_per_call": (
            ratio(sum(parse) * scale * 1e6, len(parse)), "us"),
        "serve.encode_us_per_call": (
            ratio(sum(encode) * scale * 1e6, len(encode)), "us"),
        "serve.queue_wait_ms.p50": (
            median([w * 1e3 for op, w in log.queue_waits if op >= 0]), "ms"),
        "serve.apply_ms.p50": (
            median([d * scale * 1e3
                    for d in durations(spans, "serve.apply", in_ops)]), "ms"),
        "serve.scrape_ms.p50": (
            median([d * scale * 1e3
                    for d in durations(spans, "serve.scrape", in_ops)]), "ms"),
        "serve.transport_ms.p50": (median(transport), "ms"),
        "serve.engine_share": (
            ratio(sum(durations(spans, "serve.apply", in_ops)), raw_total),
            "ratio"),
        "serve.deltas_pushed": (c("serve.deltas_pushed", 0), "count"),
        "serve.deltas_received": (c("serve.deltas_received", 0), "count"),
        "obs.trace_overhead": (ratio(traced_mean, plain_mean), "ratio"),
        "obs.reconcile_err": (1.0 - ratio(layer_self, raw_total), "ratio"),
        "box.speed": (drift.speed(), "ratio"),
        "wall.ops_per_s": (len(wall) / sum(s.wall_s for s in wall), "1/s"),
        "wall.op_ms.p50": (median([s.wall_s * 1e3 for s in wall]), "ms"),
    }
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.use_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]()
    drift = Drift()

    if not args.trace:
        phase = _phase(workload, args.seed, drift, args.seconds,
                       SETUP_REPEATS)
        phases = [phase]
        metrics = end_to_end(workload, phase)
    else:
        plain = _phase(workload, args.seed, drift, args.seconds / 2, 1)
        log = SpanLog()
        with installed(log):
            traced = _phase(workload, args.seed, drift, args.seconds / 2, 1,
                            log=log)
        out_dir = os.path.join(checkout.ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        log.write(os.path.join(out_dir, "spans-%s-%d.json"
                               % (args.workload, args.seed)))
        phases = [plain, traced]
        if plain["counters"] != traced["counters"]:
            traced["failed"] += 1
            traced["failures"].append(
                "counters differ between the untraced and the traced run: %r"
                % sorted(set(plain["counters"].items())
                         ^ set(traced["counters"].items()))[:6])
        metrics = per_layer(workload, plain, traced, log, drift)

    failed = sum(p["failed"] for p in phases)
    for p in phases:
        for failure in p["failures"]:
            print("CHECK FAILED: " + failure)
    print("counters: " + json.dumps(phases[0]["counters"], sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p["measured"].samples) for p in phases),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
