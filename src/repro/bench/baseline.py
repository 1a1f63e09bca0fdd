"""Hot-path benchmark baseline: measure, record, and gate (BENCH_3.json).

The accelerated kernels of :mod:`repro.accel` are justified by numbers,
so the numbers are part of the repository: ``benchmarks/BENCH_3.json``
holds a figure4-style measurement (wall time, events/sec, candidate and
verification counts per dataset/k, acceleration on and off) recorded by
``benchmarks/record_baseline.py``.  CI re-measures the same workload and
fails when the accelerated path regresses by more than
:data:`SLOWDOWN_LIMIT` against the committed baseline, when the
on-vs-off speedup at the default k drops below :data:`MIN_SPEEDUP`, or
when the second-generation scan kernel falls below
:data:`MIN_KERNEL2_SPEEDUP` against the frozen first-generation
reference on the k=500 row (see :func:`carry_kernel2_reference`).

Absolute wall-clock differs between machines, so the gate first
*calibrates*: the ratio of the current machine's ``accel="off"`` time to
the baseline's ``accel="off"`` time rescales every committed number
before the limit is applied.  The unaccelerated loop is the yardstick —
it exercises the same interpreter, allocator and cache hierarchy without
the code under test.

``repro bench --json`` emits exactly the structure recorded here, so the
gate and humans consume one format.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.metrics import TopkStats
from ..core.topk_join import TopkOptions, topk_join
from .workloads import collection, workload

__all__ = [
    "BASELINE_PATH",
    "SLOWDOWN_NOISE_FLOOR_S",
    "MIN_KERNEL2_SPEEDUP",
    "MIN_SPEEDUP",
    "MIN_STREAM_SPEEDUP",
    "SLOWDOWN_LIMIT",
    "carry_kernel2_reference",
    "check_against_baseline",
    "load_baseline",
    "measure_baseline",
    "measure_stream",
    "save_baseline",
    "speedup_of",
]

#: Format version of BENCH_3.json.  Schema 4 adds ``sig_bits`` per
#: entry and the ``kernel2`` row (the frozen first-generation kernel
#: reference the second-generation scan kernel is gated against).
SCHEMA = 4

#: The committed baseline (repo-relative; resolved from this file).
BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_3.json"

#: CI fails when calibrated accelerated wall time regresses past this.
SLOWDOWN_LIMIT = 1.25

#: Absolute slack added on top of the relative limit.  Accelerated
#: cells run in the 0.1-0.5s range where scheduler and co-tenant noise
#: is a near-constant tens of milliseconds, not a percentage — a pure
#: ratio limit on a 110ms cell flags 50ms of jitter as a regression.
#: The floor is negligible against the multi-second unaccelerated
#: cells and the speedup gates, which stay purely relative.
SLOWDOWN_NOISE_FLOOR_S = 0.08

#: Required accel on-vs-off speedup at the default (first) k.
MIN_SPEEDUP = 1.5

#: Required incremental-over-recompute speedup when a report carries a
#: ``stream`` row.  The incremental engine's whole reason to exist is
#: that probing the live index under the current bound beats re-joining
#: the window after every event; even on small windows the gap is wide,
#: so the floor is conservative.
MIN_STREAM_SPEEDUP = 2.0

#: Required second-generation-kernel speedup over the frozen
#: first-generation reference on the ``kernel2`` row.  The reference is
#: the last accel-on k=500 wall time measured with the gen-1 kernel
#: (0.47s on the recording machine), carried forward through every
#: re-record by :func:`carry_kernel2_reference` with off-time
#: calibration — so the gate keeps comparing against the kernel this PR
#: replaced, not against itself.
MIN_KERNEL2_SPEEDUP = 1.5

#: The kernel2 row's cell: the largest dblp-like k, where the gen-1
#: kernel cost 0.47s accel-on.
KERNEL2_DATASET = "dblp"
KERNEL2_K = 500

#: The figure4-style smoke: the dblp-like panel at its standard k sweep.
DEFAULT_DATASETS = ("dblp",)

#: The stream-speedup row's cell: dblp-like records replayed as an
#: insert-only stream over a full count window, so every arrival both
#: displaces the oldest record and probes the live index.
STREAM_DATASET = "dblp"
STREAM_K = 50
STREAM_WINDOW = 200
STREAM_EVENTS = 260


def _run_once(name: str, k: int, accel: str) -> Dict[str, object]:
    """One measured join cell -> a BENCH_3 entry dict.

    Accelerated cells finish in fractions of a second, where scheduler
    noise dominates a single run — they are measured best-of-5 (the
    minimum is the statistic least sensitive to contention, and five
    tries keep it stable on shared runners).  The slow ``accel="off"``
    cells run once: the gate only uses their *sum* (for machine
    calibration), which averages the noise out.
    """
    load = workload(name)
    coll = collection(name)
    options = TopkOptions(maxdepth=load.maxdepth, accel=accel)
    wall = None
    for __ in range(5 if accel != "off" else 1):
        # Charge hashing and the token-frequency count to every run (the
        # caches on the shared collection would otherwise hide them).
        coll.clear_derived_caches()
        stats = TopkStats()
        start = time.perf_counter()
        results = topk_join(
            coll, k, similarity=load.similarity, options=options,
            stats=stats,
        )
        elapsed = time.perf_counter() - start
        if wall is None or elapsed < wall:
            wall = elapsed
    return {
        "dataset": name,
        "k": k,
        "accel": accel,
        "sig_bits": options.sig_bits,
        "wall_s": round(wall, 6),
        "events": stats.events,
        "events_per_s": round(stats.events / wall, 3) if wall > 0 else 0.0,
        "candidates": stats.candidates,
        "verifications": stats.verifications,
        "bitmap_checked": stats.bitmap_checked,
        "bitmap_pruned": stats.bitmap_pruned,
        "results": len(results),
    }


def measure_baseline(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    k_values: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Measure the baseline workload; returns the BENCH_3 structure.

    Every ``(dataset, k)`` cell is measured with acceleration on and off.
    *k_values* overrides each workload's standard k sweep (used by tests
    to keep runtime tiny).
    """
    entries: List[Dict[str, object]] = []
    for name in datasets:
        ks = list(k_values) if k_values is not None else workload(name).k_values
        for k in ks:
            for accel in ("off", "on"):
                entries.append(_run_once(name, k, accel))
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "workload": "figure4-style smoke (synthetic stand-ins, see "
                    "repro.bench.workloads)",
        "datasets": list(datasets),
        "entries": entries,
    }
    ratio = speedup_of(report)
    if ratio is not None:
        report["speedup_default_k"] = round(ratio, 3)
    return report


def measure_stream(
    dataset: str = STREAM_DATASET,
    k: int = STREAM_K,
    window: int = STREAM_WINDOW,
    events: int = STREAM_EVENTS,
) -> Dict[str, object]:
    """Measure the incremental engine against per-event recompute.

    The same insert-only event stream (the workload's records in order)
    runs through both streaming modes over a full count window — the
    incremental engine probes the live index under the current bound and
    refills only when a top-k member dies, while ``mode="recompute"``
    re-runs the batch join after every mutation.  Both sides produce
    identical answers (the differential harness holds them to that), so
    the ratio isolates what incremental maintenance buys.  Best-of-3
    per side, engine construction inside the timed region.
    """
    from ..stream.engine import StreamingTopkEngine

    load = workload(dataset)
    coll = collection(dataset)
    token_lists = [
        list(record.tokens) for record in coll.records[:events]
    ]

    def best_of_3(mode: str) -> float:
        wall = None
        for __ in range(3):
            options = TopkOptions(
                window_size=window, window_policy="count"
            )
            start = time.perf_counter()
            engine = StreamingTopkEngine(
                k, similarity=load.similarity, options=options, mode=mode
            )
            with engine:
                for tokens in token_lists:
                    engine.insert(tokens)
            elapsed = time.perf_counter() - start
            if wall is None or elapsed < wall:
                wall = elapsed
        return wall

    wall_recompute = best_of_3("recompute")
    wall_incremental = best_of_3("incremental")
    return {
        "dataset": dataset,
        "k": k,
        "window": window,
        "events": len(token_lists),
        "wall_incremental_s": round(wall_incremental, 6),
        "wall_recompute_s": round(wall_recompute, 6),
        "speedup": (
            round(wall_recompute / wall_incremental, 3)
            if wall_incremental > 0 else 0.0
        ),
    }


def _off_scale(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Optional[float]:
    """Machine-calibration ratio: current / committed ``accel="off"`` time.

    Summed over the off cells both reports measured; ``None`` when there
    is no overlap (the reports are not comparable).
    """
    current_map = _entry_map(current)
    baseline_map = _entry_map(baseline)
    common_off = [
        key for key in baseline_map
        if key[2] == "off" and key in current_map
    ]
    if not common_off:
        return None
    baseline_off = sum(baseline_map[key]["wall_s"] for key in common_off)
    if baseline_off <= 0:
        return None
    current_off = sum(current_map[key]["wall_s"] for key in common_off)
    return current_off / baseline_off


def carry_kernel2_reference(
    report: Dict[str, object],
    previous: Dict[str, object],
    dataset: str = KERNEL2_DATASET,
    k: int = KERNEL2_K,
) -> None:
    """Forward the frozen gen-1 kernel reference into a fresh *report*.

    The second-generation kernel's gate compares against the *replaced*
    kernel, whose accel-on k=500 time exists only as a committed number
    — re-measuring it is impossible once its code is gone.  So every
    re-record carries the reference forward: from *previous*'s own
    ``kernel2`` row when present, else (recording over the last schema-3
    baseline, i.e. the transition itself) from *previous*'s accel-on
    cell at ``(dataset, k)``, which schema 3 measured with the gen-1
    kernel.  Either way the reference is rescaled by the off-time
    calibration ratio between the two reports, so it stays expressed in
    the *recording* machine's clock and ``check_against_baseline`` can
    rescale it once more onto the checking machine.
    """
    kernel2 = previous.get("kernel2")
    if isinstance(kernel2, dict):
        gen1_wall = float(kernel2["gen1_wall_s"])
        dataset = str(kernel2.get("dataset", dataset))
        k = int(kernel2.get("k", k))
    else:
        entry = _entry_map(previous).get((dataset, k, "on"))
        if entry is None:
            return
        gen1_wall = float(entry["wall_s"])
    scale = _off_scale(report, previous)
    if scale is None:
        return
    row: Dict[str, object] = {
        "dataset": dataset,
        "k": k,
        "gen1_wall_s": round(gen1_wall * scale, 6),
    }
    current = _entry_map(report).get((dataset, k, "on"))
    if current is not None and current["wall_s"] > 0:
        row["speedup"] = round(
            row["gen1_wall_s"] / current["wall_s"], 3
        )
    report["kernel2"] = row


def _entry_map(report: Dict[str, object]) -> Dict[tuple, Dict[str, object]]:
    return {
        (e["dataset"], e["k"], e["accel"]): e
        for e in report.get("entries", [])
    }


def speedup_of(report: Dict[str, object]) -> Optional[float]:
    """Accel on-vs-off wall-time ratio at the first dataset's default k."""
    entries = report.get("entries", [])
    if not entries:
        return None
    first = entries[0]
    key_off = (first["dataset"], first["k"], "off")
    key_on = (first["dataset"], first["k"], "on")
    table = _entry_map(report)
    if key_off not in table or key_on not in table:
        return None
    on_wall = table[key_on]["wall_s"]
    if on_wall <= 0:
        return None
    return table[key_off]["wall_s"] / on_wall


def check_against_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    slowdown_limit: float = SLOWDOWN_LIMIT,
    min_speedup: float = MIN_SPEEDUP,
    min_stream_speedup: float = MIN_STREAM_SPEEDUP,
    min_kernel2_speedup: float = MIN_KERNEL2_SPEEDUP,
) -> List[str]:
    """Gate *current* against the committed *baseline*; returns failures.

    Calibration: committed times are rescaled by the ratio of total
    ``accel="off"`` wall time (current / baseline) over the cells both
    reports measured, then each accelerated cell must stay within
    ``slowdown_limit`` of its rescaled committed time.  Additionally the
    on-vs-off speedup at the default k must reach *min_speedup*, and —
    when the current report carries a ``stream`` row (it only does when
    measured with ``--stream``) — the incremental-over-recompute speedup
    must reach *min_stream_speedup*.  That row needs no committed
    counterpart: it is a self-contained ratio on one machine.

    When the committed baseline carries a ``kernel2`` row, the current
    accel-on cell at that row's ``(dataset, k)`` must beat the frozen
    first-generation kernel reference (rescaled onto this machine) by
    *min_kernel2_speedup* — the second-generation scan kernel is gated
    against the kernel it replaced, not against itself.
    """
    failures: List[str] = []
    current_map = _entry_map(current)
    baseline_map = _entry_map(baseline)

    common_off = [
        key for key in baseline_map
        if key[2] == "off" and key in current_map
    ]
    if not common_off:
        return ["no overlapping accel='off' cells to calibrate against"]
    baseline_off = sum(baseline_map[key]["wall_s"] for key in common_off)
    current_off = sum(current_map[key]["wall_s"] for key in common_off)
    if baseline_off <= 0:
        return ["committed baseline has zero accel='off' wall time"]
    scale = current_off / baseline_off

    for key in sorted(baseline_map):
        if key[2] != "on" or key not in current_map:
            continue
        allowed = (
            baseline_map[key]["wall_s"] * scale * slowdown_limit
            + SLOWDOWN_NOISE_FLOOR_S
        )
        got = current_map[key]["wall_s"]
        if got > allowed:
            failures.append(
                "%s k=%s: accelerated wall %.3fs exceeds %.3fs "
                "(committed %.3fs x machine scale %.2f x limit %.2f "
                "+ %.2fs noise floor)"
                % (key[0], key[1], got, allowed,
                   baseline_map[key]["wall_s"], scale, slowdown_limit,
                   SLOWDOWN_NOISE_FLOOR_S)
            )

    ratio = speedup_of(current)
    if ratio is None:
        failures.append("current report has no default-k on/off pair")
    elif ratio < min_speedup:
        failures.append(
            "accel on-vs-off speedup %.2fx at default k is below the "
            "required %.2fx" % (ratio, min_speedup)
        )

    kernel2 = baseline.get("kernel2")
    if isinstance(kernel2, dict):
        key_on = (kernel2.get("dataset"), kernel2.get("k"), "on")
        entry = current_map.get(key_on)
        if entry is not None and entry["wall_s"] > 0:
            gen1_here = float(kernel2["gen1_wall_s"]) * scale
            kernel2_ratio = gen1_here / entry["wall_s"]
            if kernel2_ratio < min_kernel2_speedup:
                failures.append(
                    "second-gen kernel speedup %.2fx on %s k=%s (gen-1 "
                    "reference %.3fs x machine scale %.2f vs %.3fs "
                    "measured) is below the required %.2fx"
                    % (
                        kernel2_ratio, key_on[0], key_on[1],
                        kernel2["gen1_wall_s"], scale, entry["wall_s"],
                        min_kernel2_speedup,
                    )
                )

    stream = current.get("stream")
    if isinstance(stream, dict):
        stream_ratio = float(stream.get("speedup", 0.0))
        if stream_ratio < min_stream_speedup:
            failures.append(
                "stream incremental-vs-recompute speedup %.2fx (%s k=%s "
                "window=%s over %s events: %.3fs recompute vs %.3fs "
                "incremental) is below the required %.2fx"
                % (
                    stream_ratio,
                    stream.get("dataset", "?"), stream.get("k", "?"),
                    stream.get("window", "?"), stream.get("events", "?"),
                    stream.get("wall_recompute_s", 0.0),
                    stream.get("wall_incremental_s", 0.0),
                    min_stream_speedup,
                )
            )
    return failures


def load_baseline(path: Optional[Path] = None) -> Dict[str, object]:
    """Read a BENCH_3.json file (the committed one by default)."""
    target = Path(path) if path is not None else BASELINE_PATH
    with open(target, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_baseline(
    report: Dict[str, object], path: Optional[Path] = None
) -> Path:
    """Write *report* as BENCH_3.json (to the committed path by default)."""
    target = Path(path) if path is not None else BASELINE_PATH
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return target
