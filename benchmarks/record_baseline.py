#!/usr/bin/env python
"""Record or check the hot-path benchmark baseline (BENCH_3.json).

Modes::

    python benchmarks/record_baseline.py              # measure, print JSON
    python benchmarks/record_baseline.py --record     # measure, overwrite
                                                      # benchmarks/BENCH_3.json
    python benchmarks/record_baseline.py --check      # measure, gate against
                                                      # the committed baseline
                                                      # (exit 1 on regression)

``--output FILE`` additionally writes the fresh measurement (used by CI to
publish the numbers as a build artifact).  ``--input FILE`` skips the
measurement and gates a previously written report instead — CI measures
once, then applies both the functional gate and the tighter observability
overhead budget (``--slowdown-limit 1.05``) to the same numbers.  ``--k``
restricts the k sweep (repeatable) to keep smoke runs short.
``--stream`` adds a ``stream`` row — the incremental streaming engine's
speedup over per-event batch recompute on the same event sequence —
gated by ``--min-stream-speedup``.  The JSON structure is shared with
``repro bench --json``; see :mod:`repro.bench.baseline`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.baseline import (  # noqa: E402 — path bootstrap above
    BASELINE_PATH,
    MIN_KERNEL2_SPEEDUP,
    MIN_SPEEDUP,
    MIN_STREAM_SPEEDUP,
    SLOWDOWN_LIMIT,
    carry_kernel2_reference,
    check_against_baseline,
    load_baseline,
    measure_baseline,
    measure_stream,
    save_baseline,
    speedup_of,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true",
        help="overwrite the committed baseline %s" % BASELINE_PATH,
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate the fresh measurement against the committed baseline",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file to check against (default: the committed one)",
    )
    parser.add_argument(
        "--output", default=None,
        help="also write the fresh measurement to this file",
    )
    parser.add_argument(
        "--k", type=int, action="append", default=None,
        help="restrict the k sweep (repeatable; default: workload sweep)",
    )
    parser.add_argument(
        "--input", default=None,
        help="gate a previously measured report instead of measuring "
             "(implies --check semantics for the numbers source)",
    )
    parser.add_argument(
        "--slowdown-limit", type=float, default=SLOWDOWN_LIMIT,
        help="calibrated wall-time regression limit for --check "
             "(default %.2f; the observability overhead budget uses "
             "1.05)" % SLOWDOWN_LIMIT,
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="required accel on-vs-off speedup at the default k for "
             "--check (default %.2f)" % MIN_SPEEDUP,
    )
    parser.add_argument(
        "--min-kernel2-speedup", type=float, default=MIN_KERNEL2_SPEEDUP,
        help="required second-gen kernel speedup over the frozen gen-1 "
             "reference for --check when the committed baseline has a "
             "kernel2 row (default %.2f)" % MIN_KERNEL2_SPEEDUP,
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="also measure the streaming engine's incremental-vs-"
             "recompute speedup and add it to the report as a 'stream' "
             "row (--check then gates it)",
    )
    parser.add_argument(
        "--min-stream-speedup", type=float, default=MIN_STREAM_SPEEDUP,
        help="required incremental-vs-recompute speedup for --check when "
             "the report has a stream row (default %.2f)"
             % MIN_STREAM_SPEEDUP,
    )
    args = parser.parse_args(argv)

    if args.input:
        report = load_baseline(Path(args.input))
        print("# loaded %s" % args.input, file=sys.stderr)
    else:
        report = measure_baseline(k_values=args.k)
    if args.stream:
        report["stream"] = measure_stream()
        print(
            "# stream row: %(events)s events on %(dataset)s k=%(k)s "
            "window=%(window)s -> %(speedup)sx incremental vs recompute"
            % report["stream"],
            file=sys.stderr,
        )
    ratio = speedup_of(report)
    print(
        "# measured %d cells, accel speedup at default k: %s"
        % (
            len(report["entries"]),
            "%.2fx" % ratio if ratio is not None else "n/a",
        ),
        file=sys.stderr,
    )

    if args.output:
        save_baseline(report, Path(args.output))
        print("# wrote %s" % args.output, file=sys.stderr)

    if args.record:
        # Re-records must not lose the frozen gen-1 kernel reference:
        # carry it out of the baseline being overwritten, rescaled by
        # the off-time calibration between the two measurements.
        try:
            previous = load_baseline()
        except (OSError, ValueError):
            previous = None
        if previous is not None:
            carry_kernel2_reference(report, previous)
            kernel2 = report.get("kernel2")
            if kernel2 is not None:
                print(
                    "# kernel2 row: gen-1 reference %(gen1_wall_s)ss on "
                    "%(dataset)s k=%(k)s" % kernel2,
                    file=sys.stderr,
                )
        target = save_baseline(report)
        print("# recorded baseline %s" % target, file=sys.stderr)
        return 0

    if args.check:
        baseline = load_baseline(
            Path(args.baseline) if args.baseline else None
        )
        failures = check_against_baseline(
            report, baseline,
            slowdown_limit=args.slowdown_limit,
            min_speedup=args.min_speedup,
            min_stream_speedup=args.min_stream_speedup,
            min_kernel2_speedup=args.min_kernel2_speedup,
        )
        for failure in failures:
            print("REGRESSION: %s" % failure, file=sys.stderr)
        if failures:
            return 1
        print("# benchmark gate passed", file=sys.stderr)
        return 0

    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
