"""The closed-loop block runner and the statistics every workload shares."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from drift import Drift

#: A block ends once its ops have run this long (raw CPU seconds).  Long
#: ops make one-op blocks; short ops are grouped so the reference
#: readings around a block cost about 2% of it.
BLOCK_S = 0.3


@dataclass
class OpSample:
    """Raw CPU seconds of one op, and of its parts, before correction."""

    kind: str
    raw_s: float
    #: Until the caller held the op's first result.
    first_s: float
    #: Uncorrected wall seconds of the op.
    wall_s: float
    #: A read of the live answer timed beside the op, if any.
    read_s: Optional[float] = None
    #: Block correction factor (set when the block closes).
    factor: float = 1.0

    @property
    def s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class Measurement:
    """The ops of one measured phase."""

    samples: List[OpSample]

    def common_mean(self, other: "Measurement") -> Tuple[float, float]:
        """Mean corrected op seconds of both phases over their common ops."""
        n = min(len(self.samples), len(other.samples))
        mine = sum(s.s for s in self.samples[:n]) / n
        theirs = sum(s.s for s in other.samples[:n]) / n
        return mine, theirs


def closed_loop(
    drift: Drift,
    op: Callable[[int], OpSample],
    seconds: float,
    *,
    cycle: int = 1,
    min_ops: int = 0,
    boundary: Callable[[int], bool] = lambda index: False,
    after_block: Callable[[int], bool] = lambda done: False,
    wall_cap: float = 1.25,
) -> Measurement:
    """Run ``op(0), op(1), ...`` back to back, in drift-bracketed blocks.

    The run stops at a multiple of *cycle* ops, with at least *min_ops*
    ops run, once the corrected op time reaches *seconds*, or once the
    wall clock reaches ``wall_cap`` times *seconds* on a box slowed far
    below the reference.  Bounding corrected rather than wall time keeps
    the number of ops, and with it how far a run gets into the op
    sequence, independent of the box's drift.  A block also ends after
    op *min_ops* and where ``boundary(ops_done)`` holds;
    ``after_block(ops_done)`` runs between
    blocks, outside every timing, and returns True when it did work that
    makes the last reference reading stale.
    """
    samples: List[OpSample] = []
    done = 0
    total = 0.0
    stopping = False
    wall_start = time.perf_counter()
    while True:
        before = drift.begin()
        first = done
        block_raw = 0.0
        while True:
            sample = op(done)
            samples.append(sample)
            done += 1
            block_raw += sample.raw_s
            if (block_raw >= BLOCK_S or boundary(done) or done == min_ops
                    or (stopping and done % cycle == 0)):
                break
        factor = drift.end(before)
        for sample in samples[first:]:
            sample.factor = factor
            total += sample.s
        if after_block(done):
            drift.invalidate()
        stopping = done >= min_ops and (
            total >= seconds
            or time.perf_counter() - wall_start >= wall_cap * seconds)
        if stopping and done % cycle == 0:
            break
    return Measurement(samples)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank *pct* percentile of *count*."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
