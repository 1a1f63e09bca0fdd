"""Pin what the batch join and the streaming engine compute, bit for bit.

The committed ``golden/join_digests.json`` records, per case, a digest
of the result rows (or of the delta stream) and every integer
``TopkStats`` field:

* ``topk_join`` over ``dblp_like(2000, seed=4242)`` at k=100 and k=500,
  ``trec_like(800)`` at k=200 and one bipartite split of the dblp
  collection, each under ``accel`` on, python and numpy;
* a k=1, window-200 engine over the first 3,000 records of the
  serve-mixed trace of seed 3;
* a k=50, window-500 engine over the first stream-dblp segment of
  seed 4242.

A stream case pins its delta stream and, in ``answers``, the similarity
list of the answer after every event.  Boundary-tied pairs are equally
valid members, so a change of the reserve may swap which of them is
shown and move ``deltas``; ``answers`` does not depend on that choice.

A refactor of the scan kernels, the event loop or the refill join must
leave the file byte-identical.  Regenerate it only when a change is
*meant* to alter results or work counts::

    PYTHONPATH=src python tests/test_join_golden.py > tests/golden/join_digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import pytest

from repro.accel.kernel import numpy_available
from repro.core.metrics import TopkStats
from repro.core.rs_join import TaggedCollection, topk_join_rs
from repro.core.topk_join import TopkOptions, topk_join
from repro.data.synthetic import dblp_like, trec_like
from repro.stream.engine import StreamingTopkEngine

GOLDEN = Path(__file__).parent / "golden" / "join_digests.json"

ACCEL_MODES = ("on", "python", "numpy")


def _digest(lines: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _integer_stats(stats: Any) -> Dict[str, int]:
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if isinstance(getattr(stats, field.name), int)
    }


def _join_cases() -> List[Tuple[str, Any]]:
    dblp = dblp_like(2000, seed=4242)
    trec = trec_like(800)
    # Bipartite split of the dblp records by input position parity.
    ordered = sorted(dblp.records, key=lambda record: record.source_id)
    tagged = TaggedCollection.from_integer_sets(
        [record.tokens for record in ordered[0::2]],
        [record.tokens for record in ordered[1::2]],
    )

    def self_join(collection: Any, k: int) -> Any:
        def run(accel: str, stats: TopkStats) -> Any:
            return topk_join(
                collection, k, options=TopkOptions(accel=accel), stats=stats
            )

        return run

    def rs_join(accel: str, stats: TopkStats) -> Any:
        return topk_join_rs(
            tagged, 200, options=TopkOptions(accel=accel), stats=stats
        )

    return [
        ("dblp2000-k100", self_join(dblp, 100)),
        ("dblp2000-k500", self_join(dblp, 500)),
        ("trec800-k200", self_join(trec, 200)),
        ("dblp2000-rs-k200", rs_join),
    ]


def _sub_seeds(seed: int, count: int) -> List[int]:
    """The per-trace seeds the topkbench workloads derive from a seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for __ in range(count)]


def _trace(records: int, seed: int) -> List[Tuple[int, ...]]:
    """A ``dblp_like`` collection as an arrival trace in input order."""
    collection = dblp_like(records, seed=seed)
    ordered = sorted(collection.records, key=lambda r: r.source_id)
    return [tuple(r.tokens) for r in ordered]


def _stream_cases() -> List[Tuple[str, int, int, Sequence[Tuple[int, ...]]]]:
    serve_trace = _trace(8000, _sub_seeds(3, 1)[0])[:3000]
    stream_trace = _trace(4000, _sub_seeds(4242, 32)[0])[3000:3551]
    return [
        ("serve-mixed-seed3-k1-w200", 1, 200, serve_trace),
        ("stream-dblp-seed4242-k50-w500", 50, 500, stream_trace),
    ]


def _join_entry(run: Any, accel: str) -> Dict[str, Any]:
    stats = TopkStats()
    results = run(accel, stats)
    return {
        "rows": _digest(
            "%d %d %r" % (r.x, r.y, r.similarity) for r in results
        ),
        "stats": _integer_stats(stats),
    }


def _stream_entry(
    k: int, window: int, trace: Sequence[Tuple[int, ...]]
) -> Dict[str, Any]:
    engine = StreamingTopkEngine(k, options=TopkOptions(window_size=window))
    lines: List[str] = []
    answers: List[str] = []
    with engine:
        for tokens in trace:
            for delta in engine.insert(tokens):
                lines.append(
                    "%s %d %d %r"
                    % (delta.action, delta.x, delta.y, delta.similarity)
                )
            lines.append("")
            answers.append(
                " ".join("%r" % r.similarity for r in engine.results())
            )
    return {
        "answers": _digest(answers),
        "deltas": _digest(lines),
        "stream_stats": _integer_stats(engine.stats),
        "refill_stats": _integer_stats(engine.refill_stats),
    }


def render_join_digests() -> str:
    """The committed golden file's content, recomputed."""
    document: Dict[str, Any] = {"joins": {}, "streams": {}}
    for name, run in _join_cases():
        document["joins"][name] = {
            accel: _join_entry(run, accel) for accel in ACCEL_MODES
        }
    for name, k, window, trace in _stream_cases():
        document["streams"][name] = _stream_entry(k, window, trace)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.skipif(
    not numpy_available(), reason="the golden file pins the NumPy kernel too"
)
def test_join_digests_match_the_committed_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert render_join_digests() == expected


if __name__ == "__main__":
    sys.stdout.write(render_join_digests())
