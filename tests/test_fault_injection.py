"""The harness catches deliberately injected bound bugs — twice over.

These tests exist to prove the correctness harness is not vacuous: an
off-by-one planted in the paper's bound formulas (the most plausible real
mistake in a reimplementation) must be caught BOTH by a runtime invariant
(localizing the bug to one decision) AND by the differential oracle
(showing the answer is actually wrong), and the fuzzer's shrinker must
reduce such a failure to a small reproducing case.
"""

from __future__ import annotations

import pytest

from repro.core.topk_join import TopkOptions, topk_join
from repro.data.records import RecordCollection
from repro.data.synthetic import random_integer_collection
from repro.oracle import (
    InvariantViolation,
    assert_topk_equivalent,
    naive_topk,
    naive_window_topk,
)
from repro.oracle.differential import DifferentialCase
from repro.oracle.faults import (
    OffByOneIndexingBound,
    OffByOneProbingBound,
    ShortProbingPrefix,
)
from repro.similarity.functions import Jaccard
from repro.stream.engine import StreamingTopkEngine

#: One collection on which both faults are detectable both ways.
_SEED = 0


def _collection() -> RecordCollection:
    return random_integer_collection(30, 25, 8, seed=_SEED)


@pytest.mark.parametrize(
    "fault_cls,expected_invariant",
    [(OffByOneIndexingBound, "ub_i"), (OffByOneProbingBound, "ub_p")],
)
def test_fault_caught_by_runtime_invariant(fault_cls, expected_invariant):
    coll = _collection()
    with pytest.raises(InvariantViolation) as excinfo:
        topk_join(
            coll, 5, similarity=fault_cls(),
            options=TopkOptions(check_invariants=True),
        )
    assert excinfo.value.invariant == expected_invariant


@pytest.mark.parametrize(
    "fault_cls", [OffByOneIndexingBound, OffByOneProbingBound]
)
def test_fault_caught_by_differential_oracle(fault_cls):
    coll = _collection()
    # Checks off: the join runs to completion and produces a wrong answer.
    actual = topk_join(coll, 5, similarity=fault_cls())
    # The faults break only the bounds, not the scoring, so the plain
    # Jaccard oracle is the correct expectation.
    expected = naive_topk(coll, 5)
    with pytest.raises(AssertionError):
        assert_topk_equivalent(actual, expected)


def test_correct_bounds_pass_both_layers():
    """Sanity: the same collection passes with the real Jaccard."""
    coll = _collection()
    actual = topk_join(
        coll, 5, options=TopkOptions(check_invariants=True)
    )
    assert_topk_equivalent(actual, naive_topk(coll, 5))


#: k=1: the 1/3 pairs (0, 1) and (0, 2) set the probe bound τ = 1/3.
#: The arrival holds all of record 0 plus six tokens no record has:
#: sim 0.4 with record 0, found only through one of tokens 1-4.
_PREFIX_STREAM = [
    [1, 2, 3, 4],
    [1, 2, 5, 6],
    [1, 3, 7, 8],
    [1, 2, 3, 4, 30, 31, 32, 33, 34, 35],
]


@pytest.mark.parametrize("similarity_cls", [Jaccard, ShortProbingPrefix])
def test_stream_probe_needs_its_full_prefix_length(similarity_cls):
    """Rarest-first picks the six absent tokens first; a 7-token probe
    adds token 4 and finds record 0, a 6-token one finds nothing."""
    engine = StreamingTopkEngine(1, similarity=similarity_cls())
    with engine:
        for tokens in _PREFIX_STREAM:
            engine.insert(tokens)
        actual = engine.results()
    expected = naive_window_topk(list(enumerate(_PREFIX_STREAM)), 1)
    assert [(r.x, r.y) for r in expected] == [(0, 3)]
    if similarity_cls is Jaccard:
        assert_topk_equivalent(actual, expected)
    else:
        with pytest.raises(AssertionError):
            assert_topk_equivalent(actual, expected)


def test_shrinker_minimizes_fault_repro():
    """shrink_case reduces a 30-record failure to a handful of records."""
    from repro.oracle.fuzz import shrink_case

    coll = _collection()
    records = tuple(record.tokens for record in coll)

    def failing(case: DifferentialCase):
        collection = case.collection()
        try:
            topk_join(
                collection, case.k, similarity=OffByOneIndexingBound(),
                options=TopkOptions(check_invariants=True),
            )
        except InvariantViolation as violation:
            return [str(violation)]
        return []

    case = DifferentialCase(records, 5, "jaccard")
    assert failing(case)
    shrunk = shrink_case(case, failing)
    assert failing(shrunk), "shrunk case must still reproduce"
    assert len(shrunk.records) < len(case.records)
    assert len(shrunk.records) <= 6
    assert sum(len(tokens) for tokens in shrunk.records) <= 20
