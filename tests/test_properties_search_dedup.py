"""Property-based tests for the search layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import RecordCollection
from repro.search import SearchIndex
from repro.similarity import Jaccard

# Heavy Hypothesis/fuzz suite: runs in the slow CI lane.
pytestmark = pytest.mark.slow

token_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=18), min_size=1, max_size=7),
    min_size=2,
    max_size=14,
)
queries = st.sets(
    st.integers(min_value=0, max_value=18), min_size=1, max_size=7
).map(lambda s: tuple(sorted(s)))
thresholds = st.sampled_from([0.25, 0.5, 0.75, 1.0])


@given(sets=token_sets, query=queries, t=thresholds)
@settings(max_examples=80, deadline=None)
def test_threshold_search_exact(sets, query, t):
    coll = RecordCollection.from_integer_sets(list(sets), dedupe=False)
    index = SearchIndex(coll)
    sim = Jaccard()
    got = {(hit.rid, round(hit.similarity, 9))
           for hit in index.threshold_search(query, t)}
    want = set()
    for record in coll:
        value = sim.similarity(query, record.tokens)
        if value >= t:
            want.add((record.rid, round(value, 9)))
    assert got == want


@given(sets=token_sets, query=queries, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=80, deadline=None)
def test_topk_search_exact_multiset(sets, query, k):
    coll = RecordCollection.from_integer_sets(list(sets), dedupe=False)
    index = SearchIndex(coll)
    sim = Jaccard()
    got = sorted(
        (round(hit.similarity, 9) for hit in index.topk_search(query, k)),
        reverse=True,
    )
    want = sorted(
        (
            round(sim.similarity(query, record.tokens), 9)
            for record in coll
        ),
        reverse=True,
    )[:k]
    assert got == want
