"""Property-based tests for the extensions (R-S join, session)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    TaggedCollection,
    TopkSession,
    naive_topk,
    naive_topk_rs,
    topk_join_rs,
)
from repro.data import RecordCollection

from conftest import rounded_multiset

# Heavy Hypothesis/fuzz suite: runs in the slow CI lane.
pytestmark = pytest.mark.slow

token_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
    min_size=1,
    max_size=10,
)


@given(r=token_sets, s=token_sets, k=st.integers(min_value=1, max_value=12))
@settings(max_examples=50, deadline=None)
def test_rs_join_matches_oracle(r, s, k):
    tagged = TaggedCollection.from_integer_sets(list(r), list(s))
    got = rounded_multiset(topk_join_rs(tagged, k))
    want = rounded_multiset(naive_topk_rs(tagged, k))
    assert got[: len(want)] == want
    assert all(value == 0.0 for value in got[len(want):])


@given(r=token_sets, s=token_sets, k=st.integers(min_value=1, max_value=12))
@settings(max_examples=50, deadline=None)
def test_rs_join_returns_only_cross_pairs(r, s, k):
    tagged = TaggedCollection.from_integer_sets(list(r), list(s))
    for result in topk_join_rs(tagged, k):
        assert tagged.side(result.x) != tagged.side(result.y)


@given(
    sets=st.lists(
        st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
        min_size=2,
        max_size=12,
    ),
    depths=st.lists(
        st.integers(min_value=1, max_value=15), min_size=1, max_size=4
    ),
)
@settings(max_examples=40, deadline=None)
def test_session_consistent_at_any_depth_order(sets, depths):
    coll = RecordCollection.from_integer_sets(list(sets), dedupe=False)
    max_k = max(depths)
    session = TopkSession(coll, max_k=max_k)
    for k in depths:
        got = rounded_multiset(session.top(k))
        want = rounded_multiset(naive_topk(coll, k))
        # The session only omits zero-similarity padding.
        assert got == want[: len(got)]
        assert all(value == 0.0 for value in want[len(got):])
