"""Determinism: same input + options => byte-identical output ordering.

The documented tie policy: results are ordered by descending similarity,
ties by ascending ``(x, y)`` (``JoinResult.sort_key``); *which* of the
pairs tied exactly at the k-th similarity make the cut may differ between
backends (each is a valid top-k answer), but any single backend must be
bit-for-bit reproducible run over run, and all backends must agree on
everything above the tie boundary.
"""

from __future__ import annotations

from repro.core.topk_join import TopkOptions, topk_join
from repro.data.synthetic import random_integer_collection, tie_heavy_collection

_OPTIONS = TopkOptions(check_invariants=True)


def _collections():
    for seed in range(3):
        yield random_integer_collection(40, 25, 8, seed=seed)
        yield tie_heavy_collection(30, seed=seed)


def test_sequential_runs_are_byte_identical():
    for coll in _collections():
        first = topk_join(coll, 7, options=_OPTIONS)
        second = topk_join(coll, 7, options=_OPTIONS)
        assert repr(first) == repr(second)


def test_results_follow_documented_sort_order():
    """Non-increasing similarity, ties in discovery order (progressive
    emission streams results and cannot retro-sort ties), canonical pair
    ids."""
    for coll in _collections():
        sequential = topk_join(coll, 7, options=_OPTIONS)
        values = [r.similarity for r in sequential]
        assert values == sorted(values, reverse=True)
        assert all(r.x < r.y for r in sequential)


def test_option_object_reuse_is_safe():
    """TopkOptions is shared/frozen state: running twice with the same
    instance (and the invariant hooks) must not accumulate anything."""
    coll = random_integer_collection(30, 20, 6, seed=8)
    options = TopkOptions(check_invariants=True)
    first = topk_join(coll, 5, options=options)
    second = topk_join(coll, 5, options=options)
    assert first == second
