"""The singleton rule: a token no other record holds is never probed or
indexed.

A token of document frequency 1 is shared by no pair, so the join skips
both its probe and its posting; the rule is exact in every accel mode
and in bipartite mode.  Widening it to df <= 2 drops real pairs, and the
oracle must say so.
"""

from __future__ import annotations

import importlib
import os
import random

import pytest

from repro import (
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    TaggedCollection,
    TopkOptions,
    TopkStats,
    naive_topk,
    naive_topk_rs,
    topk_join,
    topk_join_rs,
)
from repro.data import RecordCollection
from repro.data.synthetic import dblp_like
from repro.index.inverted import BoundedInvertedIndex
from repro.oracle import assert_topk_equivalent
from repro.oracle.differential import DifferentialCase, run_differential
from repro.oracle.fuzz import load_corpus_case
from repro.stream.engine import StreamingTopkEngine

from conftest import make_collection, rounded_multiset

#: The join module (``repro.core`` re-exports a function of the same name).
topk_join_module = importlib.import_module("repro.core.topk_join")

ACCEL_MODES = ("on", "numpy", "python", "off")

#: Shrunk by a fuzz campaign run with the rule widened to df <= 2.
DF_TWO_CASE = os.path.join(
    os.path.dirname(__file__), "corpus", "case_4b5412b590ac.json"
)


def mostly_singletons(rng: random.Random, count: int) -> list:
    """Records of mostly private tokens plus a few drawn from a small pool.

    Every fourth record copies one pool token of its predecessor, so
    some pairs share exactly one token, held by just those two records.
    """
    fresh = iter(range(1000, 100000))
    records = []
    for index in range(count):
        tokens = [next(fresh) for __ in range(rng.randint(1, 6))]
        tokens += rng.sample(range(12), rng.randint(0, 2))
        if index % 4 == 3:
            tokens.append(900 + index)
            records[-1].append(900 + index)
        records.append(tokens)
    return records


class TestSingletonRuleIsExact:
    @pytest.mark.parametrize("seed", range(4))
    def test_self_join_matches_naive(self, seed, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        rng = random.Random(seed)
        coll = make_collection(*mostly_singletons(rng, rng.randint(20, 60)))
        frequencies = coll.token_frequencies()
        assert sum(df == 1 for df in frequencies.values()) > len(frequencies) / 2
        for sim in (Jaccard(), Cosine(), Dice(), Overlap()):
            for k in (1, 5, 30):
                want = rounded_multiset(naive_topk(coll, k, similarity=sim))
                for accel in ACCEL_MODES:
                    got = topk_join(
                        coll, k, similarity=sim,
                        options=TopkOptions(accel=accel),
                    )
                    assert rounded_multiset(got) == want, (sim, k, accel)

    @pytest.mark.parametrize("seed", range(3))
    def test_bipartite_matches_naive(self, seed, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        rng = random.Random(100 + seed)
        records = mostly_singletons(rng, rng.randint(20, 60))
        tagged = TaggedCollection.from_integer_sets(records[::2], records[1::2])
        for k in (1, 5, 30):
            want = rounded_multiset(naive_topk_rs(tagged, k))
            for accel in ACCEL_MODES:
                got = topk_join_rs(tagged, k, options=TopkOptions(accel=accel))
                assert rounded_multiset(got) == want, (k, accel)

    def test_pair_sharing_only_a_df_two_token_is_found(self):
        # (0, 1) share only token 5, which no other record holds; every
        # other token is a singleton.  Seeding off: only the event loop
        # can find the pair.
        coll = make_collection([1, 2, 5], [3, 4, 5], [6, 7], [8, 9, 10])
        for accel in ACCEL_MODES:
            options = TopkOptions(
                accel=accel, seed_results=False, check_invariants=True
            )
            (best,) = topk_join(coll, 1, options=options)
            assert best.similarity == pytest.approx(1 / 5), accel

    def test_singletons_are_neither_probed_nor_indexed(self, monkeypatch):
        # Ranked rarest first, as refill windows are: the singletons
        # open every record's prefix.
        records = mostly_singletons(random.Random(9), 80)
        coll = RecordCollection.from_token_lists(
            [[str(token) for token in tokens] for tokens in records],
            dedupe=False,
        )
        frequencies = coll.token_frequencies()
        added = []
        original_add = BoundedInvertedIndex.add

        def spy_add(self, token, rid, position, bound):
            added.append(token)
            original_add(self, token, rid, position, bound)

        monkeypatch.setattr(BoundedInvertedIndex, "add", spy_add)
        with_rule = TopkStats()
        kept = topk_join(coll, 20, stats=with_rule)
        assert added and all(frequencies[token] >= 2 for token in added)
        assert with_rule.index_inserted == len(added)

        monkeypatch.setattr(topk_join_module, "_SHARED_DF", 1)
        without_rule = TopkStats()
        dropped = topk_join(coll, 20, stats=without_rule)
        assert rounded_multiset(dropped) == rounded_multiset(kept)
        assert without_rule.index_inserted > with_rule.index_inserted
        assert without_rule.candidates == with_rule.candidates


def test_refill_indexes_no_singleton_token(monkeypatch):
    """The first refill of a full 200-record dblp-like window inserts
    only postings of tokens two or more live records hold.

    The refill runs when an arrival's displacement drains the reserve,
    before the arrival joins: it re-joins the other 199 live records.
    """
    import repro.stream.engine as stream_engine

    active = []
    added = []
    windows = []
    original_add = BoundedInvertedIndex.add

    def spy_add(self, token, rid, position, bound):
        if active:
            added.append(token)
        original_add(self, token, rid, position, bound)

    join = stream_engine.topk_join

    def refill_join(collection, *args, **kwargs):
        windows.append(collection)
        active.append(True)
        try:
            return join(collection, *args, **kwargs)
        finally:
            active.clear()

    monkeypatch.setattr(BoundedInvertedIndex, "add", spy_add)
    monkeypatch.setattr(stream_engine, "topk_join", refill_join)
    trace = sorted(dblp_like(2000, seed=1).records, key=lambda r: r.source_id)
    engine = StreamingTopkEngine(1, options=TopkOptions(window_size=200))
    with engine:
        for record in trace:
            engine.insert(record.tokens)
            if engine.stats.refills:
                break
    assert engine.stats.refills == 1
    (window,) = windows
    assert len(window) == 199
    frequencies = window.token_frequencies()
    singletons = sum(df == 1 for df in frequencies.values())
    assert singletons > 0
    assert added and all(frequencies[token] >= 2 for token in added)
    assert engine.refill_stats.index_inserted == len(added)


class TestWidenedRuleIsCaught:
    """Seeded fault: skipping df-2 tokens as well drops real pairs."""

    @pytest.fixture
    def widened(self, monkeypatch):
        monkeypatch.setattr(topk_join_module, "_SHARED_DF", 3)

    def test_oracle_catches_missed_df_two_pair(self, widened):
        coll = make_collection([1, 2, 5], [3, 4, 5], [6, 7], [8, 9, 10])
        for accel in ACCEL_MODES:
            actual = topk_join(
                coll, 1, options=TopkOptions(accel=accel, seed_results=False)
            )
            with pytest.raises(AssertionError):
                assert_topk_equivalent(actual, naive_topk(coll, 1))

    def test_differential_oracle_catches_it(self, widened):
        # Seeding finds the pair through its df-2 token, so the backend
        # that runs the event loop alone must flag it.
        case = DifferentialCase.make(
            [[1, 2, 5], [3, 4, 5], [6, 7], [8, 9, 10]], k=1
        )
        failures = run_differential(case)
        assert any(failure.startswith("ablated:") for failure in failures)

    def test_corpus_case_pins_the_rule(self, widened):
        case, document = load_corpus_case(DF_TWO_CASE)
        assert document["failures"]
        assert run_differential(case)

    def test_differential_oracle_passes_the_exact_rule(self):
        case = DifferentialCase.make(
            [[1, 2, 5], [3, 4, 5], [6, 7], [8, 9, 10]], k=1
        )
        assert run_differential(case) == []
        corpus_case, __ = load_corpus_case(DF_TWO_CASE)
        assert run_differential(corpus_case) == []
