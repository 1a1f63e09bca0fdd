"""Unit tests for repro.data.records."""

import pytest

from repro.data import RecordCollection
from repro.data.ordering import lexicographic_ordering


class TestCanonicalOrdering:
    def test_tokens_sorted_by_rank(self):
        coll = RecordCollection.from_token_lists([["z", "a", "m"]])
        record = coll[0]
        assert list(record.tokens) == sorted(record.tokens)

    def test_rare_tokens_lead_prefixes(self):
        # "rare" appears once, "common" in every record: idf ordering must
        # put "rare" before "common" inside the record.
        coll = RecordCollection.from_token_lists(
            [["common", "rare"], ["common", "x"], ["common", "y"]]
        )
        for record in coll:
            strings = coll.strings(record).split()
            assert strings[-1] == "common"

    def test_records_sorted_by_size(self):
        coll = RecordCollection.from_token_lists(
            [["a", "b", "c"], ["a"], ["a", "b"]]
        )
        sizes = [len(r) for r in coll]
        assert sizes == sorted(sizes)

    def test_rid_matches_position(self):
        coll = RecordCollection.from_token_lists([["a", "b"], ["c"], ["d", "e", "f"]])
        for position, record in enumerate(coll):
            assert record.rid == position
            assert coll[record.rid] is record

    def test_source_id_preserved(self):
        coll = RecordCollection.from_token_lists([["a", "b", "c"], ["z"]])
        # The singleton record sorts first but came from input position 1.
        assert coll[0].source_id == 1
        assert coll[1].source_id == 0

    def test_custom_ordering_factory(self):
        coll = RecordCollection.from_token_lists(
            [["b", "a"], ["b"]], ordering_factory=lexicographic_ordering
        )
        record = coll[1]
        assert coll.strings(record).split() == ["a", "b"]


class TestDeduplication:
    def test_exact_duplicates_dropped(self):
        coll = RecordCollection.from_token_lists([["a", "b"], ["b", "a"]])
        assert len(coll) == 1

    def test_dedupe_disabled(self):
        coll = RecordCollection.from_token_lists(
            [["a", "b"], ["b", "a"]], dedupe=False
        )
        assert len(coll) == 2

    def test_empty_records_dropped(self):
        coll = RecordCollection.from_token_lists([[], ["a"]])
        assert len(coll) == 1


class TestConstructors:
    def test_from_texts(self):
        coll = RecordCollection.from_texts(["the lord", "the rings"])
        assert len(coll) == 2
        assert coll.universe_size == 3  # the, lord, rings

    def test_from_qgrams(self):
        coll = RecordCollection.from_qgrams(["abcd", "bcde"], q=3)
        assert len(coll) == 2

    def test_from_integer_sets(self):
        coll = RecordCollection.from_integer_sets([[3, 1, 2], [5, 1]])
        assert [tuple(r.tokens) for r in coll] == [(1, 5), (1, 2, 3)]

    def test_from_integer_sets_duplicate_tokens_collapse(self):
        coll = RecordCollection.from_integer_sets([[1, 1, 2]])
        assert tuple(coll[0].tokens) == (1, 2)

    def test_universe_size_from_integer_sets(self):
        coll = RecordCollection.from_integer_sets([[0, 7]])
        assert coll.universe_size == 8

    def test_from_frequency_ranks(self):
        # 9 and 8 are held once (ranks 0 and 1, in the order given), 7
        # twice (rank 2), 5 three times (rank 3).  Sizes sort the
        # records, equal sizes keeping input order.
        coll = RecordCollection.from_frequency_ranks(
            [(5, 7, 9), (7, 5), (5,), (8,)], [5, 7, 9, 8], [3, 2, 1, 1]
        )
        assert [list(r.tokens) for r in coll] == [[3], [1], [2, 3], [0, 2, 3]]
        assert [r.source_id for r in coll] == [2, 3, 1, 0]
        assert coll.universe_size == 4
        # Taken from the caller, not counted; a count agrees.
        assert coll.token_frequencies() == {0: 1, 1: 1, 2: 2, 3: 3}
        coll.clear_derived_caches()
        assert coll.token_frequencies() == {0: 1, 1: 1, 2: 2, 3: 3}
        one = RecordCollection.from_frequency_ranks([(9,)], [9], [1])
        assert [list(r.tokens) for r in one] == [[0]]


class TestDerivedStatistics:
    def test_average_size(self):
        coll = RecordCollection.from_integer_sets([[1], [1, 2], [1, 2, 3]])
        assert coll.average_size == pytest.approx(2.0)

    def test_average_size_empty(self):
        coll = RecordCollection([], universe_size=0)
        assert coll.average_size == 0.0

    def test_token_frequencies(self):
        coll = RecordCollection.from_integer_sets([[1, 2], [2, 3]])
        freqs = coll.token_frequencies()
        assert freqs[2] == 2
        assert freqs[1] == 1

    def test_clear_derived_caches_drops_signatures_and_frequencies(self):
        coll = RecordCollection.from_integer_sets([[1, 2], [2, 3]])
        signatures = coll.signatures_at(64)
        frequencies = coll.token_frequencies()
        coll.clear_derived_caches()
        assert coll.signatures_at(64) is not signatures
        assert coll.signatures_at(64) == signatures
        assert coll.token_frequencies() is not frequencies
        assert coll.token_frequencies() == frequencies

    def test_adopted_signatures_are_served_per_width(self):
        coll = RecordCollection.from_integer_sets([[1, 2], [2, 3]])
        coll.adopt_signatures(256, [5, 6])
        assert coll.signatures_at(256) == [5, 6]
        with pytest.raises(ValueError):
            coll.adopt_signatures(128, [5])
        with pytest.raises(ValueError):
            coll.adopt_signatures(100, [5, 6])

    def test_size_blocks_cover_collection(self):
        coll = RecordCollection.from_integer_sets(
            [[1], [2], [1, 2], [3, 4], [1, 2, 3]]
        )
        blocks = coll.size_blocks()
        covered = []
        for size, start, stop in blocks:
            for rid in range(start, stop):
                assert len(coll[rid]) == size
                covered.append(rid)
        assert covered == list(range(len(coll)))

    def test_size_blocks_empty(self):
        coll = RecordCollection([], universe_size=0)
        assert coll.size_blocks() == []


class TestRecordProtocol:
    def test_len_iter_getitem(self):
        coll = RecordCollection.from_integer_sets([[5, 3, 9]])
        record = coll[0]
        assert len(record) == 3
        assert list(record) == [3, 5, 9]
        assert record[0] == 3

    def test_size_property(self):
        coll = RecordCollection.from_integer_sets([[5, 3, 9]])
        assert coll[0].size == 3

    def test_repr(self):
        coll = RecordCollection.from_integer_sets([[1, 2]])
        assert "rid=0" in repr(coll[0])

    def test_strings_without_dictionary(self):
        coll = RecordCollection.from_integer_sets([[2, 1]])
        assert coll.strings(coll[0]) == "1 2"
