"""Unit tests for repro.index.inverted."""

from repro.index import BoundedInvertedIndex, InvertedIndex


class TestInvertedIndex:
    def test_add_and_postings(self):
        index = InvertedIndex()
        index.add(5, rid=1, position=2)
        index.add(5, rid=3, position=1)
        assert index.postings(5) == [(1, 2), (3, 1)]

    def test_missing_token_empty(self):
        assert InvertedIndex().postings(99) == []

    def test_contains(self):
        index = InvertedIndex()
        index.add(1, 0, 1)
        assert 1 in index and 2 not in index

    def test_len_counts_tokens(self):
        index = InvertedIndex()
        index.add(1, 0, 1)
        index.add(1, 1, 1)
        index.add(2, 0, 2)
        assert len(index) == 2

    def test_entry_count(self):
        index = InvertedIndex()
        index.add(1, 0, 1)
        index.add(1, 1, 1)
        index.add(2, 0, 2)
        assert index.entry_count == 3

    def test_trim_head_to_empty_drops_the_token(self):
        index = InvertedIndex()
        index.add(1, 0, 1)
        index.add(1, 1, 1)
        index.add(2, 0, 2)
        index.trim_head(1, 1)
        assert 1 in index and index.postings(1) == [(1, 1)]
        index.trim_head(1, 5)
        assert 1 not in index and len(index) == 1
        assert index.entry_count == 1

    def test_trim_head_cuts_a_held_list_in_place(self):
        # ppjoin holds the list while it trims the head, then scans it.
        index = InvertedIndex()
        index.add(1, 0, 1)
        index.add(1, 1, 1)
        held = index.postings(1)
        index.trim_head(1, 2)
        assert held == []
        index.add(1, 2, 1)
        assert index.postings(1) == [(2, 1)] and held == []

    def test_list_lengths_are_document_frequencies(self):
        index = InvertedIndex()
        index.add(1, 0, 1)
        index.add(1, 1, 1)
        index.add(2, 0, 2)
        assert index.list_lengths() == ([1, 2], [2, 1])
        index.trim_head(2, 1)
        assert index.list_lengths() == ([1], [2])

    def test_tokens_iterator(self):
        index = InvertedIndex()
        index.add(7, 0, 1)
        index.add(9, 0, 2)
        assert sorted(index.tokens()) == [7, 9]


def index_state(index):
    """Every list (postings with positions), the count and the lengths."""
    lists = {token: list(index.postings(token)) for token in index.tokens()}
    return lists, index.entry_count, index.list_lengths()


class TestPerRecordUpkeep:
    """``add_record`` and ``trim_heads`` are the per-token ``add`` and
    ``trim_head(token, 1)`` calls, one record at a time."""

    RECORDS = [(1, 4, 9), (4, 5), (1, 2, 4, 9), (7,), (2, 4, 7, 9), (5, 8)]

    def test_add_record_matches_per_token_adds(self):
        per_token, per_record = InvertedIndex(), InvertedIndex()
        for rid, tokens in enumerate(self.RECORDS):
            for position, token in enumerate(tokens, start=1):
                per_token.add(token, rid, position)
            per_record.add_record(rid, tokens)
            assert index_state(per_record) == index_state(per_token)
        assert per_record.postings(4) == [(0, 2), (1, 1), (2, 3), (4, 2)]

    def test_fifo_trim_heads_matches_per_token_trims(self):
        per_token, per_record = InvertedIndex(), InvertedIndex()
        for rid, tokens in enumerate(self.RECORDS):
            per_token.add_record(rid, tokens)
            per_record.add_record(rid, tokens)
        for tokens in self.RECORDS:
            for token in tokens:
                per_token.trim_head(token, 1)
            per_record.trim_heads(tokens)
            assert index_state(per_record) == index_state(per_token)
        assert len(per_record) == 0 and per_record.entry_count == 0

    def test_trim_heads_drops_an_emptied_list(self):
        index = InvertedIndex()
        index.add_record(0, (1, 2))
        index.add_record(1, (2, 3))
        index.trim_heads((1, 2))
        assert 1 not in index and index.postings(2) == [(1, 1)]
        assert index.list_lengths() == ([2, 3], [1, 1])
        assert index.entry_count == 2


class TestBoundedInvertedIndex:
    def test_postings_carry_bounds(self):
        index = BoundedInvertedIndex()
        index.add(4, rid=0, position=1, bound=0.9)
        assert index.postings(4) == [(0, 1, 0.9)]

    def test_counters(self):
        index = BoundedInvertedIndex()
        for rid in range(5):
            index.add(1, rid, 1, 1.0 - rid / 10)
        assert index.inserted == 5
        assert index.entry_count == 5
        assert index.peak_entries == 5

    def test_truncate_removes_tail(self):
        index = BoundedInvertedIndex()
        for rid in range(5):
            index.add(1, rid, 1, 1.0 - rid / 10)
        removed = index.truncate(1, 2)
        assert removed == 3
        assert [p[0] for p in index.postings(1)] == [0, 1]
        assert index.deleted == 3
        assert index.entry_count == 2

    def test_truncate_beyond_end_noop(self):
        index = BoundedInvertedIndex()
        index.add(1, 0, 1, 1.0)
        assert index.truncate(1, 5) == 0
        assert index.truncate(99, 0) == 0

    def test_peak_survives_truncation(self):
        index = BoundedInvertedIndex()
        for rid in range(4):
            index.add(1, rid, 1, 0.5)
        index.truncate(1, 1)
        index.add(2, 9, 1, 0.4)
        assert index.peak_entries == 4
        assert index.entry_count == 2

    def test_contains_and_len(self):
        index = BoundedInvertedIndex()
        index.add(3, 0, 1, 1.0)
        assert 3 in index and 4 not in index
        assert len(index) == 1
