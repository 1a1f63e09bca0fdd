"""Inverted indexes over record prefixes.

Two flavours are provided:

* :class:`InvertedIndex` — the classic token -> postings map used by the
  threshold joins (All-Pairs, ppjoin).  A posting is ``(rid, position)``
  with 1-based *position* of the token inside the record, which positional
  filtering needs.

* :class:`BoundedInvertedIndex` — the top-k join variant.  Each posting also
  carries the *probing similarity upper bound* the source record had when
  the posting was inserted.  Because the event loop processes prefix events
  in decreasing bound order, every list is sorted by non-increasing bound,
  which is what lets Algorithm 9/10 truncate a list permanently once the
  accessing bound drops below ``s_k``.

The bounded index stores postings as **flat parallel columns**
(:class:`PostingColumns`: one ``array('q')`` of rids, one of positions,
one ``array('d')`` of bounds) rather than lists of ``(rid, j, bound)``
tuples.  The probe loop — the innermost loop of the whole top-k join —
then reads machine-typed columns with local-variable indexing instead of
allocating and unpacking a tuple per posting, the NumPy batch kernel
appends whole columns to its event batch with one buffer copy each, and
accessing-bound truncation is a single tail cut per column instead of a
tuple-list slice.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "InvertedIndex",
    "BoundedInvertedIndex",
    "Posting",
    "PostingColumns",
]

#: ``(rid, position)`` — position is 1-based within the canonicalized record.
Posting = Tuple[int, int]


class InvertedIndex:
    """Token -> list of ``(rid, position)`` postings."""

    __slots__ = ("_lists", "_live")

    def __init__(self) -> None:
        self._lists: Dict[int, List[Posting]] = {}
        self._live = 0

    def add(self, token: int, rid: int, position: int) -> None:
        """Append a posting for *token* (insertion order is preserved)."""
        self._lists.setdefault(token, []).append((rid, position))
        self._live += 1

    def add_record(self, rid: int, tokens: Sequence[int]) -> None:
        """Append *rid*'s postings for all of *tokens* in one call.

        Same effect as ``add(token, rid, position)`` for every token, with
        1-based positions in the order given.  The streaming engine
        indexes each arriving record this way.
        """
        lists = self._lists
        for position, token in enumerate(tokens, start=1):
            postings = lists.get(token)
            if postings is None:
                lists[token] = [(rid, position)]
            else:
                postings.append((rid, position))
        self._live += len(tokens)

    def postings(self, token: int) -> List[Posting]:
        """The posting list for *token* (empty when unseen)."""
        return self._lists.get(token, [])

    def trim_head(self, token: int, count: int) -> None:
        """Drop the first *count* postings of *token*'s list.

        Used by ppjoin's lazy size filtering (the streaming engine's
        FIFO expiry uses :meth:`trim_heads`); going through the index
        (rather than mutating the returned list) keeps the running
        :attr:`entry_count` accurate.
        The list is trimmed in place, so a caller still holding it sees
        the cut; a list trimmed empty leaves the index, so the index
        holds only the tokens some live posting has.
        """
        if count <= 0:
            return
        postings = self._lists.get(token)
        if not postings:
            return
        count = min(count, len(postings))
        del postings[:count]
        if not postings:
            del self._lists[token]
        self._live -= count

    def trim_heads(self, tokens: Iterable[int]) -> None:
        """Drop the head posting of each of *tokens*' lists in one call.

        Same effect as ``trim_head(token, 1)`` for every token.  Under
        FIFO expiry the oldest record's postings head every list it is
        in, so the streaming engine evicts a record with one call.
        """
        lists = self._lists
        removed = 0
        for token in tokens:
            postings = lists.get(token)
            if postings:
                if len(postings) == 1:
                    del lists[token]
                else:
                    del postings[0]
                removed += 1
        self._live -= removed

    def list_lengths(self) -> Tuple[List[int], List[int]]:
        """The indexed tokens and their posting counts, in parallel: each
        token's document frequency when every record adds each of its
        tokens once (a full-token index, as the streaming engine keeps)."""
        lists = self._lists
        return list(lists), list(map(len, lists.values()))

    def __contains__(self, token: int) -> bool:
        return token in self._lists

    def __len__(self) -> int:
        """Number of distinct indexed tokens."""
        return len(self._lists)

    @property
    def entry_count(self) -> int:
        """Current number of live postings (running counter, O(1))."""
        return self._live

    def tokens(self) -> Iterator[int]:
        return iter(self._lists)


class PostingColumns:
    """One token's postings as parallel flat columns.

    ``rids[i]``, ``positions[i]`` and ``bounds[i]`` describe posting *i*;
    all three arrays always have equal length.  ``'q'`` (signed 64-bit)
    is used for the integer columns so their batched copies read as one
    fixed NumPy dtype (int64) on every platform.
    """

    __slots__ = ("rids", "positions", "bounds")

    def __init__(self) -> None:
        self.rids = array("q")
        self.positions = array("q")
        self.bounds = array("d")

    def __len__(self) -> int:
        return len(self.rids)

    def append(self, rid: int, position: int, bound: float) -> None:
        self.rids.append(rid)
        self.positions.append(position)
        self.bounds.append(bound)

    def cut(self, start: int) -> int:
        """Drop entries ``[start:]`` from every column; return the count."""
        removed = len(self.rids) - start
        if removed <= 0:
            return 0
        del self.rids[start:]
        del self.positions[start:]
        del self.bounds[start:]
        return removed

    def tuples(self) -> List[Tuple[int, int, float]]:
        """Materialize ``(rid, position, bound)`` tuples (tests/debugging)."""
        return list(zip(self.rids, self.positions, self.bounds))


class BoundedInvertedIndex:
    """Top-k join index whose postings carry insertion-time probing bounds.

    Tracks the bookkeeping the paper's Figure 3(b) reports: total insertions,
    deletions (from list truncation) and the peak number of live entries.
    """

    __slots__ = ("_lists", "inserted", "deleted", "peak_entries", "_live")

    def __init__(self) -> None:
        self._lists: Dict[int, PostingColumns] = {}
        self.inserted = 0
        self.deleted = 0
        self.peak_entries = 0
        self._live = 0

    def add(self, token: int, rid: int, position: int, bound: float) -> None:
        """Append ``(rid, position, probing-bound-at-insertion)``."""
        columns = self._lists.get(token)
        if columns is None:
            columns = self._lists[token] = PostingColumns()
        columns.append(rid, position, bound)
        self.inserted += 1
        self._live += 1
        if self._live > self.peak_entries:
            self.peak_entries = self._live

    def columns(self, token: int) -> Optional[PostingColumns]:
        """Live posting columns for *token* (``None`` when unseen).

        Sorted by non-increasing bound; the hot loops index the columns
        directly.
        """
        return self._lists.get(token)

    def postings(self, token: int) -> List[Tuple[int, int, float]]:
        """Live postings for *token* as tuples (compatibility/testing view).

        The hot paths use :meth:`columns`; this materializes tuples on
        every call.
        """
        columns = self._lists.get(token)
        if columns is None:
            return []
        return columns.tuples()

    def truncate(self, token: int, start: int) -> int:
        """Drop postings ``[start:]`` of *token*'s list; return the count.

        Used by the accessing-bound optimisation (Algorithm 9): once an
        entry fails the accessing bound against the current event, all later
        entries (which have even smaller insertion bounds) fail it too — for
        this and every future probing — so the tail is deleted outright.
        """
        columns = self._lists.get(token)
        if columns is None:
            return 0
        removed = columns.cut(start)
        self.deleted += removed
        self._live -= removed
        return removed

    @property
    def entry_count(self) -> int:
        """Current number of live postings."""
        return self._live

    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, token: int) -> bool:
        return token in self._lists
