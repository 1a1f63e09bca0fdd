"""Inverted index structures shared by the join algorithms."""

from .inverted import (
    BoundedInvertedIndex,
    InvertedIndex,
    Posting,
    PostingColumns,
)

__all__ = [
    "InvertedIndex",
    "BoundedInvertedIndex",
    "Posting",
    "PostingColumns",
]
