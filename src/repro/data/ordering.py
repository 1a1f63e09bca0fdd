"""Global token orderings.

Prefix-filtering algorithms canonicalize every record by one *global*
ordering ``O`` of the token universe (Section II-A).  The standard choice —
used throughout the paper — is the *inverse document frequency* ordering
``O_idf``: tokens are arranged by decreasing idf, i.e. increasing document
frequency, so that the rarest (most selective) tokens land in record
prefixes.

An ordering is materialised as a dense rank map ``token -> int`` so records
can be stored as sorted integer arrays and compared with plain ``<``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, TypeVar

__all__ = [
    "document_frequencies",
    "idf_ordering",
    "frequency_ordering",
    "lexicographic_ordering",
]

#: Raw string tokens, or integer ids (the streaming engine's refill join).
Token = TypeVar("Token", str, int)


def document_frequencies(
    token_lists: Iterable[Iterable[Token]],
) -> Counter[Token]:
    """Count, for every token, the number of records containing it.

    Records are sets, so a token is counted at most once per record (the
    occurrence-numbering step in :mod:`repro.data.tokenize` has already made
    within-record duplicates distinct).
    """
    df: Counter[Token] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    return df


def idf_ordering(df: Mapping[Token, int]) -> Dict[Token, int]:
    """Rank tokens by increasing document frequency (decreasing idf).

    Ties are broken by the smaller token (lexicographically for strings)
    so the ordering is deterministic.  Rank 0 is the rarest token; record
    prefixes therefore carry the most selective tokens, which is what
    makes prefix filtering effective.
    """
    ordered: List[Token] = sorted(df, key=lambda token: (df[token], token))
    return {token: rank for rank, token in enumerate(ordered)}


def frequency_ordering(df: Dict[str, int]) -> Dict[str, int]:
    """Rank tokens by *decreasing* document frequency.

    The pessimal ordering for prefix filtering; useful in tests and
    ablations to show the algorithms stay correct (if slow) under any
    global ordering.
    """
    ordered: List[str] = sorted(df, key=lambda token: (-df[token], token))
    return {token: rank for rank, token in enumerate(ordered)}


def lexicographic_ordering(df: Dict[str, int]) -> Dict[str, int]:
    """Rank tokens alphabetically — a frequency-oblivious ordering."""
    return {token: rank for rank, token in enumerate(sorted(df))}
