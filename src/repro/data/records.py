"""Record model and canonicalized record collections.

A :class:`Record` is a set of tokens drawn from a finite universe, stored as
a tuple of integer token *ranks* sorted ascending by the collection's global
ordering (Section II-A of the paper).  A :class:`RecordCollection` owns the
token dictionary, canonicalizes every record, and keeps records sorted by
increasing size — the invariant both the All-Pairs index-reduction (Lemma 2)
and the event-compression optimisation (Section V-C) rely on.

``Record.rid`` identifiers refer to positions in the size-sorted collection,
so ``coll[r.rid] is r``.  The original input position is preserved in
``Record.source_id`` for callers that need to map results back.

Collections also carry per-record **bit signatures** (the bitmap-filter
technique of Sandes, Teodoro & Melo, arXiv:1711.07295): each token is
hashed to one bit of a configurable-width word (any width in
:data:`SUPPORTED_SIGNATURE_BITS`; default :data:`SIGNATURE_BITS`) and a
record's signature is the XOR-fold of its token bits.  Because the XOR
of two signatures equals the XOR-fold over the records' *symmetric
difference*, its popcount can never exceed ``|x Δ y|``, giving the
exact-safe overlap upper bound

    ``|x ∩ y| <= (|x| + |y| - popcount(sig_x ^ sig_y)) // 2``

which the accelerated join kernels (:mod:`repro.accel.kernel`) check
before any per-pair merge work.  Signatures are built once per collection
and width (lazily, cached per width) right after canonicalization —
token ranks are already integers, so hashing is one multiply-shift per
token.  Wider signatures cost more words per XOR+popcount but collide
less, raising prune rates where the 128-bit filter saturates; bounds
from *different* widths are never comparable, so every consumer works
at one explicit width (``TopkOptions.sig_bits``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .ordering import document_frequencies, idf_ordering
from .tokenize import tokenize_qgrams, tokenize_words

__all__ = [
    "Record",
    "RecordCollection",
    "SIGNATURE_BITS",
    "SUPPORTED_SIGNATURE_BITS",
    "popcount",
    "signature_of",
    "signature_overlap_bound",
    "signature_width",
]

#: Signature widths the kernels accept (whole 64-bit words, 1-8 each).
SUPPORTED_SIGNATURE_BITS = (64, 128, 256, 512)

#: Default width of the per-record bit signature (2 machine words).
SIGNATURE_BITS = 128

#: 64-bit golden-ratio multiplier (splitmix64's increment) — one multiply
#: mixes a token rank well enough that the high bits index a signature bit.
_MIX = 0x9E3779B97F4A7C15
_WORD_MASK = 0xFFFFFFFFFFFFFFFF
#: ``width -> 64 - log2(width)``: the hash's top bits select a bit position.
_BIT_SHIFT_OF = {
    bits: 64 - (bits.bit_length() - 1) for bits in SUPPORTED_SIGNATURE_BITS
}

#: 16-bit-chunk popcount table for interpreters without ``int.bit_count``
#: (Python 3.9).  Built lazily on first use: at 64k entries the build is
#: noticeable, and 3.10+ interpreters never need it.
_POPCOUNT_TABLE: List[int] = []


def _gather(values: Sequence[Any], keys: Sequence[int]) -> Sequence[Any]:
    """``values[key]`` for each of *keys*, in one C-level call."""
    if len(keys) == 1:
        return (values[keys[0]],)
    return itemgetter(*keys)(values) if keys else ()


def _table_popcount(value: int) -> int:
    """Number of set bits in *value*, via a 16-bit lookup table.

    The ``int.bit_count`` fallback for Python 3.9: chunking through a
    65536-entry table beats ``bin(value).count("1")`` on every signature
    width because no intermediate string is built (see the popcount note
    in docs/PERFORMANCE.md for measurements).
    """
    table = _POPCOUNT_TABLE
    if not table:
        table.extend(bin(i).count("1") for i in range(1 << 16))
    count = 0
    while value:
        count += table[value & 0xFFFF]
        value >>= 16
    return count


try:  # int.bit_count is Python >= 3.10; table fallback on 3.9.
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on 3.9
    popcount = _table_popcount


def signature_width(bits: int) -> int:
    """Validate *bits* and return it (the kernels' width check).

    Raises ``ValueError`` for widths outside
    :data:`SUPPORTED_SIGNATURE_BITS` — every supported width is a whole
    number of 64-bit machine words, which the word-parallel kernels rely
    on.
    """
    if bits not in _BIT_SHIFT_OF:
        raise ValueError(
            "sig_bits must be one of %s, got %r"
            % (SUPPORTED_SIGNATURE_BITS, bits)
        )
    return bits


def signature_of(tokens: Iterable[int], bits: int = SIGNATURE_BITS) -> int:
    """XOR-folded bit signature of a token set at width *bits*.

    Each token sets (toggles) one of *bits* bit positions chosen by a
    multiply-shift hash of its rank.  XOR-folding (rather than OR) is
    what makes the Hamming bound exact-safe: colliding tokens cancel,
    they never inflate the apparent overlap floor.  Signatures of
    different widths are incomparable — both sides of every XOR must be
    built at the same *bits*.
    """
    if bits not in _BIT_SHIFT_OF:
        signature_width(bits)  # raise the canonical error
    shift = _BIT_SHIFT_OF[bits]
    signature = 0
    for token in tokens:
        signature ^= 1 << (((token * _MIX) & _WORD_MASK) >> shift)
    return signature


def signature_overlap_bound(
    signature_x: int, signature_y: int, size_x: int, size_y: int
) -> int:
    """Upper bound on ``|x ∩ y|`` from the two records' signatures.

    ``popcount(sig_x ^ sig_y)`` is a lower bound on ``|x Δ y|`` (every
    symmetric-difference token toggles exactly one bit; collisions only
    cancel), and ``|x ∩ y| = (|x| + |y| - |x Δ y|) / 2``.  The bound is
    never below the true overlap, so pruning candidates whose bound is
    below the required overlap α is exact.
    """
    return (size_x + size_y - popcount(signature_x ^ signature_y)) >> 1


class Record:
    """A canonicalized record: a sorted sequence of integer token ranks."""

    __slots__ = ("rid", "tokens", "source_id")

    def __init__(self, rid: int, tokens: Sequence[int], source_id: int) -> None:
        self.rid = rid
        self.tokens = tokens
        self.source_id = source_id

    @property
    def size(self) -> int:
        """Number of tokens, written ``|x|`` in the paper."""
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def __getitem__(self, index: int) -> int:
        return self.tokens[index]

    def __repr__(self) -> str:
        return "Record(rid=%d, size=%d)" % (self.rid, len(self.tokens))


class RecordCollection:
    """A size-sorted collection of canonicalized records.

    Build one with :meth:`from_token_lists`, :meth:`from_texts` or
    :meth:`from_qgrams`; all three run the full canonicalization pipeline:

    1. compute document frequencies over the raw token lists;
    2. build the global idf ordering (rarest token = rank 0) — or any
       ordering supplied via *ordering_factory*;
    3. map each record to a sorted tuple of ranks;
    4. sort records by increasing size (ties: lexicographic on tokens, so
       collections are deterministic).

    Exact duplicate records are dropped when *dedupe* is true, matching the
    dataset cleaning in Section VII-A.
    """

    def __init__(
        self,
        records: List[Record],
        universe_size: int,
        token_of_rank: Optional[List[str]] = None,
    ) -> None:
        self.records = records
        self.universe_size = universe_size
        self.token_of_rank = token_of_rank
        #: Lazily built per-rid bit signatures, keyed by width (see
        #: :func:`signature_of`).
        self._signatures: Dict[int, List[int]] = {}
        #: Lazily counted document frequencies (see :meth:`token_frequencies`).
        self._frequencies: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_token_lists(
        cls,
        token_lists: Sequence[Sequence[str]],
        dedupe: bool = True,
        ordering_factory: Callable[[Dict[str, int]], Dict[str, int]] = idf_ordering,
    ) -> "RecordCollection":
        """Canonicalize raw string-token lists into a collection."""
        df = document_frequencies(token_lists)
        rank_of = ordering_factory(df)
        token_of_rank = [""] * len(rank_of)
        for token, rank in rank_of.items():
            token_of_rank[rank] = token

        canonical: List[Tuple[Tuple[int, ...], int]] = []
        seen = set()
        for source_id, tokens in enumerate(token_lists):
            ranked = tuple(sorted({rank_of[t] for t in tokens}))
            if not ranked:
                continue
            if dedupe:
                if ranked in seen:
                    continue
                seen.add(ranked)
            canonical.append((ranked, source_id))

        canonical.sort(key=lambda item: (len(item[0]), item[0]))
        records = [
            Record(rid, tokens, source_id)
            for rid, (tokens, source_id) in enumerate(canonical)
        ]
        return cls(records, universe_size=len(rank_of), token_of_rank=token_of_rank)

    @classmethod
    def from_texts(
        cls, texts: Sequence[str], dedupe: bool = True
    ) -> "RecordCollection":
        """Tokenize *texts* into word tokens and canonicalize."""
        return cls.from_token_lists(
            [tokenize_words(t) for t in texts], dedupe=dedupe
        )

    @classmethod
    def from_qgrams(
        cls, texts: Sequence[str], q: int = 3, dedupe: bool = True
    ) -> "RecordCollection":
        """Tokenize *texts* into character q-grams and canonicalize."""
        return cls.from_token_lists(
            [tokenize_qgrams(t, q=q) for t in texts], dedupe=dedupe
        )

    @classmethod
    def from_integer_sets(
        cls, integer_sets: Sequence[Iterable[int]], dedupe: bool = True
    ) -> "RecordCollection":
        """Build a collection from pre-ranked integer token sets.

        Intended for tests and synthetic workloads where tokens are already
        integers; the integers are used as ranks verbatim (no reordering),
        so callers control the global ordering directly.
        """
        canonical: List[Tuple[int, Tuple[int, ...], int]] = []
        seen = set()
        universe = 0
        for source_id, tokens in enumerate(integer_sets):
            ranked = tuple(sorted(set(tokens)))
            if not ranked:
                continue
            if ranked[-1] >= universe:
                universe = ranked[-1] + 1
            if dedupe:
                if ranked in seen:
                    continue
                seen.add(ranked)
            canonical.append((len(ranked), ranked, source_id))
        # By size, then tokens; equal records keep their input order.
        canonical.sort()
        records = [
            Record(rid, tokens, source_id)
            for rid, (__, tokens, source_id) in enumerate(canonical)
        ]
        return cls(records, universe_size=universe)

    @classmethod
    def from_frequency_ranks(
        cls,
        token_sets: Sequence[Sequence[int]],
        tokens: Sequence[int],
        frequencies: Sequence[int],
    ) -> "RecordCollection":
        """A collection over *token_sets*, tokens ranked rarest first.

        For callers that already hold each token's document frequency,
        as the streaming engine's live index does: ``frequencies[i]``
        sets hold ``tokens[i]``, *tokens* lists every token of the sets
        once, and each set is non-empty with distinct tokens.  Ranks
        ascend with frequency, equal frequencies keeping the order of
        *tokens*, so ranking is one sort of small integers.  Records are
        sorted by size, equal sizes keeping input order, and
        ``source_id`` is the input position (no deduplication).  The
        collection takes the frequencies as its
        :meth:`token_frequencies` instead of counting them.
        """
        count = len(frequencies)
        order = sorted(range(count), key=frequencies.__getitem__)
        rank_of = dict(zip(_gather(tokens, order), range(count)))
        ranked = [sorted(_gather(rank_of, token_set)) for token_set in token_sets]
        sizes = list(map(len, ranked))
        by_size = sorted(range(len(ranked)), key=sizes.__getitem__)
        records = list(
            map(Record, range(len(by_size)), _gather(ranked, by_size), by_size)
        )
        collection = cls(records, universe_size=count)
        collection._frequencies = dict(
            zip(range(count), map(frequencies.__getitem__, order))
        )
        return collection

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, rid: int) -> Record:
        return self.records[rid]

    # ------------------------------------------------------------------
    # Bit signatures
    # ------------------------------------------------------------------

    @property
    def signatures(self) -> List[int]:
        """Per-rid bit signatures at the default width (cached).

        ``signatures[rid]`` is :func:`signature_of` of record *rid*'s
        tokens at :data:`SIGNATURE_BITS`.  The accelerated join kernels
        index this list directly, so it must stay aligned with
        :attr:`records`.
        """
        return self.signatures_at(SIGNATURE_BITS)

    def signatures_at(self, bits: int) -> List[int]:
        """Per-rid bit signatures at width *bits*, built once and cached.

        Each supported width keeps its own cache entry — a 256-bit probe
        never invalidates the 128-bit signatures another consumer (the
        streaming engine, a second join run) already paid for.
        """
        cached = self._signatures.get(bits)
        if cached is None:
            signature_width(bits)
            cached = [
                signature_of(record.tokens, bits) for record in self.records
            ]
            self._signatures[bits] = cached
        return cached

    def adopt_signatures(self, bits: int, signatures: List[int]) -> None:
        """Use *signatures* as the width-*bits* signatures, rid-aligned.

        For callers that already hold each record's signature, hashed
        from its tokens under another id space (the streaming engine's
        window hashes original token ids, not ranks).  The overlap bound
        stays exact under any token-to-bit map applied to every record
        alike.
        """
        signature_width(bits)
        if len(signatures) != len(self.records):
            raise ValueError(
                "%d signatures for %d records"
                % (len(signatures), len(self.records))
            )
        self._signatures[bits] = signatures

    def clear_derived_caches(self) -> None:
        """Drop the cached signatures and token frequencies.

        Benchmarks call this so that each timed join pays for hashing
        and for the frequency count again.
        """
        self._signatures.clear()
        self._frequencies = None

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def average_size(self) -> float:
        """Mean record size (the ``avg. size`` column of Table I)."""
        if not self.records:
            return 0.0
        return sum(len(r) for r in self.records) / len(self.records)

    def token_frequencies(self) -> Dict[int, int]:
        """Document frequency of every token rank present in the collection.

        Counted once and cached, like :meth:`signatures_at` (or taken
        from :meth:`from_frequency_ranks`): result seeding and the
        join's singleton rule read the same counts.  Callers must not
        mutate the returned dict.
        """
        df = self._frequencies
        if df is None:
            df = {}
            for record in self.records:
                for token in record.tokens:
                    df[token] = df.get(token, 0) + 1
            self._frequencies = df
        return df

    def size_blocks(self) -> List[Tuple[int, int, int]]:
        """Contiguous runs of equal-size records as ``(size, start, stop)``.

        Supports the prefix-event compression of Section V-C, which groups
        events by ``(record size, prefix length)``.
        """
        blocks: List[Tuple[int, int, int]] = []
        start = 0
        while start < len(self.records):
            size = len(self.records[start])
            stop = start
            while stop < len(self.records) and len(self.records[stop]) == size:
                stop += 1
            blocks.append((size, start, stop))
            start = stop
        return blocks

    def strings(self, record: Record, separator: str = " ") -> str:
        """Render *record* back to its token strings (debugging aid)."""
        if self.token_of_rank is None:
            return separator.join(str(t) for t in record.tokens)
        return separator.join(self.token_of_rank[t] for t in record.tokens)
