"""Initialization of temporary results (Section V-B).

Starting the join with an empty buffer means ``s_k = 0``: no filter prunes
anything until *k* pairs have been verified, and the verification hash
stores everything.  The paper therefore seeds ``T`` before the event loop:
records sharing a *selective* (low document frequency) token are likely
similar, so pairs drawn from short inverted lists make excellent initial
temporary results — Figure 5(b) of the paper shows ``s_k`` already near
its final value when the first result is emitted.

This module implements a budgeted generalization of the paper's scheme:
tokens are visited in increasing document frequency (df >= 2 — a df-2
token yields exactly one, usually very similar, pair), each token
contributes the pairs of its holder list, and verification stops once the
pair budget is exhausted.  The paper's single medium-df token (df in
[10, 100] with ``df·(df-1)/2 >= k``) is the special case of one visited
token; :func:`choose_seed_token` still implements that selection rule.

The incremental streaming engine's refill joins run unseeded
(``TopkOptions.seed_results=False``); its recompute mode, the
reference, joins as configured.  A refill ranks the window's tokens
rarest first, so the join's first prefix events already pair records
through their rarest shared tokens, the pairs seeding would verify;
seeded, it verifies more pairs in all.  On the refills of the
serve-mixed traces of three seeds (window 200, top-2), the budget
verified 41–44 pairs per refill and the paper's single token 62–69,
against 36–40 unseeded, and both took longer (docs/PERFORMANCE.md,
Piece 12).  Batch joins keep the budgeted seeding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..data.records import (
    SIGNATURE_BITS,
    RecordCollection,
    signature_overlap_bound,
)
from ..result import ordered_pair
from ..similarity.functions import SimilarityFunction
from ..similarity.overlap import overlap_with_common_positions
from .results import TopKBuffer
from .verification import VerificationRegistry

if TYPE_CHECKING:
    from ..oracle.invariants import CheckHooks
    from .metrics import TopkStats

__all__ = ["choose_seed_token", "seed_temporary_results"]

#: The paper examines tokens with document frequency in [10, 100].
_PREFERRED_DF = (10, 100)
#: Hard cap on seed verifications, independent of k.
_MAX_SEED_PAIRS = 20000
#: Seed verification budget as a multiple of k.
_BUDGET_FACTOR = 4
#: Tokens rarer than this never help (df 0/1 yield no pairs).
_MIN_DF = 2
#: Tokens more frequent than this are too noisy to seed from.
_MAX_DF = 100


def choose_seed_token(
    frequencies: Dict[int, int], k: int
) -> Optional[int]:
    """Pick a single seed token per the paper's original rule.

    Among tokens with document frequency in the preferred band, choose the
    one with the *smallest* df such that ``df·(df-1)/2 >= k``.  When the
    band has no such token, fall back to the smallest-df token anywhere
    that supplies enough pairs; return ``None`` when none does.
    """
    low, high = _PREFERRED_DF
    best: Optional[Tuple[int, int]] = None
    fallback: Optional[Tuple[int, int]] = None
    for token, df in frequencies.items():
        if df * (df - 1) // 2 < k:
            continue
        if low <= df <= high:
            if best is None or (df, token) < best:
                best = (df, token)
        elif fallback is None or (df, token) < fallback:
            fallback = (df, token)
    chosen = best if best is not None else fallback
    return None if chosen is None else chosen[1]


def seed_temporary_results(
    collection: RecordCollection,
    similarity: SimilarityFunction,
    buffer: TopKBuffer,
    registry: VerificationRegistry,
    sides: Optional[Sequence[int]] = None,
    checks: Optional["CheckHooks"] = None,
    stats: Optional["TopkStats"] = None,
    bitmap: bool = True,
    sig_bits: int = SIGNATURE_BITS,
) -> int:
    """Fill *buffer* with pairs sharing selective tokens.

    Visits tokens in increasing document frequency (rarest first, df in
    ``[2, 100]``), verifies the pairs of each token's holder list, and
    stops after ``min(4k, 20000)`` verifications.  Every verified seed pair
    is recorded in *registry*: the event loop will re-generate these pairs
    and must not verify them again.  Returns the number of pairs verified.

    Once the buffer is full, candidate pairs whose bitmap-signature
    overlap bound (see :func:`repro.data.records.signature_overlap_bound`)
    cannot reach ``s_k`` are skipped *without* verifying or recording
    them — the event loop regenerates and verifies them later if they
    matter, so the verify-once discipline is untouched.  *sig_bits*
    selects the signature width, matching the caller's kernel so the
    per-width cache is warmed exactly once per run.  *stats* is an
    optional :class:`repro.core.metrics.TopkStats` receiving the bitmap
    counters.

    With *sides* (bipartite joins) only cross-side pairs are seeded — a
    same-side pair is outside the pair space and must never reach the
    buffer.  *checks* is the caller's optional
    :class:`repro.oracle.invariants.CheckHooks`; seed verifications are
    reported to it so the emitted-implies-verified and verify-once
    invariants cover the seeding phase too.
    """
    budget = min(max(buffer.k * _BUDGET_FACTOR, buffer.k), _MAX_SEED_PAIRS)
    frequencies = collection.token_frequencies()

    candidates = sorted(
        (
            (df, token)
            for token, df in frequencies.items()
            if _MIN_DF <= df <= _MAX_DF
        ),
    )
    if not candidates:
        return 0

    # Choose a token prefix whose cumulative pair count covers the budget,
    # then gather holder lists for exactly those tokens in one pass.
    chosen: List[int] = []
    cumulative = 0
    for df, token in candidates:
        chosen.append(token)
        cumulative += df * (df - 1) // 2
        if cumulative >= budget:
            break
    wanted = set(chosen)
    holders: Dict[int, List[int]] = {token: [] for token in chosen}
    for record in collection:
        for token in record.tokens:
            if token in wanted:
                holders[token].append(record.rid)

    signatures = collection.signatures_at(sig_bits) if bitmap else None
    verified = 0
    seen: set = set()
    for token in chosen:
        rids = holders[token]
        for a in range(len(rids)):
            x = collection[rids[a]]
            size_x = len(x)
            for b in range(a + 1, len(rids)):
                if verified >= budget:
                    return verified
                if sides is not None and sides[rids[a]] == sides[rids[b]]:
                    continue
                pair = ordered_pair(rids[a], rids[b])
                if pair in seen:
                    continue
                seen.add(pair)
                y = collection[rids[b]]
                if signatures is not None and buffer.full:
                    # Bitmap prune: skip (without verifying or recording)
                    # a pair that provably cannot enter the full buffer.
                    size_y = len(y)
                    alpha = similarity.required_overlap(
                        buffer.s_k, size_x, size_y
                    )
                    if alpha > 0:
                        limit = signature_overlap_bound(
                            signatures[rids[a]], signatures[rids[b]],
                            size_x, size_y,
                        )
                        if stats is not None:
                            stats.bitmap_checked += 1
                        if limit < alpha:
                            if stats is not None:
                                stats.bitmap_pruned += 1
                            continue
                probe = overlap_with_common_positions(x.tokens, y.tokens)
                if checks is not None:
                    checks.on_verified(pair)
                value = similarity.from_overlap(
                    probe.overlap, len(x), len(y)
                )
                buffer.add(pair, value)
                registry.record_seed(pair, probe, len(x), len(y), buffer.s_k)
                verified += 1
    return verified
