"""ppjoin and ppjoin+ (Xiao, Wang, Lin, Yu — WWW'08).

The state-of-the-art threshold joins the paper builds on and benchmarks
against (as the engine inside ``pptopk``).  On top of All-Pairs they add:

* **positional filtering** — candidate accumulation keeps, per candidate,
  the number of prefix tokens matched so far; a new match at positions
  ``(i, j)`` only survives if ``A[y] + 1 + min(|x|-i, |y|-j)`` can still
  reach the required overlap α;
* **lazy size-based posting removal** — posting lists are filled in record
  size order, so once a posting's record is too small for the current
  (larger) probe it is too small forever and the list head is trimmed;
* **suffix filtering** (``plus=True`` — i.e. ppjoin+) — the first match of
  a candidate is additionally screened by the Hamming-distance suffix probe
  of :func:`repro.joins.filters.suffix_admits` with depth ``maxdepth``.

This implementation adds the **bitmap prefilter** of the accelerated
top-k kernels (``bitmap=True``, see
:func:`repro.data.records.signature_overlap_bound`): a candidate's first
prefix match checks the signature Hamming bound against α before the
suffix probe, discarding most doomed candidates for one XOR + popcount.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.metrics import JoinStats
from ..data.records import RecordCollection, signature_overlap_bound
from ..index.inverted import InvertedIndex
from ..result import JoinResult, sort_results
from ..similarity.functions import Jaccard, SimilarityFunction
from .filters import DEFAULT_MAXDEPTH, positional_max_overlap, suffix_admits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer

__all__ = ["ppjoin", "ppjoin_plus"]

#: Sentinel accumulator value marking a positionally pruned candidate.
_PRUNED = -(10**9)


def ppjoin(
    collection: RecordCollection,
    threshold: float,
    similarity: Optional[SimilarityFunction] = None,
    plus: bool = False,
    maxdepth: int = DEFAULT_MAXDEPTH,
    stats: Optional[JoinStats] = None,
    bitmap: bool = True,
    tracer: Optional["Tracer"] = None,
) -> List[JoinResult]:
    """Self-join returning all pairs with ``sim >= threshold``.

    With ``plus=True`` this is ppjoin+ (suffix filtering enabled).  With
    ``bitmap=True`` (default) each candidate's first match also checks
    the exact-safe bitmap-signature overlap bound — set ``False`` to
    reproduce the historical WWW'08 filter chain only.  *tracer* wraps
    the run in a ``ppjoin`` span and absorbs the run's
    :class:`~repro.core.metrics.JoinStats` into its metrics registry.
    """
    if tracer is not None:
        run_stats = stats if stats is not None else JoinStats()
        with tracer.span(
            "ppjoin", threshold=threshold, plus=plus, records=len(collection)
        ):
            results = _ppjoin_run(
                collection, threshold, similarity, plus, maxdepth,
                run_stats, bitmap,
            )
        tracer.metrics.absorb_stats(run_stats)
        return results
    return _ppjoin_run(
        collection, threshold, similarity, plus, maxdepth, stats, bitmap
    )


def _ppjoin_run(
    collection: RecordCollection,
    threshold: float,
    similarity: Optional[SimilarityFunction],
    plus: bool,
    maxdepth: int,
    stats: Optional[JoinStats],
    bitmap: bool,
) -> List[JoinResult]:
    """The WWW'08 join proper; see :func:`ppjoin` for the contract."""
    sim = similarity or Jaccard()
    index = InvertedIndex()
    results: List[JoinResult] = []
    signatures = collection.signatures if bitmap else None

    for x in collection:
        size_x = len(x)
        tokens_x = x.tokens
        probing_length = sim.probing_prefix_length(size_x, threshold)
        accumulated: Dict[int, int] = {}

        for i in range(1, probing_length + 1):
            token = tokens_x[i - 1]
            postings = index.postings(token)

            # Lazy size filtering: postings arrive in increasing record
            # size, so the undersized head can be dropped permanently.
            trim = 0
            while trim < len(postings) and not sim.size_compatible(
                threshold, size_x, len(collection[postings[trim][0]])
            ):
                trim += 1
            if trim:
                index.trim_head(token, trim)
                if stats is not None:
                    stats.size_pruned += trim

            for rid, j in postings:
                seen = accumulated.get(rid, 0)
                if seen == _PRUNED:
                    continue
                y = collection[rid]
                size_y = len(y)
                alpha = sim.required_overlap(threshold, size_x, size_y)
                best = seen + positional_max_overlap(size_x, size_y, i, j)
                if best < alpha:
                    accumulated[rid] = _PRUNED
                    if stats is not None:
                        stats.positional_pruned += 1
                    continue
                if signatures is not None and seen == 0:
                    # Bitmap prefilter on first encounter: one XOR +
                    # popcount bounds the overlap; below α the pair can
                    # never reach the threshold.
                    if (
                        signature_overlap_bound(
                            signatures[x.rid], signatures[rid],
                            size_x, size_y,
                        )
                        < alpha
                    ):
                        accumulated[rid] = _PRUNED
                        if stats is not None:
                            stats.bitmap_pruned += 1
                        continue
                if plus and seen == 0:
                    if not suffix_admits(
                        sim, threshold, tokens_x, y.tokens, i, j,
                        seen_overlap=1, maxdepth=maxdepth,
                    ):
                        accumulated[rid] = _PRUNED
                        if stats is not None:
                            stats.suffix_pruned += 1
                        continue
                accumulated[rid] = seen + 1

        for rid, seen in accumulated.items():
            if seen == _PRUNED or seen <= 0:
                continue
            y = collection[rid]
            if stats is not None:
                stats.candidates += 1
                stats.verifications += 1
            value = sim.verify(tokens_x, y.tokens, threshold)
            if value >= threshold:
                results.append(JoinResult.make(x.rid, y.rid, value))

        indexing_length = sim.indexing_prefix_length(size_x, threshold)
        for i in range(indexing_length):
            index.add(tokens_x[i], x.rid, i + 1)
        if stats is not None:
            stats.index_entries += indexing_length

    if stats is not None:
        stats.results = len(results)
    return sort_results(results)


def ppjoin_plus(
    collection: RecordCollection,
    threshold: float,
    similarity: Optional[SimilarityFunction] = None,
    maxdepth: int = DEFAULT_MAXDEPTH,
    stats: Optional[JoinStats] = None,
    tracer: Optional["Tracer"] = None,
) -> List[JoinResult]:
    """ppjoin+ — ppjoin with suffix filtering (the paper's `pptopk` engine)."""
    return ppjoin(
        collection,
        threshold,
        similarity=similarity,
        plus=True,
        maxdepth=maxdepth,
        stats=stats,
        tracer=tracer,
    )
