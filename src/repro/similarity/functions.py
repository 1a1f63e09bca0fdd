"""Similarity functions and the bound arithmetic of the paper.

The paper supports Jaccard (default), cosine, dice and overlap similarity
(Sections II-A and VI).  Each function here knows every derived quantity the
join algorithms need:

==============================  ====================================================
quantity                        meaning
==============================  ====================================================
``similarity`` / ``verify``     exact value ``sim(x, y)`` (verify aborts early)
``required_overlap``            α — minimal ``|x ∩ y|`` for ``sim >= t`` (Eq. 1)
``probing_prefix_length``       probing prefix for threshold *t* (Lemma 1)
``indexing_prefix_length``      indexing prefix for threshold *t* (Lemma 2)
``probing_upper_bound``         max sim when the first common token is at
                                prefix position *p* (Algorithm 5 / Section VI)
``indexing_upper_bound``        Lemma 4's tighter bound for pairs found by
                                probing *after* indexing (Algorithm 8)
``accessing_upper_bound``       bound from two probing bounds (Algorithm 10)
``size_compatible`` et al.      size filtering window (Line 12 of Algorithm 3)
==============================  ====================================================

A unifying observation keeps the implementation honest: with ``F(o, a, b)``
denoting the similarity of records of sizes *a*, *b* sharing *o* tokens,

* the probing bound is ``F(a-p+1, a, a-p+1)``  (best partner: the record's
  own suffix),
* the indexing bound is ``F(a-p+1, a, a)``     (best partner: an equal-size
  record identical from position *p* on — exactly Lemma 4's construction),
* prefix lengths invert those same expressions,

so every per-function table entry in Section VI reduces to one
``from_overlap`` method plus the accessing bound.  Integer thresholds are
computed with a closed-form first guess followed by an exact fix-up loop, so
floating-point rounding can never cause a false dismissal.

α and the probing prefix invert a nondecreasing ``F`` over the integers,
so for small records each instance also answers them from memoized *step
tables* — ``F(0), F(1), ...`` for one size pair — by binary search.  A
join recomputes every α its filters use whenever ``s_k`` rises; with the
tables that costs one bisection per size pair, and a long-lived instance
(the streaming engine's, reused by every refill join) builds each table
once.  The answers are the fix-up loop's, value for value.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Callable, Dict, List, Sequence, Tuple

from .overlap import overlap_size, overlap_with_early_abort

__all__ = [
    "SimilarityFunction",
    "Jaccard",
    "Cosine",
    "Dice",
    "Overlap",
    "similarity_by_name",
]

_INFINITY = float("inf")

#: Largest record size answered from a step table: a size pair is
#: tabled when neither size exceeds it (a probing prefix when ``|x|``
#: does not), so one instance keeps at most about a thousand tables.
#: A table costs up to ``_STEP_TABLE_SIZE + 1`` ``from_overlap`` calls,
#: about what two closed-form solves cost; pairs with a larger record
#: are solved on every call.
_STEP_TABLE_SIZE = 32


class SimilarityFunction(ABC):
    """Base class bundling a set-similarity function with its bound math."""

    #: Short identifier used by CLIs and benchmark reports.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Memoized step tables by ``(|x|, |y|)``; see :meth:`_step_table`.
        self._step_tables: Dict[Tuple[int, int], List[float]] = {}

    # ------------------------------------------------------------------
    # Core definition
    # ------------------------------------------------------------------

    @abstractmethod
    def from_overlap(self, overlap: int, size_x: int, size_y: int) -> float:
        """Similarity of two records of the given sizes sharing *overlap*."""

    @abstractmethod
    def accessing_upper_bound(self, bound_x: float, bound_y: float) -> float:
        """Max similarity given both records' probing upper bounds.

        This is the *accessing similarity upper bound* of Section IV-C
        (Algorithm 10), used to truncate inverted lists.
        """

    def max_value(self) -> float:
        """The largest value the function can take (1.0 unless unnormalized)."""
        return 1.0

    def accessing_cutoff(self, bound_x: float, threshold: float) -> float:
        """Largest partner bound that *might* fail the accessing test.

        Inverts :meth:`accessing_upper_bound` in its second argument:
        postings with insertion bound above the returned cutoff are
        guaranteed to pass ``accessing_upper_bound(bound_x, ·) > threshold``
        and need no per-posting check.  The default inversion is a
        monotone binary search; subclasses provide closed forms.  A small
        relative margin keeps the cutoff conservative (callers re-check
        candidates below the cutoff exactly), so float rounding can only
        cost a redundant check, never a wrong prune.
        """
        low, high = 0.0, 1.0
        for __ in range(40):
            mid = (low + high) / 2.0
            if self.accessing_upper_bound(bound_x, mid) <= threshold:
                low = mid
            else:
                high = mid
        return high * (1.0 + 1e-9) + 1e-12

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def similarity(self, x: Sequence[int], y: Sequence[int]) -> float:
        """Exact ``sim(x, y)`` for two sorted token arrays."""
        return self.from_overlap(overlap_size(x, y), len(x), len(y))

    def verify(
        self, x: Sequence[int], y: Sequence[int], threshold: float
    ) -> float:
        """``sim(x, y)`` with early abort.

        The result is exact whenever it is ``>= threshold``; when the merge
        aborts, the returned value is merely *some* value ``< threshold``.
        """
        required = self.required_overlap(threshold, len(x), len(y))
        overlap = overlap_with_early_abort(x, y, required)
        return self.from_overlap(overlap, len(x), len(y))

    # ------------------------------------------------------------------
    # Overlap thresholds (with exact integer fix-up)
    # ------------------------------------------------------------------

    def required_overlap(self, threshold: float, size_x: int, size_y: int) -> int:
        """α — the minimal overlap with ``sim >= threshold`` (Eq. 1).

        Returns ``min(size_x, size_y) + 1`` when no overlap suffices.
        """
        if size_x <= _STEP_TABLE_SIZE and size_y <= _STEP_TABLE_SIZE:
            return bisect_left(self._step_table(size_x, size_y), threshold)
        limit = min(size_x, size_y)
        guess = self._raw_required_overlap(threshold, size_x, size_y)
        return self._fixup(
            guess, limit, lambda o: self.from_overlap(o, size_x, size_y), threshold
        )

    def _min_overlap_any_partner(self, threshold: float, size_x: int) -> int:
        """Minimal overlap achieving *threshold* against the best partner.

        The best partner for a given overlap *o* has exactly *o* tokens (a
        subset of *x*), so this inverts ``F(o, size_x, o)``.
        """
        guess = self._raw_min_overlap_any(threshold, size_x)
        return self._fixup(
            guess, size_x, lambda o: self.from_overlap(o, size_x, o), threshold
        )

    def _min_overlap_equal_partner(self, threshold: float, size_x: int) -> int:
        """Minimal overlap achieving *threshold* against an equal-size partner.

        Inverts ``F(o, size_x, size_x)`` — the Lemma 2 / Lemma 4 scenario
        where the unseen partner is no smaller than *x*.
        """
        guess = self._raw_min_overlap_equal(threshold, size_x)
        return self._fixup(
            guess, size_x, lambda o: self.from_overlap(o, size_x, size_x), threshold
        )

    @staticmethod
    def _fixup(
        guess: int,
        limit: int,
        value_at: Callable[[int], float],
        threshold: float,
    ) -> int:
        """Snap *guess* to the true minimal ``o`` with ``value_at(o) >= threshold``.

        ``value_at`` must be nondecreasing.  The closed-form guesses are off
        by at most one ulp-induced step, so these loops almost never run.
        """
        alpha = max(0, min(guess, limit + 1))
        while alpha > 0 and value_at(alpha - 1) >= threshold:
            alpha -= 1
        while alpha <= limit and value_at(alpha) < threshold:
            alpha += 1
        return alpha

    def _step_table(self, size_x: int, size_y: int) -> List[float]:
        """``F(o, size_x, size_y)`` for ``o = 0 .. min(size_x, size_y)``.

        ``size_y = -1`` stands for the best partner of each overlap,
        ``F(o, size_x, o)`` for ``o = 0 .. size_x``.  ``F`` is
        nondecreasing in ``o``, so the least ``o`` with ``F(o) >= t`` —
        what :meth:`_fixup` finds, or the table's length when there is
        none — is ``bisect_left(table, t)``.  Built once per instance.
        """
        table = self._step_tables.get((size_x, size_y))
        if table is None:
            from_overlap = self.from_overlap
            if size_y < 0:
                table = [from_overlap(o, size_x, o) for o in range(size_x + 1)]
            else:
                table = [
                    from_overlap(o, size_x, size_y)
                    for o in range(min(size_x, size_y) + 1)
                ]
            self._step_tables[(size_x, size_y)] = table
        return table

    # Closed-form initial guesses, one per subclass. ---------------------

    @abstractmethod
    def _raw_required_overlap(
        self, threshold: float, size_x: int, size_y: int
    ) -> int:
        """Closed-form guess for :meth:`required_overlap`."""

    @abstractmethod
    def _raw_min_overlap_any(self, threshold: float, size_x: int) -> int:
        """Closed-form guess for :meth:`_min_overlap_any_partner`."""

    @abstractmethod
    def _raw_min_overlap_equal(self, threshold: float, size_x: int) -> int:
        """Closed-form guess for :meth:`_min_overlap_equal_partner`."""

    # ------------------------------------------------------------------
    # Prefix lengths
    # ------------------------------------------------------------------

    def probing_prefix_length(self, size_x: int, threshold: float) -> int:
        """Length of the probing prefix guaranteeing no missed pair.

        Jaccard instance: ``|x| - ceil(t * |x|) + 1`` (Section II-B).
        Clamped to ``[0, size_x]``; 0 means the record cannot reach the
        threshold against any partner.
        """
        if size_x <= _STEP_TABLE_SIZE:
            alpha = bisect_left(self._step_table(size_x, -1), threshold)
        else:
            alpha = self._min_overlap_any_partner(threshold, size_x)
        return max(0, min(size_x, size_x - alpha + 1))

    def indexing_prefix_length(self, size_x: int, threshold: float) -> int:
        """Length of the indexing prefix (index-reduction, Lemma 2).

        Valid when all partners probing the index are no smaller than *x*,
        which size-sorted processing guarantees.  Jaccard instance:
        ``|x| - ceil(2t/(1+t) * |x|) + 1``.
        """
        alpha = self._min_overlap_equal_partner(threshold, size_x)
        return max(0, min(size_x, size_x - alpha + 1))

    # ------------------------------------------------------------------
    # Upper bounds
    # ------------------------------------------------------------------

    def probing_upper_bound(self, size_x: int, prefix: int) -> float:
        """Max similarity of *x* and any record whose first common token
        with *x* sits at prefix position *prefix* (Algorithm 5).

        Jaccard instance: ``1 - (p-1)/|x|``.
        """
        overlap = size_x - prefix + 1
        if overlap <= 0:
            return 0.0
        return self.from_overlap(overlap, size_x, overlap)

    def indexing_upper_bound(self, size_x: int, prefix: int) -> float:
        """Lemma 4's bound for pairs found by probing after indexing.

        Jaccard instance: ``(|x|-p+1) / (|x|+p-1)``.
        """
        overlap = size_x - prefix + 1
        if overlap <= 0:
            return 0.0
        return self.from_overlap(overlap, size_x, size_x)

    # ------------------------------------------------------------------
    # Size filtering
    # ------------------------------------------------------------------

    def size_compatible(self, threshold: float, size_x: int, size_y: int) -> bool:
        """Exact size-filter test: can records of these sizes reach *threshold*?

        Equivalent to ``|y| in [t|x|, |x|/t]`` for Jaccard but evaluated via
        ``from_overlap`` so it is exactly consistent with verification.
        """
        best = self.from_overlap(min(size_x, size_y), size_x, size_y)
        return best >= threshold

    def size_lower_bound(self, threshold: float, size_x: int) -> float:
        """Smallest partner size that can reach *threshold* (real-valued)."""
        low, high = 0.0, float(size_x)
        if self.from_overlap(size_x, size_x, size_x) < threshold:
            return _INFINITY
        for __ in range(60):
            mid = (low + high) / 2.0
            if self.from_overlap(int(mid), size_x, max(1, int(mid))) >= threshold:
                high = mid
            else:
                low = mid
        return high

    def size_upper_bound(self, threshold: float, size_x: int) -> float:
        """Largest partner size that can reach *threshold* (real-valued).

        ``inf`` for the overlap function, whose constraint is one-sided.
        """
        if threshold <= 0:
            return _INFINITY
        low, high = float(size_x), float(size_x) * 4 + 16
        while self.from_overlap(size_x, size_x, int(high)) >= threshold:
            high *= 2
            if high > 1e15:
                return _INFINITY
        for __ in range(60):
            mid = (low + high) / 2.0
            if self.from_overlap(size_x, size_x, max(1, int(mid))) >= threshold:
                low = mid
            else:
                high = mid
        return low

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class Jaccard(SimilarityFunction):
    """``J(x, y) = |x ∩ y| / |x ∪ y|`` — the paper's default function."""

    name = "jaccard"

    def from_overlap(self, overlap: int, size_x: int, size_y: int) -> float:
        union = size_x + size_y - overlap
        if union <= 0:
            return 0.0
        return overlap / union

    def accessing_upper_bound(self, bound_x: float, bound_y: float) -> float:
        denominator = bound_x + bound_y - bound_x * bound_y
        if denominator <= 0.0:
            return 0.0
        return bound_x * bound_y / denominator

    def accessing_cutoff(self, bound_x: float, threshold: float) -> float:
        # acc(bx, by) <= t  <=>  by * (bx (1+t) - t) <= t bx
        denominator = bound_x * (1.0 + threshold) - threshold
        if denominator <= 0.0:
            return _INFINITY
        cutoff = threshold * bound_x / denominator
        return cutoff * (1.0 + 1e-9) + 1e-12

    def _raw_required_overlap(self, t: float, size_x: int, size_y: int) -> int:
        # J >= t  <=>  o >= t/(1+t) * (|x| + |y|)            (Eq. 1)
        return math.ceil(t / (1.0 + t) * (size_x + size_y)) if t > 0 else 0

    def _raw_min_overlap_any(self, t: float, size_x: int) -> int:
        # best partner: o/|x| >= t
        return math.ceil(t * size_x) if t > 0 else 0

    def _raw_min_overlap_equal(self, t: float, size_x: int) -> int:
        # equal-size partner: o/(2|x| - o) >= t  <=>  o >= 2t/(1+t) * |x|
        return math.ceil(2.0 * t / (1.0 + t) * size_x) if t > 0 else 0


class Cosine(SimilarityFunction):
    """``C(x, y) = |x ∩ y| / sqrt(|x| * |y|)`` on binary vectors."""

    name = "cosine"

    def from_overlap(self, overlap: int, size_x: int, size_y: int) -> float:
        if size_x <= 0 or size_y <= 0:
            return 0.0
        return overlap / math.sqrt(size_x * size_y)

    def accessing_upper_bound(self, bound_x: float, bound_y: float) -> float:
        return bound_x * bound_y

    def accessing_cutoff(self, bound_x: float, threshold: float) -> float:
        # acc(bx, by) <= t  <=>  by <= t / bx
        if bound_x <= 0.0:
            return _INFINITY
        return (threshold / bound_x) * (1.0 + 1e-9) + 1e-12

    def _raw_required_overlap(self, t: float, size_x: int, size_y: int) -> int:
        # C >= t  <=>  o >= t * sqrt(|x| |y|)
        return math.ceil(t * math.sqrt(size_x * size_y)) if t > 0 else 0

    def _raw_min_overlap_any(self, t: float, size_x: int) -> int:
        # best partner: sqrt(o/|x|) >= t  <=>  o >= t^2 |x|
        return math.ceil(t * t * size_x) if t > 0 else 0

    def _raw_min_overlap_equal(self, t: float, size_x: int) -> int:
        # equal-size partner: o/|x| >= t
        return math.ceil(t * size_x) if t > 0 else 0


class Dice(SimilarityFunction):
    """``D(x, y) = 2 |x ∩ y| / (|x| + |y|)``."""

    name = "dice"

    def from_overlap(self, overlap: int, size_x: int, size_y: int) -> float:
        total = size_x + size_y
        if total <= 0:
            return 0.0
        return 2.0 * overlap / total

    def accessing_upper_bound(self, bound_x: float, bound_y: float) -> float:
        denominator = bound_x + bound_y - bound_x * bound_y
        if denominator <= 0.0:
            return 0.0
        return bound_x * bound_y / denominator

    def accessing_cutoff(self, bound_x: float, threshold: float) -> float:
        # Same accessing bound shape as Jaccard.
        denominator = bound_x * (1.0 + threshold) - threshold
        if denominator <= 0.0:
            return _INFINITY
        cutoff = threshold * bound_x / denominator
        return cutoff * (1.0 + 1e-9) + 1e-12

    def _raw_required_overlap(self, t: float, size_x: int, size_y: int) -> int:
        # D >= t  <=>  o >= t (|x| + |y|) / 2
        return math.ceil(t * (size_x + size_y) / 2.0) if t > 0 else 0

    def _raw_min_overlap_any(self, t: float, size_x: int) -> int:
        # best partner: 2o/(|x|+o) >= t  <=>  o >= t |x| / (2 - t);
        # no overlap reaches t >= 2.
        if t >= 2.0:
            return size_x + 1
        return math.ceil(t * size_x / (2.0 - t)) if t > 0 else 0

    def _raw_min_overlap_equal(self, t: float, size_x: int) -> int:
        # equal-size partner: o/|x| >= t
        return math.ceil(t * size_x) if t > 0 else 0


class Overlap(SimilarityFunction):
    """``O(x, y) = |x ∩ y]`` — unnormalized (footnote 1 of the paper)."""

    name = "overlap"

    def from_overlap(self, overlap: int, size_x: int, size_y: int) -> float:
        return float(overlap)

    def accessing_upper_bound(self, bound_x: float, bound_y: float) -> float:
        return min(bound_x, bound_y)

    def accessing_cutoff(self, bound_x: float, threshold: float) -> float:
        # min(bx, by) <= t  <=>  bx <= t (always true) or by <= t
        if bound_x <= threshold:
            return _INFINITY
        return threshold * (1.0 + 1e-9) + 1e-12

    def max_value(self) -> float:
        return _INFINITY

    def _raw_required_overlap(self, t: float, size_x: int, size_y: int) -> int:
        return math.ceil(t) if t > 0 else 0

    def _raw_min_overlap_any(self, t: float, size_x: int) -> int:
        return math.ceil(t) if t > 0 else 0

    def _raw_min_overlap_equal(self, t: float, size_x: int) -> int:
        return math.ceil(t) if t > 0 else 0


_REGISTRY = {
    "jaccard": Jaccard,
    "cosine": Cosine,
    "dice": Dice,
    "overlap": Overlap,
}


def similarity_by_name(name: str) -> SimilarityFunction:
    """Instantiate a similarity function from its short name."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            "unknown similarity %r (choose from %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None
