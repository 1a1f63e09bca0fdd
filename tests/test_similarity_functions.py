"""Unit tests for repro.similarity.functions.

Each bound is checked two ways: against the closed forms printed in the
paper (Sections II, III, VI) and against brute-force maximisation over all
partner configurations.
"""

import math
import random

import pytest

from repro.similarity import (
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    similarity_by_name,
)

ALL = [Jaccard(), Cosine(), Dice(), Overlap()]
NORMALIZED = [Jaccard(), Cosine(), Dice()]


class TestExactValues:
    def test_jaccard_known(self):
        assert Jaccard().similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(2 / 4)

    def test_cosine_known(self):
        assert Cosine().similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(2 / 3)

    def test_dice_known(self):
        assert Dice().similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(4 / 6)

    def test_overlap_known(self):
        assert Overlap().similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(2.0)

    @pytest.mark.parametrize("sim", ALL, ids=lambda s: s.name)
    def test_identity(self, sim):
        x = (1, 5, 9)
        expected = 1.0 if sim.name != "overlap" else 3.0
        assert sim.similarity(x, x) == pytest.approx(expected)

    @pytest.mark.parametrize("sim", ALL, ids=lambda s: s.name)
    def test_symmetry(self, sim):
        x, y = (1, 2, 5), (2, 3, 4, 5)
        assert sim.similarity(x, y) == pytest.approx(sim.similarity(y, x))

    @pytest.mark.parametrize("sim", NORMALIZED, ids=lambda s: s.name)
    def test_range_zero_one(self, sim):
        assert 0.0 <= sim.similarity((1, 2), (2, 3, 4)) <= 1.0
        assert sim.similarity((1,), (2,)) == 0.0


class TestVerify:
    @pytest.mark.parametrize("sim", ALL, ids=lambda s: s.name)
    def test_exact_at_or_above_threshold(self, sim):
        x, y = (1, 2, 3, 4), (2, 3, 4, 5)
        exact = sim.similarity(x, y)
        assert sim.verify(x, y, threshold=exact) == pytest.approx(exact)

    def test_below_threshold_reports_failure(self):
        value = Jaccard().verify((1, 2, 3, 4, 5), (1, 9, 10, 11, 12), 0.9)
        assert value < 0.9


class TestRequiredOverlap:
    """required_overlap must be the exact minimal integer (Eq. 1)."""

    @pytest.mark.parametrize("sim", ALL, ids=lambda s: s.name)
    @pytest.mark.parametrize("threshold", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 2.0])
    def test_minimality_brute_force(self, sim, threshold):
        for size_x in (1, 3, 7, 12):
            for size_y in (1, 4, 9):
                alpha = sim.required_overlap(threshold, size_x, size_y)
                limit = min(size_x, size_y)
                brute = next(
                    (
                        o
                        for o in range(limit + 1)
                        if sim.from_overlap(o, size_x, size_y) >= threshold
                    ),
                    limit + 1,
                )
                assert alpha == brute

    def test_jaccard_closed_form(self):
        # alpha = ceil(t/(1+t) (|x|+|y|))
        sim = Jaccard()
        assert sim.required_overlap(0.8, 10, 10) == math.ceil(0.8 / 1.8 * 20)

    def test_zero_threshold(self):
        for sim in ALL:
            assert sim.required_overlap(0.0, 5, 5) == 0


class TestStepTables:
    """Small sizes answer α and the probing prefix from memoized step
    tables; every answer must be the closed-form guess plus fix-up's."""

    @staticmethod
    def thresholds(sim, size_x, size_y):
        """A grid, plus every value ``F`` takes on the size pair and on
        the best partners of *size_x*, each with its two float
        neighbours — where a table bisection and a fix-up could part."""
        values = {0.0, -0.25, 0.05, 0.33, 0.5, 0.75, 0.99, 1.0, 2.0}
        for o in range(min(size_x, size_y) + 1):
            values.add(sim.from_overlap(o, size_x, size_y))
        for o in range(1, size_x + 1):
            values.add(sim.from_overlap(o, size_x, o))
        grid = set()
        for value in values:
            grid |= {value, math.nextafter(value, -math.inf),
                     math.nextafter(value, math.inf)}
        return sorted(grid)

    @pytest.mark.parametrize("sim_class", [Jaccard, Cosine, Dice, Overlap])
    def test_tables_match_the_fixup_solution(self, sim_class):
        solver = sim_class()
        tabled = sim_class()
        rng = random.Random(sim_class.__name__)
        # Sizes cross the table limit (32), so both paths are compared.
        for size_x in range(1, 37):
            for size_y in range(1, 37):
                thresholds = self.thresholds(solver, size_x, size_y)
                # A memo must not depend on the order thresholds come in.
                rng.shuffle(thresholds)
                for t in thresholds:
                    alpha = solver._fixup(
                        solver._raw_required_overlap(t, size_x, size_y),
                        min(size_x, size_y),
                        lambda o: solver.from_overlap(o, size_x, size_y),
                        t,
                    )
                    assert tabled.required_overlap(t, size_x, size_y) == alpha
                    if size_y == 1:
                        best = solver._min_overlap_any_partner(t, size_x)
                        assert tabled.probing_prefix_length(size_x, t) == max(
                            0, min(size_x, size_x - best + 1)
                        )


class TestPrefixLengths:
    def test_jaccard_probing_formula(self):
        # |x| - ceil(t |x|) + 1 (Section II-B)
        sim = Jaccard()
        for size in (1, 5, 10, 17):
            for t in (0.5, 0.8, 0.95, 1.0):
                expected = size - math.ceil(t * size) + 1
                assert sim.probing_prefix_length(size, t) == expected

    def test_jaccard_indexing_formula(self):
        # |x| - ceil(2t/(1+t) |x|) + 1 (Lemma 2)
        sim = Jaccard()
        for size in (5, 10, 17):
            for t in (0.5, 0.8, 0.95):
                expected = size - math.ceil(2 * t / (1 + t) * size) + 1
                assert sim.indexing_prefix_length(size, t) == expected

    def test_cosine_probing_formula(self):
        # |x| - ceil(t^2 |x|) + 1 (Section VI table)
        sim = Cosine()
        for size in (5, 10, 20):
            for t in (0.5, 0.8, 0.95):
                expected = size - math.ceil(t * t * size) + 1
                assert sim.probing_prefix_length(size, t) == expected

    def test_overlap_probing_formula(self):
        # |x| - t + 1 for integer t (Section VI table)
        sim = Overlap()
        assert sim.probing_prefix_length(10, 4) == 7

    def test_indexing_never_longer_than_probing(self):
        for sim in ALL:
            for size in (1, 4, 9, 16):
                for t in (0.2, 0.5, 0.8, 1.0):
                    assert sim.indexing_prefix_length(size, t) <= (
                        sim.probing_prefix_length(size, t)
                    )

    def test_threshold_zero_full_prefix(self):
        for sim in ALL:
            assert sim.probing_prefix_length(7, 0.0) == 7

    def test_prefix_clamped_nonnegative(self):
        assert Overlap().probing_prefix_length(3, 10) == 0


class TestProbingUpperBound:
    def test_jaccard_formula(self):
        # 1 - (p-1)/|x| (Algorithm 5)
        sim = Jaccard()
        for size in (4, 9, 15):
            for p in range(1, size + 1):
                assert sim.probing_upper_bound(size, p) == pytest.approx(
                    1 - (p - 1) / size
                )

    def test_cosine_formula(self):
        # sqrt(1 - (p-1)/|x|)
        sim = Cosine()
        for size in (4, 9):
            for p in range(1, size + 1):
                assert sim.probing_upper_bound(size, p) == pytest.approx(
                    math.sqrt((size - p + 1) / size)
                )

    def test_dice_formula(self):
        # 2(|x|-p+1) / (2|x|-p+1)
        sim = Dice()
        for size in (4, 9):
            for p in range(1, size + 1):
                assert sim.probing_upper_bound(size, p) == pytest.approx(
                    2 * (size - p + 1) / (2 * size - p + 1)
                )

    def test_overlap_formula(self):
        assert Overlap().probing_upper_bound(10, 4) == pytest.approx(7.0)

    def test_monotone_decreasing_in_p(self):
        for sim in ALL:
            bounds = [sim.probing_upper_bound(10, p) for p in range(1, 11)]
            assert bounds == sorted(bounds, reverse=True)

    def test_initial_bound_is_max(self):
        for sim in NORMALIZED:
            assert sim.probing_upper_bound(6, 1) == pytest.approx(1.0)
        assert Overlap().probing_upper_bound(6, 1) == pytest.approx(6.0)


class TestIndexingUpperBound:
    def test_jaccard_formula(self):
        # (|x|-p+1)/(|x|+p-1) (Lemma 4)
        sim = Jaccard()
        for size in (4, 9, 15):
            for p in range(1, size + 1):
                assert sim.indexing_upper_bound(size, p) == pytest.approx(
                    (size - p + 1) / (size + p - 1)
                )

    def test_cosine_and_dice_formula(self):
        # (|x|-p+1)/|x| for both (Section VI tables)
        for sim in (Cosine(), Dice()):
            for size in (4, 9):
                for p in range(1, size + 1):
                    assert sim.indexing_upper_bound(size, p) == pytest.approx(
                        (size - p + 1) / size
                    )

    def test_never_exceeds_probing_bound(self):
        for sim in ALL:
            for size in (3, 8, 13):
                for p in range(1, size + 1):
                    assert sim.indexing_upper_bound(size, p) <= (
                        sim.probing_upper_bound(size, p) + 1e-12
                    )

    def test_monotone_decreasing_in_p(self):
        for sim in ALL:
            bounds = [sim.indexing_upper_bound(9, p) for p in range(1, 10)]
            assert bounds == sorted(bounds, reverse=True)


class TestAccessingUpperBound:
    def test_jaccard_formula(self):
        # s_px s_py / (s_px + s_py - s_px s_py) (Algorithm 10)
        sim = Jaccard()
        assert sim.accessing_upper_bound(0.8, 0.5) == pytest.approx(
            0.4 / (1.3 - 0.4)
        )

    def test_cosine_formula(self):
        assert Cosine().accessing_upper_bound(0.8, 0.5) == pytest.approx(0.4)

    def test_overlap_formula(self):
        assert Overlap().accessing_upper_bound(5.0, 3.0) == pytest.approx(3.0)

    def test_monotone_in_both_arguments(self):
        for sim in ALL:
            low = sim.accessing_upper_bound(0.4, 0.5)
            assert sim.accessing_upper_bound(0.6, 0.5) >= low
            assert sim.accessing_upper_bound(0.4, 0.7) >= low

    def test_at_most_min_of_bounds_for_normalized(self):
        for sim in NORMALIZED:
            for bx in (0.2, 0.5, 0.9, 1.0):
                for by in (0.1, 0.6, 1.0):
                    assert sim.accessing_upper_bound(bx, by) <= min(bx, by) + 1e-12

    def test_accessing_cutoff_is_conservative(self):
        # Every bound_y failing the accessing test must be below the cutoff.
        for sim in ALL:
            for bx in (0.3, 0.6, 0.9):
                for s_k in (0.2, 0.5, 0.8):
                    cutoff = sim.accessing_cutoff(bx, s_k)
                    for by in (0.05, 0.25, 0.45, 0.65, 0.85):
                        if sim.accessing_upper_bound(bx, by) <= s_k:
                            assert by <= cutoff


class TestSizeFiltering:
    @pytest.mark.parametrize("sim", ALL, ids=lambda s: s.name)
    def test_matches_brute_force(self, sim):
        for t in (0.3, 0.6, 0.9, 1.5):
            for size_x in (1, 4, 9):
                for size_y in (1, 2, 5, 12, 30):
                    best = sim.from_overlap(min(size_x, size_y), size_x, size_y)
                    assert sim.size_compatible(t, size_x, size_y) == (best >= t)

    def test_jaccard_window(self):
        sim = Jaccard()
        # |y| in [t|x|, |x|/t] for t=0.5, |x|=10 => [5, 20]
        assert sim.size_compatible(0.5, 10, 5)
        assert sim.size_compatible(0.5, 10, 20)
        assert not sim.size_compatible(0.5, 10, 4)
        assert not sim.size_compatible(0.5, 10, 21)

    def test_overlap_one_sided(self):
        sim = Overlap()
        assert sim.size_compatible(3, 10, 3)
        assert not sim.size_compatible(3, 10, 2)
        assert sim.size_compatible(3, 10, 1000)

    def test_numeric_window_brackets_compatibility(self):
        sim = Jaccard()
        low = sim.size_lower_bound(0.5, 10)
        high = sim.size_upper_bound(0.5, 10)
        assert low <= 5.01 and high >= 19.99

    def test_overlap_upper_bound_infinite(self):
        assert Overlap().size_upper_bound(3, 10) == float("inf")


class TestRegistry:
    def test_lookup_by_name(self):
        for name, cls in [
            ("jaccard", Jaccard),
            ("cosine", Cosine),
            ("dice", Dice),
            ("overlap", Overlap),
        ]:
            assert isinstance(similarity_by_name(name), cls)

    def test_case_insensitive(self):
        assert isinstance(similarity_by_name("Jaccard"), Jaccard)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            similarity_by_name("euclid")

    def test_repr(self):
        assert repr(Jaccard()) == "Jaccard()"
