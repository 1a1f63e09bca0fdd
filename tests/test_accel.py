"""Tests for the accelerated hot path (bitmap prefilter, scan kernels).

Covers the exactness contract of :mod:`repro.accel.kernel` — the bitmap
signature bound must never undercut a true overlap, and every kernel must
be tie-equivalent to the historical loop — plus the flat posting columns
and the benchmark-baseline gate logic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TopkOptions, TopkStats, naive_topk, topk_join
from repro.accel.kernel import (
    ACCEL_MODES,
    make_kernel,
    numpy_available,
    resolve_accel_mode,
)
from repro.bench.baseline import (
    carry_kernel2_reference,
    check_against_baseline,
    speedup_of,
)
from repro.data import RecordCollection, random_integer_collection
from repro.data.synthetic import dblp_like
from repro.data.records import (
    SIGNATURE_BITS,
    SUPPORTED_SIGNATURE_BITS,
    popcount,
    signature_of,
    signature_overlap_bound,
    signature_width,
)
from repro.index.inverted import BoundedInvertedIndex, PostingColumns
from repro.similarity import Jaccard

from conftest import rounded_multiset

token_set = st.sets(st.integers(min_value=0, max_value=500), max_size=40)

ACCEL_UNDER_TEST = [m for m in ("python", "numpy") if m != "numpy" or numpy_available()]


class TestSignatureBound:
    @given(token_set, token_set)
    @settings(max_examples=300, deadline=None)
    def test_overlap_bound_is_never_below_true_overlap(self, x, y):
        # The load-bearing exactness property: pruning below α is safe
        # only because this bound can never undercut the true overlap.
        bound = signature_overlap_bound(
            signature_of(sorted(x)), signature_of(sorted(y)), len(x), len(y)
        )
        assert bound >= len(x & y)

    @pytest.mark.parametrize("bits", SUPPORTED_SIGNATURE_BITS)
    @given(token_set, token_set)
    @settings(max_examples=60, deadline=None)
    def test_overlap_bound_conservative_at_every_width(self, bits, x, y):
        # Narrow signatures fold more tokens per bit and wide ones
        # fewer, but the Hamming bound must stay conservative at every
        # supported width — exactness cannot depend on --sig-bits.
        bound = signature_overlap_bound(
            signature_of(sorted(x), bits),
            signature_of(sorted(y), bits),
            len(x),
            len(y),
        )
        assert bound >= len(x & y)

    @pytest.mark.parametrize("bits", SUPPORTED_SIGNATURE_BITS)
    def test_signature_fits_configured_width(self, bits):
        rng = random.Random(bits)
        tokens = sorted({rng.randrange(10**6) for __ in range(500)})
        assert 0 <= signature_of(tokens, bits) < (1 << bits)

    def test_signature_width_validation(self):
        assert signature_width(256) == 256
        with pytest.raises(ValueError):
            signature_width(100)
        with pytest.raises(ValueError):
            signature_width(0)

    @given(token_set)
    @settings(max_examples=100, deadline=None)
    def test_identical_records_bound_is_exact(self, x):
        sig = signature_of(sorted(x))
        assert signature_overlap_bound(sig, sig, len(x), len(x)) == len(x)

    def test_signature_fits_width(self):
        rng = random.Random(5)
        tokens = [rng.randrange(10**6) for __ in range(1000)]
        assert signature_of(tokens) < (1 << SIGNATURE_BITS)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount((1 << 127) | 5) == 3


class TestKernelEquivalence:
    @pytest.mark.parametrize("accel", ACCEL_UNDER_TEST)
    def test_matches_oracle_with_invariants(self, accel):
        rng = random.Random(97)
        for trial in range(8):
            coll = random_integer_collection(
                rng.randint(10, 80),
                universe=rng.randint(8, 40),
                max_size=rng.randint(2, 10),
                rng=rng,
            )
            k = rng.randint(1, 40)
            options = TopkOptions(accel=accel, check_invariants=True)
            got = rounded_multiset(topk_join(coll, k, options=options))
            want = rounded_multiset(naive_topk(coll, k))
            assert got == want, "accel=%s trial=%d" % (accel, trial)

    @pytest.mark.parametrize("accel", ACCEL_UNDER_TEST)
    def test_matches_accel_off_exactly(self, accel):
        rng = random.Random(131)
        coll = random_integer_collection(120, universe=50, max_size=12, rng=rng)
        baseline = topk_join(coll, 60, options=TopkOptions(accel="off"))
        accelerated = topk_join(coll, 60, options=TopkOptions(accel=accel))
        assert rounded_multiset(accelerated) == rounded_multiset(baseline)

    @pytest.mark.parametrize("bits", SUPPORTED_SIGNATURE_BITS)
    def test_every_width_matches_accel_off(self, bits):
        # Cross-width kernel equivalence: the signature width tunes the
        # prefilter's selectivity, never the answer.
        rng = random.Random(bits)
        coll = random_integer_collection(100, universe=45, max_size=10, rng=rng)
        baseline = topk_join(coll, 40, options=TopkOptions(accel="off"))
        for accel in ACCEL_UNDER_TEST:
            got = topk_join(
                coll, 40,
                options=TopkOptions(
                    accel=accel, sig_bits=bits, check_invariants=True
                ),
            )
            assert rounded_multiset(got) == rounded_multiset(baseline), (
                "accel=%s bits=%d" % (accel, bits)
            )

    @pytest.mark.parametrize("accel", ACCEL_UNDER_TEST)
    def test_batch_verify_off_matches(self, accel):
        # The first-generation per-survivor verification tail must stay
        # a drop-in twin of the batched pass.
        rng = random.Random(23)
        coll = random_integer_collection(110, universe=40, max_size=11, rng=rng)
        batched = topk_join(
            coll, 45, options=TopkOptions(accel=accel, batch_verify=True)
        )
        sequential = topk_join(
            coll, 45,
            options=TopkOptions(
                accel=accel, batch_verify=False, check_invariants=True
            ),
        )
        assert rounded_multiset(sequential) == rounded_multiset(batched)

    @pytest.mark.parametrize("accel", ACCEL_UNDER_TEST)
    def test_unsupported_width_raises_in_every_mode(self, accel):
        coll = RecordCollection.from_integer_sets([[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            topk_join(coll, 1, options=TopkOptions(accel=accel, sig_bits=96))
        with pytest.raises(ValueError):
            topk_join(coll, 1, options=TopkOptions(accel="off", sig_bits=96))

    @pytest.mark.parametrize("accel", ACCEL_UNDER_TEST)
    def test_ablations_compose_with_accel(self, accel):
        # The kernels must honor every paper ablation toggle.
        rng = random.Random(17)
        coll = random_integer_collection(60, universe=25, max_size=8, rng=rng)
        options = TopkOptions(
            accel=accel,
            positional_filter=False,
            suffix_filter=False,
            access_optimization=False,
            verification_mode="all",
            seed_results=False,
            check_invariants=True,
        )
        got = rounded_multiset(topk_join(coll, 25, options=options))
        assert got == rounded_multiset(naive_topk(coll, 25))

    def test_bitmap_counters_populated(self):
        rng = random.Random(7)
        coll = random_integer_collection(200, universe=80, max_size=10, rng=rng)
        stats = TopkStats()
        topk_join(coll, 30, options=TopkOptions(accel="python"), stats=stats)
        assert stats.bitmap_checked > 0
        assert 0 < stats.bitmap_pruned <= stats.bitmap_checked
        assert stats.bitmap_hit_rate == stats.bitmap_pruned / stats.bitmap_checked
        off = TopkStats()
        topk_join(coll, 30, options=TopkOptions(accel="off"), stats=off)
        assert off.bitmap_checked == 0 and off.bitmap_pruned == 0
        assert off.bitmap_hit_rate == 0.0


class TestAccelModeResolution:
    def test_modes(self):
        assert resolve_accel_mode("off") == "off"
        assert resolve_accel_mode("python") == "python"
        assert resolve_accel_mode("on") in ("python", "numpy")
        with pytest.raises(ValueError):
            resolve_accel_mode("turbo")
        assert set(ACCEL_MODES) == {"on", "python", "numpy", "off"}

    def test_off_builds_no_kernel(self):
        coll = RecordCollection.from_integer_sets([[1, 2], [1, 3]])
        kernel = make_kernel(
            coll, Jaccard(), TopkOptions(accel="off"), None, None, None, TopkStats()
        )
        assert kernel is None

    def test_invalid_option_value_raises_at_join_time(self):
        coll = RecordCollection.from_integer_sets([[1, 2], [1, 3]])
        with pytest.raises(ValueError):
            topk_join(coll, 1, options=TopkOptions(accel="turbo"))


@pytest.mark.skipif(not numpy_available(), reason="requires numpy")
class TestEventBatchedScan:
    """The NumPy kernel's whole-event scan against every reference.

    Each join runs under ``REPRO_CHECK=1`` and must be tie-equivalent to
    ``accel="python"`` (per-record scans), ``accel="off"`` (the
    historical loop) and the brute-force oracle.
    """

    @pytest.fixture(autouse=True)
    def _invariants_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")

    @staticmethod
    def _assert_all_equal(coll, k, **overrides):
        want = rounded_multiset(naive_topk(coll, k))
        for accel in ("numpy", "python", "off"):
            options = TopkOptions(accel=accel, **overrides)
            got = rounded_multiset(topk_join(coll, k, options=options))
            assert got == want, "accel=%s options=%r" % (accel, overrides)

    def test_intra_event_same_token_pair(self):
        # Two identical records probe the same first token in one event
        # whose list is empty at event start: only the second record
        # seeing the first one's same-event posting finds the pair.  The
        # (5, 6) / (5, 6, 7) pair fills the k=1 buffer first, which puts
        # the identical records' event on the batched event path.
        coll = RecordCollection.from_integer_sets(
            [[5, 6], [5, 6, 7], [1, 2, 3, 4], [1, 2, 3, 4], [20, 21]],
            dedupe=False,
        )
        for accel in ("numpy", "python", "off"):
            stats = TopkStats()
            options = TopkOptions(accel=accel, seed_results=False)
            (result,) = topk_join(coll, 1, options=options, stats=stats)
            assert result.similarity == 1.0, accel
            assert stats.candidates == 2, accel
        self._assert_all_equal(coll, 1)

    def test_tiny_chunks_across_event_boundaries(self, monkeypatch):
        import repro.accel.kernel as kernel_module

        rng = random.Random(41)
        for chunk in (1, 3, 7):
            monkeypatch.setattr(kernel_module, "_EVENT_CHUNK", chunk)
            for __ in range(3):
                coll = random_integer_collection(
                    rng.randint(30, 90),
                    universe=rng.randint(10, 30),
                    max_size=rng.randint(3, 9),
                    rng=rng,
                )
                self._assert_all_equal(coll, rng.randint(1, 30))

    def test_bipartite_rs_join(self):
        from repro import TaggedCollection, naive_topk_rs, topk_join_rs

        rng = random.Random(43)
        for __ in range(4):
            coll = random_integer_collection(
                rng.randint(30, 80), universe=20, max_size=7, rng=rng
            )
            token_sets = [list(record.tokens) for record in coll.records]
            tagged = TaggedCollection.from_integer_sets(
                token_sets[::2], token_sets[1::2]
            )
            k = rng.randint(1, 25)
            want = rounded_multiset(naive_topk_rs(tagged, k))
            for accel in ("numpy", "python", "off"):
                got = topk_join_rs(tagged, k, options=TopkOptions(accel=accel))
                assert rounded_multiset(got) == want, accel

    @pytest.mark.parametrize("bits", (64, 256, 512))
    def test_signature_widths(self, bits):
        rng = random.Random(bits + 1)
        for __ in range(3):
            coll = random_integer_collection(
                rng.randint(40, 100), universe=35, max_size=10, rng=rng
            )
            self._assert_all_equal(coll, rng.randint(5, 40), sig_bits=bits)

    def test_batch_verify_off(self):
        rng = random.Random(47)
        for __ in range(4):
            coll = random_integer_collection(
                rng.randint(40, 100), universe=30, max_size=9, rng=rng
            )
            self._assert_all_equal(coll, rng.randint(5, 40), batch_verify=False)


class TestEventDispatch:
    """``accel="on"`` scans a post-fill event whole only when its probed
    lists hold at least the crossover's postings.

    Both ends of the crossover must stay exact: at 0 every post-fill
    event is batched (as under ``accel="numpy"``), at a huge value none
    is (as under ``accel="python"``).
    """

    @pytest.fixture(autouse=True)
    def _invariants_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")

    @staticmethod
    def _collections():
        rng = random.Random(59)
        collections = [
            random_integer_collection(
                rng.randint(40, 120),
                universe=rng.randint(15, 40),
                max_size=rng.randint(4, 12),
                rng=rng,
            )
            for __ in range(4)
        ]
        collections.append(dblp_like(300, seed=11))
        return collections

    @staticmethod
    def _count_scan_events(monkeypatch):
        from repro.accel.kernel import NumpyScanKernel

        calls = []
        scan_event = NumpyScanKernel.scan_event

        def counting(self, *args):
            calls.append(len(args[2]))
            return scan_event(self, *args)

        monkeypatch.setattr(NumpyScanKernel, "scan_event", counting)
        return calls

    @pytest.mark.parametrize("crossover", [0, 10 ** 9])
    def test_crossover_ends_match_every_reference(self, monkeypatch, crossover):
        import repro.accel.kernel as kernel_module

        monkeypatch.setattr(kernel_module, "_EVENT_SCAN_CROSSOVER", crossover)
        for coll in self._collections():
            for k in (1, 10, 60):
                want = rounded_multiset(naive_topk(coll, k))
                for accel in ("on", "numpy", "python"):
                    got = topk_join(coll, k, options=TopkOptions(accel=accel))
                    assert rounded_multiset(got) == want, (crossover, k, accel)

    def test_crossover_routes_events(self, monkeypatch):
        import repro.accel.kernel as kernel_module

        calls = self._count_scan_events(monkeypatch)
        coll = dblp_like(300, seed=11)

        def batched(accel, crossover):
            monkeypatch.setattr(
                kernel_module, "_EVENT_SCAN_CROSSOVER", crossover
            )
            del calls[:]
            topk_join(coll, 60, options=TopkOptions(accel=accel))
            return len(calls)

        assert batched("on", 0) > 0
        assert batched("on", 10 ** 9) == 0
        assert batched("numpy", 10 ** 9) == batched("on", 0)
        assert batched("python", 0) == 0

    def test_numpy_backend_batches_fuzz_sized_cases(self, monkeypatch):
        from repro.oracle.differential import run_differential
        from repro.oracle.fuzz import BATCH, campaign_cases

        calls = self._count_scan_events(monkeypatch)
        cases = campaign_cases(BATCH, 0)
        for __ in range(10):
            __, case, __ = next(cases)
            assert run_differential(case, backends=["accel-numpy"]) == []
        assert calls, "accel-numpy no longer reaches scan_event"

    def test_corpus_replay_batches_events(self, monkeypatch):
        import os

        from repro.oracle.fuzz import replay_corpus

        calls = self._count_scan_events(monkeypatch)
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        assert replay_corpus(corpus) == []
        assert calls, "the corpus replay no longer reaches scan_event"


class TestPostingColumns:
    def test_append_cut_roundtrip(self):
        columns = PostingColumns()
        for i in range(6):
            columns.append(i, i + 1, 1.0 - i / 10)
        assert len(columns) == 6
        assert columns.tuples()[2] == (2, 3, pytest.approx(0.8))
        assert columns.cut(4) == 2
        assert len(columns) == 4
        assert columns.cut(4) == 0

    def test_bounded_index_counters(self):
        index = BoundedInvertedIndex()
        for i in range(5):
            index.add(7, i, 1, 0.9)
        index.add(8, 9, 2, 0.5)
        assert index.entry_count == 6
        assert index.peak_entries == 6
        assert index.truncate(7, 2) == 3
        assert index.entry_count == 3
        assert index.deleted == 3
        assert index.postings(7) == [(0, 1, 0.9), (1, 1, 0.9)]
        assert index.truncate(99, 0) == 0


class TestBaselineGate:
    def _report(self, on=1.0, off=5.0):
        return {
            "schema": 4,
            "entries": [
                {
                    "dataset": "dblp", "k": 100, "accel": "off",
                    "wall_s": off, "sig_bits": 128,
                },
                {
                    "dataset": "dblp", "k": 100, "accel": "on",
                    "wall_s": on, "sig_bits": 128,
                },
            ],
        }

    def test_identical_reports_pass(self):
        report = self._report()
        assert check_against_baseline(report, report) == []

    def test_speedup_computed(self):
        assert speedup_of(self._report(on=1.0, off=5.0)) == pytest.approx(5.0)

    def test_regression_detected_after_calibration(self):
        # Same machine speed (off time unchanged) but the accelerated
        # path got 2x slower: the gate must fire.  Walls are large
        # enough that the absolute noise floor cannot absorb the 2x.
        baseline = self._report(on=1.0, off=5.0)
        current = self._report(on=2.0, off=5.0)
        failures = check_against_baseline(current, baseline)
        assert any("exceeds" in f for f in failures)

    def test_noise_floor_absorbs_small_absolute_jitter(self):
        # Sub-second accel cells see tens-of-ms scheduler jitter that a
        # pure ratio limit would misread as a regression.
        baseline = self._report(on=0.10, off=0.5)
        current = self._report(on=0.15, off=0.5)
        assert check_against_baseline(current, baseline) == []

    def test_slower_machine_does_not_trip_gate(self):
        # Everything 3x slower (a slower CI box): calibration absorbs it.
        baseline = self._report(on=1.0, off=5.0)
        current = self._report(on=3.0, off=15.0)
        assert check_against_baseline(current, baseline) == []

    def test_lost_speedup_detected(self):
        baseline = self._report(on=1.0, off=5.0)
        current = self._report(on=4.2, off=5.0)
        failures = check_against_baseline(current, baseline, slowdown_limit=10.0)
        assert any("speedup" in f for f in failures)

    def test_kernel2_gate_passes_with_margin(self):
        baseline = self._report(on=1.0, off=5.0)
        baseline["kernel2"] = {"dataset": "dblp", "k": 100, "gen1_wall_s": 2.0}
        current = self._report(on=1.0, off=5.0)
        assert check_against_baseline(current, baseline) == []

    def test_kernel2_gate_fires_below_required_speedup(self):
        # gen-1 reference 1.2s vs 1.0s measured: only 1.2x, below 1.5x.
        baseline = self._report(on=1.0, off=5.0)
        baseline["kernel2"] = {"dataset": "dblp", "k": 100, "gen1_wall_s": 1.2}
        current = self._report(on=1.0, off=5.0)
        failures = check_against_baseline(current, baseline)
        assert any("second-gen kernel speedup" in f for f in failures)

    def test_kernel2_gate_rescales_with_machine_speed(self):
        # A 3x slower box slows the gen-1 reference too: no false alarm.
        baseline = self._report(on=1.0, off=5.0)
        baseline["kernel2"] = {"dataset": "dblp", "k": 100, "gen1_wall_s": 2.0}
        current = self._report(on=3.0, off=15.0)
        assert check_against_baseline(current, baseline) == []

    def test_carry_kernel2_reference_from_schema3_on_cell(self):
        # Recording over the last gen-1 baseline: its accel-on cell IS
        # the gen-1 measurement, rescaled onto the recording machine.
        previous = self._report(on=1.0, off=5.0)
        previous["schema"] = 3
        report = self._report(on=0.5, off=10.0)
        carry_kernel2_reference(report, previous, dataset="dblp", k=100)
        row = report["kernel2"]
        assert row["dataset"] == "dblp" and row["k"] == 100
        assert row["gen1_wall_s"] == pytest.approx(2.0)  # 1.0 x (10/5)
        assert row["speedup"] == pytest.approx(4.0)

    def test_carry_kernel2_reference_forwards_existing_row(self):
        # Later re-records must forward the frozen reference, not reset
        # it to the (now second-gen) accel-on cell.
        previous = self._report(on=1.0, off=5.0)
        previous["kernel2"] = {"dataset": "dblp", "k": 100, "gen1_wall_s": 3.0}
        report = self._report(on=1.0, off=5.0)
        carry_kernel2_reference(report, previous, dataset="dblp", k=100)
        assert report["kernel2"]["gen1_wall_s"] == pytest.approx(3.0)

    def test_carry_kernel2_reference_missing_cells_is_noop(self):
        report = self._report()
        carry_kernel2_reference(report, {"entries": []}, dataset="dblp", k=100)
        assert "kernel2" not in report

    def test_baseline_without_kernel2_row_is_not_gated(self):
        report = self._report()
        assert check_against_baseline(report, report) == []

    def test_no_common_cells(self):
        baseline = {"entries": []}
        failures = check_against_baseline(self._report(), baseline)
        assert failures

    def test_stream_row_below_floor_trips_gate(self):
        baseline = self._report()
        current = self._report()
        current["stream"] = {
            "dataset": "dblp", "k": 50, "window": 200, "events": 260,
            "wall_incremental_s": 1.0, "wall_recompute_s": 1.2,
            "speedup": 1.2,
        }
        failures = check_against_baseline(current, baseline)
        assert any("incremental-vs-recompute" in f for f in failures)

    def test_stream_row_above_floor_passes(self):
        baseline = self._report()
        current = self._report()
        current["stream"] = {
            "dataset": "dblp", "k": 50, "window": 200, "events": 260,
            "wall_incremental_s": 1.0, "wall_recompute_s": 5.0,
            "speedup": 5.0,
        }
        assert check_against_baseline(current, baseline) == []

    def test_report_without_stream_row_is_not_gated(self):
        report = self._report()
        assert check_against_baseline(report, report) == []

    def test_measure_stream_smoke(self):
        from repro.bench.baseline import measure_stream

        row = measure_stream(window=10, events=30)
        assert row["events"] == 30
        assert row["wall_incremental_s"] > 0
        assert row["wall_recompute_s"] > 0
        assert row["speedup"] > 0


class TestBenchJsonCli:
    def test_bench_json_smoke(self, capsys):
        from repro.cli import main

        assert main(["bench", "--json", "--k", "5"]) == 0
        out = capsys.readouterr().out
        import json

        report = json.loads(out)
        assert report["schema"] == 4
        modes = {(e["k"], e["accel"]) for e in report["entries"]}
        assert (5, "on") in modes and (5, "off") in modes
