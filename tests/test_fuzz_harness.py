"""The differential fuzzer: generators, the shrinker, corpus round-trips."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.topk_join import TopkOptions, topk_join
from repro.oracle import InvariantViolation
from repro.oracle.differential import (
    DifferentialCase,
    available_backends,
    run_differential,
)
from repro.oracle.faults import OffByOneIndexingBound
from repro.oracle.fuzz import (
    CASE_SCHEMA,
    GENERATORS,
    fuzz_run,
    load_corpus_case,
    replay_corpus,
    save_corpus_case,
    shrink_case,
)

# Heavy Hypothesis/fuzz suite: runs in the slow CI lane.
pytestmark = pytest.mark.slow


def test_all_backends_registered():
    from repro.accel.kernel import numpy_available

    expected = {
        "sequential", "record-all", "ablated", "rs",
        "weighted", "pptopk", "accel-off", "accel-python",
        "rs-accel-off", "trace-on",
        # Second-generation kernel backends: the non-default widths and
        # the batch ablation ride the same registry.
        "accel-nobatch", "sig-64", "sig-256", "sig-512",
    }
    if numpy_available():
        expected.add("accel-numpy")
    assert set(available_backends()) == expected


def test_run_differential_clean_case():
    case = DifferentialCase.make(
        [[0, 1, 2], [0, 1, 2], [0, 1], [3, 4], [2, 3]], k=3
    )
    assert run_differential(case) == []


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic(name):
    a = GENERATORS[name](random.Random(7), 20)
    b = GENERATORS[name](random.Random(7), 20)
    assert a == b
    assert 1 <= len(a) <= 21  # degenerate appends one giant record


def test_run_differential_rejects_unknown_backend():
    case = DifferentialCase.make([[0], [1]], k=1)
    with pytest.raises(ValueError, match="unknown backends"):
        run_differential(case, backends=["sequential", "nope"])


def test_run_differential_degenerate_inputs():
    for records in ([], [[]], [[0]], [[], [], []], [[0], [0]]):
        for sim in ("jaccard", "overlap"):
            case = DifferentialCase.make(records, k=2, similarity=sim)
            assert run_differential(case) == [], (records, sim)


def test_run_differential_reports_fault_as_failure(monkeypatch):
    """A buggy similarity routed through one backend yields failure strings,
    not exceptions — the fuzz loop must survive to shrink them."""
    import repro.oracle.differential as differential

    def broken_by_name(name):
        return OffByOneIndexingBound()

    monkeypatch.setattr(differential, "similarity_by_name", broken_by_name)
    case = DifferentialCase.make(
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 5], [2, 3, 4], [0, 5], [1, 2]],
        k=3,
    )
    failures = run_differential(case, backends=["sequential"])
    assert failures
    assert "sequential" in failures[0]


def test_fuzz_run_clean_and_deterministic(tmp_path):
    first = fuzz_run(seed=123, iterations=25, corpus_dir=str(tmp_path))
    second = fuzz_run(seed=123, iterations=25, corpus_dir=str(tmp_path))
    assert first.ok and second.ok
    assert first.iterations == second.iterations == 25
    assert list(tmp_path.iterdir()) == []  # nothing failed, nothing saved


def test_fuzz_run_budget_stops_early():
    report = fuzz_run(seed=1, iterations=10_000, budget=0.0)
    assert report.iterations == 0


def test_fuzz_run_counts_each_shrunk_case_once(tmp_path, monkeypatch):
    """Two iterations that shrink to one corpus file are one failure:
    the repeat is neither reported nor counted toward max_failures."""
    import repro.oracle.differential as differential
    import repro.oracle.fuzz as fuzz

    monkeypatch.setattr(
        differential, "similarity_by_name",
        lambda name: OffByOneIndexingBound(),
    )
    shrunk_names = []
    shrink = fuzz.shrink_case

    def recording_shrink(case, check):
        shrunk = shrink(case, check)
        shrunk_names.append(fuzz.corpus_file_name(shrunk))
        return shrunk

    monkeypatch.setattr(fuzz, "shrink_case", recording_shrink)
    report = fuzz_run(
        seed=3, iterations=40, backends=["sequential"],
        corpus_dir=str(tmp_path), max_failures=3,
    )
    # This seeded fault shrinks iterations 0 and 2 to the same case.
    assert len(shrunk_names) > len(set(shrunk_names))
    paths = [path for __, __, __, __, path in report.failures]
    assert len(set(paths)) == len(paths)
    assert sorted(os.path.basename(p) for p in paths) == sorted(
        os.listdir(tmp_path)
    )
    assert len(report.failures) == 3 or report.iterations == 40


def test_corpus_roundtrip(tmp_path):
    case = DifferentialCase.make([[0, 1], [0, 2]], k=1, similarity="cosine")
    path = save_corpus_case(
        str(tmp_path), case, ["sequential: boom"], seed=9,
        generator="tie-heavy", description="unit test",
    )
    assert os.path.basename(path).startswith("case_")
    loaded, document = load_corpus_case(path)
    assert loaded == case
    assert document["schema"] == CASE_SCHEMA
    assert document["failures"] == ["sequential: boom"]
    assert document["generator"] == "tie-heavy"
    # Same case -> same digest -> same file (idempotent saves).
    assert save_corpus_case(str(tmp_path), case, []) == path


def test_load_corpus_rejects_unknown_schema(tmp_path):
    path = tmp_path / "case_badbadbadbad.json"
    path.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError, match="schema"):
        load_corpus_case(str(path))


def test_replay_corpus_flags_failing_case(tmp_path, monkeypatch):
    case = DifferentialCase.make(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], k=2
    )
    save_corpus_case(str(tmp_path), case, [])
    assert replay_corpus(str(tmp_path)) == []

    import repro.oracle.differential as differential

    monkeypatch.setattr(
        differential, "similarity_by_name",
        lambda name: OffByOneIndexingBound(),
    )
    failing = replay_corpus(str(tmp_path), backends=["sequential"])
    assert len(failing) == 1


def test_replay_corpus_missing_dir_is_empty():
    assert replay_corpus("/nonexistent/corpus/dir") == []


def test_shrinker_result_is_one_minimal():
    """Every single-record deletion of the shrunk case must stop failing."""

    def failing(case: DifferentialCase):
        try:
            topk_join(
                case.collection(), case.k,
                similarity=OffByOneIndexingBound(),
                options=TopkOptions(check_invariants=True),
            )
        except InvariantViolation as violation:
            return [str(violation)]
        return []

    seed_case = DifferentialCase.make(
        [[t for t in range(i, i + 4)] for i in range(10)]
        + [[0, 1, 2, 3], [0, 1, 2, 4], [1, 2, 3, 4]],
        k=4,
    )
    if not failing(seed_case):
        pytest.skip("fault not triggered by this input shape")
    shrunk = shrink_case(seed_case, failing)
    assert failing(shrunk)
    for index in range(len(shrunk.records)):
        smaller = DifferentialCase(
            shrunk.records[:index] + shrunk.records[index + 1:],
            shrunk.k, shrunk.similarity,
        )
        if smaller.records:
            assert not failing(smaller), (
                "record %d is removable: %r" % (index, shrunk.records)
            )
