"""Smoke tests: the runnable examples must actually run.

Each fast example's ``main()`` is executed in-process with stdout
captured; the slow ones (full workload generation) are exercised by the
benchmark suite instead.
"""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str, capsys) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(
        "example_" + name.replace(".py", ""), path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Top-5 most similar title pairs" in out
        assert "0.750" in out

    def test_catalog_matching(self, capsys):
        out = run_example("catalog_matching.py", capsys)
        assert "Top-12 cross-catalog matches" in out
        assert "<->" in out

    def test_weighted_join(self, capsys):
        out = run_example("weighted_join.py", capsys)
        assert "Unweighted Jaccard top-2" in out
        assert "Weighted Jaccard top-2" in out
        # The ranking must flip: the rare-term pair wins only weighted.
        weighted_section = out.split("Weighted Jaccard top-2")[1]
        assert "zolpidem" in weighted_section.splitlines()[1]

    def test_protein_sequences(self, capsys):
        out = run_example("protein_sequences.py", capsys)
        assert "most similar sequence pairs" in out
        assert "postings inserted" in out

    @pytest.mark.parametrize(
        "name",
        ["near_duplicate_detection.py", "threshold_vs_topk.py"],
    )
    def test_slow_examples_compile(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        with open(path) as handle:
            compile(handle.read(), path, "exec")
