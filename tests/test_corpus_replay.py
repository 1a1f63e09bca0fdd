"""Replay the committed regression corpus: every shrunk bug stays fixed."""

from __future__ import annotations

import glob
import os

import pytest

from repro.oracle.differential import (
    run_differential,
    run_stream_differential,
)
from repro.oracle.fuzz import load_corpus_case, replay_corpus

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

_CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "case_*.json")))
_STREAM_CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "stream_*.json")))


def test_corpus_is_not_empty():
    """The corpus ships with at least the seed-verification regression."""
    assert _CASES, "tests/corpus/ must contain at least one case"


def test_stream_corpus_is_not_empty():
    """At least the bound-relaxation trace must be committed."""
    assert _STREAM_CASES, "tests/corpus/ must contain a stream trace"


@pytest.mark.parametrize(
    "path", _CASES, ids=[os.path.basename(p) for p in _CASES]
)
def test_corpus_case_passes(path):
    case, document = load_corpus_case(path)
    assert document.get("failures"), "corpus cases must document what failed"
    failures = run_differential(case)
    assert failures == [], "\n".join(
        ["regression reopened (%s):" % document.get("description", "?")]
        + failures
    )


@pytest.mark.parametrize(
    "path", _STREAM_CASES, ids=[os.path.basename(p) for p in _STREAM_CASES]
)
def test_stream_corpus_case_passes(path):
    case, document = load_corpus_case(path)
    assert document.get("description"), (
        "stream corpus cases must describe what they pin down"
    )
    failures = run_stream_differential(case)
    assert failures == [], "\n".join(
        ["regression reopened (%s):" % document.get("description", "?")]
        + failures
    )


def test_replay_corpus_end_to_end():
    assert replay_corpus(CORPUS_DIR) == []
