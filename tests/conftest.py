"""Shared test fixtures and helpers."""

from __future__ import annotations

import random
import sys
import threading
from typing import List, Sequence

import pytest

from repro import JoinResult, RecordCollection
from repro.data import random_integer_collection


def make_collection(*token_sets: Sequence[int]) -> RecordCollection:
    """Build a collection directly from integer token sets (no dedupe)."""
    return RecordCollection.from_integer_sets(list(token_sets), dedupe=False)


def rounded_multiset(results: Sequence[JoinResult], digits: int = 9) -> List[float]:
    """Descending similarity multiset rounded for float-safe comparison."""
    return sorted((round(r.similarity, digits) for r in results), reverse=True)


@pytest.fixture
def cli_opens(monkeypatch):
    """Every file handle ``repro.cli`` opens during the test, in order."""
    import builtins

    import repro.cli as cli

    opened = []

    def recording_open(*args, **kwargs):
        handle = builtins.open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return opened


@pytest.fixture(autouse=True)
def no_leaked_serve_resources():
    """Fail any test that leaves a serve daemon (or its thread) running.

    Every TopkServer registers itself in a live-server table on start and
    removes itself on shutdown, and every InProcessDaemon thread is
    named ``repro-serve-daemon`` — so a post-test scan turns a leaked
    event loop, socket, or daemon thread anywhere in the suite into a
    precise failure.  Checked lazily via sys.modules so the suite never
    pays an asyncio import for tests that don't touch serving.
    """
    yield
    server_module = sys.modules.get("repro.serve.server")
    if server_module is not None:
        leaked = server_module.open_servers()
        assert not leaked, (
            "test leaked running serve daemons: %r (stop() or shutdown() "
            "must run in a finally block)" % leaked
        )
    lingering = [
        thread.name
        for thread in threading.enumerate()
        if thread.name == "repro-serve-daemon" and thread.is_alive()
    ]
    assert not lingering, (
        "test leaked %d repro-serve-daemon thread(s); InProcessDaemon "
        "must be stopped (use it as a context manager)" % len(lingering)
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20090401)


@pytest.fixture
def small_random_collections(rng):
    """A batch of small random collections exercising heavy tie/collision cases."""
    collections = []
    for __ in range(20):
        n = rng.randint(2, 35)
        collections.append(
            random_integer_collection(
                n,
                universe=rng.randint(4, 50),
                max_size=rng.randint(1, 10),
                rng=rng,
            )
        )
    return collections
