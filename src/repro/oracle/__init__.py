"""Correctness harness: oracles, invariants, metamorphic relations, fuzzing.

The value of ``topk-join`` is that its pruning is *exact* — one off-by-one
in a bound silently drops pairs.  This package is the safety net every
backend (sequential, R-S bipartite, weighted, pptopk)
is held against:

* :mod:`.reference` — brute-force oracles (:func:`naive_topk`,
  :func:`naive_threshold`) and tie-aware comparators that accept any
  valid tie-break of a top-k answer;
* :mod:`.invariants` — :class:`CheckHooks`, a runtime invariant layer
  wired into the core event loop behind ``TopkOptions.check_invariants``
  (or ``REPRO_CHECK=1``), zero-cost when off;
* :mod:`.metamorphic` — answer-preserving input transformations (token
  renaming, record shuffling, duplicate injection) and k-monotonicity;
* :mod:`.differential` — one case, every backend, compared to the oracle;
* :mod:`.fuzz` — one shrinking fuzz campaign over batch, stream and
  serve cases, and the ``tests/corpus/`` regression corpus it saves to
  and replays (``python -m repro fuzz [--stream | --serve]``);
* :mod:`.faults` — deliberately broken similarity functions used to prove
  the harness actually catches the bugs it exists for.

The eager imports below are leaf modules only; :mod:`.differential` and
friends import the join backends, so they are loaded lazily to keep
``repro.core`` → ``repro.oracle.invariants`` free of import cycles.
"""

from __future__ import annotations

from .invariants import (
    CheckHooks,
    InvariantViolation,
    StreamCheckHooks,
    invariant_checks_enabled,
)
from .reference import (
    assert_topk_equivalent,
    assert_valid_topk,
    naive_threshold,
    naive_topk,
    naive_window_topk,
    topk_multiset,
)

__all__ = [
    "CheckHooks",
    "InvariantViolation",
    "StreamCheckHooks",
    "invariant_checks_enabled",
    "naive_topk",
    "naive_threshold",
    "naive_window_topk",
    "topk_multiset",
    "assert_topk_equivalent",
    "assert_valid_topk",
    # lazily loaded (see __getattr__):
    "DifferentialCase",
    "StreamCase",
    "run_differential",
    "run_stream_differential",
    "available_backends",
    "available_stream_backends",
    "sockets_usable",
    "BATCH",
    "STREAM",
    "SERVE",
    "FuzzReport",
    "ServeCase",
    "fuzz_run",
    "shrink_case",
    "save_corpus_case",
    "load_corpus_case",
    "replay_corpus",
    "metamorphic_failures",
    "stream_metamorphic_failures",
    "split_advances",
]

_LAZY = {
    "DifferentialCase": "differential",
    "StreamCase": "differential",
    "run_differential": "differential",
    "run_stream_differential": "differential",
    "available_backends": "differential",
    "available_stream_backends": "differential",
    "sockets_usable": "differential",
    "BATCH": "fuzz",
    "STREAM": "fuzz",
    "SERVE": "fuzz",
    "FuzzReport": "fuzz",
    "ServeCase": "fuzz",
    "fuzz_run": "fuzz",
    "shrink_case": "fuzz",
    "save_corpus_case": "fuzz",
    "load_corpus_case": "fuzz",
    "replay_corpus": "fuzz",
    "metamorphic_failures": "metamorphic",
    "stream_metamorphic_failures": "metamorphic",
    "split_advances": "metamorphic",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    import importlib

    module = importlib.import_module("." + module_name, __name__)
    return getattr(module, name)
