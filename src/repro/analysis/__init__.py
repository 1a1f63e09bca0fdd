"""Domain-aware static analysis for the repro codebase (``repro lint``).

The correctness of the top-k join rests on cross-cutting invariants —
the ``ub_p``/``ub_i`` bound formulas, the monotone ``s_k`` stopping
condition, the option plumbing between the CLI, the join and its
kernels — that runtime oracles only catch *per input*.  This package rejects whole
classes of such bugs statically, before any test runs:

====================  ==================================================
checker               invariant
====================  ==================================================
``bound-safety``      no float ``==``/``!=`` on similarity/bound values
                      outside the blessed epsilon helpers; no floor
                      division inside bound formulas
``options-plumbing``  every ``TopkOptions`` field is read somewhere
``registry-coverage`` every ``*topk_join*`` backend is exercised by the
                      differential fuzzer (or explicitly exempted)
``annotations``       every function is fully annotated (the local
                      proxy for ``mypy --strict``)
``kernel-parity``     every scan kernel writes the same ``TopkStats``
                      fields and reads the same ``TopkOptions`` knobs
====================  ==================================================

Every checker has a seeded-fault self-test
(:data:`repro.oracle.faults.LINT_FAULTS`) proving it fires on a known-bad
mutation of the real sources.  See ``docs/STATIC_ANALYSIS.md`` for the
full contract and how to write a new checker.
"""

from __future__ import annotations

from . import checkers as _checkers  # noqa: F401 — registers the checkers
from .engine import (
    SYNTAX_CHECKER_ID,
    UNUSED_SUPPRESSION_ID,
    UnknownCheckerError,
    lint_paths,
    run_checkers,
    selected_checker_ids,
)
from .findings import Finding
from .project import ModuleSource, Project, SourceReadError, load_project
from .registry import Checker, all_checkers, checker_ids, register

__all__ = [
    "Checker",
    "Finding",
    "ModuleSource",
    "Project",
    "SYNTAX_CHECKER_ID",
    "SourceReadError",
    "UNUSED_SUPPRESSION_ID",
    "UnknownCheckerError",
    "all_checkers",
    "checker_ids",
    "lint_paths",
    "load_project",
    "register",
    "run_checkers",
    "selected_checker_ids",
]
