"""Deliberately buggy similarity functions for harness self-tests.

A correctness harness that has never caught a bug proves nothing.  These
classes inject the classic off-by-one into the paper's bound formulas —
evaluating a bound at prefix position ``p + 1`` instead of ``p``, which
makes it *too tight* and silently drops true results — so tests can
demonstrate that each defect is caught twice over:

* at runtime, by :class:`repro.oracle.invariants.CheckHooks` (the hooks
  recompute Lemma 1/4's bounds independently through ``from_overlap`` and
  fail on the first disagreement, localizing the bug to one decision);
* end-to-end, by the differential oracle (the join's answer no longer
  matches :func:`repro.oracle.reference.naive_topk`).

Never use these outside tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..similarity.functions import Jaccard

__all__ = [
    "LINT_FAULTS",
    "OffByOneIndexingBound",
    "OffByOneProbingBound",
    "SeededLintFault",
]


class OffByOneIndexingBound(Jaccard):
    """Jaccard with Lemma 4's indexing bound evaluated one position late.

    ``ub_i(p) = (|x|-p)/(|x|+p)`` instead of ``(|x|-p+1)/(|x|+p-1)``: the
    bound is strictly smaller than the true one, so records stop being
    indexed one event early and pairs whose first common token is that
    last prefix position are never generated.
    """

    def indexing_upper_bound(self, size_x: int, prefix: int) -> float:
        return super().indexing_upper_bound(size_x, prefix + 1)


class OffByOneProbingBound(Jaccard):
    """Jaccard with Lemma 1's probing bound evaluated one position late.

    ``ub_p(p) = 1 - p/|x|`` instead of ``1 - (p-1)/|x|``: events sort and
    terminate on an undervalued bound, so the loop can halt while a true
    top-k pair is still undiscovered.
    """

    def probing_upper_bound(self, size_x: int, prefix: int) -> float:
        return super().probing_upper_bound(size_x, prefix + 1)


# ---------------------------------------------------------------------------
# Seeded faults for the static-analysis self-tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeededLintFault:
    """A historical-bug-shaped source mutation one lint checker must catch.

    Mirrors the off-by-one classes above, one layer up: instead of a
    buggy *object* handed to the join, this is a buggy *source text*
    handed to :class:`repro.analysis.project.Project`.  The self-test
    for each checker applies the fault to the real module source (via
    ``Project.with_source``) and asserts the checker fires on the
    mutated file — proving the checker detects the defect class it
    exists for, not merely that it stays quiet on healthy code.

    ``replacements`` is a sequence of ``(old, new)`` literal edits;
    :meth:`apply` raises if any ``old`` is absent, so these faults fail
    loudly (instead of silently passing) when the target module drifts.
    """

    checker: str
    repro_path: str
    description: str
    replacements: Tuple[Tuple[str, str], ...]
    #: Repro path the finding should anchor at; defaults to the mutated
    #: module.  Cross-file checkers may report elsewhere — removing a
    #: backend from the fuzzer is flagged at the backend's definition.
    expect_path: str = ""

    @property
    def expected_path(self) -> str:
        return self.expect_path or self.repro_path

    def apply(self, source: str) -> str:
        """Return *source* with every replacement applied (all must hit)."""
        for old, new in self.replacements:
            if old not in source:
                raise ValueError(
                    "seeded fault %r: pattern %r not found in %s — the "
                    "module changed; update the fault"
                    % (self.description, old, self.repro_path)
                )
            source = source.replace(old, new)
        return source


#: One (or two) representative faults per checker.  Each mutation is the
#: minimal re-introduction of the bug class the checker guards against.
LINT_FAULTS: Tuple[SeededLintFault, ...] = (
    SeededLintFault(
        checker="bound-safety",
        repro_path="similarity/functions.py",
        description="integer division in Jaccard.from_overlap",
        replacements=(("return overlap / union", "return overlap // union"),),
    ),
    SeededLintFault(
        checker="bound-safety",
        repro_path="core/topk_join.py",
        description="float != on the monotone s_k cache check",
        replacements=(
            ("if new_s_k > s_k or not full:", "if new_s_k != s_k or not full:"),
        ),
    ),
    SeededLintFault(
        checker="race",
        repro_path="parallel/worker.py",
        description="task function writes to the shared _STATE dict",
        replacements=(
            ("    i, j = task", '    i, j = task\n    _STATE["last_task"] = task'),
        ),
    ),
    SeededLintFault(
        checker="race",
        repro_path="parallel/bound.py",
        description="shared-bound write outside get_lock()",
        replacements=(
            (
                '        with _tracked(self._value.get_lock(), "bound.value"):\n'
                "            if candidate > self._value.value:\n"
                "                self._value.value = candidate\n"
                "                with _tracked(self._generation.get_lock(),"
                ' "bound.generation"):\n'
                "                    self._generation.value += 1",
                "        if candidate > self._value.value:\n"
                "            self._value.value = candidate\n"
                '            with _tracked(self._generation.get_lock(),'
                ' "bound.generation"):\n'
                "                self._generation.value += 1",
            ),
        ),
    ),
    SeededLintFault(
        checker="options-plumbing",
        repro_path="core/topk_join.py",
        description="TopkOptions field nothing ever reads",
        replacements=(
            (
                "    check_invariants: bool = False",
                "    check_invariants: bool = False\n"
                "    unplumbed_flag: bool = False",
            ),
        ),
    ),
    SeededLintFault(
        checker="options-plumbing",
        repro_path="parallel/worker.py",
        description="worker rebuilds TopkOptions instead of replace()",
        replacements=(
            (
                "options = replace(\n"
                "        base,\n"
                "        bound_provider=_STATE[\"bound\"],",
                "options = TopkOptions(\n"
                "        bound_provider=_STATE[\"bound\"],",
            ),
        ),
    ),
    SeededLintFault(
        checker="options-plumbing",
        repro_path="parallel/worker.py",
        description="worker pins sig_bits, ignoring the caller's width",
        replacements=(
            (
                '        bound_provider=_STATE["bound"],',
                '        bound_provider=_STATE["bound"],\n'
                "        sig_bits=128,",
            ),
        ),
    ),
    SeededLintFault(
        checker="options-plumbing",
        repro_path="parallel/join.py",
        description="parallel backend pins accel, dropping accel=non-numpy modes",
        replacements=(
            (
                "    base = replace(opts, bound_provider=None, "
                "bipartite_sides=None, trace=None)",
                "    base = replace(\n"
                "        opts, bound_provider=None, bipartite_sides=None, "
                "trace=None,\n"
                '        accel="numpy",\n'
                "    )",
            ),
        ),
    ),
    SeededLintFault(
        checker="options-plumbing",
        repro_path="parallel/join.py",
        description="entry-point flag accepted but never read",
        replacements=(
            (
                "    shm: Optional[bool] = None,\n"
                ") -> List[JoinResult]:",
                "    shm: Optional[bool] = None,\n"
                "    shm_spill_dir: Optional[str] = None,\n"
                ") -> List[JoinResult]:",
            ),
        ),
    ),
    SeededLintFault(
        checker="stats-drift",
        repro_path="core/metrics.py",
        description="merge_from drops the suffix_pruned counter",
        replacements=(
            ("        self.suffix_pruned += other.suffix_pruned\n", ""),
        ),
    ),
    SeededLintFault(
        checker="stats-drift",
        repro_path="obs/metrics.py",
        description="absorb_topk_stats drops the suffix_pruned counter",
        replacements=(
            (
                "        c(\n"
                '            "repro_suffix_pruned_total",\n'
                '            "Candidates rejected by suffix filtering.",\n'
                "        ).inc(stats.suffix_pruned)\n",
                "",
            ),
        ),
    ),
    SeededLintFault(
        checker="registry-coverage",
        repro_path="oracle/differential.py",
        description="parallel backend dropped from the fuzzer registry",
        replacements=(
            ("from ..parallel.join import parallel_topk_join\n", ""),
            ("actual = parallel_topk_join(", "actual = topk_join("),
            ("plain = parallel_topk_join(", "plain = topk_join("),
            ("traced = parallel_topk_join(", "traced = topk_join("),
            ("pickled = parallel_topk_join(", "pickled = topk_join("),
            ("shared = parallel_topk_join(", "shared = topk_join("),
        ),
        expect_path="parallel/join.py",
    ),
    SeededLintFault(
        checker="shm-lifecycle",
        repro_path="parallel/join.py",
        description="owner-side finally no longer destroys the segment",
        replacements=(
            (
                "            if segment is not None:\n"
                "                destroy_segment(segment)",
                "            pass",
            ),
        ),
    ),
    SeededLintFault(
        checker="lock-discipline",
        repro_path="parallel/bound.py",
        description="shared-bound compare hoisted outside the lock",
        replacements=(
            (
                '        with _tracked(self._value.get_lock(), "bound.value"):\n'
                "            if candidate > self._value.value:\n"
                "                self._value.value = candidate\n"
                "                with _tracked(self._generation.get_lock(),"
                ' "bound.generation"):\n'
                "                    self._generation.value += 1",
                "        if candidate > self._value.value:\n"
                '            with _tracked(self._value.get_lock(),'
                ' "bound.value"):\n'
                "                self._value.value = candidate\n"
                "                with _tracked(self._generation.get_lock(),"
                ' "bound.generation"):\n'
                "                    self._generation.value += 1",
            ),
        ),
    ),
    SeededLintFault(
        checker="kernel-parity",
        repro_path="accel/kernel.py",
        description="python kernel stops attributing suffix_pruned",
        replacements=(
            (
                "        stats.positional_pruned += positional_pruned\n"
                "        stats.suffix_pruned += suffix_pruned\n",
                "        stats.positional_pruned += positional_pruned\n",
            ),
        ),
    ),
    SeededLintFault(
        checker="kernel-parity",
        repro_path="accel/kernel.py",
        description="event scan stops attributing positional_pruned",
        replacements=(
            (
                "        stats.positional_pruned += passed_bitmap - len(survivors)\n",
                "",
            ),
        ),
    ),
    SeededLintFault(
        checker="exception-safety",
        repro_path="parallel/shm.py",
        description="attach raises with the header view still exported",
        replacements=(
            (
                "        if header[6] != descriptor.sig_bits:\n"
                "            view.release()\n"
                "            raise ShmAttachError(",
                "        if header[6] != descriptor.sig_bits:\n"
                "            raise ShmAttachError(",
            ),
        ),
    ),
    SeededLintFault(
        checker="annotations",
        repro_path="similarity/functions.py",
        description="untyped public similarity method",
        replacements=(
            (
                "    def from_overlap(self, overlap: int, size_x: int,"
                " size_y: int) -> float:\n        union =",
                "    def from_overlap(self, overlap, size_x, size_y):"
                "\n        union =",
            ),
        ),
    ),
)
