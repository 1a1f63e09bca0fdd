"""``stats-drift`` — mergeable stats classes must merge every field.

``StreamStats`` and ``ServeStats`` aggregate many engines or daemons
via ``merge_from`` / ``combined``.  A counter added to the dataclass but
not to ``merge_from`` silently reads 0 in the aggregate while being
correct per instance.  The rule is generic: **every** class in the repro package
that defines both dataclass-style annotated fields and a ``merge_from``
method must mention each field on both ``self`` and the merged-in
parameter inside ``merge_from``, and its ``combined`` classmethod (when
present) must delegate to ``merge_from`` rather than re-listing fields.

A second rule guards the observability bridge: the *absorber* functions
that fold a finished run's stats into the metrics registry
(``absorb_topk_stats`` for ``TopkStats``, ``absorb_join_stats`` for
``JoinStats``, see :mod:`repro.obs.metrics`) must read **every** field
of their source dataclass.  A counter added to the dataclass but not to
its absorber would be correct in the raw stats yet silently absent from
every exporter — Prometheus text, JSON traces and the phase tree would
all under-report without any test failing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from ..asthelpers import dataclass_field_names
from ..findings import Finding
from ..project import ModuleSource, Project
from ..registry import Checker, register

__all__ = ["StatsDriftChecker"]

#: Where the stats dataclasses the absorbers bridge from are declared.
_STATS_MODULE = "core/metrics.py"

#: Absorber function name -> source dataclass it must cover in full.
_ABSORBERS = {
    "absorb_topk_stats": "TopkStats",
    "absorb_join_stats": "JoinStats",
    "absorb_stream_stats": "StreamStats",
    "absorb_serve_stats": "ServeStats",
}


def _method(class_def: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in class_def.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _attributes_of(tree: ast.AST, receiver: str) -> Set[str]:
    """Attribute names accessed on the variable *receiver* in *tree*."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == receiver
        ):
            found.add(node.attr)
    return found


@register
class StatsDriftChecker(Checker):
    """Fields missing from ``merge_from`` / ``combined`` aggregation."""

    id = "stats-drift"
    description = (
        "every field of a stats class with merge_from must be folded from "
        "the other instance into self, and combined must delegate to "
        "merge_from"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.repro_modules():
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)
        yield from self._check_absorbers(project)

    def _check_class(
        self, module: ModuleSource, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        merge_from = _method(class_def, "merge_from")
        if merge_from is None:
            return
        fields = dataclass_field_names(class_def)
        if not fields:
            return
        args = merge_from.args.args
        if len(args) < 2:
            yield self.finding(
                module,
                merge_from,
                "%s.merge_from takes no source instance to merge from"
                % class_def.name,
            )
            return
        other = args[1].arg
        self_reads = _attributes_of(merge_from, args[0].arg)
        other_reads = _attributes_of(merge_from, other)
        for name in fields:
            if name not in self_reads or name not in other_reads:
                yield self.finding(
                    module,
                    merge_from,
                    "%s.%s is not merged by merge_from (missing on %s); "
                    "aggregates silently drop this counter"
                    % (
                        class_def.name,
                        name,
                        "self and %s" % other
                        if name not in self_reads and name not in other_reads
                        else ("self" if name not in self_reads else other),
                    ),
                )
        combined = _method(class_def, "combined")
        if combined is not None:
            calls_merge = any(
                isinstance(node, ast.Attribute)
                and node.attr == "merge_from"
                for node in ast.walk(combined)
            )
            if not calls_merge:
                yield self.finding(
                    module,
                    combined,
                    "%s.combined does not delegate to merge_from; two "
                    "aggregation code paths will drift apart"
                    % class_def.name,
                )

    def _check_absorbers(self, project: Project) -> Iterator[Finding]:
        """Absorber functions must read every field of their source class.

        Skipped silently on partial-tree runs where the declaring module
        is not part of the lint target.
        """
        declaring = project.module(_STATS_MODULE)
        if declaring is None or declaring.tree is None:
            return
        fields_of: Dict[str, Set[str]] = {}
        for node in ast.walk(declaring.tree):
            if isinstance(node, ast.ClassDef) and node.name in _ABSORBERS.values():
                fields_of[node.name] = set(dataclass_field_names(node))
        for module in project.repro_modules():
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.FunctionDef) and node.name in _ABSORBERS):
                    continue
                class_name = _ABSORBERS[node.name]
                fields = fields_of.get(class_name)
                if not fields:
                    continue
                receiver = _stats_param(node)
                if receiver is None:
                    yield self.finding(
                        module,
                        node,
                        "%s takes no stats parameter to absorb from"
                        % node.name,
                    )
                    continue
                reads = _attributes_of(node, receiver)
                for name in sorted(fields - reads):
                    yield self.finding(
                        module,
                        node,
                        "%s does not read %s.%s; the field is counted at "
                        "runtime but silently missing from every metric "
                        "exporter" % (node.name, class_name, name),
                    )


def _stats_param(func: ast.FunctionDef) -> Optional[str]:
    """The first non-self/cls positional parameter of *func*."""
    for arg in func.args.args:
        if arg.arg not in ("self", "cls"):
            return arg.arg
    return None
