"""``options-plumbing`` — every ``TopkOptions`` field is read somewhere.

A new ``TopkOptions`` flag is wired correctly only if something
actually reads it.  The failure mode is silent — the flag parses,
defaults apply, results stay plausible — so it is checked statically:
every field declared on ``TopkOptions`` must be read (``options.field``
or ``getattr(options, "field", ...)``) somewhere in the repro package
outside the declaring class.  A field nobody reads is a no-op waiting
to be trusted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..asthelpers import (
    attribute_reads,
    dataclass_field_names,
    getattr_literal_reads,
)
from ..findings import Finding
from ..project import ModuleSource, Project
from ..registry import Checker, register

__all__ = ["OptionsPlumbingChecker"]

_OPTIONS_MODULE = "core/topk_join.py"
_OPTIONS_CLASS = "TopkOptions"

#: Modules whose presence signals the whole tree is being linted; the
#: dead-flag rule needs the full package to avoid false positives on
#: partial-tree runs.  Each is the only reader of some field.
_FULL_TREE_MODULES = (
    "core/topk_join.py",
    "accel/kernel.py",
    "oracle/invariants.py",
    "stream/engine.py",
)


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise LookupError(name)


@register
class OptionsPlumbingChecker(Checker):
    """Unread ``TopkOptions`` fields."""

    id = "options-plumbing"
    description = "every TopkOptions field must be read somewhere"

    def check(self, project: Project) -> Iterator[Finding]:
        options_module = project.module(_OPTIONS_MODULE)
        if options_module is None or options_module.tree is None:
            return
        try:
            options_class = _find_class(options_module.tree, _OPTIONS_CLASS)
        except LookupError:
            return

        if all(project.module(path) is not None for path in _FULL_TREE_MODULES):
            yield from self._dead_flags(project, options_module, options_class)

    def _dead_flags(
        self,
        project: Project,
        options_module: ModuleSource,
        options_class: ast.ClassDef,
    ) -> Iterator[Finding]:
        fields = dataclass_field_names(options_class)
        reads: Set[str] = set()
        for module in project.repro_modules():
            repro_path = module.repro_path or ""
            if repro_path.startswith("analysis/"):
                continue
            assert module.tree is not None
            tree: ast.AST = module.tree
            if module is options_module:
                # Ignore the declaring class body itself: an AnnAssign
                # default like ``maxdepth: int = DEFAULT_MAXDEPTH`` is
                # not a read of the field.
                tree = ast.Module(
                    body=[
                        node
                        for node in module.tree.body
                        if node is not options_class
                    ],
                    type_ignores=[],
                )
            reads |= attribute_reads(tree)
            reads |= getattr_literal_reads(tree)
        for field_node in options_class.body:
            if not (
                isinstance(field_node, ast.AnnAssign)
                and isinstance(field_node.target, ast.Name)
            ):
                continue
            name = field_node.target.id
            if name in fields and name not in reads:
                yield self.finding(
                    options_module,
                    field_node,
                    "TopkOptions.%s is never read anywhere in the repro "
                    "package — the flag is a silent no-op" % name,
                )
