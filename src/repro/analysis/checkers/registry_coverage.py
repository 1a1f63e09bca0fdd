"""``registry-coverage`` — every top-k join backend is differentially fuzzed.

The differential oracle (:mod:`repro.oracle.differential`) is the
correctness net: a backend it never runs can drift arbitrarily far from
the reference without any test noticing.  The rule: every public
top-level function whose name contains ``topk_join`` — the naming
convention every exact top-k entry point in this repo follows
(``topk_join``, ``topk_join_rs``, ``pptopk_join``,
``weighted_topk_join``) — must be referenced somewhere in
``oracle/differential.py``.

Exemptions are explicit and carry their justification, so a reviewer
sees exactly why a backend is allowed to skip the fuzzer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from ..findings import Finding
from ..project import Project
from ..registry import Checker, register

__all__ = ["RegistryCoverageChecker"]

_DIFFERENTIAL_MODULE = "oracle/differential.py"
_BACKEND_MARKER = "topk_join"

#: Package prefixes that host backends (everything else — the oracle
#: itself, the analyzer, benchmarks, the CLI — is not a backend).
_EXCLUDED_PREFIXES = ("oracle/", "analysis/", "bench/")
_EXCLUDED_MODULES = ("cli.py", "__main__.py")

#: name -> reason it may legitimately skip the differential registry.
_EXEMPT: Dict[str, str] = {
    "topk_join_iter": (
        "the progressive iterator is the body of topk_join; every "
        "differential case drives it through the wrapper"
    ),
}


def _referenced_names(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.split(".")[-1])
    return names


@register
class RegistryCoverageChecker(Checker):
    """Top-k join backends missing from the differential fuzzer."""

    id = "registry-coverage"
    description = (
        "every public *topk_join* backend must be exercised by "
        "oracle/differential.py (or carry an explicit exemption)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        differential = project.module(_DIFFERENTIAL_MODULE)
        if differential is None or differential.tree is None:
            return
        covered = _referenced_names(differential.tree)
        for module, function in self._backends(project):
            name = function.name
            if name in covered or name in _EXEMPT:
                continue
            yield self.finding(
                module,
                function,
                "backend %r is never referenced by oracle/differential.py "
                "— register it (or add an explicit exemption with a "
                "reason) so the fuzzer cross-checks it against the oracle"
                % name,
            )

    def _backends(self, project: Project) -> Iterator[Tuple[object, ast.FunctionDef]]:
        for module in project.repro_modules():
            repro_path = module.repro_path or ""
            if repro_path.startswith(_EXCLUDED_PREFIXES):
                continue
            if repro_path in _EXCLUDED_MODULES:
                continue
            assert module.tree is not None
            for node in module.tree.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and _BACKEND_MARKER in node.name
                    and not node.name.startswith("_")
                ):
                    yield module, node
