"""Source loading for the static-analysis pass.

A :class:`Project` is the unit every checker operates on: a set of parsed
Python modules with stable repo-relative paths.  Cross-file checkers
(options-plumbing, registry-coverage, kernel-parity) look modules up by
their path *inside the repro package* — ``core/topk_join.py`` rather
than ``src/repro/core/topk_join.py`` — so the same checker works whether
the tree is linted from the repo root, from an installed copy, or from
the in-memory mutated sources of the seeded-fault self-tests.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ModuleSource", "Project", "SourceReadError", "load_project"]

_REPRO_MARKER = "repro/"

#: Inline suppression syntax — a comment of the form
#: ``repro-lint: ignore[checker-a, checker-b]`` (after the ``#``).
#: Anchored to the start of the comment token so prose that merely
#: *mentions* the syntax (docstrings, doc-comments like this one) never
#: registers as a suppression.
_SUPPRESSION_RE = re.compile(r"^#\s*repro-lint:\s*ignore\[([^\]]*)\]")


class SourceReadError(OSError):
    """A requested source file exists but cannot be read or decoded.

    Raised by :func:`load_project` for unreadable files (permissions,
    I/O errors) and files that are not valid UTF-8; the CLI maps it to
    the same usage-error exit code as a missing path, instead of
    crashing with a bare traceback.
    """

    def __init__(self, path: str, reason: Exception) -> None:
        self.path = path
        super().__init__("cannot read %s: %s" % (path, reason))


def _parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Per-line suppressed checker ids, keyed by 1-based line number.

    Only genuine comment tokens count (a docstring quoting the syntax is
    not a suppression); files the tokenizer rejects yield no
    suppressions — they surface as ``syntax`` findings instead.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.match(token.string)
            if match is None:
                continue
            ids = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if ids:
                suppressions[token.start[0]] = ids
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return suppressions


def _repro_relative(path: str) -> Optional[str]:
    """The portion of *path* inside the ``repro`` package, if any.

    ``src/repro/core/topk_join.py`` -> ``core/topk_join.py``; paths
    outside the package (tests, benchmarks) return ``None`` and are
    skipped by the domain checkers, which only constrain library code.
    """
    posix = path.replace("\\", "/")
    marker = "/" + _REPRO_MARKER
    if posix.startswith(_REPRO_MARKER):
        return posix[len(_REPRO_MARKER):]
    index = posix.rfind(marker)
    if index < 0:
        return None
    return posix[index + len(marker):]


class ModuleSource:
    """One parsed source file.

    ``tree`` is ``None`` exactly when the file failed to parse; the
    engine reports that as a ``syntax`` finding instead of crashing, so
    one broken file cannot hide findings in the rest of the tree.
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.repro_path = _repro_relative(self.path)
        #: ``{lineno: {checker ids}}`` from inline
        #: ``# repro-lint: ignore[...]`` comments; the engine filters
        #: findings against it and reports suppressions that never fire.
        self.suppressions: Dict[int, FrozenSet[str]] = _parse_suppressions(text)
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=self.path)
        except SyntaxError as error:
            self.syntax_error = error

    def __repr__(self) -> str:
        return "ModuleSource(%r)" % self.path


class Project:
    """An ordered set of modules, addressable by repro-relative path."""

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.modules: List[ModuleSource] = list(modules)
        self._by_repro_path: Dict[str, ModuleSource] = {
            module.repro_path: module
            for module in self.modules
            if module.repro_path is not None
        }

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build a project from in-memory ``{path: text}`` sources."""
        return cls([ModuleSource(path, text) for path, text in sources.items()])

    def module(self, repro_path: str) -> Optional[ModuleSource]:
        """The module at *repro_path* (e.g. ``core/topk_join.py``)."""
        return self._by_repro_path.get(repro_path)

    def repro_modules(self, prefix: str = "") -> Iterator[ModuleSource]:
        """Parsed repro-package modules whose package path starts with *prefix*."""
        for module in self.modules:
            if module.tree is None or module.repro_path is None:
                continue
            if module.repro_path.startswith(prefix):
                yield module

    def with_source(self, repro_path: str, text: str) -> "Project":
        """A copy of this project with one module's source replaced.

        The seeded-fault self-tests use this to overlay a known-bad
        mutation onto the otherwise pristine tree, so cross-file checkers
        still see every module they need.
        """
        replaced = False
        modules: List[ModuleSource] = []
        for module in self.modules:
            if module.repro_path == repro_path:
                modules.append(ModuleSource(module.path, text))
                replaced = True
            else:
                modules.append(module)
        if not replaced:
            raise KeyError("no module at repro path %r" % repro_path)
        return Project(modules)


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def load_project(
    paths: Sequence[str], base: Optional[Path] = None
) -> Tuple[Project, List[str]]:
    """Load every ``.py`` file under *paths* into a project.

    Returns ``(project, missing)`` where *missing* lists requested paths
    that do not exist (the CLI turns those into a usage error).  Paths
    are recorded relative to *base* (default: the current directory)
    whenever they live under it, keeping finding locations short and
    stable for CI logs.
    """
    base_dir = (base or Path.cwd()).resolve()
    modules: List[ModuleSource] = []
    missing: List[str] = []
    seen = set()
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            missing.append(entry)
            continue
        for file_path in _iter_python_files(root):
            resolved = file_path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                display = resolved.relative_to(base_dir).as_posix()
            except ValueError:
                display = file_path.as_posix()
            try:
                text = file_path.read_text(encoding="utf-8")
            except UnicodeDecodeError as error:
                raise SourceReadError(display, error) from error
            except OSError as error:
                raise SourceReadError(display, error) from error
            modules.append(ModuleSource(display, text))
    return Project(modules), missing
