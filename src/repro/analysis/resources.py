"""Resource acquisition/release/escape modeling over the CFG.

The lifecycle checker (``exception-safety``) asks one question — *can
this acquired resource reach a function exit unreleased?* — with the
caller choosing what counts as a resource and which exits to
challenge.  This module owns the vocabulary:

* an :class:`Acquisition` is an ``x = <call>`` statement matched by a
  :class:`ResourceSpec` (``memoryview(...)``, ``open(...)``, ...);
* a **release** is a statement invoking one of the spec's release
  methods on the bound name (``x.close()``) or passing the bare name to
  a release function;
* an **escape** transfers ownership out of the function: returning or
  yielding the name, storing it into an attribute/subscript, or
  aliasing it to another name.  Passing the name as a *call argument*
  is NOT an escape — the callee borrows, the caller still owns, and
  treating argument-passing as a transfer would blind the checker to
  exactly the leak it exists for (acquire, hand it to a callee, forget
  the ``finally``).

The analysis is deliberately conservative in the safe direction for
aliases (an alias discharges the obligation — the checker does not
track ownership through multiple names) and deliberately strict for the
paths it does follow: the caller picks the CFG edge kinds and whether
normal completion is challenged; ``exception-safety`` challenges only
explicit-``raise`` error paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .dataflow import (
    CFG,
    build_cfg,
    leak_path_exists,
    stmt_calls,
    stmt_defs,
)

__all__ = [
    "Acquisition",
    "ResourceSpec",
    "find_acquisitions",
    "iter_sync_functions",
    "leaking_acquisitions",
]


@dataclass(frozen=True)
class ResourceSpec:
    """How one resource class is acquired and released.

    ``constructors`` are terminal callable names whose result is the
    resource (``SharedMemory``, ``memoryview``, ``open``).  A release is
    either ``name.<release_method>()`` or ``<release_func>(name)``.
    """

    kind: str
    constructors: FrozenSet[str]
    release_methods: FrozenSet[str] = frozenset()
    release_funcs: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Acquisition:
    """One tracked ``name = <constructor>(...)`` statement."""

    stmt: ast.Assign
    name: str
    spec: ResourceSpec


def _terminal_callable(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a call's ``func`` expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def iter_sync_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every synchronous function definition in *tree* (methods too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def find_acquisitions(
    function: ast.FunctionDef, specs: Sequence[ResourceSpec]
) -> List[Acquisition]:
    """Every ``name = <constructor>(...)`` statement in *function*.

    Only single-Name targets are tracked — tuple unpacking and
    attribute targets never occur for the resource classes modeled here,
    and the escape rules already treat attribute stores as transfers.
    Nested function bodies are excluded (they get their own CFG).
    """
    acquisitions: List[Acquisition] = []
    for stmt in _function_statements(function):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        constructed = {
            name
            for call in stmt_calls(stmt)
            if (name := _terminal_callable(call.func)) is not None
        }
        for spec in specs:
            if constructed & spec.constructors:
                acquisitions.append(Acquisition(stmt, target.id, spec))
                break
    return acquisitions


def _function_statements(function: ast.FunctionDef) -> Iterator[ast.stmt]:
    """Statements of *function*'s own body, not of nested functions."""

    def walk(stmts: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield stmt
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                yield from walk(handler.body)

    yield from walk(function.body)


def _is_release(stmt: ast.AST, acquisition: Acquisition) -> bool:
    """Whether *stmt*'s own evaluation releases the acquired name."""
    for call in stmt_calls(stmt):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in acquisition.spec.release_methods
            and isinstance(func.value, ast.Name)
            and func.value.id == acquisition.name
        ):
            return True
        terminal = _terminal_callable(func)
        if terminal in acquisition.spec.release_funcs and any(
            isinstance(arg, ast.Name) and arg.id == acquisition.name
            for arg in call.args
        ):
            return True
    return False


def _loads_outside_calls(node: ast.AST, name: str) -> bool:
    """Whether *name* is read in *node* outside any call's subtree.

    ``source = segment`` escapes; ``outcome = run(segment)`` does not —
    the callee only borrows the reference for the duration of the call.
    """
    if isinstance(node, ast.Call):
        return False
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return any(
        _loads_outside_calls(child, name) for child in ast.iter_child_nodes(node)
    )


def _is_escape(stmt: ast.AST, name: str) -> bool:
    """Whether *stmt* transfers ownership of *name* out of the function."""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _name_loaded_anywhere(stmt.value, name)
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = stmt.value
        return value is not None and _loads_outside_calls(value, name)
    if isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, (ast.Yield, ast.YieldFrom)
    ):
        return _name_loaded_anywhere(stmt.value, name)
    return False


def _name_loaded_anywhere(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Name)
        and child.id == name
        and isinstance(child.ctx, ast.Load)
        for child in ast.walk(node)
    )


def leaking_acquisitions(
    function: ast.FunctionDef,
    specs: Sequence[ResourceSpec],
    kinds: FrozenSet[str],
    include_normal_exit: bool,
) -> List[Tuple[Acquisition, CFG]]:
    """Acquisitions in *function* with an unreleased path to an exit.

    *kinds* selects which CFG edges a leak path may follow (see
    :mod:`repro.analysis.dataflow`); *include_normal_exit* decides
    whether normal completion is challenged in addition to the
    exceptional exit.
    """
    acquisitions = find_acquisitions(function, specs)
    if not acquisitions:
        return []
    cfg = build_cfg(function)
    targets = {cfg.raise_exit}
    if include_normal_exit:
        targets.add(cfg.exit)
    leaking: List[Tuple[Acquisition, CFG]] = []
    for acquisition in acquisitions:
        start_nodes = set(cfg.nodes_for(acquisition.stmt))
        blockers: Set[int] = set()
        for node in cfg.nodes:
            if node.stmt is None or node.index in start_nodes:
                continue
            if (
                _is_release(node.stmt, acquisition)
                or _is_escape(node.stmt, acquisition.name)
                or acquisition.name in stmt_defs(node.stmt)
            ):
                blockers.add(node.index)
        if any(
            leak_path_exists(
                cfg, start, acquisition.name, blockers, targets, kinds
            )
            for start in start_nodes
        ):
            leaking.append((acquisition, cfg))
    return leaking
