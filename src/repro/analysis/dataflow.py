"""Intraprocedural CFG + dataflow layer under the flow-sensitive checkers.

The pattern-based checkers reason about *syntax*.  Lifecycle
invariants need *paths*: a resource acquired before an explicit
``raise`` must be released on every error path that leaves the
function.  This module gives checkers that vocabulary:

* :func:`build_cfg` — a statement-level control-flow graph of one
  function.  ``try``/``except``/``finally`` are modeled precisely:
  ``finally`` bodies are *duplicated* per continuation (normal fall-
  through, exception, ``return``/``break``/``continue``) exactly as
  CPython compiles them, so a leak query never conflates the return
  path with the fall-through path.  ``with`` blocks compile to the
  equivalent try/finally with a synthetic ``with-exit`` node on every
  continuation.  Explicit ``raise`` statements produce ``"raise"``
  edges routed type-aware against enclosing handlers; statements
  containing calls produce ``"call"`` edges into the enclosing
  handler/finally chain (a call with no enclosing ``try`` is assumed
  non-raising — the analysis is intraprocedural and anything stronger
  would drown every function in phantom error paths).

* :func:`leak_path_exists` — the resource-lifecycle query: is there a
  path from an acquisition to a function exit that hits neither a
  release nor an escape?  Edges whose branch condition implies the
  tracked name is ``None`` are pruned (``if handle is not None:
  handle.close()`` discharges the obligation), and the caller
  chooses which edge kinds participate, so the exception-safety checker
  can restrict itself to explicit-``raise`` error paths.

Everything here is pure stdlib ``ast`` over one function at a time; no
module executes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "ALL_EDGE_KINDS",
    "CFG",
    "CFGNode",
    "Edge",
    "FunctionLike",
    "build_cfg",
    "leak_path_exists",
    "stmt_calls",
    "stmt_defs",
]

FunctionLike = ast.FunctionDef

#: Edge kinds: ``"step"`` (normal flow, including branch edges),
#: ``"raise"`` (origin is an explicit ``raise``) and ``"call"`` (origin
#: is a statement whose calls may raise into an enclosing handler).
ALL_EDGE_KINDS: FrozenSet[str] = frozenset({"step", "raise", "call"})

#: Handler type names treated as catching anything.
_CATCH_ALL_NAMES = frozenset({"BaseException", "Exception"})

#: Scope boundaries a statement-local walk must not cross: names bound
#: or used inside these belong to a nested scope, not the function
#: being analyzed (comprehension targets stopped leaking in Python 3).
_NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.GeneratorExp,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)


@dataclass(frozen=True)
class Edge:
    """One control-flow edge.

    ``test``/``branch`` are set on conditional edges: the branch
    condition expression and which way it went.  The leak query uses
    them to prune paths on which the tracked name is provably ``None``.
    """

    target: int
    kind: str = "step"
    test: Optional[ast.expr] = None
    branch: Optional[bool] = None


@dataclass
class CFGNode:
    """One node: a statement (or a synthetic entry/exit/join point)."""

    index: int
    stmt: Optional[ast.AST]
    label: str


class CFG:
    """A statement-level control-flow graph of one function."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self._succs: List[List[Edge]] = []
        self.entry = self._add(None, "entry")
        #: Normal completion (fall-through and ``return``).
        self.exit = self._add(None, "exit")
        #: Exceptional completion (an exception left the function).
        self.raise_exit = self._add(None, "raise-exit")

    def _add(self, stmt: Optional[ast.AST], label: str) -> int:
        index = len(self.nodes)
        self.nodes.append(CFGNode(index, stmt, label))
        self._succs.append([])
        return index

    def _link(self, source: int, edge: Edge) -> None:
        self._succs[source].append(edge)

    def successors(self, index: int) -> Sequence[Edge]:
        return self._succs[index]

    def nodes_for(self, stmt: ast.AST) -> List[int]:
        """Every node anchored at *stmt*.

        ``finally`` duplication means one statement can appear as
        several nodes — a query must consider all of them.
        """
        return [node.index for node in self.nodes if node.stmt is stmt]

    def nodes_with_label(self, label: str) -> List[int]:
        return [node.index for node in self.nodes if node.label == label]

    def reachable_from(
        self, start: int, kinds: FrozenSet[str] = ALL_EDGE_KINDS
    ) -> Set[int]:
        """All nodes reachable from *start* along edges of *kinds*."""
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for edge in self._succs[current]:
                if edge.kind in kinds and edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
        return seen


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass
class _Route:
    """Where abrupt completions go from the region being built.

    Each field is a thunk so ``finally`` duplication happens lazily and
    is memoized per continuation — the classic way to compile ``try``/
    ``finally`` without exponential blowup on honest code.
    """

    raise_to: Callable[[Optional[str]], int]
    call_to: Optional[Callable[[], int]]
    return_to: Callable[[], int]
    break_to: Optional[Callable[[], int]] = None
    continue_to: Optional[Callable[[], int]] = None


def _raised_name(stmt: ast.Raise) -> Optional[str]:
    """The terminal type name of ``raise X(...)`` / ``raise X``; else None."""
    exc = stmt.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _handler_names(handler: ast.ExceptHandler) -> Optional[FrozenSet[str]]:
    """Type names one handler catches; ``None`` means catch-all."""
    if handler.type is None:
        return None
    types: List[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    else:
        types = [handler.type]
    names: Set[str] = set()
    for entry in types:
        if isinstance(entry, ast.Name):
            names.add(entry.id)
        elif isinstance(entry, ast.Attribute):
            names.add(entry.attr)
        else:
            return None  # dynamic type expression: treat as catch-all
    if names & _CATCH_ALL_NAMES:
        return None
    return frozenset(names)


def _head_exprs(stmt: ast.AST) -> List[ast.AST]:
    """The expressions a node *evaluates itself* (not its nested body)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []  # anchor node only; the body has its own nodes
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _contains_call(roots: Sequence[ast.AST]) -> bool:
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                return True
    return False


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    # -- small helpers ----------------------------------------------------

    def _node(self, stmt: Optional[ast.AST], label: str) -> int:
        return self.cfg._add(stmt, label)

    def _edge(
        self,
        source: int,
        target: int,
        kind: str = "step",
        test: Optional[ast.expr] = None,
        branch: Optional[bool] = None,
    ) -> None:
        self.cfg._link(source, Edge(target, kind, test, branch))

    def _exc_edges(self, source: int, stmt: ast.stmt, route: _Route) -> None:
        """Attach raise/call edges a statement's own evaluation produces."""
        if isinstance(stmt, ast.Raise):
            return  # the raise edge is the statement's only exit
        if route.call_to is not None and _contains_call(_head_exprs(stmt)):
            self._edge(source, route.call_to(), kind="call")

    # -- statement sequencing ---------------------------------------------

    def sequence(
        self, stmts: Sequence[ast.stmt], follow: int, route: _Route
    ) -> int:
        """Build *stmts*; control falls through to *follow*.  Returns entry."""
        entry = follow
        for stmt in reversed(stmts):
            entry = self.statement(stmt, entry, route)
        return entry

    def statement(self, stmt: ast.stmt, follow: int, route: _Route) -> int:
        if isinstance(stmt, ast.If):
            return self._if(stmt, follow, route)
        if isinstance(stmt, (ast.While, ast.For)):
            return self._loop(stmt, follow, route)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, follow, route)
        if isinstance(stmt, ast.With):
            return self._with(stmt, follow, route)
        if isinstance(stmt, ast.Return):
            node = self._node(stmt, "return")
            self._exc_edges(node, stmt, route)
            self._edge(node, route.return_to())
            return node
        if isinstance(stmt, ast.Raise):
            node = self._node(stmt, "raise")
            self._edge(node, route.raise_to(_raised_name(stmt)), kind="raise")
            return node
        if isinstance(stmt, ast.Break) and route.break_to is not None:
            node = self._node(stmt, "break")
            self._edge(node, route.break_to())
            return node
        if isinstance(stmt, ast.Continue) and route.continue_to is not None:
            node = self._node(stmt, "continue")
            self._edge(node, route.continue_to())
            return node
        node = self._node(stmt, type(stmt).__name__.lower())
        self._exc_edges(node, stmt, route)
        self._edge(node, follow)
        return node

    # -- compound statements ----------------------------------------------

    def _if(self, stmt: ast.If, follow: int, route: _Route) -> int:
        test = self._node(stmt, "if-test")
        self._exc_edges(test, stmt, route)
        body = self.sequence(stmt.body, follow, route)
        self._edge(test, body, test=stmt.test, branch=True)
        orelse = self.sequence(stmt.orelse, follow, route)
        self._edge(test, orelse, test=stmt.test, branch=False)
        return test

    def _loop(self, stmt: ast.stmt, follow: int, route: _Route) -> int:
        assert isinstance(stmt, (ast.While, ast.For))
        test = self._node(stmt, "loop-test")
        self._exc_edges(test, stmt, route)
        loop_route = _Route(
            raise_to=route.raise_to,
            call_to=route.call_to,
            return_to=route.return_to,
            break_to=lambda: follow,
            continue_to=lambda: test,
        )
        body = self.sequence(stmt.body, test, loop_route)
        condition = stmt.test if isinstance(stmt, ast.While) else None
        self._edge(test, body, test=condition, branch=True)
        orelse = self.sequence(stmt.orelse, follow, route)
        self._edge(test, orelse, test=condition, branch=False)
        return test

    def _with(self, stmt: ast.With, follow: int, route: _Route) -> int:
        """``with`` compiles to try/finally around a synthetic exit node."""
        enter = self._node(stmt, "with-enter")
        self._exc_edges(enter, stmt, route)
        inner = self._finally_region(
            build_final=lambda next_target: self._with_exit(stmt, next_target),
            route=route,
        )
        body = self.sequence(stmt.body, self._with_exit(stmt, follow), inner)
        self._edge(enter, body)
        return enter

    def _with_exit(self, stmt: ast.With, next_target: int) -> int:
        node = self._node(stmt, "with-exit")
        self._edge(node, next_target)
        return node

    def _finally_region(
        self, build_final: Callable[[int], int], route: _Route
    ) -> _Route:
        """A route whose every abrupt exit first runs a finalizer copy."""
        memo: Dict[Tuple[str, int], int] = {}

        def through(kind: str, target: int) -> int:
            key = (kind, target)
            if key not in memo:
                memo[key] = build_final(target)
            return memo[key]

        def raise_to(name: Optional[str]) -> int:
            return through("raise", route.raise_to(name))

        def call_to() -> int:
            if route.call_to is not None:
                return through("call", route.call_to())
            return through("call", route.raise_to(None))

        return _Route(
            raise_to=raise_to,
            call_to=call_to,
            return_to=lambda: through("return", route.return_to()),
            break_to=(
                (lambda: through("break", route.break_to()))  # type: ignore[misc]
                if route.break_to is not None
                else None
            ),
            continue_to=(
                (lambda: through("continue", route.continue_to()))  # type: ignore[misc]
                if route.continue_to is not None
                else None
            ),
        )

    def _try(self, stmt: ast.Try, follow: int, route: _Route) -> int:
        outer = route
        after = follow
        if stmt.finalbody:

            def build_final(next_target: int) -> int:
                return self.sequence(stmt.finalbody, next_target, outer)

            route = self._finally_region(build_final, outer)
            after = self.sequence(stmt.finalbody, follow, outer)

        handler_route = route
        if not stmt.handlers:
            body = self.sequence(
                stmt.body, self.sequence(stmt.orelse, after, route), route
            )
            return body

        entries: List[Tuple[Optional[FrozenSet[str]], int]] = []
        for handler in stmt.handlers:
            entry = self._node(handler, "except")
            handled = self.sequence(handler.body, after, handler_route)
            self._edge(entry, handled)
            entries.append((_handler_names(handler), entry))

        def body_raise_to(name: Optional[str]) -> int:
            if name is not None:
                for names, entry in entries:
                    if names is None or name in names:
                        return entry
                return route.raise_to(name)
            dispatch = self._node(stmt, "exc-dispatch")
            caught_all = False
            for names, entry in entries:
                self._edge(dispatch, entry)
                if names is None:
                    caught_all = True
                    break
            if not caught_all:
                if route.call_to is not None:
                    self._edge(dispatch, route.call_to())
                else:
                    self._edge(dispatch, route.raise_to(None))
            return dispatch

        body_route = _Route(
            raise_to=body_raise_to,
            call_to=lambda: body_raise_to(None),
            return_to=route.return_to,
            break_to=route.break_to,
            continue_to=route.continue_to,
        )
        orelse = self.sequence(stmt.orelse, after, route)
        return self.sequence(stmt.body, orelse, body_route)


def build_cfg(function: FunctionLike) -> CFG:
    """The statement-level CFG of one (sync) function definition."""
    cfg = CFG()
    builder = _Builder(cfg)
    route = _Route(
        raise_to=lambda name: cfg.raise_exit,
        call_to=None,
        return_to=lambda: cfg.exit,
    )
    entry = builder.sequence(function.body, cfg.exit, route)
    cfg._link(cfg.entry, Edge(entry))
    return cfg


# ---------------------------------------------------------------------------
# Name binding / use extraction (statement-local, scope-aware)
# ---------------------------------------------------------------------------


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node* without descending into nested scopes."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _NESTED_SCOPES):
            continue
        yield from _walk_scope(child)


def stmt_defs(stmt: ast.AST) -> Set[str]:
    """Names a statement binds in the enclosing function's scope.

    Comprehension targets and anything inside a nested function or
    lambda are excluded — they bind in their own scope.
    """
    names: Set[str] = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            names.add(stmt.name)
        return names
    roots = _head_exprs(stmt) if isinstance(stmt, ast.stmt) else [stmt]
    if isinstance(stmt, ast.With):
        roots = list(roots) + [
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        ]
    for root in roots:
        for node in _walk_scope(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    names.add(bound)
    return names


def stmt_calls(stmt: ast.AST) -> List[ast.Call]:
    """Every call a statement's own evaluation performs."""
    calls: List[ast.Call] = []
    roots = (
        _head_exprs(stmt)
        if isinstance(stmt, (ast.stmt, ast.ExceptHandler))
        else [stmt]
    )
    for root in roots:
        for node in _walk_scope(root):
            if isinstance(node, ast.Call):
                calls.append(node)
    return calls


# ---------------------------------------------------------------------------
# The leak query
# ---------------------------------------------------------------------------


def _edge_implies_none(edge: Edge, name: str) -> bool:
    """True when following *edge* proves *name* is None/falsy."""
    test = edge.test
    if test is None or edge.branch is None:
        return False
    if isinstance(test, ast.Name) and test.id == name:
        return edge.branch is False
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and test.left.id == name
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return edge.branch is True
        if isinstance(test.ops[0], ast.IsNot):
            return edge.branch is False
    return False


def leak_path_exists(
    cfg: CFG,
    start: int,
    name: str,
    blockers: Set[int],
    targets: Set[int],
    kinds: FrozenSet[str] = ALL_EDGE_KINDS,
) -> bool:
    """Whether some path leaks the resource bound to *name*.

    Starting from the *normal* successors of the acquiring node *start*
    (if the acquisition itself raised, no resource exists), follow edges
    whose kind is in *kinds*, never expanding a node in *blockers* (a
    release, an escape, or a re-binding of *name*) and pruning edges
    that prove *name* is None.  Returns True when any node in *targets*
    (typically ``{cfg.exit, cfg.raise_exit}``) is reachable.
    """
    frontier = [
        edge.target
        for edge in cfg.successors(start)
        if edge.kind == "step" and not _edge_implies_none(edge, name)
    ]
    seen: Set[int] = set(frontier)
    while frontier:
        current = frontier.pop()
        if current in targets:
            return True
        if current in blockers:
            continue
        for edge in cfg.successors(current):
            if edge.kind not in kinds:
                continue
            if _edge_implies_none(edge, name):
                continue
            if edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return False
