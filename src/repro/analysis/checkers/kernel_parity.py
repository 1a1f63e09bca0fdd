"""``kernel-parity`` — the scan-kernel ladder stays observably identical.

The accelerated kernel (``NumpyScanKernel``) is a drop-in replacement
for ``PythonScanKernel``: same candidates, same
results, and — the part this checker guards — the same *observability
contract*.  The differential fuzzer proves result equality per input;
what it cannot prove is that a kernel silently stopped attributing work
to a ``TopkStats`` counter, or stopped honoring a ``TopkOptions`` knob,
because a missing counter is not a wrong answer.  Stats drift between
kernels silently breaks Figure 5/6-style ablation comparisons (the
numbers stop measuring the same thing per backend).

The checker computes, per kernel class, the **reachable attribute
footprint**: starting from ``__init__`` and each scan entry point a
class has (``scan_records``, the join's record-by-record path, and
``scan_event`` on kernels that batch whole prefix events; a
single-list ``scan`` counts too) it resolves
``self.m(...)`` through the class's MRO (most-derived first),
``Base.m(self, ...)`` calls to the named class, and ``super().m(...)``
past the defining class, then unions every ``stats.<field>`` write and
every ``options.<knob>`` read in the reached methods.  Resolving
through the MRO (instead of unioning everything each class inherits)
is what makes *removals* visible: a base-class write that a derived
class still performs through its own helper shows up as a footprint
difference, not a shared blind spot.

Two rules:

* every scan entry point of every kernel class must write the same
  stats fields as the others — a record-by-record ``scan_records`` and
  a batched ``scan_event`` are alternative paths of one join, so each
  must attribute all the work on its own (``scan_records`` also
  indexes the event's records, but returns its index-decision count
  for the join to account, as the join does after ``scan_event``) —
  and every class must read the same options knobs (the difference is
  reported on the divergent class);
* the ``batch_verify`` ablation pair (``_verify_survivors_batched`` /
  ``_process_survivors``) must each keep the verification accounting —
  ``verifications`` and ``duplicates_skipped`` — so toggling the
  ablation never changes what a verification costs in the metrics.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from ..project import ModuleSource, Project
from ..registry import Checker, register

__all__ = ["KernelParityChecker"]

_SCOPE_MODULES = ("accel/kernel.py",)
_KERNEL_SUFFIX = "ScanKernel"
_ENTRY_POINTS = ("__init__", "scan", "scan_records", "scan_event")
#: The entry points a join hands candidates to; each must account for
#: every stats field on its own.
_SCAN_ENTRY_POINTS = ("scan", "scan_records", "scan_event")

#: The verify-ablation pair and the counters each branch must keep.
_ABLATION_METHODS = ("_verify_survivors_batched", "_process_survivors")
_ABLATION_REQUIRED = frozenset({"verifications", "duplicates_skipped"})

#: Local / parameter names the kernels bind their stats and options to.
_STATS_BASES = frozenset({"stats"})
_OPTIONS_BASES = frozenset({"options"})


class _KernelClass:
    """One kernel class definition plus its defining module."""

    def __init__(self, node: ast.ClassDef, module: ModuleSource) -> None:
        self.node = node
        self.module = module
        self.methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        self.base_names: List[str] = [
            base.id for base in node.bases if isinstance(base, ast.Name)
        ]


def _collect_classes(project: Project) -> Dict[str, _KernelClass]:
    classes: Dict[str, _KernelClass] = {}
    for repro_path in _SCOPE_MODULES:
        module = project.module(repro_path)
        if module is None or module.tree is None:
            continue
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.ClassDef)
                and stmt.name.endswith(_KERNEL_SUFFIX)
                and not stmt.name.startswith("_")
            ):
                classes[stmt.name] = _KernelClass(stmt, module)
    return classes


def _mro(name: str, classes: Dict[str, _KernelClass]) -> List[str]:
    """The single-inheritance resolution order within the kernel set."""
    order: List[str] = []
    current: Optional[str] = name
    while current is not None and current in classes and current not in order:
        order.append(current)
        bases = classes[current].base_names
        current = next((base for base in bases if base in classes), None)
    return order


def _resolve(
    method: str, mro: List[str], classes: Dict[str, _KernelClass]
) -> Optional[Tuple[str, ast.FunctionDef]]:
    for cls_name in mro:
        node = classes[cls_name].methods.get(method)
        if node is not None:
            return cls_name, node
    return None


def _attribute_footprint(
    function: ast.FunctionDef,
) -> Tuple[Set[str], Set[str], Set[str]]:
    """``(stats_writes, options_reads, self_calls)`` of one method body."""
    stats_writes: Set[str] = set()
    options_reads: Set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if not isinstance(base, ast.Name):
            continue
        if base.id in _STATS_BASES and isinstance(node.ctx, ast.Store):
            stats_writes.add(node.attr)
        elif base.id in _OPTIONS_BASES and isinstance(node.ctx, ast.Load):
            options_reads.add(node.attr)
    return stats_writes, options_reads, set()


def _called_methods(
    function: ast.FunctionDef,
    defining_class: str,
    analyzed_mro: List[str],
    classes: Dict[str, _KernelClass],
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Kernel methods *function* invokes, resolved against the analyzed MRO."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            target = func.value
            if isinstance(target, ast.Name) and target.id == "self":
                resolved = _resolve(func.attr, analyzed_mro, classes)
                if resolved is not None:
                    yield resolved
            elif isinstance(target, ast.Name) and target.id in classes:
                resolved = _resolve(
                    func.attr, _mro(target.id, classes), classes
                )
                if resolved is not None:
                    yield resolved
            elif (
                isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id == "super"
            ):
                try:
                    start = analyzed_mro.index(defining_class) + 1
                except ValueError:
                    start = 1
                resolved = _resolve(
                    func.attr, analyzed_mro[start:], classes
                )
                if resolved is not None:
                    yield resolved


def _reachable(
    entries: Tuple[str, ...], mro: List[str], classes: Dict[str, _KernelClass]
) -> List[ast.FunctionDef]:
    """Every kernel method reachable from *entries* through *mro*."""
    reached: List[ast.FunctionDef] = []
    seen: Set[Tuple[str, str]] = set()
    frontier: List[Tuple[str, ast.FunctionDef]] = []
    for entry in entries:
        resolved = _resolve(entry, mro, classes)
        if resolved is not None:
            frontier.append(resolved)
    while frontier:
        cls_name, function = frontier.pop()
        key = (cls_name, function.name)
        if key in seen:
            continue
        seen.add(key)
        reached.append(function)
        for called in _called_methods(function, cls_name, mro, classes):
            frontier.append(called)
    return reached


Footprint = Tuple[Dict[str, FrozenSet[str]], FrozenSet[str], Dict[str, Set[str]]]


def _class_footprint(name: str, classes: Dict[str, _KernelClass]) -> Footprint:
    """Reachable stats/options footprint of kernel class *name*.

    Returns ``(entry_stats, options_reads, per_method_stats)``:
    the stats fields each scan entry point the class has reaches, the
    options knobs read anywhere, and each reached method's own stats
    writes (for the ablation rule).
    """
    mro = _mro(name, classes)
    options_reads: Set[str] = set()
    per_method: Dict[str, Set[str]] = {}
    for function in _reachable(_ENTRY_POINTS, mro, classes):
        writes, reads, __ = _attribute_footprint(function)
        options_reads |= reads
        per_method.setdefault(function.name, set()).update(writes)
    entry_stats: Dict[str, FrozenSet[str]] = {}
    for entry in _SCAN_ENTRY_POINTS:
        if _resolve(entry, mro, classes) is None:
            continue
        writes_from_entry: Set[str] = set()
        for function in _reachable((entry,), mro, classes):
            writes_from_entry |= _attribute_footprint(function)[0]
        entry_stats[entry] = frozenset(writes_from_entry)
    return entry_stats, frozenset(options_reads), per_method


@register
class KernelParityChecker(Checker):
    """python/numpy kernels expose one observability contract."""

    id = "kernel-parity"
    description = (
        "every scan entry point must write the same TopkStats fields, "
        "every kernel must read the same TopkOptions knobs; the "
        "batch_verify ablation branches must keep verification accounting"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        classes = _collect_classes(project)
        if len(classes) < 2:
            return
        footprints = {
            name: _class_footprint(name, classes) for name in sorted(classes)
        }
        yield from self._footprint_parity(classes, footprints)
        yield from self._ablation_accounting(classes, footprints)

    def _footprint_parity(
        self,
        classes: Dict[str, _KernelClass],
        footprints: Dict[str, Footprint],
    ) -> Iterator[Finding]:
        union_stats: Set[str] = set()
        union_options: Set[str] = set()
        for entry_stats, options_reads, __ in footprints.values():
            for writes in entry_stats.values():
                union_stats |= writes
            union_options |= options_reads
        for name in sorted(footprints):
            entry_stats, options_reads, __ = footprints[name]
            kernel = classes[name]
            for entry in sorted(entry_stats):
                missing_stats = union_stats - entry_stats[entry]
                if missing_stats:
                    yield self.finding(
                        kernel.module,
                        kernel.node,
                        "kernel %s never writes TopkStats field(s) %s "
                        "through %s that the other scan paths attribute "
                        "work to — per-backend ablation numbers stop "
                        "measuring the same thing"
                        % (name, ", ".join(sorted(missing_stats)), entry),
                    )
            missing_options = union_options - options_reads
            if missing_options:
                yield self.finding(
                    kernel.module,
                    kernel.node,
                    "kernel %s never reads TopkOptions knob(s) %s that "
                    "the other kernels honor — the knob silently stops "
                    "applying on this backend"
                    % (name, ", ".join(sorted(missing_options))),
                )

    def _ablation_accounting(
        self,
        classes: Dict[str, _KernelClass],
        footprints: Dict[str, Footprint],
    ) -> Iterator[Finding]:
        for name in sorted(footprints):
            __, __, per_method = footprints[name]
            kernel = classes[name]
            for method in _ABLATION_METHODS:
                writes = per_method.get(method)
                if writes is None:
                    continue  # not reached by this class's closure
                dropped = _ABLATION_REQUIRED - writes
                if dropped and method in kernel.methods:
                    yield self.finding(
                        kernel.module,
                        kernel.methods[method],
                        "batch_verify ablation branch %s.%s drops the %s "
                        "counter(s): toggling the ablation would change "
                        "what a verification costs in the metrics"
                        % (name, method, ", ".join(sorted(dropped))),
                    )
