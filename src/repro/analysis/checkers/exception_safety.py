"""``exception-safety`` — resources released on explicit error paths.

A function that validates its inputs *after* acquiring a resource must
release the resource before raising: the caller sees only the
exception, has no reference to the half-built resource, and cannot
clean up.  The bug class: a header ``memoryview`` validated after it
is created, where a ``raise`` not preceded by ``view.release()`` (or
landing in a handler that releases) leaves an export of the buffer
alive past the failed call, so the buffer's own close trips over it.

Mechanically: for every ``x = memoryview(...)`` / ``x = open(...)``
acquisition, the checker asks the CFG whether the **exceptional** exit
is reachable along normal flow plus explicit-``raise`` edges without a
release (``x.release()`` / ``x.close()``) or an ownership transfer.
Normal completion is *not* challenged — handing the live view to the
caller (or keeping the file handle in a returned structure) is the
success contract, not a leak.  Call-origin exception edges are exempt:
intraprocedurally every call can raise, and the checker's job is the
error paths the function itself authored.
"""

from __future__ import annotations

from typing import Iterator

from ..dataflow import ALL_EDGE_KINDS
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register
from ..resources import ResourceSpec, iter_sync_functions, leaking_acquisitions

__all__ = ["ExceptionSafetyChecker"]

_PATH_KINDS = ALL_EDGE_KINDS - {"call"}

_SPECS = (
    ResourceSpec(
        kind="memoryview",
        constructors=frozenset({"memoryview"}),
        release_methods=frozenset({"release"}),
    ),
    ResourceSpec(
        kind="file handle",
        constructors=frozenset({"open"}),
        release_methods=frozenset({"close"}),
    ),
)


@register
class ExceptionSafetyChecker(Checker):
    """Acquired views/handles must be released before explicit raises."""

    id = "exception-safety"
    description = (
        "a memoryview/file handle acquired before a raise must be "
        "released on the error path (the caller never sees the resource)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.repro_modules():
            assert module.tree is not None
            for function in iter_sync_functions(module.tree):
                for acquisition, cfg in leaking_acquisitions(
                    function, _SPECS, _PATH_KINDS, include_normal_exit=False
                ):
                    del cfg
                    yield self.finding(
                        module,
                        acquisition.stmt,
                        "%s %r acquired in %r is not released on some "
                        "explicit error path: a raise after this "
                        "acquisition escapes the function with the "
                        "resource still held — release it before "
                        "raising, or raise first"
                        % (
                            acquisition.spec.kind,
                            acquisition.name,
                            function.name,
                        ),
                    )
