"""The shipped domain checkers.

Importing this package registers every checker with
:mod:`repro.analysis.registry`; ``repro lint`` and the self-tests import
it for that side effect.  To add a checker, drop a module here, decorate
the class with ``@register`` and import it below — nothing else in the
engine changes (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from .annotations import AnnotationsChecker
from .bound_safety import BoundSafetyChecker
from .kernel_parity import KernelParityChecker
from .options_plumbing import OptionsPlumbingChecker
from .registry_coverage import RegistryCoverageChecker

__all__ = [
    "AnnotationsChecker",
    "BoundSafetyChecker",
    "KernelParityChecker",
    "OptionsPlumbingChecker",
    "RegistryCoverageChecker",
]
