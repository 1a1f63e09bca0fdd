"""Locate the program's sources in the checkout the benchmark runs from."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit 2 if absent.

    The benchmark must time the program in its own checkout, never a
    copy installed elsewhere, so a checkout without ``src/repro`` is an
    error rather than a fallback.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("topkbench: no src/repro under %s\n" % ROOT)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
