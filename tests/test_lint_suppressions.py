"""Inline ``# repro-lint: ignore[...]`` suppressions and their meta-check.

The contract under test: a suppression comment silences exactly the
named checkers on exactly its line; a suppression that silences nothing
is itself a finding (reserved id ``unused-suppression``), so stale
ignores surface instead of accumulating; and a line may opt out of the
meta-check by naming ``unused-suppression`` among its own ids.
"""

import json

import pytest

from repro.analysis import UNUSED_SUPPRESSION_ID, Project, run_checkers
from repro.cli import main

UNTYPED = "def shout(text):\n    return text.upper()\n"
UNTYPED_SUPPRESSED = (
    "def shout(text):  # repro-lint: ignore[annotations]\n"
    "    return text.upper()\n"
)
CLEAN_WITH_STALE_IGNORE = (
    "def shout(text: str) -> str:  # repro-lint: ignore[annotations]\n"
    "    return text.upper()\n"
)
CLEAN_WITH_KEPT_IGNORE = (
    "def shout(text: str) -> str:"
    "  # repro-lint: ignore[annotations, unused-suppression]\n"
    "    return text.upper()\n"
)


def lint(source: str) -> list:
    project = Project.from_sources({"repro/mod.py": source})
    return run_checkers(project)


class TestSuppression:
    def test_unsuppressed_finding_fires(self):
        findings = lint(UNTYPED)
        assert any(f.checker == "annotations" for f in findings)

    def test_suppression_silences_the_named_checker(self):
        findings = lint(UNTYPED_SUPPRESSED)
        assert not any(f.checker == "annotations" for f in findings)
        # The suppression was used, so no unused-suppression finding.
        assert not any(
            f.checker == UNUSED_SUPPRESSION_ID for f in findings
        )

    def test_suppression_is_line_scoped(self):
        two_functions = (
            "def a(x):  # repro-lint: ignore[annotations]\n"
            "    return x\n\n\n"
            "def b(y):\n"
            "    return y\n"
        )
        findings = lint(two_functions)
        hits = [f for f in findings if f.checker == "annotations"]
        assert len(hits) == 1
        assert hits[0].line == 5  # only the unsuppressed def fires

    def test_suppression_only_silences_named_ids(self):
        # ignore[bound-safety] does not silence the annotations finding on the
        # same line — and, silencing nothing, it is itself reported.
        source = (
            "def shout(text):  # repro-lint: ignore[bound-safety]\n"
            "    return text.upper()\n"
        )
        findings = lint(source)
        assert any(f.checker == "annotations" for f in findings)
        assert any(f.checker == UNUSED_SUPPRESSION_ID for f in findings)


class TestUnusedSuppression:
    def test_stale_ignore_is_a_finding(self):
        findings = lint(CLEAN_WITH_STALE_IGNORE)
        (finding,) = [
            f for f in findings if f.checker == UNUSED_SUPPRESSION_ID
        ]
        assert finding.line == 1
        assert "silences nothing" in finding.message

    def test_opt_out_keeps_the_suppression_quietly(self):
        findings = lint(CLEAN_WITH_KEPT_IGNORE)
        assert findings == []

    def test_deselecting_the_meta_check_drops_it(self):
        findings = [
            f
            for f in run_checkers(
                Project.from_sources({"repro/mod.py": CLEAN_WITH_STALE_IGNORE}),
                ignore=[UNUSED_SUPPRESSION_ID],
            )
        ]
        assert findings == []


class TestCli:
    @pytest.fixture
    def tree(self, tmp_path):
        def write(name, content):
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            return str(path)

        return write

    def test_suppressed_run_exits_zero(self, tree, capsys):
        path = tree("repro/mod.py", UNTYPED_SUPPRESSED)
        assert main(["lint", path]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_stale_ignore_exits_one(self, tree, capsys):
        path = tree("repro/mod.py", CLEAN_WITH_STALE_IGNORE)
        assert main(["lint", path]) == 1
        assert "[unused-suppression]" in capsys.readouterr().out

    def test_unused_suppression_in_json_output(self, tree, capsys):
        path = tree("repro/mod.py", CLEAN_WITH_STALE_IGNORE)
        assert main(["lint", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        checkers = {f["checker"] for f in report["findings"]}
        assert checkers == {UNUSED_SUPPRESSION_ID}
