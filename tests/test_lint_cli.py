"""Tests for the ``repro lint`` CLI: exit codes, selection, JSON mode."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.analysis.engine import checker_ids

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

CLEAN = (
    'GREETING: str = "hi"\n\n\ndef shout(text: str) -> str:\n'
    "    return text.upper()\n"
)
UNTYPED = "def shout(text):\n    return text.upper()\n"
BROKEN = "def shout(text:\n"


@pytest.fixture
def tree(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return str(path)

    return write


class TestExitCodes:
    def test_zero_on_clean_file(self, tree, capsys):
        path = tree("clean.py", CLEAN)
        assert main(["lint", path]) == 0
        err = capsys.readouterr().err
        assert "0 finding(s) in 1 file(s)" in err

    def test_zero_on_repo_source_tree(self, capsys):
        # The repo holds itself to its own lint: src/repro must be clean.
        assert main(["lint", REPO_SRC]) == 0

    def test_one_when_findings(self, tree, capsys):
        path = tree("repro/bad.py", UNTYPED)
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "[annotations]" in out
        assert "shout" in out

    def test_two_on_unknown_checker(self, tree, capsys):
        path = tree("clean.py", CLEAN)
        assert main(["lint", path, "--select", "no-such-checker"]) == 2
        assert "no-such-checker" in capsys.readouterr().err

    def test_two_on_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["lint", missing]) == 2
        assert "nope" in capsys.readouterr().err

    def test_syntax_error_is_a_finding_not_a_crash(self, tree, capsys):
        path = tree("repro/broken.py", BROKEN)
        assert main(["lint", path]) == 1
        assert "[syntax]" in capsys.readouterr().out

    def test_two_on_undecodable_file_not_a_crash(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "latin.py"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"# caf\xe9 = tr\xe8s bien\nx = 1\n")  # latin-1
        assert main(["lint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "latin.py" in err

    def test_two_on_unreadable_file_not_a_crash(self, tree, capsys):
        import os

        path = tree("repro/secret.py", CLEAN)
        os.chmod(path, 0o000)
        try:
            if os.access(path, os.R_OK):  # running as root: chmod is moot
                pytest.skip("permissions not enforced for this user")
            assert main(["lint", path]) == 2
            assert "cannot read" in capsys.readouterr().err
        finally:
            os.chmod(path, 0o644)


class TestSelection:
    def test_select_restricts_checkers(self, tree, capsys):
        path = tree("repro/bad.py", UNTYPED)
        assert main(["lint", path, "--select", "bound-safety"]) == 0
        err = capsys.readouterr().err
        assert "1 checker(s)" in err

    def test_ignore_drops_checker(self, tree, capsys):
        path = tree("repro/bad.py", UNTYPED)
        assert main(["lint", path, "--ignore", "annotations"]) == 0

    def test_select_and_ignore_compose(self, tree, capsys):
        path = tree("repro/bad.py", UNTYPED)
        code = main(["lint", path, "--select", "annotations,bound-safety", "--ignore", "bound-safety"])
        assert code == 1

    def test_outside_repro_package_is_skipped(self, tree):
        # Every checker constrains repro/ library code only; a module
        # outside any repro/ directory produces no findings.
        path = tree("scripts.py", UNTYPED)
        assert main(["lint", path]) == 0


class TestJsonMode:
    def test_json_structure(self, tree, capsys):
        path = tree("repro/bad.py", UNTYPED)
        assert main(["lint", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == 1
        assert set(report["checkers"]) == set(checker_ids()) | {
            "syntax",
            "unused-suppression",
        }
        (finding,) = [f for f in report["findings"] if f["checker"] == "annotations"]
        assert finding["path"].endswith("bad.py")
        assert finding["line"] >= 1
        assert "shout" in finding["message"]

    def test_json_clean_run(self, tree, capsys):
        path = tree("clean.py", CLEAN)
        assert main(["lint", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"] == []


class TestSarifMode:
    def test_sarif_document_structure(self, tree, tmp_path, capsys):
        path = tree("repro/bad.py", UNTYPED)
        out_path = tmp_path / "out.sarif.json"
        assert main(["lint", path, "--sarif", str(out_path)]) == 1
        document = json.loads(out_path.read_text())
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(checker_ids()) <= rule_ids
        assert {"syntax", "unused-suppression"} <= rule_ids
        (result,) = [
            r for r in run["results"] if r["ruleId"] == "annotations"
        ]
        assert "shout" in result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_clean_run_still_lists_rules(self, tree, tmp_path, capsys):
        path = tree("clean.py", CLEAN)
        out_path = tmp_path / "clean.sarif.json"
        assert main(["lint", path, "--sarif", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        (run,) = document["runs"]
        assert run["results"] == []
        assert run["tool"]["driver"]["rules"]


class TestList:
    def test_list_prints_all_checkers(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for checker_id in checker_ids():
            assert checker_id in out
