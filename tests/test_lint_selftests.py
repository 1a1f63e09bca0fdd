"""Seeded-fault self-tests for every ``repro lint`` checker.

A checker that has never caught its bug class proves nothing (same
philosophy as the off-by-one bound faults in
:mod:`repro.oracle.faults`).  For each :data:`LINT_FAULTS` entry this
suite overlays the mutation onto the real, otherwise-pristine source
tree and asserts that exactly the intended checker fires, on the
mutated file — and that the pristine tree stays clean, so the firing
is attributable to the seeded fault alone.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import load_project, run_checkers
from repro.analysis.engine import checker_ids
from repro.oracle.faults import LINT_FAULTS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def pristine_project():
    project, missing = load_project([str(SRC / "repro")], base=SRC.parent)
    assert not missing
    return project


def test_every_checker_has_a_seeded_fault():
    covered = {fault.checker for fault in LINT_FAULTS}
    assert covered == set(checker_ids())


def test_pristine_tree_is_clean(pristine_project):
    findings = run_checkers(pristine_project)
    assert findings == []


@pytest.mark.parametrize(
    "fault", LINT_FAULTS, ids=[f.description.replace(" ", "-") for f in LINT_FAULTS]
)
def test_seeded_fault_is_caught(pristine_project, fault):
    module = pristine_project.module(fault.repro_path)
    assert module is not None, fault.repro_path
    mutated = fault.apply(module.text)
    assert mutated != module.text
    project = pristine_project.with_source(fault.repro_path, mutated)

    findings = run_checkers(project, select=[fault.checker])
    assert findings, "checker %r missed seeded fault %r" % (
        fault.checker,
        fault.description,
    )
    flagged_paths = {finding.path for finding in findings}
    expected = project.module(fault.expected_path).path
    assert flagged_paths == {expected}, (
        "fault %r should only fire in %s, got %s"
        % (fault.description, expected, sorted(flagged_paths))
    )
    assert all(finding.checker == fault.checker for finding in findings)


@pytest.mark.parametrize(
    "fault", LINT_FAULTS, ids=[f.description.replace(" ", "-") for f in LINT_FAULTS]
)
def test_seeded_fault_invisible_to_other_checkers(pristine_project, fault):
    # The mutation re-introduces exactly one bug class; the remaining
    # checkers must stay quiet on it, or finding attribution is noise.
    module = pristine_project.module(fault.repro_path)
    project = pristine_project.with_source(fault.repro_path, fault.apply(module.text))
    others = [cid for cid in checker_ids() if cid != fault.checker]
    assert run_checkers(project, select=others) == []


def test_second_gen_kernel_flags_are_plumb_checked(pristine_project):
    # The second-generation kernel rides on two new TopkOptions fields;
    # the options-plumbing checker must treat both as caller-owned: a
    # parallel-layer override of sig_bits or accel (e.g. pinning
    # accel="numpy" and silently dropping accel="python") is a finding
    # that names the overridden field.
    by_description = {fault.description: fault for fault in LINT_FAULTS}
    for description, field in (
        ("worker pins sig_bits, ignoring the caller's width", "sig_bits"),
        ("parallel backend pins accel, dropping accel=non-numpy modes", "accel"),
    ):
        fault = by_description[description]
        module = pristine_project.module(fault.repro_path)
        project = pristine_project.with_source(
            fault.repro_path, fault.apply(module.text)
        )
        findings = run_checkers(project, select=["options-plumbing"])
        assert any(
            "TopkOptions.%s" % field in finding.message for finding in findings
        ), "options-plumbing did not name the overridden %s field" % field


def test_fault_application_is_loud_on_drift():
    fault = LINT_FAULTS[0]
    with pytest.raises(ValueError):
        fault.apply("def unrelated(): pass\n")
