"""Kernel-parity rules the seeded faults cannot reach.

The seeded faults mutate real sources, which exhibit one bug shape
each; these tests drive the ``kernel-parity`` checker over small
synthetic modules instead.
"""

import textwrap

from repro.analysis import Project, run_checkers


def findings_for(path, source, checker):
    project = Project.from_sources({path: textwrap.dedent(source)})
    return [
        finding
        for finding in run_checkers(project, select=[checker])
        if finding.checker == checker
    ]


class TestKernelParityRules:
    def test_footprint_divergence_is_flagged(self):
        findings = findings_for(
            "repro/accel/kernel.py",
            """
            class PythonScanKernel:
                def __init__(self, options):
                    self.options = options

                def scan(self, stats):
                    options = self.options
                    stats.candidates = 1
                    stats.verifications = 1
                    if options.batch_verify:
                        pass

            class NumpyScanKernel:
                def __init__(self, options):
                    self.options = options

                def scan(self, stats):
                    options = self.options
                    stats.candidates = 1
                    if options.batch_verify:
                        pass
            """,
            "kernel-parity",
        )
        assert len(findings) == 1
        assert "NumpyScanKernel" in findings[0].message
        assert "verifications" in findings[0].message

    def test_helper_reached_through_mro_counts(self):
        # A derived kernel that reaches the base's stats writes through
        # an inherited helper has an identical footprint: no findings.
        findings = findings_for(
            "repro/accel/kernel.py",
            """
            class PythonScanKernel:
                def scan(self, stats):
                    self._account(stats)

                def _account(self, stats):
                    stats.candidates = 1

            class NumpyScanKernel(PythonScanKernel):
                def scan(self, stats):
                    self._account(stats)
            """,
            "kernel-parity",
        )
        assert findings == []

    def test_ablation_branch_dropping_accounting_is_flagged(self):
        findings = findings_for(
            "repro/accel/kernel.py",
            """
            class PythonScanKernel:
                def scan(self, stats):
                    self._process_survivors(stats)
                    self._verify_survivors_batched(stats)

                def _process_survivors(self, stats):
                    stats.verifications = 1
                    stats.duplicates_skipped = 1

                def _verify_survivors_batched(self, stats):
                    stats.verifications = 1

            class NumpyScanKernel(PythonScanKernel):
                pass
            """,
            "kernel-parity",
        )
        assert len(findings) == 1
        assert "_verify_survivors_batched" in findings[0].message
        assert "duplicates_skipped" in findings[0].message
