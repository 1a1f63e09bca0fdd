"""CFG / dataflow layer edge cases (``repro.analysis.dataflow``).

The flow-sensitive checkers are only as sound as the CFG builder under
them, so the tricky compilations get direct tests: ``finally`` bodies
duplicated per continuation (return vs raise), ``with`` as try/finally
around synthetic exit nodes, ``while``/``else`` with ``break``, and the
scope-pruning of comprehensions in the def/use extractors.  The tail of
the file drives the kernel-parity rules that the seeded faults cannot
reach (they mutate real sources, which exhibit one
bug shape each) over small synthetic modules.
"""

import ast
import textwrap

from repro.analysis import Project, run_checkers
from repro.analysis.dataflow import (
    ALL_EDGE_KINDS,
    build_cfg,
    leak_path_exists,
    stmt_calls,
    stmt_defs,
)


def fn(source: str) -> ast.FunctionDef:
    node = ast.parse(textwrap.dedent(source)).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


class TestTryFinallyWithReturn:
    SOURCE = """
    def f():
        try:
            return compute()
        finally:
            cleanup()
    """

    def test_finally_is_duplicated_per_continuation(self):
        function = fn(self.SOURCE)
        cfg = build_cfg(function)
        cleanup = function.body[0].finalbody[0]
        copies = cfg.nodes_for(cleanup)
        # One copy on the return path, one on the exception path.
        assert len(copies) >= 2
        continuations = set()
        for copy in copies:
            for edge in cfg.successors(copy):
                continuations.add(edge.target)
        assert cfg.exit in continuations
        assert cfg.raise_exit in continuations

    def test_return_cannot_bypass_finally(self):
        function = fn(self.SOURCE)
        cfg = build_cfg(function)
        (return_node,) = cfg.nodes_for(function.body[0].body[0])
        cleanup_nodes = set(cfg.nodes_for(function.body[0].finalbody[0]))
        step_targets = {
            edge.target
            for edge in cfg.successors(return_node)
            if edge.kind == "step"
        }
        assert cfg.exit not in step_targets
        assert step_targets <= cleanup_nodes | {cfg.raise_exit}

    def test_always_raising_body_makes_exit_unreachable(self):
        function = fn(
            """
            def f():
                try:
                    raise ValueError("boom")
                finally:
                    cleanup()
            """
        )
        cfg = build_cfg(function)
        reachable = cfg.reachable_from(cfg.entry)
        assert cfg.raise_exit in reachable
        assert cfg.exit not in reachable
        # The finally copy on the raise path feeds the raise exit.
        cleanup_nodes = cfg.nodes_for(function.body[0].finalbody[0])
        assert any(
            edge.target == cfg.raise_exit
            for copy in cleanup_nodes
            for edge in cfg.successors(copy)
        )


class TestWithStatements:
    SOURCE = """
    def f():
        with acquire() as handle:
            use(handle)
        after()
    """

    def test_with_exit_runs_on_both_paths(self):
        function = fn(self.SOURCE)
        cfg = build_cfg(function)
        exits = cfg.nodes_with_label("with-exit")
        assert len(exits) >= 2  # normal fall-through + exception copy
        continuations = {
            edge.target for node in exits for edge in cfg.successors(node)
        }
        (after_node,) = cfg.nodes_for(function.body[1])
        assert after_node in continuations  # normal: runs after()
        assert cfg.raise_exit in continuations  # exceptional: propagates

    def test_body_exception_routes_through_with_exit(self):
        function = fn(self.SOURCE)
        cfg = build_cfg(function)
        (use_node,) = cfg.nodes_for(function.body[0].body[0])
        call_targets = {
            edge.target
            for edge in cfg.successors(use_node)
            if edge.kind == "call"
        }
        with_exits = set(cfg.nodes_with_label("with-exit"))
        assert call_targets and call_targets <= with_exits

    def test_with_binds_optional_vars(self):
        function = fn(self.SOURCE)
        assert "handle" in stmt_defs(function.body[0])


class TestWhileElse:
    def test_else_runs_on_normal_loop_exit(self):
        function = fn(
            """
            def f():
                while pending():
                    step()
                else:
                    finish()
                return 0
            """
        )
        cfg = build_cfg(function)
        loop = function.body[0]
        (test_node,) = cfg.nodes_for(loop)
        (finish_node,) = cfg.nodes_for(loop.orelse[0])
        false_edges = [
            edge for edge in cfg.successors(test_node) if edge.branch is False
        ]
        assert [edge.target for edge in false_edges] == [finish_node]

    def test_break_skips_the_else(self):
        function = fn(
            """
            def f():
                while pending():
                    break
                else:
                    finish()
                return 0
            """
        )
        cfg = build_cfg(function)
        loop = function.body[0]
        (break_node,) = cfg.nodes_for(loop.body[0])
        (finish_node,) = cfg.nodes_for(loop.orelse[0])
        (return_node,) = cfg.nodes_for(function.body[1])
        break_targets = {e.target for e in cfg.successors(break_node)}
        assert return_node in break_targets
        assert finish_node not in break_targets


class TestComprehensionScoping:
    def test_targets_do_not_bind_in_the_function(self):
        stmt = fn(
            """
            def f(xs, ys):
                totals = [x + y for x in xs for y in ys]
            """
        ).body[0]
        assert stmt_defs(stmt) == {"totals"}

    def test_nested_comprehensions_are_fully_pruned(self):
        stmt = fn(
            """
            def f(rows):
                grid = [[cell(i, j) for j in row] for i, row in rows]
            """
        ).body[0]
        assert stmt_defs(stmt) == {"grid"}

    def test_calls_inside_comprehensions_are_not_own_calls(self):
        # Scope-aware: the comprehension body runs in its own frame, so
        # its calls must not register as the statement's own (they would
        # over-block the leak query otherwise).
        stmt = fn(
            """
            def f(ts):
                names = [g(t) for t in ts]
            """
        ).body[0]
        assert stmt_calls(stmt) == []

    def test_dict_and_set_comprehensions_prune_too(self):
        stmt = fn(
            """
            def f(pairs):
                lookup = {k: v for k, v in pairs}
            """
        ).body[0]
        assert stmt_defs(stmt) == {"lookup"}


class TestLeakQuery:
    def run_query(self, source, release_index=None):
        function = fn(source)
        cfg = build_cfg(function)
        (start,) = cfg.nodes_for(function.body[0])
        blockers = set()
        if release_index is not None:
            target = function.body[release_index]
            blockers = set(cfg.nodes_for(target))
        return cfg, start, blockers

    def test_straight_line_release_blocks_the_path(self):
        cfg, start, blockers = self.run_query(
            """
            def f():
                res = acquire()
                use(res)
                release(res)
            """,
            release_index=2,
        )
        assert not leak_path_exists(
            cfg, start, "res",
            blockers, {cfg.exit, cfg.raise_exit}, ALL_EDGE_KINDS,
        )

    def test_branch_without_release_leaks(self):
        function = fn(
            """
            def f(flag):
                res = acquire()
                if flag:
                    release(res)
                done()
            """
        )
        cfg = build_cfg(function)
        (start,) = cfg.nodes_for(function.body[0])
        blockers = set(cfg.nodes_for(function.body[1].body[0]))
        assert leak_path_exists(
            cfg, start, "res",
            blockers, {cfg.exit}, ALL_EDGE_KINDS,
        )

    def test_none_guard_discharges_the_path(self):
        # `if res is not None: release(res)` — on the false branch the
        # resource is provably None, so that path holds nothing to leak.
        function = fn(
            """
            def f():
                res = acquire()
                if res is not None:
                    release(res)
            """
        )
        cfg = build_cfg(function)
        (start,) = cfg.nodes_for(function.body[0])
        blockers = set(cfg.nodes_for(function.body[1].body[0]))
        assert not leak_path_exists(
            cfg, start, "res",
            blockers, {cfg.exit, cfg.raise_exit}, ALL_EDGE_KINDS,
        )

    def test_finally_release_covers_the_exception_path(self):
        function = fn(
            """
            def f():
                res = acquire()
                try:
                    use(res)
                finally:
                    release(res)
            """
        )
        cfg = build_cfg(function)
        (start,) = cfg.nodes_for(function.body[0])
        blockers = set(cfg.nodes_for(function.body[1].finalbody[0]))
        assert not leak_path_exists(
            cfg, start, "res",
            blockers, {cfg.exit, cfg.raise_exit}, ALL_EDGE_KINDS,
        )


# ---------------------------------------------------------------------------
# Synthetic-module drives for the flow-sensitive checker rules the seeded
# faults don't reach
# ---------------------------------------------------------------------------


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
