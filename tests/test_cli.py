"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.data import save_token_file
from repro.oracle.invariants import CheckHooks, InvariantViolation


@pytest.fixture
def data_file(tmp_path):
    path = str(tmp_path / "data.txt")
    save_token_file(
        path,
        [
            ["a", "b", "c", "d"],
            ["a", "b", "c", "e"],
            ["a", "b", "c", "d", "e"],
            ["x", "y", "z"],
            ["x", "y", "w"],
        ],
    )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topk_args(self):
        args = build_parser().parse_args(
            ["topk", "--input", "f", "--k", "5", "--similarity", "cosine"]
        )
        assert args.k == 5
        assert args.similarity == "cosine"

    def test_invalid_similarity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["topk", "--input", "f", "--k", "5", "--similarity", "l2"]
            )


class TestTopkCommand:
    def test_outputs_k_lines(self, data_file, capsys):
        assert main(["topk", "--input", data_file, "--k", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        first = float(out[0].split("\t")[0])
        assert 0.0 <= first <= 1.0

    def test_descending_similarity(self, data_file, capsys):
        main(["topk", "--input", data_file, "--k", "4"])
        out = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split("\t")[0]) for line in out]
        assert values == sorted(values, reverse=True)

    def test_qgram_mode(self, data_file, capsys):
        assert main(
            ["topk", "--input", data_file, "--k", "2", "--qgram", "2"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2


class TestThresholdCommand:
    def test_threshold_join(self, data_file, capsys):
        assert main(
            ["threshold", "--input", data_file, "--threshold", "0.6"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert all(float(line.split("\t")[0]) >= 0.6 for line in out)

    def test_algorithms_agree(self, data_file, capsys):
        outputs = []
        for algorithm in ("naive", "all-pairs", "ppjoin", "ppjoin+"):
            main(
                [
                    "threshold", "--input", data_file,
                    "--threshold", "0.5", "--algorithm", algorithm,
                ]
            )
            lines = capsys.readouterr().out.strip().splitlines()
            outputs.append(sorted(lines))
        assert all(out == outputs[0] for out in outputs)


class TestGenerateAndStats:
    def test_generate_then_stats(self, tmp_path, capsys):
        output = str(tmp_path / "gen.txt")
        assert main(
            ["generate", "--dataset", "dblp", "--n", "100",
             "--seed", "1", "--output", output]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--input", output]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "universe size" in out

    def test_generate_deterministic(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        main(["generate", "--dataset", "trec", "--n", "40",
              "--seed", "9", "--output", a])
        main(["generate", "--dataset", "trec", "--n", "40",
              "--seed", "9", "--output", b])
        assert open(a).read() == open(b).read()


class TestTopkTraceFlags:
    def test_trace_prints_tree_to_stderr(self, data_file, capsys):
        assert main(
            ["topk", "--input", data_file, "--k", "3", "--trace"]
        ) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 3  # results intact
        assert "topk_join" in captured.err
        assert "event_loop" in captured.err

    def test_trace_does_not_change_results(self, data_file, capsys):
        main(["topk", "--input", data_file, "--k", "4"])
        plain = capsys.readouterr().out
        main(["topk", "--input", data_file, "--k", "4", "--trace"])
        traced = capsys.readouterr().out
        assert traced == plain

    def test_trace_out_json(self, data_file, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        assert main(
            ["topk", "--input", data_file, "--k", "3", "--trace-out", out]
        ) == 0
        capsys.readouterr()
        payload = json.loads(open(out).read())
        assert payload["schema"] == 1
        assert any(s["name"] == "topk_join" for s in payload["spans"])
        assert "phase_tree" in payload

    def test_trace_out_prometheus(self, data_file, tmp_path, capsys):
        out = str(tmp_path / "metrics.prom")
        assert main(
            ["topk", "--input", data_file, "--k", "3", "--trace-out", out]
        ) == 0
        capsys.readouterr()
        text = open(out).read()
        assert "# TYPE repro_events_total counter" in text
        assert "repro_span_seconds_total" in text

    def test_failed_check_closes_the_trace_output(
        self, data_file, tmp_path, monkeypatch, cli_opens
    ):
        def fail(self, *args):
            raise InvariantViolation("event-order", "seeded failure")

        monkeypatch.setattr(CheckHooks, "on_pop", fail)
        out = str(tmp_path / "metrics.prom")
        with pytest.raises(InvariantViolation):
            main(["topk", "--input", data_file, "--k", "3", "--check",
                  "--trace-out", out])
        assert [handle.name for handle in cli_opens] == [out]
        assert all(handle.closed for handle in cli_opens)

    def test_malformed_trace_out_exits_2(self, data_file, tmp_path, capsys):
        bad = str(tmp_path / "no" / "such" / "dir" / "trace.json")
        assert main(
            ["topk", "--input", data_file, "--k", "3", "--trace-out", bad]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # fails before the join runs
        assert "cannot write trace output" in captured.err


class TestTraceCommand:
    def test_tree_on_stdout_artifacts_on_disk(
        self, data_file, tmp_path, capsys
    ):
        prom = str(tmp_path / "metrics.prom")
        payload_path = str(tmp_path / "trace.json")
        assert main(
            ["trace", "--input", data_file, "--k", "3",
             "--prom-out", prom, "--json-out", payload_path]
        ) == 0
        captured = capsys.readouterr()
        assert "topk_join" in captured.out
        assert "results in" in captured.err  # summary goes to stderr
        prom_text = open(prom).read()
        assert "# TYPE repro_candidates_total counter" in prom_text
        payload = json.loads(open(payload_path).read())
        assert payload["phase_tree"]["roots"][0]["name"] == "topk_join"

    def test_python_kernel_reports_one_kernel_scan_call_per_event(
        self, data_file, tmp_path, capsys
    ):
        prom = tmp_path / "metrics.prom"
        assert main(
            ["trace", "--input", data_file, "--k", "3", "--accel", "python",
             "--prom-out", str(prom)]
        ) == 0
        assert "kernel_scan" in capsys.readouterr().out
        values = {}
        for line in prom.read_text().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        calls = values['repro_phase_calls_total{phase="kernel_scan"}']
        # Every event the loop processes is one call; the event that
        # stops the loop makes none.
        events = values["repro_events_total"]
        assert calls >= 1 and events - 1 <= calls <= events

    def test_workload_and_input_are_mutually_exclusive(self):
        # (argparse only flags the conflict when the explicit value
        # differs from the default, hence "trec" rather than "dblp")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "--workload", "trec", "--input", "f"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.workload == "dblp"
        assert args.k == 100

    def test_bad_prom_out_exits_2(self, data_file, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "metrics.prom")
        assert main(
            ["trace", "--input", data_file, "--k", "2", "--prom-out", bad]
        ) == 2
        assert "cannot write trace output" in capsys.readouterr().err

    def test_bad_json_out_closes_earlier_outputs(
        self, data_file, tmp_path, capsys
    ):
        good = str(tmp_path / "metrics.prom")
        bad = str(tmp_path / "missing" / "trace.json")
        assert main(
            ["trace", "--input", data_file, "--k", "2",
             "--prom-out", good, "--json-out", bad]
        ) == 2
        assert "cannot write trace output" in capsys.readouterr().err


def _no_sockets(monkeypatch):
    import repro.oracle.differential as differential
    import repro.oracle.fuzz as fuzz

    monkeypatch.setattr(differential, "sockets_usable", lambda: False)
    monkeypatch.setattr(fuzz, "sockets_usable", lambda: False)


class TestFuzzCommand:
    """One report-printing path for the batch, stream and serve campaigns
    (``--stream`` has its own suite in test_stream_cli.py)."""

    def test_batch_smoke_run_passes(self, tmp_path, capsys):
        assert main(
            ["fuzz", "--seed", "1", "--iters", "5",
             "--corpus-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "# fuzz seed=1: 5 iterations in " in err
        assert "0 failure(s)" in err

    def test_serve_smoke_run_passes(self, tmp_path, capsys):
        from repro.oracle.differential import sockets_usable

        if not sockets_usable():
            pytest.skip("cannot bind local sockets")
        assert main(
            ["fuzz", "--serve", "--iters", "3", "--corpus-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "# serve fuzz seed=0: 3 adversarial session(s) in " in err

    def test_stream_and_serve_together_exit_2(self, capsys):
        assert main(["fuzz", "--stream", "--serve"]) == 2
        assert "choose one of" in capsys.readouterr().err

    def test_serve_rejects_backends(self, capsys):
        assert main(["fuzz", "--serve", "--backends", "x"]) == 2
        assert "--backends does not apply" in capsys.readouterr().err

    def test_failures_are_reported_and_saved(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.oracle.differential as differential
        from repro.oracle.faults import OffByOneIndexingBound

        monkeypatch.setattr(
            differential, "similarity_by_name",
            lambda name: OffByOneIndexingBound(),
        )
        assert main(
            ["fuzz", "--seed", "1", "--iters", "1", "--backends",
             "sequential", "--corpus-dir", str(tmp_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "1 failure(s)" in err
        assert "FAIL iteration=0 generator=blocks k=1 " in err
        assert " -> %s" % tmp_path in err
        assert "sequential: runtime invariant" in err
        assert list(tmp_path.glob("case_*.json"))

    def test_serve_without_sockets_says_skipped(
        self, tmp_path, capsys, monkeypatch
    ):
        _no_sockets(monkeypatch)
        assert main(
            ["fuzz", "--serve", "--iters", "3", "--corpus-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "skipped: loopback sockets unusable" in err
        assert "adversarial session(s)" not in err

    def test_replay_without_sockets_says_skipped(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.oracle.fuzz import ServeCase, save_corpus_case

        save_corpus_case(str(tmp_path), ServeCase.make([b"junk\n"]), [])
        _no_sockets(monkeypatch)
        assert main(
            ["fuzz", "--replay", "--corpus-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "1 serve session(s) skipped: loopback sockets unusable" in err


class TestPathErrors:
    """A path the command cannot read or write is a usage error: one
    ``repro <cmd>: ...`` line on stderr and exit 2, never a traceback."""

    CASES = {
        "topk": ["--input", "{missing}", "--k", "3"],
        "threshold": ["--input", "{missing}", "--threshold", "0.5"],
        "stats": ["--input", "{missing}"],
        "trace": ["--input", "{missing}", "--k", "3"],
        "generate": ["--dataset", "dblp", "--n", "20",
                     "--output", "{missing}/data.txt"],
        # Exit 1 means findings, so the report path fails before linting.
        "lint": ["{src}", "--sarif", "{missing}/lint.sarif"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exits_2_with_one_line(self, command, tmp_path, capsys):
        paths = {"missing": str(tmp_path / "missing"), "src": str(tmp_path)}
        argv = [arg.format(**paths) for arg in self.CASES[command]]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro %s: " % command)
        assert str(tmp_path / "missing") in lines[0]

    def test_generate_checks_output_before_generating(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        calls = []
        monkeypatch.setitem(
            cli._GENERATORS, "dblp", lambda *args, **kw: calls.append(args)
        )
        output = str(tmp_path / "missing" / "data.txt")
        argv = ["--dataset", "dblp", "--n", "20", "--output", output]
        assert main(["generate", *argv]) == 2
        message = capsys.readouterr().err
        assert output in message
        assert ".tmp" not in message
        assert calls == []
