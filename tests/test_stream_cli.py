"""Tests for ``repro stream`` and ``repro fuzz --stream``."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.oracle.invariants import InvariantViolation, StreamCheckHooks


@pytest.fixture
def trace_file(tmp_path):
    """The bound-relaxation trace: the expiry kills both top-2 pairs."""
    path = tmp_path / "trace.txt"
    path.write_text(
        "# relaxation trace\n"
        "+ 1 2 3\n"
        "+ 1 2 3\n"
        "+ 1 2\n"
        "-\n"
        "+ 4 5\n"
    )
    return str(path)


class TestStreamParser:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["stream", "--input", "t", "--k", "5"]
        )
        assert args.window == 0
        assert args.policy == "count"
        assert args.mode == "incremental"
        assert not args.check and not args.quiet

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--input", "t", "--k", "5", "--policy", "tumble"]
            )

    def test_fuzz_stream_flag(self):
        args = build_parser().parse_args(["fuzz", "--stream"])
        assert args.stream


class TestStreamCommand:
    def test_replay_emits_deltas_and_final_topk(self, trace_file, capsys):
        assert main(
            ["stream", "--input", trace_file, "--k", "2", "--window", "3",
             "--check"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        actions = [line.split("\t")[0] for line in lines]
        assert "enter" in actions and "leave" in actions
        assert "# final top-2" in lines
        final = lines[lines.index("# final top-2") + 1:]
        assert len(final) == 2
        assert "refills" in captured.err

    def test_stdin_replay(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("1 2 3\n2 3 4\n")
        )
        assert main(["stream", "--input", "-", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "# final top-1" in out

    def test_dataset_file_is_an_insert_only_stream(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1 2 3\n1 2 3\n7 8\n")
        assert main(
            ["stream", "--input", str(data), "--k", "2", "--quiet"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "# final top-2"

    def test_quiet_suppresses_deltas(self, trace_file, capsys):
        assert main(
            ["stream", "--input", trace_file, "--k", "2", "--quiet"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(
            not line.startswith(("enter", "leave")) for line in lines
        )

    def test_prom_out_writes_stream_metrics(self, trace_file, tmp_path,
                                            capsys):
        prom = tmp_path / "stream.prom"
        assert main(
            ["stream", "--input", trace_file, "--k", "2", "--window", "3",
             "--prom-out", str(prom)]
        ) == 0
        text = prom.read_text()
        assert "repro_stream_inserts_total 4" in text
        assert "repro_stream_refills_total" in text
        capsys.readouterr()

    def test_trace_prints_phase_tree_to_stderr(self, trace_file, capsys):
        assert main(
            ["stream", "--input", trace_file, "--k", "2", "--window", "3",
             "--trace"]
        ) == 0
        err = capsys.readouterr().err
        assert "stream_ingest" in err
        assert "stream_close" in err

    def test_recompute_mode_agrees_with_incremental(self, trace_file,
                                                    capsys):
        # Pairs tied at the k-th similarity are interchangeable between
        # modes, so compare the similarity multisets, not raw bytes.
        outputs = {}
        for mode in ("incremental", "recompute"):
            assert main(
                ["stream", "--input", trace_file, "--k", "2", "--window",
                 "3", "--mode", mode, "--quiet"]
            ) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            outputs[mode] = [
                line.split("\t")[0] for line in lines if "\t" in line
            ]
        assert outputs["incremental"] == outputs["recompute"]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(
            ["stream", "--input", str(tmp_path / "nope.txt"), "--k", "1"]
        ) == 2
        assert "repro stream" in capsys.readouterr().err

    def test_bad_event_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("+ 1 2\nwalrus\n")
        assert main(["stream", "--input", str(path), "--k", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_integral_advance_under_count_exits_2(self, tmp_path,
                                                      capsys):
        path = tmp_path / "frac.txt"
        path.write_text("+ 1 2\n> 1.5\n")
        assert main(
            ["stream", "--input", str(path), "--k", "1", "--window", "2"]
        ) == 2
        assert "integral" in capsys.readouterr().err

    def test_failed_check_closes_the_input_and_prom_out(
        self, trace_file, tmp_path, monkeypatch, cli_opens
    ):
        def fail(self, engine):
            raise InvariantViolation("stream-trim-head", "seeded failure")

        monkeypatch.setattr(StreamCheckHooks, "after_event", fail)
        prom = str(tmp_path / "m.prom")
        with pytest.raises(InvariantViolation):
            main(["stream", "--input", trace_file, "--k", "2", "--check",
                  "--prom-out", prom])
        assert sorted(handle.name for handle in cli_opens) == sorted(
            [trace_file, prom]
        )
        assert all(handle.closed for handle in cli_opens)

    def test_unwritable_prom_out_exits_2(self, trace_file, tmp_path,
                                         capsys):
        target = tmp_path / "missing-dir" / "m.prom"
        assert main(
            ["stream", "--input", trace_file, "--k", "2", "--prom-out",
             str(target)]
        ) == 2
        assert "cannot write" in capsys.readouterr().err


class TestFuzzStream:
    def test_smoke_run_passes(self, tmp_path, capsys):
        assert main(
            ["fuzz", "--stream", "--seed", "1", "--iters", "8",
             "--corpus-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "stream fuzz seed=1" in err
        assert "8 iterations" in err

    def test_backend_subset(self, tmp_path, capsys):
        assert main(
            ["fuzz", "--stream", "--seed", "2", "--iters", "4",
             "--backends", "stream-incremental,stream-recompute",
             "--corpus-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()

    def test_unknown_stream_backend_exits_2(self, capsys):
        assert main(
            ["fuzz", "--stream", "--backends", "stream-walrus"]
        ) == 2
        assert "unknown backends" in capsys.readouterr().err

    def test_batch_backend_invalid_in_stream_mode(self, capsys):
        assert main(["fuzz", "--stream", "--backends", "sequential"]) == 2
        capsys.readouterr()

    def test_replay_covers_stream_corpus(self, tmp_path, capsys):
        from repro.oracle.differential import StreamCase
        from repro.oracle.fuzz import save_corpus_case
        from repro.stream.events import StreamEvent

        case = StreamCase.make(
            [StreamEvent.insert([1, 2]), StreamEvent.insert([1, 2])], k=1
        )
        save_corpus_case(str(tmp_path), case, [])
        assert main(
            ["fuzz", "--stream", "--replay", "--corpus-dir", str(tmp_path)]
        ) == 0
        assert "all cases pass" in capsys.readouterr().err
