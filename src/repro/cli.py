"""Command-line interface.

Subcommands::

    python -m repro topk      --input data.txt --k 100 [--similarity jaccard]
                              [--check]
                              [--accel on|python|numpy|off]
                              [--sig-bits 64|128|256|512]
                              [--trace] [--trace-out trace.json]
    python -m repro trace     [--workload dblp | --input data.txt] [--k 100]
                              [--prom-out m.prom] [--json-out trace.json]
    python -m repro threshold --input data.txt --threshold 0.8 [--algorithm ppjoin+]
    python -m repro generate  --dataset dblp --n 2000 --output data.txt
    python -m repro stats     --input data.txt
    python -m repro fuzz      --seed 0 --iters 200 [--budget 60]
                              [--corpus-dir tests/corpus] [--replay]
                              [--stream | --serve]
    python -m repro stream    --input events.txt|- --k 10 [--window 50]
                              [--policy count|time]
                              [--mode incremental|recompute] [--check]
                              [--quiet] [--prom-out m.prom] [--trace]
    python -m repro serve     --k 10 [--host 127.0.0.1] [--port 0]
                              [--window 50] [--policy count|time]
                              [--queue-limit 256] [--degradation reject|shed]
                              [--read-timeout 30] [--idle-timeout 300]
                              [--ingest-delay 0] [--check]
    python -m repro bench     --json [--k 100]  (hot-path baseline JSON)
    python -m repro lint      [paths...] [--select ids] [--ignore ids]
                              [--json] [--sarif out.json] [--list]

Input files hold one record per line, tokens separated by spaces (use
``--qgram Q`` to treat each line as raw text tokenized into q-grams).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import os
import sys
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    TextIO,
    Tuple,
)

from .core.metrics import TopkStats
from .core.topk_join import TopkOptions, topk_join
from .data.io import load_token_file, save_token_file
from .data.records import RecordCollection
from .data.stats import dataset_statistics
from .data.synthetic import dblp_like, trec3_like, trec_like, uniref3_like
from .data.tokenize import tokenize_qgrams
from .joins import threshold_join
from .result import JoinResult
from .similarity.functions import similarity_by_name

if TYPE_CHECKING:
    from .obs import Tracer

__all__ = ["main"]

_GENERATORS = {
    "dblp": dblp_like,
    "trec": trec_like,
    "trec-3gram": trec3_like,
    "uniref-3gram": uniref3_like,
}


def _load(path: str, qgram: Optional[int]) -> RecordCollection:
    token_lists = load_token_file(path)
    if qgram:
        token_lists = [
            tokenize_qgrams(" ".join(tokens), q=qgram)
            for tokens in token_lists
        ]
    return RecordCollection.from_token_lists(token_lists)


def _print_results(
    collection: RecordCollection, results: List[JoinResult], limit: int
) -> None:
    for result in results[:limit]:
        x = collection[result.x]
        y = collection[result.y]
        print(
            "%.6f\t%d\t%d\t%s\t%s"
            % (
                result.similarity,
                x.source_id,
                y.source_id,
                collection.strings(x),
                collection.strings(y),
            )
        )


def _open_output(stack: contextlib.ExitStack, path: str, what: str) -> TextIO:
    """Open *path* for writing, entered on *stack* so it is closed
    however the command ends.  Commands open their outputs before doing
    any work, so a bad path fails fast; the ``OSError`` names the output
    and :func:`main` turns it into exit code 2.
    """
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as error:
        raise OSError("cannot write %s %s: %s" % (what, path, error)) from error


def _open_trace_outputs(
    stack: contextlib.ExitStack,
    specs: List[Tuple[Optional[str], Callable[["Tracer"], str]]],
) -> List[Tuple[TextIO, Callable[["Tracer"], str]]]:
    """Open every requested trace output (see :func:`_open_output`)."""
    return [
        (_open_output(stack, path, "trace output"), renderer)
        for path, renderer in specs
        if path
    ]


def _summary_line(
    results: List[JoinResult], elapsed: float, stats: TopkStats
) -> str:
    return (
        "# %d results in %.3fs (%d events, %d candidates, %d verifications)"
        % (len(results), elapsed, stats.events, stats.candidates,
           stats.verifications)
    )


def _cmd_topk(args: argparse.Namespace) -> int:
    from .obs import (
        Tracer,
        maybe_profile,
        render_phase_tree,
        to_json,
        to_prometheus_text,
    )

    collection = _load(args.input, args.qgram)
    sim = similarity_by_name(args.similarity)
    stats = TopkStats()
    tracer: Optional[Tracer] = None
    with contextlib.ExitStack() as stack:
        outputs: List[Tuple[TextIO, Callable[[Tracer], str]]] = []
        if args.trace or args.trace_out:
            tracer = Tracer()
            if args.trace_out:
                renderer = (
                    to_json if args.trace_out.endswith(".json")
                    else to_prometheus_text
                )
                outputs = _open_trace_outputs(
                    stack, [(args.trace_out, renderer)]
                )
        options = TopkOptions(
            maxdepth=args.maxdepth, check_invariants=args.check,
            accel=args.accel, sig_bits=args.sig_bits, trace=tracer,
        )
        start = time.perf_counter()
        with maybe_profile(tracer):
            results = topk_join(
                collection, args.k, similarity=sim, options=options,
                stats=stats,
            )
        elapsed = time.perf_counter() - start
        _print_results(collection, results, args.k)
        if tracer is not None:
            sys.stderr.write(render_phase_tree(tracer))
            for handle, render in outputs:
                handle.write(render(tracer))
    print(_summary_line(results, elapsed, stats), file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        Tracer,
        maybe_profile,
        render_phase_tree,
        to_json,
        to_prometheus_text,
    )

    if args.input:
        collection = _load(args.input, args.qgram)
        sim = similarity_by_name(args.similarity)
        maxdepth = args.maxdepth
    else:
        from .bench.workloads import workload

        bench = workload(args.workload)
        collection = bench.factory()
        sim = bench.similarity
        maxdepth = bench.maxdepth
    with contextlib.ExitStack() as stack:
        outputs = _open_trace_outputs(
            stack,
            [(args.prom_out, to_prometheus_text), (args.json_out, to_json)],
        )
        tracer = Tracer()
        stats = TopkStats()
        options = TopkOptions(
            maxdepth=maxdepth, accel=args.accel, sig_bits=args.sig_bits,
            trace=tracer,
        )
        start = time.perf_counter()
        with maybe_profile(tracer):
            results = topk_join(
                collection, args.k, similarity=sim, options=options,
                stats=stats,
            )
        elapsed = time.perf_counter() - start
        sys.stdout.write(render_phase_tree(tracer))
        for handle, render in outputs:
            handle.write(render(tracer))
    print(_summary_line(results, elapsed, stats), file=sys.stderr)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    collection = _load(args.input, args.qgram)
    sim = similarity_by_name(args.similarity)
    start = time.perf_counter()
    results = threshold_join(
        collection, args.threshold, similarity=sim, algorithm=args.algorithm
    )
    elapsed = time.perf_counter() - start
    _print_results(collection, results, len(results))
    print(
        "# %d results in %.3fs (%s, t=%.3f)"
        % (len(results), elapsed, args.algorithm, args.threshold),
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    # save_token_file writes a temporary file beside the output and
    # renames it, so the output's directory is what must be writable;
    # check it before generating, and name the path given either way.
    directory = os.path.dirname(os.path.abspath(args.output))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(
            "cannot write output %s: no writable directory %s"
            % (args.output, directory)
        )
    generator = _GENERATORS[args.dataset]
    collection = generator(args.n, seed=args.seed)
    token_lists = [
        [str(token) for token in record.tokens] for record in collection
    ]
    try:
        save_token_file(args.output, token_lists)
    except OSError as error:
        raise OSError(
            "cannot write output %s: %s" % (args.output, error.strerror)
        ) from error
    print(
        "# wrote %d records (avg size %.1f, |U|=%d) to %s"
        % (
            len(collection),
            collection.average_size,
            collection.universe_size,
            args.output,
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    collection = _load(args.input, args.qgram)
    stats = dataset_statistics(args.input, collection)
    print("records       : %d" % stats.record_count)
    print("average size  : %.2f" % stats.average_size)
    print("universe size : %d" % stats.universe_size)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .oracle import BATCH, SERVE, STREAM, fuzz_run, replay_corpus
    from .oracle.differential import (
        available_backends,
        available_stream_backends,
        sockets_usable,
    )

    if args.serve and args.stream:
        print("choose one of --stream / --serve", file=sys.stderr)
        return 2
    if args.serve and args.backends:
        print(
            "serve fuzzing drives the daemon itself; --backends does not "
            "apply",
            file=sys.stderr,
        )
        return 2
    valid = (
        available_stream_backends() if args.stream else available_backends()
    )
    backends = None
    if args.backends:
        backends = [name.strip() for name in args.backends.split(",")]
        unknown = set(backends) - set(valid)
        if unknown:
            print(
                "unknown backends: %s (choose from %s)"
                % (", ".join(sorted(unknown)), ", ".join(valid)),
                file=sys.stderr,
            )
            return 2

    if args.replay:
        failing = replay_corpus(
            args.corpus_dir,
            backends=None if args.stream else backends,
            stream_backends=backends if args.stream else None,
        )
        if failing:
            for path, failures in failing:
                print("FAIL %s" % path, file=sys.stderr)
                for message in failures:
                    print("  %s" % message, file=sys.stderr)
            return 1
        print("# corpus %s: all cases pass" % args.corpus_dir, file=sys.stderr)
        pattern = os.path.join(args.corpus_dir, SERVE.prefix + "*.json")
        unrun = [] if sockets_usable() else glob.glob(pattern)
        if unrun:
            print(
                "# corpus %s: %d serve session(s) skipped: loopback sockets "
                "unusable" % (args.corpus_dir, len(unrun)),
                file=sys.stderr,
            )
        return 0

    flavor = SERVE if args.serve else STREAM if args.stream else BATCH
    report = fuzz_run(
        flavor,
        seed=args.seed,
        iterations=args.iters,
        budget=args.budget,
        max_records=args.max_records,
        backends=backends,
        corpus_dir=args.corpus_dir,
    )
    if not report.sockets:
        print(
            "# %s seed=%d: skipped: loopback sockets unusable"
            % (flavor.title, args.seed),
            file=sys.stderr,
        )
        return 0
    print(
        "# %s seed=%d: %d %s in %.1fs, %d failure(s)"
        % (flavor.title, args.seed, report.iterations,
           "adversarial session(s)" if args.serve else "iterations",
           report.elapsed, len(report.failures)),
        file=sys.stderr,
    )
    for iteration, generator, case, failures, path in report.failures:
        print(
            "FAIL iteration=%d generator=%s %s%s"
            % (iteration, generator, flavor.describe(case),
               " -> %s" % path if path else ""),
            file=sys.stderr,
        )
        for message in failures:
            print("  %s" % message, file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .obs import Tracer, render_phase_tree
    from .stream.engine import StreamingTopkEngine
    from .stream.events import read_events

    sim = similarity_by_name(args.similarity)
    tracer: Optional["Tracer"] = None
    if args.trace:
        tracer = Tracer()
    options = TopkOptions(
        check_invariants=args.check,
        accel=args.accel,
        sig_bits=args.sig_bits,
        trace=tracer,
        window_size=args.window,
        window_policy=args.policy,
    )
    try:
        engine = StreamingTopkEngine(
            args.k, similarity=sim, options=options, mode=args.mode
        )
    except ValueError as error:
        print("repro stream: %s" % error, file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        prom_handle: Optional[TextIO] = None
        if args.prom_out:
            prom_handle = _open_output(stack, args.prom_out, "metrics output")

        if args.input == "-":
            source: TextIO = sys.stdin
        else:
            source = stack.enter_context(open(args.input, "r", encoding="utf-8"))

        start = time.perf_counter()
        events = 0
        try:
            with engine:
                for event in read_events(source):
                    deltas = engine.apply(event)
                    events += 1
                    if not args.quiet:
                        for delta in deltas:
                            print(
                                "%s\t%d\t%d\t%.6f"
                                % (delta.action, delta.x, delta.y,
                                   delta.similarity)
                            )
        except ValueError as error:
            print("repro stream: %s" % error, file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start

        print("# final top-%d" % args.k)
        for result in engine.results():
            print("%.6f\t%d\t%d" % (result.similarity, result.x, result.y))
        if prom_handle is not None:
            prom_handle.write(engine.metrics_text())
    if tracer is not None:
        sys.stderr.write(render_phase_tree(tracer))
    stats = engine.stats
    print(
        "# %d events in %.3fs (%d inserts, %d expirations, %d refills, "
        "%d live, s_k=%.6f)"
        % (events, elapsed, stats.inserts, stats.expirations,
           stats.refills, engine.window_live, engine.s_k),
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ServeOptions, TopkServer
    from .stream.engine import StreamingTopkEngine

    sim = similarity_by_name(args.similarity)
    options = TopkOptions(
        check_invariants=args.check,
        accel=args.accel,
        sig_bits=args.sig_bits,
        window_size=args.window,
        window_policy=args.policy,
    )
    try:
        engine = StreamingTopkEngine(
            args.k, similarity=sim, options=options, mode=args.mode
        )
        server = TopkServer(
            engine,
            ServeOptions(
                host=args.host,
                port=args.port,
                queue_limit=args.queue_limit,
                degradation=args.degradation,
                read_timeout=args.read_timeout,
                idle_timeout=args.idle_timeout,
                max_frame_bytes=args.max_frame_bytes,
                ingest_delay=args.ingest_delay,
            ),
        )
    except ValueError as error:
        print("repro serve: %s" % error, file=sys.stderr)
        return 2

    async def _amain() -> int:
        await server.start()
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            server.request_shutdown()

        # Handlers go in BEFORE the address is announced: a supervisor
        # that SIGTERMs the moment it reads the port must hit a graceful
        # drain, not the default killing disposition.
        installed: List[int] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _on_signal)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                signal.signal(
                    signum,
                    lambda *_: loop.call_soon_threadsafe(_on_signal),
                )
        host, port = server.address
        print("# serving on %s:%d" % (host, port), file=sys.stderr)
        sys.stderr.flush()
        try:
            await server.wait_closed()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
        stats = server.stats
        print(
            "# served %d request(s) on %d connection(s) "
            "(%d accepted, %d shed, %d rejected, %d error(s))"
            % (stats.requests, stats.connections, stats.accepted,
               stats.shed, stats.rejected, stats.errors),
            file=sys.stderr,
        )
        return 0

    try:
        return asyncio.run(_amain())
    except KeyboardInterrupt:
        return 0


#: Experiment id -> (description, runner).  Runners print to stdout.
def _experiment_registry() -> Dict[str, Tuple[str, Callable[[], None]]]:
    from .bench import (
        figure3a_rows,
        figure3bc_rows,
        figure4_rows,
        figure5a_rows,
        format_table,
        table1_rows,
        table2_rows,
    )

    def table1() -> None:
        print(format_table(["dataset", "N", "avg size", "|U|"], table1_rows()))

    def table2() -> None:
        print(format_table(["threshold", "results"], table2_rows()))

    def figure3a() -> None:
        print(
            format_table(
                ["k", "optimized", "record-all"], figure3a_rows()
            )
        )

    def figure3bc() -> None:
        print(
            format_table(
                ["k", "entries (opt)", "entries (w/o)",
                 "s (opt)", "s (w/o)"],
                figure3bc_rows(),
            )
        )

    def figure4(name: str) -> Callable[[], None]:
        def run() -> None:
            print(
                format_table(
                    ["k", "verified (topk)", "verified (pptopk)",
                     "s (topk)", "s (pptopk)"],
                    figure4_rows(name),
                )
            )
        return run

    def figure5a() -> None:
        print(format_table(["k", "verifications/record"], figure5a_rows()))

    return {
        "table1": ("Table I — dataset statistics", table1),
        "table2": ("Table II — pptopk round sizes", table2),
        "figure3a": ("Fig. 3a — verification opt", figure3a),
        "figure3bc": ("Fig. 3b/c — indexing opt", figure3bc),
        "figure4-dblp": ("Fig. 4a/d — DBLP panel", figure4("dblp")),
        "figure4-trec": ("Fig. 4b/e — TREC panel", figure4("trec")),
        "figure4-trec3": (
            "Fig. 4c/f — TREC-3GRAM panel", figure4("trec-3gram")
        ),
        "figure5a": ("Fig. 5a — verifications per record", figure5a),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.json:
        import json

        from .bench.baseline import measure_baseline, speedup_of

        report = measure_baseline(k_values=args.k or None)
        json.dump(report, sys.stdout, indent=2)
        print()
        ratio = speedup_of(report)
        if ratio is not None:
            print(
                "# accel speedup at default k: %.2fx" % ratio,
                file=sys.stderr,
            )
        return 0
    registry = _experiment_registry()
    if args.list:
        for name, (description, __) in sorted(registry.items()):
            print("%-15s %s" % (name, description))
        return 0
    if args.experiment is None:
        print("choose --experiment or --list", file=sys.stderr)
        return 2
    try:
        description, runner = registry[args.experiment]
    except KeyError:
        print(
            "unknown experiment %r (see --list)" % args.experiment,
            file=sys.stderr,
        )
        return 2
    start = time.perf_counter()
    print("# %s" % description)
    runner()
    print(
        "# completed in %.1fs" % (time.perf_counter() - start),
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis import (
        UnknownCheckerError,
        all_checkers,
        lint_paths,
        selected_checker_ids,
    )
    from .analysis.engine import report_to_json
    from .analysis.sarif import to_sarif

    if args.list:
        for checker in all_checkers():
            print("%-18s %s" % (checker.id, checker.description))
        return 0

    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore)
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    try:
        active = selected_checker_ids(select=select, ignore=ignore)
    except UnknownCheckerError as error:
        print("repro lint: %s" % error, file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        # Opened before linting: exit 1 means findings, so an unwritable
        # report path must fail (exit 2) before any finding is counted.
        sarif = _open_output(stack, args.sarif, "SARIF output") if args.sarif else None
        findings, files = lint_paths(paths, select=select, ignore=ignore)
        if sarif is not None:
            json.dump(to_sarif(findings, active), sarif, indent=2)
            sarif.write("\n")
    if args.json:
        json.dump(report_to_json(findings, files, active), sys.stdout, indent=2)
        print()
    else:
        for finding in findings:
            print(finding.render())
        print(
            "# repro lint: %d finding(s) in %d file(s), %d checker(s)"
            % (len(findings), files, len(active)),
            file=sys.stderr,
        )
    return 1 if findings else 0


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k set similarity joins (ICDE 2009 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_io(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--input", required=True, help="token file path")
        sub.add_argument(
            "--qgram", type=int, default=None, metavar="Q",
            help="re-tokenize each line into character q-grams",
        )
        sub.add_argument(
            "--similarity", default="jaccard",
            choices=["jaccard", "cosine", "dice", "overlap"],
        )

    topk = commands.add_parser("topk", help="top-k similarity join")
    add_io(topk)
    topk.add_argument("--k", type=int, required=True)
    topk.add_argument("--maxdepth", type=int, default=2,
                      help="suffix-filter depth (2 words, 4 q-grams)")
    topk.add_argument("--check", action="store_true",
                      help="assert the paper's runtime invariants while "
                           "joining (slow; also via REPRO_CHECK=1)")
    topk.add_argument("--accel", default="on",
                      choices=["on", "python", "numpy", "off"],
                      help="hot-path acceleration: 'on' picks the best "
                           "available kernel, 'off' runs the historical "
                           "loop (ablation baseline)")
    topk.add_argument("--sig-bits", type=int, default=128, dest="sig_bits",
                      choices=[64, 128, 256, 512],
                      help="bitmap signature width in bits: wider prunes "
                           "more candidates but costs more memory "
                           "bandwidth per probe")
    topk.add_argument("--trace", action="store_true",
                      help="trace phase timings and print a phase-time "
                           "tree to stderr after the results")
    topk.add_argument("--trace-out", default=None, metavar="PATH",
                      help="also write the trace to PATH (.json -> full "
                           "JSON payload, anything else -> Prometheus "
                           "text exposition); implies --trace")
    topk.set_defaults(handler=_cmd_topk)

    trace = commands.add_parser(
        "trace",
        help="run a traced top-k join and report where the time went",
    )
    source = trace.add_mutually_exclusive_group()
    source.add_argument("--workload", default="dblp",
                        choices=sorted(_GENERATORS),
                        help="named benchmark workload (dataset + "
                             "similarity + maxdepth, see bench.workloads)")
    source.add_argument("--input", default=None,
                        help="token file path instead of a named workload")
    trace.add_argument("--qgram", type=int, default=None, metavar="Q",
                       help="with --input: re-tokenize each line into "
                            "character q-grams")
    trace.add_argument("--similarity", default="jaccard",
                       choices=["jaccard", "cosine", "dice", "overlap"],
                       help="with --input: similarity function "
                            "(workloads fix their own)")
    trace.add_argument("--maxdepth", type=int, default=2,
                       help="with --input: suffix-filter depth")
    trace.add_argument("--k", type=int, default=100)
    trace.add_argument("--accel", default="on",
                       choices=["on", "python", "numpy", "off"])
    trace.add_argument("--sig-bits", type=int, default=128, dest="sig_bits",
                       choices=[64, 128, 256, 512],
                       help="bitmap signature width (see 'topk --sig-bits')")
    trace.add_argument("--prom-out", default=None, metavar="PATH",
                       help="write Prometheus text exposition to PATH")
    trace.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the JSON trace payload to PATH")
    trace.set_defaults(handler=_cmd_trace)

    threshold = commands.add_parser("threshold", help="threshold join")
    add_io(threshold)
    threshold.add_argument("--threshold", type=float, required=True)
    threshold.add_argument(
        "--algorithm", default="ppjoin+",
        choices=["naive", "all-pairs", "ppjoin", "ppjoin+"],
    )
    threshold.set_defaults(handler=_cmd_threshold)

    generate = commands.add_parser(
        "generate", help="emit a synthetic benchmark dataset"
    )
    generate.add_argument(
        "--dataset", required=True, choices=sorted(_GENERATORS)
    )
    generate.add_argument("--n", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True)
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="dataset statistics (Table I)")
    add_io(stats)
    stats.set_defaults(handler=_cmd_stats)

    fuzz = commands.add_parser(
        "fuzz",
        help="differentially fuzz every join backend against the oracle",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iters", type=int, default=200,
                      help="number of generated cases")
    fuzz.add_argument("--budget", type=float, default=None,
                      help="wall-clock budget in seconds")
    fuzz.add_argument("--max-records", type=int, default=28,
                      help="records per generated collection")
    fuzz.add_argument("--backends", default=None,
                      help="comma-separated backend subset (default: all)")
    fuzz.add_argument("--corpus-dir", default="tests/corpus",
                      help="where shrunk failures are saved / replayed from")
    fuzz.add_argument("--replay", action="store_true",
                      help="re-run the saved corpus instead of fuzzing")
    fuzz.add_argument("--stream", action="store_true",
                      help="fuzz the sliding-window streaming engine with "
                           "random insert/expire/advance traces instead of "
                           "the batch backends")
    fuzz.add_argument("--serve", action="store_true",
                      help="throw adversarial byte sessions (malformed "
                           "frames, junk bytes, truncations, oversized "
                           "payloads, mid-request disconnects) at a live "
                           "in-process daemon and assert it never crashes")
    fuzz.set_defaults(handler=_cmd_fuzz)

    stream = commands.add_parser(
        "stream",
        help="replay an event trace through the sliding-window top-k "
             "engine, emitting result deltas",
    )
    stream.add_argument("--input", required=True,
                        help="event trace path, or '-' for stdin (one "
                             "event per line: '+ 1 2 3' inserts, '- 2' "
                             "expires, '> 1.5' advances; bare token lines "
                             "insert, so any dataset file replays as an "
                             "insert-only stream)")
    stream.add_argument("--k", type=int, required=True)
    stream.add_argument("--similarity", default="jaccard",
                        choices=["jaccard", "cosine", "dice", "overlap"])
    stream.add_argument("--window", type=int, default=0,
                        help="sliding-window size (0 = unbounded)")
    stream.add_argument("--policy", default="count",
                        choices=["count", "time"],
                        help="window policy: 'count' keeps the last "
                             "--window records, 'time' expires by the "
                             "stream clock moved with '>' events")
    stream.add_argument("--mode", default="incremental",
                        choices=["incremental", "recompute"],
                        help="'incremental' maintains the top-k via index "
                             "probes and bound relaxation; 'recompute' "
                             "re-runs the batch join after every mutation "
                             "(the reference twin)")
    stream.add_argument("--accel", default="on",
                        choices=["on", "python", "numpy", "off"])
    stream.add_argument("--sig-bits", type=int, default=128, dest="sig_bits",
                        choices=[64, 128, 256, 512],
                        help="bitmap signature width (see 'topk --sig-bits')")
    stream.add_argument("--check", action="store_true",
                        help="assert the streaming runtime invariants "
                             "after every event (slow; also via "
                             "REPRO_CHECK=1)")
    stream.add_argument("--quiet", action="store_true",
                        help="suppress per-event delta lines; print only "
                             "the final top-k")
    stream.add_argument("--prom-out", default=None, metavar="PATH",
                        help="write Prometheus text exposition of the "
                             "stream metrics to PATH at end of stream")
    stream.add_argument("--trace", action="store_true",
                        help="trace ingest/expire/refill phase timings "
                             "and print the phase tree to stderr")
    stream.set_defaults(handler=_cmd_stream)

    serve = commands.add_parser(
        "serve",
        help="run the async streaming top-k daemon (newline-delimited "
             "JSON protocol plus GET /metrics on the same port)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 = ephemeral; the chosen port is "
                            "printed to stderr as '# serving on host:port')")
    serve.add_argument("--k", type=int, required=True)
    serve.add_argument("--similarity", default="jaccard",
                       choices=["jaccard", "cosine", "dice", "overlap"])
    serve.add_argument("--window", type=int, default=0,
                       help="sliding-window size (0 = unbounded)")
    serve.add_argument("--policy", default="count",
                       choices=["count", "time"],
                       help="window policy (see 'stream --policy')")
    serve.add_argument("--mode", default="incremental",
                       choices=["incremental", "recompute"],
                       help="engine mode (see 'stream --mode')")
    serve.add_argument("--accel", default="on",
                       choices=["on", "python", "numpy", "off"])
    serve.add_argument("--sig-bits", type=int, default=128, dest="sig_bits",
                       choices=[64, 128, 256, 512],
                       help="bitmap signature width (see 'topk --sig-bits')")
    serve.add_argument("--check", action="store_true",
                       help="assert the streaming runtime invariants after "
                            "every applied event (slow)")
    serve.add_argument("--queue-limit", type=int, default=256,
                       dest="queue_limit",
                       help="bounded ingestion queue depth; events beyond "
                            "it hit the degradation policy")
    serve.add_argument("--degradation", default="reject",
                       choices=["reject", "shed"],
                       help="overload policy: 'reject' refuses overflow "
                            "events with a structured error, 'shed' drops "
                            "them with an acknowledged tail-drop")
    serve.add_argument("--read-timeout", type=float, default=30.0,
                       dest="read_timeout",
                       help="seconds a client may stall mid-frame before "
                            "eviction (0 disables)")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       dest="idle_timeout",
                       help="seconds an unsubscribed client may idle "
                            "between frames before eviction (0 disables; "
                            "subscribers are exempt)")
    serve.add_argument("--max-frame-bytes", type=int, default=1 << 20,
                       dest="max_frame_bytes",
                       help="per-frame byte cap; larger frames are "
                            "refused with 'frame-too-large'")
    serve.add_argument("--ingest-delay", type=float, default=0.0,
                       dest="ingest_delay",
                       help="artificial per-event writer delay in seconds "
                            "(a chaos/testing knob for deterministic "
                            "backpressure; keep 0 in production)")
    serve.set_defaults(handler=_cmd_serve)

    bench = commands.add_parser(
        "bench", help="run one of the paper's experiments"
    )
    bench.add_argument("--experiment", default=None,
                       help="experiment id (see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list available experiments")
    bench.add_argument("--json", action="store_true",
                       help="measure the hot-path baseline workload and "
                            "print BENCH_3-format JSON (the same structure "
                            "the CI benchmark gate consumes)")
    bench.add_argument("--k", type=int, action="append", default=None,
                       help="with --json: restrict the k sweep (repeatable)")
    bench.set_defaults(handler=_cmd_bench)

    lint = commands.add_parser(
        "lint",
        help="run the domain-aware static-analysis checkers",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint "
                           "(default: ./src when it exists, else .)")
    lint.add_argument("--select", default=None, metavar="IDS",
                      help="comma-separated checker ids to run "
                           "(default: all; see --list)")
    lint.add_argument("--ignore", default=None, metavar="IDS",
                      help="comma-separated checker ids to skip")
    lint.add_argument("--json", action="store_true",
                      help="emit the findings as a JSON document")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="additionally write the findings as a SARIF "
                           "2.1.0 document to PATH (for GitHub code "
                           "scanning upload)")
    lint.add_argument("--list", action="store_true",
                      help="list the registered checkers and exit")
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as error:
        # A path named on the command line could not be read or written:
        # a usage error (exit 2), reported in one line, not a traceback.
        print("repro %s: %s" % (args.command, error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
