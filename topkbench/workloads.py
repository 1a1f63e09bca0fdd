"""The three closed-loop workloads.

Each workload generates its inputs from the seed, replays one fixed op
sequence, and checks the program's outputs after the timed loop.  Every
workload exposes the same hooks to the runner:

``setup(seed)``
    Build the inputs and start the program; returns ``(state, raw CPU
    seconds)``.
``op(state, index)``
    Run op *index* of the sequence; returns an :class:`OpSample`.
``boundary(done)`` / ``after_block(state, done)``
    End a block at a checkpoint and take the checkpoint outside timing.
``counters(state)``
    The program's counters over the fixed op window (below).
``finish(state)`` / ``check(state, ops)``
    Stop the program after the loop; check the outputs, returning the
    failed op count and the failure messages.
``close(state)``
    Stop the program of a set-up that will not be measured.

``counter_ops`` fixes the op window the counters cover: the counters of
ops ``[0, counter_ops)`` must repeat exactly across runs of one seed,
whatever speed the box or the program runs at.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

from measure import OpSample

from repro.core.metrics import TopkStats
from repro.core.topk_join import TopkOptions
from repro.data.synthetic import dblp_like
from repro.oracle.reference import assert_topk_equivalent, naive_window_topk
from repro.result import JoinResult
from repro.serve import InProcessDaemon, ServeClient, ServeOptions
from repro.stream.engine import StreamingTopkEngine

Rows = List[Tuple[int, int, float]]

HERE = os.path.dirname(os.path.abspath(__file__))

#: The join module (``repro.core`` re-exports a function of the same name).
core_join = importlib.import_module("repro.core.topk_join")


def _sub_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for __ in range(count)]


def _trace(records: int, seed: int) -> List[Tuple[int, ...]]:
    """A ``dblp_like`` collection as an arrival trace in ``source_id`` order."""
    collection = dblp_like(records, seed=seed)
    ordered = sorted(collection.records, key=lambda r: r.source_id)
    return [tuple(r.tokens) for r in ordered]


def _results(rows: Sequence[Sequence[Any]]) -> List[JoinResult]:
    return [JoinResult(int(x), int(y), float(s)) for x, y, s in rows]


def _counter_delta(after: Dict[str, float], before: Dict[str, float]
                   ) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _stats_dict(prefix: str, stats: Any) -> Dict[str, float]:
    """Numeric fields of a stats dataclass, keyed ``prefix.field``."""
    return {
        prefix + "." + field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if isinstance(getattr(stats, field.name), (int, float))
    }


class BatchDblp:
    """One op is one drained ``topk_join_iter`` at k=500 (NumPy kernel)."""

    name = "batch-dblp"
    records = 2000
    k = 500
    #: Collections in the cycle.  Join cost differs by tens of percent
    #: between seeds' collections, so a run averages several of them.
    collections = 4
    cycle = counter_ops = collections
    tail_pct = 75.0
    #: Oracle worker processes run at a time.
    workers = 2

    def __init__(self) -> None:
        self._oracle: Dict[int, Rows] = {}

    def setup(self, seed: int) -> Tuple[Dict[str, Any], float]:
        started = time.thread_time()
        seeds = _sub_seeds(seed, self.collections)
        state: Dict[str, Any] = {
            "seeds": seeds,
            "data": [dblp_like(self.records, seed=s) for s in seeds],
            "first": [None] * self.collections,
            "mismatched": [],
            "stats": [],
        }
        list(core_join.topk_join_iter(state["data"][0], self.k))  # warm-up
        return state, time.thread_time() - started

    def op(self, state: Dict[str, Any], index: int) -> OpSample:
        which = index % self.collections
        stats = TopkStats()
        rows: Rows = []
        first = None
        wall = time.perf_counter()
        started = time.thread_time()
        # Looked up per call so the traced run's wrapper is the one called.
        for r in core_join.topk_join_iter(
            state["data"][which], self.k, stats=stats
        ):
            if first is None:
                first = time.thread_time()
            rows.append((r.x, r.y, r.similarity))
        ended = time.thread_time()
        wall = time.perf_counter() - wall
        if state["first"][which] is None:
            state["first"][which] = rows
        elif rows != state["first"][which]:
            state["mismatched"].append(index)
        if index < self.counter_ops:
            state["stats"].append((stats, len(rows)))
        if first is None:
            first = ended
        # Every batch op is a read of a static collection.
        return OpSample("join", ended - started, first - started, wall,
                        read_s=ended - started)

    def boundary(self, done: int) -> bool:
        return False

    def after_block(self, state: Dict[str, Any], done: int) -> bool:
        return False

    def counters(self, state: Dict[str, Any]) -> Dict[str, float]:
        total: Dict[str, float] = {"core.results": 0}
        for stats, results in state["stats"]:
            total["core.results"] += results
            for key, value in _stats_dict("topk", stats).items():
                total[key] = total.get(key, 0) + value
        return total

    def finish(self, state: Dict[str, Any]) -> None:
        pass

    def close(self, state: Dict[str, Any]) -> None:
        pass

    def check(self, state: Dict[str, Any], ops: int) -> Tuple[int, List[str]]:
        """First join of each collection vs the oracle; later joins vs it."""
        missing = [s for s in state["seeds"] if s not in self._oracle]
        for first in range(0, len(missing), self.workers):
            batch = missing[first: first + self.workers]
            workers = [
                subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "oracle_worker.py"),
                     str(self.records), str(s), str(self.k)],
                    stdout=subprocess.PIPE,
                )
                for s in batch
            ]
            for s, worker in zip(batch, workers):
                out, __ = worker.communicate()
                if worker.returncode != 0:
                    raise RuntimeError("oracle worker failed for seed %d" % s)
                self._oracle[s] = [tuple(row) for row in json.loads(out)]
        failures: List[str] = []
        bad = set(state["mismatched"])
        for which, s in enumerate(state["seeds"]):
            try:
                assert_topk_equivalent(
                    _results(state["first"][which]),
                    _results(self._oracle[s]),
                    context="collection %d (seed %d)" % (which, s),
                )
            except AssertionError as error:
                failures.append(str(error))
                bad.update(range(which, ops, self.collections))
        if state["mismatched"]:
            failures.append("joins %s differ from their collection's first"
                            % sorted(state["mismatched"])[:10])
        return len(bad), failures


class StreamDblp:
    """One op is one ``insert`` that displaces the oldest of 500 records.

    The op sequence is a cycle of segments.  Segment *j* replays its own
    seed-generated 4,000-record trace from record ``offset``: it fills a
    fresh engine with 501 records (untimed; the last one already
    displaces the oldest), then times ``segment_ops`` inserts of the
    records that follow.  Refill cost differs by tens of percent between
    one trace and another, so a run samples a trace per segment rather
    than many windows of one trace.
    """

    name = "stream-dblp"
    records = 4000
    #: Traces (and segments) in the cycle.
    traces = 32
    #: Where a segment starts in its trace: late enough that the
    #: trace's near-duplicate structure has reached its steady state.
    offset = 3000
    window = 500
    k = 50
    segment_ops = 50
    cycle = segment_ops
    counter_ops = 4 * segment_ops
    tail_pct = 95.0

    def __init__(self) -> None:
        self._oracle: Dict[Tuple[int, int, int], Rows] = {}

    def _records(self, state: Dict[str, Any], which: int
                 ) -> List[Tuple[int, ...]]:
        """The records segment *which* replays, generated on first use."""
        part = state["parts"].get(which)
        if part is None:
            trace = _trace(self.records, state["seeds"][which])
            part = trace[self.offset:
                         self.offset + self.window + 1 + self.segment_ops]
            state["parts"][which] = part
        return part

    def _open_segment(self, state: Dict[str, Any], segment: int) -> None:
        which = segment % self.traces
        engine = StreamingTopkEngine(
            self.k, options=TopkOptions(window_size=self.window)
        )
        engine.open()
        for tokens in self._records(state, which)[: self.window + 1]:
            engine.insert(tokens)
        state.update(engine=engine, which=which, inserted=self.window + 1)

    def setup(self, seed: int) -> Tuple[Dict[str, Any], float]:
        started = time.thread_time()
        state: Dict[str, Any] = {
            "seed": seed,
            "seeds": _sub_seeds(seed, self.traces),
            "parts": {},
            "checkpoints": [],
            "totals": {},
        }
        self._open_segment(state, 0)
        return state, time.thread_time() - started

    @staticmethod
    def _snapshot(engine: StreamingTopkEngine) -> Dict[str, float]:
        snapshot = _stats_dict("stream", engine.stats)
        snapshot.update(_stats_dict("topk", engine.refill_stats))
        snapshot["core.results"] = len(engine.refill_stats.emits)
        return snapshot

    def op(self, state: Dict[str, Any], index: int) -> OpSample:
        if index == 0:
            state["totals"] = {}
            state["counters0"] = self._snapshot(state["engine"])
        engine = state["engine"]
        tokens = state["parts"][state["which"]][state["inserted"]]
        wall = time.perf_counter()
        started = time.thread_time()
        engine.insert(tokens)
        ended = time.thread_time()
        wall = time.perf_counter() - wall
        engine.results()
        read = time.thread_time() - ended
        state["inserted"] += 1
        return OpSample("insert", ended - started, ended - started, wall,
                        read_s=read)

    def boundary(self, done: int) -> bool:
        return done % self.segment_ops == 0

    def _end_segment(self, state: Dict[str, Any]) -> None:
        engine = state["engine"]
        state["checkpoints"].append(
            (state["which"], state["inserted"],
             [(r.x, r.y, r.similarity) for r in engine.results()])
        )
        delta = _counter_delta(self._snapshot(engine), state["counters0"])
        for key, value in delta.items():
            state["totals"][key] = state["totals"].get(key, 0) + value
        engine.close()

    def after_block(self, state: Dict[str, Any], done: int) -> bool:
        if done % self.segment_ops:
            return False
        self._end_segment(state)
        if done == self.counter_ops:
            state["counters"] = dict(state["totals"])
        self._open_segment(state, done // self.segment_ops)
        state["counters0"] = self._snapshot(state["engine"])
        return True

    def counters(self, state: Dict[str, Any]) -> Dict[str, float]:
        return state["counters"]

    def finish(self, state: Dict[str, Any]) -> None:
        state["engine"].close()

    def close(self, state: Dict[str, Any]) -> None:
        state["engine"].close()

    def check(self, state: Dict[str, Any], ops: int) -> Tuple[int, List[str]]:
        """Each segment's final window vs the brute-force window oracle."""
        failed = 0
        failures: List[str] = []
        for which, inserted, rows in state["checkpoints"]:
            part = state["parts"][which]
            key = (state["seed"], which, inserted)
            if key not in self._oracle:
                # Record sid s of a segment holds part[s]: the benchmark's
                # own replay of the count window.
                live = [
                    (sid, tuple(sorted(set(part[sid]))))
                    for sid in range(inserted - self.window, inserted)
                ]
                self._oracle[key] = [
                    (r.x, r.y, r.similarity)
                    for r in naive_window_topk(live, self.k)
                ]
            try:
                assert_topk_equivalent(
                    _results(rows), _results(self._oracle[key]),
                    context="segment %d after %d inserts"
                    % (which, inserted),
                )
            except AssertionError as error:
                failed += 1
                failures.append(str(error))
        return failed, failures


#: serve-mixed's fixed request cycle: 14 inserts, 5 queries, 1 scrape.
SERVE_CYCLE = (
    "insert", "insert", "query", "insert", "insert", "insert", "query",
    "insert", "insert", "insert", "query", "insert", "insert", "insert",
    "query", "insert", "insert", "query", "insert", "metrics",
)


def _thread_clock(name: str) -> int:
    """The CPU-clock id of the live thread called *name*."""
    for thread in threading.enumerate():
        if thread.name == name and thread.ident is not None:
            return time.pthread_getcpuclockid(thread.ident)
    raise RuntimeError("no live thread named %r" % name)


class ServeMixed:
    """A real daemon; one client sends the fixed 20-request cycle."""

    name = "serve-mixed"
    #: Longer than the inserts of one run, so that the rare, costly
    #: refills a run meets are not a few dozen repeated over and over.
    records = 8000
    window = 200
    k = 1
    cycle = len(SERVE_CYCLE)
    counter_ops = 20 * len(SERVE_CYCLE)
    tail_pct = 99.9

    def setup(self, seed: int) -> Tuple[Dict[str, Any], float]:
        # Generator and daemon share one CPU, which the daemon thread
        # inherits.  The interpreter lock lets only one of them run Python
        # at a time anyway; on two CPUs they would overlap only in socket
        # calls, by an amount that depends on whatever else the box runs,
        # and their summed CPU time would move with it.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        main_started = time.thread_time()
        trace = _trace(self.records, _sub_seeds(seed, 1)[0])
        engines: List[StreamingTopkEngine] = []

        def make_engine() -> StreamingTopkEngine:
            engine = StreamingTopkEngine(
                self.k, options=TopkOptions(window_size=self.window)
            )
            engines.append(engine)
            return engine

        daemon = InProcessDaemon(make_engine, ServeOptions())
        host, port = daemon.start()
        daemon_clock = _thread_clock("repro-serve-daemon")
        state: Dict[str, Any] = {
            "cpus": cpus,
            "trace": trace,
            "daemon": daemon,
            "engine": engines[0],
            "clock": lambda: (time.thread_time()
                              + time.clock_gettime(daemon_clock)),
            "subscriber": ServeClient(host, port),
            "client": ServeClient(host, port),
            "inserted": 0,
            "acked": [],
            "ack_deltas": [],
            "pushed": [],
            "failed": [],
        }
        state["subscriber"].request("subscribe")
        for __ in range(self.window):
            self._request(state, "insert", -1)
        for index in range(self.cycle):  # warm-up: one whole cycle
            self._request(state, SERVE_CYCLE[index], -1)
        state["counters0"] = self._snapshot(state)
        raw = (time.thread_time() - main_started
               + time.clock_gettime(daemon_clock))
        return state, raw

    def _request(self, state: Dict[str, Any], verb: str, index: int
                 ) -> OpSample:
        client = state["client"]
        clock = state["clock"]
        fields: Dict[str, Any] = {}
        if verb == "insert":
            trace = state["trace"]
            fields["tokens"] = list(trace[state["inserted"] % len(trace)])
            state["inserted"] += 1
        wall = time.perf_counter()
        started = clock()
        reply = client.request(verb, **fields)
        replied = clock()
        ok = bool(reply.get("ok")) and not reply.get("shed")
        if verb == "insert" and ok:
            deltas = [(d["action"], d["x"], d["y"], d["similarity"])
                      for d in reply["deltas"]]
            state["acked"].append(fields["tokens"])
            state["ack_deltas"].extend(deltas)
            subscriber = state["subscriber"]
            for __ in deltas:
                frame = subscriber.read_frame()
                state["pushed"].append((frame.get("action"), frame.get("x"),
                                        frame.get("y"),
                                        frame.get("similarity")))
        ended = clock()
        wall = time.perf_counter() - wall
        if not ok:
            state["failed"].append(index)
        return OpSample(verb, ended - started, replied - started, wall,
                        read_s=replied - started if verb == "query" else None)

    def op(self, state: Dict[str, Any], index: int) -> OpSample:
        return self._request(state, SERVE_CYCLE[index % self.cycle], index)

    def boundary(self, done: int) -> bool:
        return False

    def _snapshot(self, state: Dict[str, Any]) -> Dict[str, float]:
        payload = state["client"].request("stats")["stats"]
        snapshot = {"serve." + key: value for key, value in payload.items()
                    if key != "engine" and isinstance(value, (int, float))
                    and not isinstance(value, bool)}
        snapshot.update({"stream." + key: value
                         for key, value in payload["engine"].items()})
        # The daemon is idle between blocks, so reading the engine's
        # refill counters from this thread races with nothing.
        refill_stats = state["engine"].refill_stats
        snapshot.update(_stats_dict("topk", refill_stats))
        snapshot["core.results"] = len(refill_stats.emits)
        snapshot["serve.deltas_received"] = len(state["pushed"])
        return snapshot

    def after_block(self, state: Dict[str, Any], done: int) -> bool:
        if done != self.counter_ops:
            return False
        state["counters"] = _counter_delta(self._snapshot(state),
                                           state["counters0"])
        return True

    def counters(self, state: Dict[str, Any]) -> Dict[str, float]:
        return state["counters"]

    def finish(self, state: Dict[str, Any]) -> None:
        client = state["client"]
        state["final"] = [tuple(row)
                          for row in client.request("query")["results"]]
        state["final_stats"] = client.request("stats")["stats"]
        self.close(state)

    def close(self, state: Dict[str, Any]) -> None:
        for name in ("client", "subscriber"):
            state[name].close()
        state["daemon"].stop()
        os.sched_setaffinity(0, state["cpus"])

    def check(self, state: Dict[str, Any], ops: int) -> Tuple[int, List[str]]:
        """Final query vs an in-process replay; pushes vs acks; no errors."""
        failures: List[str] = []
        failed = len(state["failed"])
        if failed:
            failures.append("%d requests refused or failed: ops %s"
                            % (failed, state["failed"][:10]))
        replay = StreamingTopkEngine(
            self.k, options=TopkOptions(window_size=self.window)
        )
        with replay:
            for tokens in state["acked"]:
                replay.insert(tokens)
            expected = [(r.x, r.y, r.similarity) for r in replay.results()]
        if state["final"] != expected:
            failed += 1
            failures.append("final query %r != replay %r"
                            % (state["final"], expected))
        if state["pushed"] != state["ack_deltas"]:
            failed += 1
            failures.append("subscriber received %d deltas, acks carried %d"
                            % (len(state["pushed"]), len(state["ack_deltas"])))
        stats = state["final_stats"]
        for key in ("errors", "rejected", "shed"):
            if stats[key]:
                failed += 1
                failures.append("daemon stats: %s=%d" % (key, stats[key]))
        return failed, failures


WORKLOADS = {w.name: w for w in (BatchDblp, StreamDblp, ServeMixed)}
