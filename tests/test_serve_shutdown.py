"""Graceful shutdown of the real ``repro serve`` subprocess.

SIGTERM mid-stream must: stop accepting, drain the ingestion queue,
flush every accepted event's deltas to subscribers, emit the farewell
``{"event": "shutdown"}`` frame, close the engine, and exit 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import pytest

from repro.core import TopkOptions
from repro.oracle.differential import sockets_usable
from repro.serve import delta_line
from repro.stream.engine import StreamingTopkEngine

pytestmark = pytest.mark.skipif(
    not sockets_usable(), reason="cannot bind local sockets"
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def spawn_daemon(*extra: str) -> Tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` on an ephemeral port; parse the address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--k", "3", "--window", "8",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stderr is not None
    line = proc.stderr.readline().decode("utf-8")
    if not line.startswith("# serving on "):
        proc.kill()
        rest = proc.stderr.read().decode("utf-8", "replace")
        raise AssertionError("daemon did not start: %r" % (line + rest))
    host, port = line.strip().split()[-1].rsplit(":", 1)
    return proc, host, int(port)


def finish(proc: subprocess.Popen) -> Tuple[int, str]:
    out, err = proc.communicate(timeout=30)
    del out
    return proc.returncode, err.decode("utf-8", "replace")


class TestSigtermMidStream:
    def test_flushes_deltas_then_farewell_then_eof(self):
        events = [[1, 2, 3, i] for i in range(8)]
        proc, host, port = spawn_daemon("--ingest-delay", "0.02")
        try:
            sub = socket.create_connection((host, port), timeout=15)
            sub_reader = sub.makefile("rb")
            sub.sendall(b'{"verb":"subscribe","id":1}\n')
            hello = json.loads(sub_reader.readline())
            assert hello["ok"] and hello["subscribed"]

            producer = socket.create_connection((host, port), timeout=15)
            for i, tokens in enumerate(events):
                producer.sendall(
                    json.dumps(
                        {"verb": "insert", "id": i, "tokens": tokens}
                    ).encode("utf-8")
                    + b"\n"
                )
            # SIGTERM while the writer still has queued events: the
            # 0.02s apply delay guarantees the queue is non-empty.
            time.sleep(0.03)
            proc.send_signal(signal.SIGTERM)

            frames: List[Dict[str, Any]] = []
            while True:
                line = sub_reader.readline()
                if not line:
                    break  # clean EOF after the farewell
                frames.append(json.loads(line))
            sub.close()
            producer.close()
        finally:
            code, err = finish(proc)

        assert code == 0, err
        assert frames, "subscriber saw nothing"
        assert frames[-1] == {
            "event": "shutdown", "seq": frames[-1]["seq"],
        }
        deltas = [f for f in frames if f.get("event") == "delta"]
        assert deltas, "no deltas flushed before the farewell"
        seqs = [f["seq"] for f in frames if "seq" in f]
        assert seqs == sorted(seqs)

        # Byte-identity for the accepted prefix: the daemon reports how
        # many inserts it accepted; replaying exactly those in-process
        # must reproduce the subscriber's delta stream byte for byte.
        match = re.search(r"\((\d+) accepted", err)
        assert match is not None, err
        accepted = int(match.group(1))
        assert 0 < accepted <= len(events)
        expected: List[bytes] = []
        with StreamingTopkEngine(
            3, options=TopkOptions(window_size=8), mode="incremental"
        ) as oracle:
            for tokens in events[:accepted]:
                expected.extend(
                    delta_line(d) for d in oracle.insert(tokens)
                )
        keys = ("action", "x", "y", "similarity")
        got = [
            json.dumps(
                {k: f[k] for k in keys},
                separators=(",", ":"),
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
            for f in deltas
        ]
        assert got == expected
        assert "# served" in err

    def test_sigterm_with_no_clients_exits_zero(self):
        proc, host, port = spawn_daemon()
        del host, port
        proc.send_signal(signal.SIGTERM)
        code, err = finish(proc)
        assert code == 0, err
        assert "# served 0 request(s)" in err

    def test_remote_shutdown_verb_drains_and_exits_zero(self):
        proc, host, port = spawn_daemon()
        try:
            client = socket.create_connection((host, port), timeout=15)
            reader = client.makefile("rb")
            client.sendall(b'{"verb":"insert","id":1,"tokens":[1,2]}\n')
            assert json.loads(reader.readline())["ok"]
            client.sendall(b'{"verb":"shutdown","id":2}\n')
            reply = json.loads(reader.readline())
            assert reply["ok"] and reply["stopping"]
            client.close()
        finally:
            code, err = finish(proc)
        assert code == 0, err
        assert "1 accepted" in err
