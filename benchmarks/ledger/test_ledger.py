"""Tests of the benchmark ledger's own machinery.

Run with ``python -m pytest benchmarks/ledger/test_ledger.py`` from the
repository root.  The smoke tests run the whole benchmark twice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import loadgen
import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.tail_percentile(1000) == 0.99
    assert measure.tail_percentile(999) == 0.95
    assert measure.tail_percentile(100) == 0.9
    assert measure.tail_percentile(10000) == 0.999
    assert measure.tail_percentile(5) == 0.5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.99) == 99
    assert measure.percentile([7.0], 0.99) == 7.0


def _span(span_id, parent_id, start, end, name="x"):
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "start_ns": start, "end_ns": end}


def test_self_time_counts_overlapping_children_once():
    records = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),
        _span(3, 1, 30, 60),   # overlaps span 2 on [30, 40)
        _span(4, 1, 50, 55),   # already covered by span 3
        _span(5, 1, 90, 120),  # runs past the parent's end
        _span(6, 2, 15, 25),
    ]
    own = measure.self_times(records)
    assert own[1] == 100 - (60 - 10) - (100 - 90)
    assert own[2] == 30 - 10
    assert own[3] == 30
    assert own[5] == 30
    assert own[6] == 10


def test_layer_shares_and_remainder_account_for_wall():
    records = [
        _span(1, None, 0, 1000, "stream"),
        _span(2, 1, 0, 300, "layer.parse"),
        _span(3, 1, 300, 600, "layer.classify"),
        _span(4, 1, 600, 950, "layer.pipeline"),
        _span(5, 4, 650, 900, "stage.record"),
        _span(6, 5, 700, 750, "phase.evolve_mine"),
    ]
    shares = measure.layer_shares(measure.self_by_name(records), 1000)
    assert shares["xmltree.parse_share"] == 0.3
    assert shares["classification.classify_share"] == 0.3
    assert shares["pipeline.facade_share"] == 0.1
    assert shares["core.record_check_share"] == 0.2
    assert shares["core.evolve_share"] == 0.05
    assert shares["core.evolve_mine_share"] == 0.05
    assert abs(shares["pipeline.unattributed_share"] - 0.05) < 1e-12
    parts = sum(v for k, v in shares.items() if not k.startswith("core.evolve_"))
    assert abs(parts + shares["core.evolve_share"] - 1.0) < 1e-12


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.count += 1
            count = server.count
        if count == server.stall_at:
            time.sleep(server.stall)
        status = 429 if count == server.reject_at else 200
        self.send_response(status)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def _stub_server(stall_at, stall, reject_at):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.lock = threading.Lock()
    server.count = 0
    server.stall_at, server.stall, server.reject_at = stall_at, stall, reject_at
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def test_a_stall_shows_in_the_latency_of_later_requests():
    server, thread = _stub_server(stall_at=5, stall=0.3, reject_at=20)
    try:
        schedule = [
            loadgen.Request(index / 100, 0, "/x", b"{}") for index in range(30)
        ]
        results = loadgen.run(
            "127.0.0.1", server.server_address[1], schedule, connections=1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(results) == 30
    stalled, queued = results[4], results[5]
    assert stalled.latency >= 0.3
    # the next request was due 10 ms later: it waited out the stall
    # behind the busy connection, though the server answered it at once
    assert queued.late > 0.2
    assert queued.latency > 0.2
    assert queued.done - queued.sent < 0.1
    assert [r.failed for r in results].count(True) == 1
    assert results[19].failed and results[19].status == 429


def test_connection_errors_count_as_failed():
    server, thread = _stub_server(stall_at=0, stall=0, reject_at=0)
    port = server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    results = loadgen.run(
        "127.0.0.1", port, [loadgen.Request(0.0, 0, "/x", b"{}")], connections=1
    )
    assert results[0].failed and results[0].status == 0


def _smoke_run():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    with open(os.path.join(HERE, "results", "latest.json"), encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    return elapsed, {run["workload"]: run["digest"] for run in runs}


def test_smoke_runs_are_fast_and_repeat_their_digests():
    elapsed, first = _smoke_run()
    assert elapsed < 60
    _, second = _smoke_run()
    assert len(first) == 4 and all(first.values())
    assert first == second
