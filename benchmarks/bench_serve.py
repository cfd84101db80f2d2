"""Serve-mode soak benchmark: sustained mixed HTTP traffic.

Runnable as a script: ``PYTHONPATH=src python benchmarks/bench_serve.py
[--smoke]``.  It boots a :class:`~repro.serve.runner.ServiceRunner`
around a Figure-3 source, then drives it with depositor threads pushing
three phased drift families (``d``/``e``/``f`` tails, each phase novel
when it starts so each forces an evolution epoch) while classifier
threads hammer the snapshot-isolated read path — the serve-mode
analogue of E12's sustained-ingest story.

The run asserts the service-mode invariants (every deposit accepted
after bounded 429 retries, applied indices contiguous, ≥3 evolution
epochs published, snapshot versions monotone per thread) and writes
``benchmarks/results/BENCH_serve.json``: deposits/sec, classify
round-trips/sec, per-endpoint latency digests straight from
``MetricsRegistry.as_dict()`` (p50/p90/p99), snapshot/epoch counters,
and a ``run_metadata`` block, so CI archives interpretable numbers.
A ``bulk_deposit`` section then replays the workload through one
client twice — single ``{"xml": ...}`` posts vs ``{"documents":
[...]}`` batches — and records both ingestion rates.

``--gate-serve`` turns the run into the CI latency-regression gate:
the measured per-endpoint p50/p99 are compared against the committed
``benchmarks/BENCH_serve_baseline.json`` — each bound is ``baseline
percentile x tolerance``, floored per-endpoint so machine jitter on a
sub-millisecond path can't fail the gate — the verdict is embedded in
the results JSON (written first, so the CI artifact always exists),
and the process exits nonzero on regression.
"""

from __future__ import annotations

import http.client
import json
import os
import queue as queue_module
import random
import sys
import threading
import time

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.generators.scenarios import figure3_dtd
from repro.serve import ServeConfig, ServiceRunner

QUEUE_LIMIT = 16


class _Client:
    """Minimal keep-alive JSON client (stdlib http.client)."""

    def __init__(self, port, timeout=60.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def post(self, path, payload):
        body = json.dumps(payload).encode("utf-8")
        self.conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        raw = response.read()
        headers = {key.lower(): value for key, value in response.getheaders()}
        if headers.get("connection", "").lower() == "close":
            self.conn.close()
        return response.status, headers, json.loads(raw.decode("utf-8"))

    def close(self):
        self.conn.close()


def _phased_workload(total):
    rng = random.Random(4242)
    documents = []
    per_phase = max(1, total // 3)
    for phase, tail in enumerate(("d", "e", "f")):
        count = per_phase if phase < 2 else total - 2 * per_phase
        for _ in range(count):
            pairs = rng.randint(1, 4)
            tails = rng.randint(1, 3)
            body = "".join("<b>x</b><c>y</c>" for _ in range(pairs))
            body += "".join(f"<{tail}>z</{tail}>" for _ in range(tails))
            documents.append(f"<a>{body}</a>")
    return documents


def _soak(source, documents, depositors, readers, read_seconds):
    """Drive the mixed workload; returns the raw observations."""
    work = queue_module.Queue()
    for xml in documents:
        work.put(xml)
    probe = "<a><b>x</b><c>y</c><d>z</d></a>"
    observations = {
        "accepted": [],
        "retries": 0,
        "classify_count": 0,
        "errors": [],
        "version_monotone": True,
    }
    lock = threading.Lock()
    stop_reading = threading.Event()

    with ServiceRunner(source, ServeConfig(queue_limit=QUEUE_LIMIT)) as runner:

        def depositor():
            client = _Client(runner.port)
            last_version = 0
            try:
                while True:
                    try:
                        xml = work.get_nowait()
                    except queue_module.Empty:
                        break
                    while True:
                        status, headers, body = client.post("/deposit", {"xml": xml})
                        if status != 429:
                            break
                        with lock:
                            observations["retries"] += 1
                        time.sleep(min(0.05, float(headers.get("retry-after", 1))))
                    with lock:
                        if status != 200:
                            observations["errors"].append((status, body))
                            continue
                        observations["accepted"].append(body["applied_index"])
                        if body["snapshot_version"] < last_version:
                            observations["version_monotone"] = False
                    last_version = body["snapshot_version"]
            finally:
                client.close()

        def classifier():
            client = _Client(runner.port)
            last_version = 0
            try:
                while not stop_reading.is_set():
                    status, _, body = client.post("/classify", {"xml": probe})
                    with lock:
                        if status != 200:
                            observations["errors"].append((status, body))
                            continue
                        observations["classify_count"] += 1
                        if body["snapshot_version"] < last_version:
                            observations["version_monotone"] = False
                    last_version = body["snapshot_version"]
            finally:
                client.close()

        started = time.perf_counter()
        deposit_threads = [
            threading.Thread(target=depositor) for _ in range(depositors)
        ]
        reader_threads = [
            threading.Thread(target=classifier) for _ in range(readers)
        ]
        for thread in deposit_threads + reader_threads:
            thread.start()
        for thread in deposit_threads:
            thread.join(timeout=600)
        deposit_elapsed = time.perf_counter() - started
        # keep the read path under load a little past the writes
        time.sleep(min(read_seconds, 2.0))
        stop_reading.set()
        for thread in reader_threads:
            thread.join(timeout=60)
        total_elapsed = time.perf_counter() - started
        observations.update(
            deposit_elapsed=deposit_elapsed,
            total_elapsed=total_elapsed,
            snapshot_version=runner.service.holder.version,
            applied_writes=runner.service.applied_writes,
            registry=runner.service.registry.as_dict(),
        )
    return observations


def _bulk_deposit_throughput(documents, batch_size):
    """Single-client ingestion: one-document posts vs batched posts.

    Each ``{"documents": [...]}`` batch is one HTTP round-trip, one
    admission-controlled op, and one store bulk window, so the batched
    run amortizes all three fixed costs.  Both runs must leave the
    engine in the same place (same applied count, same evolutions) —
    the batch path is a throughput choice, not a semantic one.
    """

    def run(batched):
        source = XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.3, tau=0.05, min_documents=3),
        )
        try:
            with ServiceRunner(
                source, ServeConfig(queue_limit=QUEUE_LIMIT)
            ) as runner:
                client = _Client(runner.port)
                try:
                    start = time.perf_counter()
                    if batched:
                        for offset in range(0, len(documents), batch_size):
                            chunk = documents[offset : offset + batch_size]
                            status, _, body = client.post(
                                "/deposit", {"documents": chunk}
                            )
                            assert status == 200, body
                            assert body["deposited"] == len(chunk)
                    else:
                        for xml in documents:
                            status, _, body = client.post("/deposit", {"xml": xml})
                            assert status == 200, body
                    elapsed = time.perf_counter() - start
                finally:
                    client.close()
            return elapsed, source.evolution_count
        finally:
            source.close()

    single_seconds, single_evolutions = run(batched=False)
    batch_seconds, batch_evolutions = run(batched=True)
    assert single_evolutions == batch_evolutions, (
        "bulk deposits diverged from single deposits"
    )
    return {
        "documents": len(documents),
        "batch_size": batch_size,
        "single_seconds": single_seconds,
        "batched_seconds": batch_seconds,
        "single_deposits_per_second": len(documents) / single_seconds,
        "batched_deposits_per_second": len(documents) / batch_seconds,
        "speedup": single_seconds / batch_seconds if batch_seconds > 0 else 0.0,
        "evolutions": batch_evolutions,
    }


BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serve_baseline.json")


def _gate_serve(latency, baseline):
    """The CI latency-regression verdict for a ``latency_seconds`` map.

    Per endpoint in the committed baseline: measured p50/p99 must stay
    within ``baseline x tolerance``, floored at ``floor_ms`` so noise
    on a sub-millisecond path can't fail the gate.  Endpoints the run
    never hit are skipped (a smoke run needn't exercise everything).
    """
    tolerance = baseline.get("tolerance", 4.0)
    floor_ms = baseline.get("floor_ms", 5.0)
    endpoints = {}
    failed = []
    for endpoint, bounds in sorted(baseline.get("endpoints", {}).items()):
        key = f'repro_serve_request_seconds{{endpoint="{endpoint}"}}'
        digest = latency.get(key)
        if not digest or not digest.get("count"):
            endpoints[endpoint] = {"status": "skipped", "reason": "not exercised"}
            continue
        checks = {}
        for percentile in ("p50", "p99"):
            measured_ms = digest[percentile] * 1000.0
            limit_ms = max(bounds[f"{percentile}_ms"] * tolerance, floor_ms)
            checks[percentile] = {
                "measured_ms": measured_ms,
                "baseline_ms": bounds[f"{percentile}_ms"],
                "limit_ms": limit_ms,
                "status": "passed" if measured_ms <= limit_ms else "failed",
            }
            if measured_ms > limit_ms:
                failed.append(
                    f"{endpoint} {percentile} {measured_ms:.2f}ms > "
                    f"limit {limit_ms:.2f}ms"
                )
        checks["status"] = (
            "failed"
            if any(c.get("status") == "failed" for c in checks.values()
                   if isinstance(c, dict))
            else "passed"
        )
        endpoints[endpoint] = checks
    judged = [e for e in endpoints.values() if e.get("status") != "skipped"]
    if not judged:
        status, reason = "skipped", "no baselined endpoint was exercised"
    elif failed:
        status, reason = "failed", "; ".join(failed)
    else:
        status, reason = "passed", (
            f"{len(judged)} endpoints within {tolerance}x of baseline"
        )
    return {
        "status": status,
        "reason": reason,
        "tolerance": tolerance,
        "floor_ms": floor_ms,
        "endpoints": endpoints,
    }


def main(argv=None):
    try:  # script mode (sys.path[0] = benchmarks/) vs pytest (rootdir)
        from _harness import run_metadata
    except ImportError:
        from benchmarks._harness import run_metadata

    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    gate_serve = "--gate-serve" in argv
    docs, depositors, readers = (90, 2, 2) if smoke else (420, 3, 4)
    documents = _phased_workload(docs)
    source = XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.3, tau=0.05, min_documents=3),
    )
    try:
        observed = _soak(source, documents, depositors, readers, read_seconds=1.0)

        # ---- invariants: a benchmark over a broken service is noise ----
        assert observed["errors"] == [], observed["errors"][:5]
        assert sorted(observed["accepted"]) == list(range(1, docs + 1))
        assert observed["version_monotone"], "snapshot version went backwards"
        assert source.evolution_count >= 3, source.evolution_count
        assert observed["snapshot_version"] >= 4

        registry = observed.pop("registry")
        latency = {
            key: value
            for key, value in registry.items()
            if key.startswith("repro_serve_request_seconds")
        }
        results = {
            "schema_version": 1,
            "run_metadata": run_metadata(),
            "smoke": smoke,
            "workload": {
                "documents": docs,
                "depositor_threads": depositors,
                "classifier_threads": readers,
                "queue_limit": QUEUE_LIMIT,
                "phases": ["d", "e", "f"],
            },
            "throughput": {
                "deposits_per_second": docs / observed["deposit_elapsed"],
                "classifies_per_second": (
                    observed["classify_count"] / observed["total_elapsed"]
                ),
                "deposit_elapsed_seconds": observed["deposit_elapsed"],
                "total_elapsed_seconds": observed["total_elapsed"],
                "deposit_429_retries": observed["retries"],
            },
            "epochs": {
                "snapshot_version": observed["snapshot_version"],
                "evolutions": source.evolution_count,
                "applied_writes": observed["applied_writes"],
            },
            "latency_seconds": latency,
            "serve_counters": {
                key: value
                for key, value in registry.items()
                if key.startswith("repro_serve_")
                and not key.startswith("repro_serve_request_seconds")
            },
        }
    finally:
        source.close()

    results["bulk_deposit"] = _bulk_deposit_throughput(
        documents, batch_size=16 if smoke else 32
    )

    gate = None
    if gate_serve:
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            gate = _gate_serve(latency, baseline)
        else:
            gate = {
                "status": "skipped",
                "reason": f"no baseline at {BASELINE_PATH}",
            }
        results["gate_serve"] = gate

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_serve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")

    throughput = results["throughput"]
    deposit_digest = latency.get('repro_serve_request_seconds{endpoint="/deposit"}', {})
    bulk = results["bulk_deposit"]
    print(
        f"deposits/sec {throughput['deposits_per_second']:.1f}  "
        f"classifies/sec {throughput['classifies_per_second']:.1f}  "
        f"epochs {results['epochs']['snapshot_version']}  "
        f"deposit p99 {deposit_digest.get('p99', 0.0) * 1000:.2f}ms"
    )
    print(
        f"bulk deposit: single {bulk['single_deposits_per_second']:.1f}/s  "
        f"batched(x{bulk['batch_size']}) "
        f"{bulk['batched_deposits_per_second']:.1f}/s  "
        f"speedup {bulk['speedup']:.1f}x"
    )
    if gate is not None:
        print(f"{'gate_serve':<18} {gate['status']}: {gate['reason']}")
    print(f"wrote {path}")
    if gate is not None and gate["status"] == "failed":
        # the JSON is already on disk for the CI artifact; now fail
        raise SystemExit(f"gate_serve failed: {gate['reason']}")
    return results


if __name__ == "__main__":
    main()
