"""The served workload: ``dtdevolve serve`` driven over HTTP.

The server is a child process (``--store sqlite --checkpoint-every 200
--port 0``) resumed from a five-DTD state.  Two keep-alive connections
drive it open-loop at :data:`RATE` requests per second: one sends every
``/classify`` (readers, on the snapshot path) and one every
``/deposit`` (the single writer).  Deposits therefore reach the writer
in schedule order, which makes their outcomes deterministic and lets
the run replay them in-process afterwards.  A short closed-loop phase
on the same two connections then measures the throughput two clients
get when each waits for its reply.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional

import corpus
import loadgen
import measure
from batch import counter_metrics, dtd_set, ratio, release
from repro.classification.stores import SqliteStore
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import load_source, save_source, source_to_json
from repro.dtd.serializer import serialize_dtd
from repro.obs.export import load_trace, span_dict
from repro.obs.tracing import Tracer
from repro.xmltree.parser import parse_document

HOST = "127.0.0.1"
#: the nominal offered load, requests per second (half per endpoint)
RATE = 100
#: unmeasured lead-in: reader threads build their classifiers
WARMUP_SECONDS = 1
SATURATION_SECONDS = 5.0
#: the server shuts itself down after this long even if the bench dies
SERVER_LIFETIME = 150
CONFIG = {"sigma": 0.4, "tau": 0.05, "min_documents": 20}
_CONNECTION = {"/classify": 0, "/deposit": 1}


def prepare(seed: int, smoke: bool, seconds: float, work: str) -> None:
    """The initial state (five DTDs, empty sqlite repository) and the
    request schedule: warm-up plus nominal phase, then a pool for the
    closed-loop phase."""
    store_path = os.path.join(work, "prepare.sqlite")
    source = XMLSource(
        dtd_set(), EvolutionConfig(**CONFIG), store=SqliteStore(store_path)
    )
    save_source(source, os.path.join(work, "init.json"))
    release(source)
    os.remove(store_path)
    scheduled = int(RATE * (WARMUP_SECONDS + seconds))
    pool = 400 if smoke else 5000
    requests = corpus.serve_stream(seed, scheduled + pool)
    with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "warmup": RATE * WARMUP_SECONDS,
                "scheduled": requests[:scheduled],
                "pool": requests[scheduled:],
            },
            handle,
        )


def start_server(work: str, tag: str, env=None, extra=()):
    """Spawn the server on a fresh copy of the initial state; returns
    ``(process, port, seconds from spawn to the first /healthz 200)``."""
    state = os.path.join(work, f"{tag}.json")
    shutil.copy(os.path.join(work, "init.json"), state)
    log_path = os.path.join(work, f"{tag}.log")
    started = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state", state, "--store", "sqlite",
                "--checkpoint-every", "200", "--port", "0",
                "--duration", str(SERVER_LIFETIME), *extra,
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
    port = None
    try:
        while port is None:
            if process.poll() is not None or time.monotonic() - started > 60:
                raise RuntimeError(f"server did not start; see {log_path}")
            with open(log_path, encoding="utf-8") as log:
                found = re.search(r"listening on [\d.]+:(\d+)", log.read())
            if found:
                port = int(found.group(1))
            else:
                time.sleep(0.002)
        while _get(port, "/healthz") is None:
            time.sleep(0.002)
    except BaseException:
        stop_server(process)
        raise
    return process, port, time.monotonic() - started


def stop_server(process) -> int:
    """Graceful shutdown (SIGTERM drains writes and checkpoints)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            return process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
    return process.wait()


def _get(port: int, path: str) -> Optional[bytes]:
    try:
        with urllib.request.urlopen(f"http://{HOST}:{port}{path}", timeout=10) as reply:
            return reply.read()
    except OSError:
        return None


def _requests(pairs) -> List[loadgen.Request]:
    return [
        loadgen.Request(
            index / RATE, _CONNECTION[path], path,
            json.dumps({"xml": xml}).encode("utf-8"),
        )
        for index, (path, xml) in enumerate(pairs)
    ]


def _read_inputs(work: str) -> dict:
    with open(os.path.join(work, "inputs.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        kb = re.search(r"VmHWM:\s+(\d+)", handle.read()).group(1)
    return int(kb) / 1024


def _drive(port: int, inputs: dict) -> tuple:
    """The warm-up and nominal phases; returns their results and the
    /metrics and /healthz readings right after."""
    results = loadgen.run(HOST, port, _requests(inputs["scheduled"]), 2)
    metrics = _get(port, "/metrics").decode("utf-8")
    health = json.loads(_get(port, "/healthz"))
    return results, metrics, health


def _failures(results) -> List[str]:
    failed = [r for r in results if r.failed]
    if failed:
        first = failed[0]
        return [
            f"{len(failed)} requests failed (first: {first.request.path} "
            f"status {first.status})"
        ]
    return []


def replay(work: str, deposits, nominal: int, state_path: str):
    """Replay the applied deposits in-process, in ``applied_index``
    order, from the same initial state.  Every served outcome and the
    state the server saved must equal the replay's.  Returns
    ``(problems, digest of the first ``nominal`` deposits)``."""
    bodies = [json.loads(result.body) for result in deposits]
    order = sorted(range(len(bodies)), key=lambda i: bodies[i]["applied_index"])
    problems = []
    if [bodies[i]["applied_index"] for i in order] != list(range(1, len(order) + 1)):
        problems.append("applied indices are not contiguous from 1")
    source = load_source(os.path.join(work, "init.json"))
    view, digest = [], None
    try:
        for position, index in enumerate(order):
            xml = json.loads(deposits[index].request.body)["xml"]
            outcome = source.process(parse_document(xml))
            served = bodies[index]
            mine = [outcome.dtd_name, outcome.similarity, list(outcome.evolved)]
            if mine != [served["dtd"], served["similarity"], served["evolved"]]:
                problems.append(
                    f"deposit {served['applied_index']}: served {served['dtd']} "
                    f"{served['similarity']} but replay gives {mine[:2]}"
                )
                break
            view.append(mine)
            if position + 1 == nominal:
                digest = measure.digest({
                    "outcomes": view,
                    "dtds": [serialize_dtd(source.dtd(n)) for n in source.dtd_names()],
                    "repository": len(source.repository),
                })
        with open(state_path, encoding="utf-8") as handle:
            saved = json.load(handle)
        if json.loads(json.dumps(source_to_json(source))) != saved:
            problems.append("the state the server saved differs from the replay")
    finally:
        release(source)
    return problems, digest


def _isolate(process) -> None:
    """Keep the load generator and the server off each other's CPUs:
    this process on the first allowed CPU, the server on the rest.
    Threads started later (the lanes, the server's pools) inherit it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(process.pid, cpus[1:])
        os.sched_setaffinity(0, cpus[:1])


def measure_run(work: str) -> dict:
    inputs = _read_inputs(work)
    process, port, setup_s = start_server(work, "server")
    try:
        _isolate(process)
        results, _, _ = _drive(port, inputs)
        pool = _requests(inputs["pool"])
        saturated = loadgen.run(HOST, port, pool, 2, deadline=SATURATION_SECONDS)
        peak_mb = _hwm_mb(process.pid)
    finally:
        code = stop_server(process)
    nominal = results[inputs["warmup"]:]
    problems = _failures(results + saturated)
    if code != 0:
        problems.append(f"server exited with status {code}")
    deposits = [r for r in results + saturated if r.request.path == "/deposit"]
    nominal_deposits = sum(1 for r in results if r.request.path == "/deposit")
    digest = None
    if not problems:
        found, digest = replay(
            work, deposits, nominal_deposits, os.path.join(work, "server.json")
        )
        problems += found
    latency = _latency_ms(nominal)
    late = [r.late * 1000 for r in nominal]
    # replies per whole second of the closed loop, median over seconds
    windows = [0] * max(1, int(max(r.done for r in saturated)))
    for result in saturated:
        if not result.failed and int(result.done) < len(windows):
            windows[int(result.done)] += 1
    return {
        "setup": setup_s,
        "attempted": len(results) + len(saturated),
        "failed": sum(r.failed for r in results + saturated),
        "digest": digest,
        "problems": problems,
        "diagnostics": {
            "latency_samples": min(len(values) for values in latency.values()),
            "classify_p99_ms": measure.percentile(latency["/classify"], 0.99),
            "deposit_p99_ms": measure.percentile(latency["/deposit"], 0.99),
            "loadgen.late_p99_ms": measure.percentile(late, 0.99),
            "loadgen.late_max_ms": max(late),
        },
        "metrics": {
            "docs_per_s": statistics.median(windows),
            "peak_rss_mb": peak_mb,
            "classify_p50_ms": measure.percentile(latency["/classify"], 0.5),
            "deposit_p50_ms": measure.percentile(latency["/deposit"], 0.5),
        },
    }


def _latency_ms(results) -> Dict[str, List[float]]:
    """Per endpoint, each request's latency from its due time."""
    return {
        path: [r.latency * 1000 for r in results if r.request.path == path]
        for path in _CONNECTION
    }


def _counters(exposition: str) -> Dict[str, int]:
    """The unlabelled counters of a /metrics scrape."""
    return {
        name: int(float(value))
        for name, value in re.findall(r"^(repro_\w+) (\S+)$", exposition, re.M)
    }


def _load_sink(path: str) -> List[dict]:
    """Every kept span, oldest rotated generation first."""
    generations = sorted(
        glob.glob(path + ".*"), key=lambda p: -int(p.rsplit(".", 1)[1])
    )
    records = []
    for generation in generations + [path]:
        records += load_trace(generation)[1]
    return records


def traced_run(work: str, trace_path: str) -> dict:
    """The nominal phase against a server sampling every request into
    its trace sink; per-layer metrics come from those span trees."""
    inputs = _read_inputs(work)
    sink = os.path.join(work, "spans.jsonl")
    process, port, _ = start_server(
        work, "server", extra=("--trace-sample", "1.0", "--trace-sink", sink)
    )
    try:
        _isolate(process)
        results, exposition, health = _drive(port, inputs)
    finally:
        code = stop_server(process)
    problems = _failures(results)
    if code != 0:
        problems.append(f"server exited with status {code}")
    deposits = [r for r in results if r.request.path == "/deposit"]
    digest = None
    if not problems:
        problems, digest = replay(
            work, deposits, len(deposits), os.path.join(work, "server.json")
        )

    # one tree per request (the sink numbers each tree's spans from 1),
    # grafted under one root so the trace file is a single tree
    requests: Dict[str, List[dict]] = {}
    for record in _load_sink(sink):
        requests.setdefault(record["attrs"]["request_id"], []).append(record)
    kept = [
        spans for spans in requests.values()
        if spans[0]["name"] in ("request./classify", "request./deposit")
    ]
    tracer = Tracer()
    root = tracer.start("bench", workload="serve_mixed")
    for spans in kept:
        tracer.splice(
            [(s["span_id"], s["parent_id"], s["name"], s["start_ns"],
              s["end_ns"], s["attrs"]) for s in spans],
            parent_id=root.span_id,
        )
    tracer.finish(root)
    root.start_ns = min(spans[0]["start_ns"] for spans in kept)
    root.end_ns = max(spans[0]["end_ns"] for spans in kept)
    tracer.write_chrome(trace_path)

    # layer shares are of the time /deposit requests spent in the
    # server; /classify requests carry no child spans to split
    durations: Dict[str, List[int]] = {}
    for span in tracer.spans:
        durations.setdefault(span.name, []).append(span.duration_ns)
    records = [
        span_dict(s) for s in tracer.spans
        if s.name not in ("bench", "request./classify")
    ]
    by_name = measure.self_by_name(records)
    wall = sum(durations["request./deposit"])
    xmls = [json.loads(r.request.body)["xml"] for r in results]
    began = time.perf_counter_ns()
    for xml in xmls:
        parse_document(xml)
    parse_ns = time.perf_counter_ns() - began
    counters = _counters(exposition)
    totals = {
        name[len("repro_perf_"):]: value
        for name, value in counters.items() if name.startswith("repro_perf_")
    }
    bodies = [json.loads(r.body) for r in deposits if not r.failed]
    latency = _latency_ms(results[inputs["warmup"]:])
    metrics = measure.layer_shares(by_name, wall)
    metrics.update(counter_metrics(totals))
    metrics.update({
        "xmltree.parse_us_per_doc": parse_ns / 1e3 / len(xmls),
        "xmltree.parse_mb_per_s": (
            sum(len(x.encode("utf-8")) for x in xmls) / 2**20
        ) / (parse_ns / 1e9),
        "classification.classify_us_per_doc": (
            by_name.get("stage.classify", 0) / 1e3 / len(durations["request./deposit"])
        ),
        "pipeline.write_us_per_doc": (
            sum(durations["write.apply"]) / 1e3 / len(durations["write.apply"])
        ),
        "engine.classify_p50_ms": (
            measure.percentile(durations["request./classify"], 0.5) / 1e6
        ),
        "engine.deposit_p50_ms": (
            measure.percentile(durations["request./deposit"], 0.5) / 1e6
        ),
        "latency.classify_p99_ms": measure.percentile(latency["/classify"], 0.99),
        "latency.deposit_p99_ms": measure.percentile(latency["/deposit"], 0.99),
        "core.evolutions": health["evolutions"],
        "classification.deposits": sum(1 for b in bodies if b["dtd"] is None),
        "classification.recovered": sum(b["recovered"] for b in bodies),
        "core.checkpoints": health["checkpoints"],
        "core.checkpoint_bytes": os.path.getsize(os.path.join(work, "server.json")),
        "serve.snapshot_publishes": counters["repro_serve_snapshot_publishes_total"],
        "serve.snapshot_serialize_share": totals["snapshot_serialize_ns"] / wall,
        "serve.rejected_429": sum(1 for r in results if r.status == 429),
    })
    metrics["classification.drain_useful_ratio"] = ratio(
        metrics["classification.recovered"], totals["index_rows"]
    )
    return {
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "digest": digest,
        "problems": problems,
        "metrics": metrics,
    }
