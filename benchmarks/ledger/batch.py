"""The three batch workloads, run in-process against the engine.

A workload is a pool of rounds and a round is a few independent
streams, each processed by a fresh engine the way
``XMLSource.process_many`` does serially (one store bulk window,
optional checkpoints) -- except that the classify step is called on
its own, so the two halves of a document's cost can be timed:
``parse_document`` + ``source.classify`` (the read path) and
``source.process(document, classification)`` plus any checkpoint it
triggers (the write path).

A run processes rounds in pool order until its time is up, wrapping
around.  Every round holds other documents, so latency tails come from
many evolution histories instead of hinging on one, and throughput is
the median over rounds.  Round 0 is the one whose outcomes are
digested: committed in ``digests.json`` and compared between the
traced and untraced runs.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Optional

import corpus
import measure
from repro.classification.stores import SqliteStore
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import load_source, save_source, source_to_json
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.obs.tracing import Tracer
from repro.xmltree.parser import parse_document


class Spec(NamedTuple):
    rounds: int
    #: streams per round, each on a fresh engine
    streams: int
    #: documents per stream
    documents: int
    store: Optional[str]
    config: dict
    #: checkpoint after every N documents (0 = never)
    checkpoint_every: int = 0
    #: repository documents in the state each stream resumes from
    repository: int = 0
    #: every document is valid against the DTD it was sampled from
    valid: bool = False


#: sized for a 2-CPU machine: a round takes 2-5 s, so a 20 s run
#: measures about as many rounds as the pool holds
SPECS: Dict[str, Spec] = {
    "ingest_valid": Spec(6, 4, 1500, None, {"sigma": 0.5, "tau": 0.1}, valid=True),
    "ingest_drift": Spec(
        5, 2, 1200, "sqlite", {"sigma": 0.4, "tau": 0.1, "min_documents": 60}
    ),
    "resume_checkpointed": Spec(
        5, 1, 600, "sqlite", {"sigma": 0.4, "tau": 0.05, "min_documents": 10},
        checkpoint_every=50, repository=4000,
    ),
}

SMOKE_SPECS: Dict[str, Spec] = {
    "ingest_valid": SPECS["ingest_valid"]._replace(rounds=2, streams=2, documents=100),
    "ingest_drift": SPECS["ingest_drift"]._replace(rounds=2, documents=60),
    "resume_checkpointed": SPECS["resume_checkpointed"]._replace(
        rounds=2, documents=100, checkpoint_every=25, repository=200
    ),
}

#: which DTD each valid document's root tag was sampled from
_ROOT_DTD = {
    corpus.parse_models(corpus.DTDS[name])[0]: name for name in corpus.SAMPLED
}


def spec_for(name: str, smoke: bool) -> Spec:
    return (SMOKE_SPECS if smoke else SPECS)[name]


def _stream(name: str, seed: int, documents: int) -> List[str]:
    if name == "ingest_valid":
        return corpus.valid_stream(seed, documents)
    if name == "ingest_drift":
        return corpus.drift_stream(seed, documents)
    return corpus.resume_stream(seed, documents)


def dtd_set():
    return [parse_dtd(text, name=name) for name, text in corpus.DTDS.items()]


def prepare(name: str, seed: int, smoke: bool, work: str) -> None:
    """Write the workload's inputs under ``work``: one JSON line per
    stream, and for resume the state file every stream starts from."""
    spec = spec_for(name, smoke)
    with open(os.path.join(work, "inputs.jsonl"), "w", encoding="utf-8") as handle:
        for index in range(spec.rounds * spec.streams):
            stream = _stream(name, seed * 1000 + index, spec.documents)
            handle.write(json.dumps(stream) + "\n")
    if spec.repository:
        store_path = os.path.join(work, "prepare.sqlite")
        source = XMLSource(
            dtd_set(), EvolutionConfig(**spec.config), store=SqliteStore(store_path)
        )
        source.repository.add_many(
            parse_document(xml)
            for xml in corpus.repository_stream(seed, spec.repository)
        )
        save_source(source, os.path.join(work, "state.json"))
        release(source)
        os.remove(store_path)


def setup(spec: Spec, work: str) -> XMLSource:
    """What a user pays before the first document: parse the DTDs and
    build the engine, or resume it from the saved state."""
    if spec.repository:
        return load_source(os.path.join(work, "state.json"))
    return XMLSource(dtd_set(), EvolutionConfig(**spec.config), store=spec.store)


def release(source: XMLSource) -> None:
    source.close()
    close_store = getattr(source.repository.store, "close", None)
    if close_store is not None:
        close_store()


def _read_rounds(work: str, spec: Spec) -> List[List[List[str]]]:
    with open(os.path.join(work, "inputs.jsonl"), encoding="utf-8") as handle:
        streams = [json.loads(line) for line in handle]
    return [
        streams[index : index + spec.streams]
        for index in range(0, len(streams), spec.streams)
    ]


def run_stream(
    source: XMLSource,
    texts: List[str],
    spec: Spec,
    checkpoint: str,
    read_ns: List[int],
    write_ns: List[int],
    tracer: Optional[Tracer] = None,
):
    """Process one stream: the timed region.  Per-document timings
    append to ``read_ns``/``write_ns``; returns ``(elapsed ns,
    outcomes, checkpoints written)``, the outcomes without their
    documents so a stream holds one parsed document at a time.  With
    ``tracer``, each call into a layer runs under a ``layer.*`` span."""
    every = spec.checkpoint_every
    checkpoints = 0
    outcomes = []
    clock = time.perf_counter_ns
    start = clock()
    with source.repository.bulk():
        # two copies of the loop, so the measured one carries no span
        # bookkeeping at all, not even a no-op context manager
        if tracer is None:
            for index, text in enumerate(texts, start=1):
                began = clock()
                document = parse_document(text)
                classification = source.classify(document)
                read = clock()
                outcome = source.process(document, classification)
                if every and index % every == 0:
                    save_source(source, checkpoint)
                    checkpoints += 1
                read_ns.append(read - began)
                write_ns.append(clock() - read)
                outcomes.append(outcome._replace(document=None))
        else:
            for index, text in enumerate(texts, start=1):
                began = clock()
                with tracer.span("layer.parse"):
                    document = parse_document(text)
                with tracer.span("layer.classify"):
                    classification = source.classify(document)
                read = clock()
                with tracer.span("layer.pipeline"):
                    outcome = source.process(document, classification)
                if every and index % every == 0:
                    with tracer.span("layer.checkpoint"):
                        save_source(source, checkpoint)
                    checkpoints += 1
                read_ns.append(read - began)
                write_ns.append(clock() - read)
                outcomes.append(outcome._replace(document=None))
    if spec.repository:
        if tracer is None:
            save_source(source, checkpoint)
        else:
            with tracer.span("layer.checkpoint"):
                save_source(source, checkpoint)
        checkpoints += 1
    return clock() - start, outcomes, checkpoints


class StreamRun(NamedTuple):
    elapsed_ns: int
    outcomes: list
    digest: str
    problems: List[str]
    counters: Dict[str, int]
    evolutions: int
    checkpoints: int
    checkpoint_bytes: int


def _summarize(source, texts, spec, checkpoint, elapsed, outcomes, checkpoints):
    state = {
        "outcomes": [[o.dtd_name, o.similarity, list(o.evolved)] for o in outcomes],
        "dtds": [serialize_dtd(source.dtd(name)) for name in source.dtd_names()],
        "repository": len(source.repository),
    }
    return StreamRun(
        elapsed,
        outcomes,
        measure.digest(state),
        _check_stream(texts, outcomes, source, spec),
        source.perf_snapshot(),
        source.evolution_count,
        checkpoints,
        os.path.getsize(checkpoint) if checkpoints else 0,
    )


def _check_stream(texts, outcomes, source, spec) -> List[str]:
    """Invariants any correct engine keeps on these inputs."""
    problems = []
    deposited = sum(1 for o in outcomes if o.dtd_name is None)
    recovered = sum(o.recovered for o in outcomes)
    expected = spec.repository + deposited - recovered
    if len(source.repository) != expected:
        problems.append(
            f"repository holds {len(source.repository)} documents, "
            f"expected {expected} (start + deposits - recovered)"
        )
    for text, outcome in zip(texts, outcomes):
        root = text[1 : text.index(">")].rstrip("/")
        if root == "ledger" and outcome.dtd_name is not None:
            problems.append(f"foreign document classified into {outcome.dtd_name}")
            break
        if spec.valid and (
            outcome.dtd_name != _ROOT_DTD[root] or outcome.similarity != 1.0
        ):
            problems.append(
                f"valid <{root}> document scored {outcome.similarity} "
                f"against {outcome.dtd_name}"
            )
            break
    return problems


def _round(source, streams, spec, work, read_ns, write_ns, tracer=None):
    """One round: every stream on a fresh engine (the first reuses
    ``source`` when given).  Traced, each stream's processing runs
    under a ``stream`` span, which for the resume workload also covers
    loading the engine (as ``layer.load``)."""
    checkpoint = os.path.join(work, "checkpoint.json")
    runs = []
    for texts in streams:
        gc.collect()
        if source is None and not (tracer is not None and spec.repository):
            source = setup(spec, work)
        if tracer is None:
            timed = run_stream(source, texts, spec, checkpoint, read_ns, write_ns)
        else:
            with tracer.span("stream"):
                if source is None:
                    with tracer.span("layer.load"):
                        source = setup(spec, work)
                source.set_tracer(tracer)
                timed = run_stream(
                    source, texts, spec, checkpoint, read_ns, write_ns, tracer
                )
            source.set_tracer(None)
        runs.append(_summarize(source, texts, spec, checkpoint, *timed))
        release(source)
        source = None
    return runs


def measure_run(name: str, work: str, seconds: float, smoke: bool) -> dict:
    """The untraced run: rounds until ``seconds`` would be exceeded (at
    least one), end-to-end metrics out.  Throughput and the medians are
    medians over rounds, so a burst of interference from outside slows
    some rounds without moving them; the p99s pool every round's
    samples, which they need."""
    spec = spec_for(name, smoke)
    documents = spec.streams * spec.documents
    source = setup(spec, work)
    ready = time.monotonic()
    rounds = _read_rounds(work, spec)
    read_all: List[int] = []
    write_all: List[int] = []
    per_round = []
    done = []
    started = time.perf_counter()
    while True:
        read_ns: List[int] = []
        write_ns: List[int] = []
        runs = _round(source, rounds[len(done) % len(rounds)], spec, work,
                      read_ns, write_ns)
        source = None
        done.append(runs)
        per_round.append((
            documents / (sum(run.elapsed_ns for run in runs) / 1e9),
            measure.percentile(read_ns, 0.5) / 1e6,
            measure.percentile(write_ns, 0.5) / 1e6,
        ))
        read_all += read_ns
        write_all += write_ns
        if len(done) == 1:
            # the process's peak resident memory; later rounds only
            # add latency samples, whose number depends on speed
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spent = time.perf_counter() - started
        if spent * (len(done) + 1) / len(done) > seconds:
            break
    problems = [p for runs in done for run in runs for p in run.problems]
    for index, runs in enumerate(done[len(rounds):], start=len(rounds)):
        if [r.digest for r in runs] != [r.digest for r in done[index % len(rounds)]]:
            problems.append(f"round {index % len(rounds)} repeated with other outcomes")
    if spec.repository:
        problems += round_trip_problems(work)
    throughput, read_p50, write_p50 = zip(*per_round)
    return {
        "ready": ready,
        "attempted": documents * len(done),
        "failed": 0,
        "digest": measure.digest([run.digest for run in done[0]]),
        "problems": problems,
        "diagnostics": {
            "rounds": len(done),
            "latency_samples": len(read_all),
            "classify_p99_ms": measure.percentile(read_all, 0.99) / 1e6,
            "deposit_p99_ms": measure.percentile(write_all, 0.99) / 1e6,
        },
        "metrics": {
            "docs_per_s": statistics.median(throughput),
            "peak_rss_mb": peak_kb / 1024,
            "classify_p50_ms": statistics.median(read_p50),
            "deposit_p50_ms": statistics.median(write_p50),
        },
    }


def probe(name: str, work: str, smoke: bool) -> float:
    setup(spec_for(name, smoke), work)
    return time.monotonic()


def traced_run(name: str, work: str, smoke: bool, trace_path: str) -> dict:
    """Round 0 untraced, then traced: equal digests.  The per-layer
    metrics come from the traced pass, which takes as many rounds as a
    p99 needs (1000 documents)."""
    spec = spec_for(name, smoke)
    rounds = _read_rounds(work, spec)
    count = min(len(rounds), -(-1000 // (spec.streams * spec.documents)))
    streams = [stream for each in rounds[:count] for stream in each]
    untraced = _round(None, rounds[0], spec, work, [], [])
    tracer = Tracer()
    read_ns: List[int] = []
    write_ns: List[int] = []
    with tracer.span("bench", workload=name):
        traced = _round(None, streams, spec, work, read_ns, write_ns, tracer)
    problems = [p for run in untraced + traced for p in run.problems]
    digest = measure.digest([run.digest for run in untraced])
    if measure.digest([run.digest for run in traced[: spec.streams]]) != digest:
        problems.append("traced outcomes differ from untraced outcomes")
    tracer.write_chrome(trace_path)
    records = [
        {"span_id": s.span_id, "parent_id": s.parent_id, "name": s.name,
         "start_ns": s.start_ns, "end_ns": s.end_ns}
        for s in tracer.spans
    ]
    documents = sum(len(texts) for texts in streams)
    by_name = measure.self_by_name(records)
    wall = sum(s.duration_ns for s in tracer.spans if s.name == "stream")
    parse_ns = by_name.get("layer.parse", 0)
    totals: Dict[str, int] = {}
    for run in traced:
        for key, value in run.counters.items():
            totals[key] = totals.get(key, 0) + value
    outcomes = [o for run in traced for o in run.outcomes]
    metrics = measure.layer_shares(by_name, wall)
    metrics.update(counter_metrics(totals))
    metrics.update({
        "xmltree.parse_us_per_doc": parse_ns / 1e3 / documents,
        "xmltree.parse_mb_per_s": (
            sum(len(t.encode("utf-8")) for s in streams for t in s) / 2**20
        ) / (parse_ns / 1e9),
        "classification.classify_us_per_doc": (
            by_name.get("layer.classify", 0) + by_name.get("stage.classify", 0)
        ) / 1e3 / documents,
        "pipeline.write_us_per_doc": sum(write_ns) / 1e3 / documents,
        "engine.classify_p50_ms": measure.percentile(read_ns, 0.5) / 1e6,
        "engine.deposit_p50_ms": measure.percentile(write_ns, 0.5) / 1e6,
        "latency.classify_p99_ms": measure.percentile(read_ns, 0.99) / 1e6,
        "latency.deposit_p99_ms": measure.percentile(write_ns, 0.99) / 1e6,
        "core.evolutions": sum(run.evolutions for run in traced),
        "classification.deposits": sum(1 for o in outcomes if o.dtd_name is None),
        "classification.recovered": sum(o.recovered for o in outcomes),
        "core.checkpoints": sum(run.checkpoints for run in traced),
        "core.checkpoint_bytes": max(run.checkpoint_bytes for run in traced),
        "serve.snapshot_publishes": 0,
        "serve.snapshot_serialize_share": 0.0,
        "serve.rejected_429": 0,
    })
    metrics["classification.drain_useful_ratio"] = ratio(
        metrics["classification.recovered"], totals["index_rows"]
    )
    return {
        "attempted": 2 * documents,
        "failed": 0,
        "digest": digest,
        "problems": problems,
        "metrics": metrics,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(totals: Dict[str, int]) -> Dict[str, float]:
    """The per-layer work counts, from ``perf_snapshot()`` totals."""
    return {
        "classification.documents": totals["documents_classified"],
        "dtd.validations": totals["validations"],
        "dtd.short_circuit_ratio": ratio(
            totals["validity_short_circuits"], totals["validations"]
        ),
        "classification.bound_skips": totals["bound_skips"],
        "similarity.dp_runs": totals["dp_runs"],
        "similarity.dp_cells": totals["dp_cells"],
        "similarity.cache_hit_ratio": ratio(
            totals["structural_cache_hits"],
            totals["structural_cache_hits"] + totals["structural_cache_misses"],
        ),
        "similarity.cache_evictions": totals["structural_cache_evictions"],
        "core.evolution_element_skips": totals["evolution_element_skips"],
        "mining.rule_memo_hit_ratio": ratio(
            totals["mined_rule_hits"],
            totals["mined_rule_hits"] + totals["mined_rule_misses"],
        ),
        "classification.drain_index_hits": totals["drain_index_hits"],
        "classification.index_rows": totals["index_rows"],
        "classification.drain_prune_skips": totals["drain_prune_skips"],
    }


def round_trip_problems(work: str) -> List[str]:
    """The last checkpoint must load back into the state it saved."""
    path = os.path.join(work, "checkpoint.json")
    with open(path, encoding="utf-8") as handle:
        saved = json.load(handle)
    loaded = load_source(path)
    try:
        if json.loads(json.dumps(source_to_json(loaded))) != saved:
            return ["the final checkpoint does not load back to the saved state"]
        return []
    finally:
        release(loaded)
