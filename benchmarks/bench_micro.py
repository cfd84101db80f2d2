"""Micro-benchmarks: substrate throughput tracking.

Not an experiment — a performance dashboard for the substrates every
experiment sits on (parsing, validation, similarity, mining, policy
cascade), so regressions show up as benchmark deltas rather than as
mysteriously slow experiments.

Also runnable as a script for the classification fast-path comparison
(``repro.perf``): ``PYTHONPATH=src python benchmarks/bench_micro.py
[--smoke]`` times three classification workloads against a five-DTD
source with the fast paths on and off, checks the outcomes agree,
and writes ``benchmarks/results/BENCH_micro.json``.  The script also
runs an engine batch untraced and with a live tracer (``repro.obs``),
asserts the traced outcomes are identical, the span tree is singly
rooted, and the traced/untraced ratio stays under 2x (the decision-10
"disabled tracing is free" guard) — pass ``--emit-metrics`` to embed
per-span-name latency histogram summaries in the JSON.  A
``store_scale`` section then times the
pruned post-evolution drain at growing repository sizes against every
document-store backend (memory, jsonl, sqlite), asserts the recovered
documents agree everywhere and that sqlite took the indexed path, and
records per-size drain latencies — the scan backends are linear in
repository size, the sqlite index query is sub-linear — plus an
``ingestion`` subsection comparing per-row commits against one
``add_many`` batch per backend (the sqlite batch must win by at least
5x).  The JSON carries ``schema_version`` 2 and a ``run_metadata``
block (python, platform, cpu_count, commit).
"""

import json
import os
import sys
import time

import pytest

from repro.classification.classifier import Classifier
from repro.core.structure_builder import build_structure
from repro.dtd.automaton import ContentAutomaton, Validator
from repro.dtd.parser import parse_content_model
from repro.generators.documents import DocumentGenerator
from repro.generators.scenarios import (
    auction_scenario,
    bibliography_scenario,
    catalog_scenario,
    figure3_workload,
    figure3_dtd,
    newsfeed_scenario,
)
from repro.mining.rules import mine_evolution_rules
from repro.perf import FastPathConfig, PerfCounters
from repro.similarity.matcher import StructureMatcher
from repro.xmltree.document import Element, Text
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

_AUCTION_DTD, _MAKE = auction_scenario()
_DOCUMENT = DocumentGenerator(_AUCTION_DTD, seed=3).generate()
_XML = serialize_document(_DOCUMENT)


def test_micro_parse(benchmark):
    result = benchmark(parse_document, _XML)
    assert result.root.tag == "site"


def test_micro_serialize(benchmark):
    result = benchmark(serialize_document, _DOCUMENT)
    assert result.startswith("<?xml")


def test_micro_validate(benchmark):
    validator = Validator(_AUCTION_DTD)
    assert benchmark(validator.is_valid, _DOCUMENT)


def test_micro_similarity(benchmark):
    matcher = StructureMatcher(_AUCTION_DTD)

    def run():
        value = matcher.document_similarity(_DOCUMENT.root)
        matcher.clear_cache()
        return value

    assert benchmark(run) == 1.0


def test_micro_automaton_accepts(benchmark):
    automaton = ContentAutomaton(parse_content_model("((a, b)*, (c | d))"))
    word = ["a", "b"] * 20 + ["c"]
    assert benchmark(automaton.accepts, word)


def test_micro_mining(benchmark):
    sequences = [frozenset("bcd"), frozenset("bce")] * 25
    rules = benchmark(mine_evolution_rules, sequences, "bcde", 0.05)
    assert rules.mutually_exclusive("d", "e")


def test_micro_policy_cascade(benchmark):
    # imported lazily so script mode needs only PYTHONPATH=src
    from tests.test_policies import make_context

    instances = [["b", "c"] * m + ["d"] for m in (1, 2, 3)] + [
        ["b", "c"] * m + ["e"] for m in (1, 2)
    ]
    record = make_context(instances).record

    model = benchmark(build_structure, record)
    assert model.label == "AND"


# ----------------------------------------------------------------------
# Classification fast paths (repro.perf): on-vs-off comparison
# ----------------------------------------------------------------------


def _five_dtds():
    dtds = [figure3_dtd()]
    makers = {}
    for scenario in (
        catalog_scenario,
        bibliography_scenario,
        newsfeed_scenario,
        auction_scenario,
    ):
        dtd, make = scenario()
        dtds.append(dtd)
        makers[dtd.name] = make
    return dtds, makers


def _valid_stream(makers, per_scenario):
    documents = []
    for name in sorted(makers):
        documents.extend(makers[name](per_scenario, seed=41))
    return documents


def _repeated_stream(makers, distinct, repeats):
    """A few distinct *invalid* documents, each repeated many times.

    Fresh parse per repetition — the structural cache has to earn its
    hits by fingerprint, not by object identity.
    """
    sources = []
    for index, name in enumerate(sorted(makers)):
        document = makers[name](1, seed=97 + index)[0]
        document.root.append(Element("stray", children=[Text("x")]))
        sources.append(serialize_document(document))
    xmls = (sources * ((distinct * repeats) // len(sources) + 1))[: distinct * repeats]
    return [parse_document(xml) for xml in xmls]


def _classify_all(classifier, documents):
    return [
        (result.dtd_name, result.similarity)
        for result in map(classifier.classify, documents)
    ]


def test_micro_fastpath_valid_stream(benchmark):
    dtds, makers = _five_dtds()
    documents = _valid_stream(makers, per_scenario=3)
    counters = PerfCounters()
    classifier = Classifier(dtds, threshold=0.5, counters=counters)
    outcomes = benchmark(_classify_all, classifier, documents)
    assert all(name is not None and sim == 1.0 for name, sim in outcomes)
    assert counters.validity_short_circuits > 0


def test_micro_slowpath_valid_stream(benchmark):
    dtds, makers = _five_dtds()
    documents = _valid_stream(makers, per_scenario=3)
    classifier = Classifier(
        dtds, threshold=0.5, fastpath=FastPathConfig.disabled()
    )
    outcomes = benchmark(_classify_all, classifier, documents)
    assert all(name is not None and sim == 1.0 for name, sim in outcomes)


def test_micro_fastpath_repeated_stream(benchmark):
    dtds, makers = _five_dtds()
    documents = _repeated_stream(makers, distinct=5, repeats=4)
    counters = PerfCounters()
    classifier = Classifier(dtds, threshold=0.3, counters=counters)
    benchmark(_classify_all, classifier, documents)
    assert counters.structural_cache_hits > 0


# ----------------------------------------------------------------------
# Engine batch
# ----------------------------------------------------------------------


def _engine_corpus(makers, per_scenario):
    """A mixed engine workload: valid documents from every scenario plus
    a drifting Figure-3 stream that evolves mid-batch."""
    return _valid_stream(makers, per_scenario) + figure3_workload(
        per_scenario * 2, per_scenario * 2, seed=11
    )


def _engine_run(dtds, documents):
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig

    source = XMLSource(
        [dtd.copy() for dtd in dtds],
        EvolutionConfig(sigma=0.4, tau=0.05, min_documents=25),
    )
    start = time.perf_counter()
    outcomes = source.process_many([document.copy() for document in documents])
    elapsed = time.perf_counter() - start
    view = [
        (outcome.dtd_name, outcome.similarity, tuple(outcome.evolved))
        for outcome in outcomes
    ]
    return view, elapsed


# ----------------------------------------------------------------------
# Tracing overhead: untraced vs traced engine batch (repro.obs)
# ----------------------------------------------------------------------


def _tracing_overhead_compare(dtds, documents, emit_metrics):
    """Run the engine batch untraced (the :data:`NULL_TRACER` default)
    and with a live tracer; the outcomes must be identical and the
    traced/untraced ratio bounded — DESIGN.md decision 10's "tracing
    never changes results, disabled tracing is free" guard.  The bound
    is generous (the traced run does strictly more work); what it
    catches is tracing leaking into the untraced path."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    plain_view, plain_time = _engine_run(dtds, documents)
    tracer = Tracer()

    def traced_run():
        from repro.core.engine import XMLSource
        from repro.core.evolution import EvolutionConfig

        source = XMLSource(
            [dtd.copy() for dtd in dtds],
            EvolutionConfig(sigma=0.4, tau=0.05, min_documents=25),
        )
        start = time.perf_counter()
        outcomes = source.process_many(
            [document.copy() for document in documents], trace=tracer
        )
        elapsed = time.perf_counter() - start
        view = [
            (outcome.dtd_name, outcome.similarity, tuple(outcome.evolved))
            for outcome in outcomes
        ]
        return view, elapsed

    traced_view, traced_time = traced_run()
    if plain_view != traced_view:
        raise AssertionError("tracing_overhead: traced outcomes diverge")
    roots = [span for span in tracer.spans if span.parent_id is None]
    if len(roots) != 1:
        raise AssertionError(
            f"tracing_overhead: expected one root span, got {len(roots)}"
        )
    ratio = traced_time / plain_time if plain_time > 0 else float("inf")
    if ratio >= 2.0:
        raise AssertionError(
            f"tracing_overhead: traced run {ratio:.2f}x slower than untraced"
        )
    print(
        f"{'tracing_overhead':<18} {len(documents):>4} docs   "
        f"plain {plain_time * 1000:8.1f} ms   traced {traced_time * 1000:8.1f} ms   "
        f"ratio {ratio:5.2f}x  ({len(tracer.spans)} spans)"
    )
    result = {
        "documents": len(documents),
        "plain_seconds": plain_time,
        "traced_seconds": traced_time,
        "ratio": ratio,
        "spans": len(tracer.spans),
    }
    if emit_metrics:
        registry = MetricsRegistry()
        registry.observe_spans(tracer.spans)
        result["span_latency"] = {
            dict(instrument.labels).get("name", instrument.name): (
                instrument.summary()
            )
            for instrument in registry
            if instrument.kind == "histogram"
        }
    return result


# ----------------------------------------------------------------------
# Store scale: drain latency vs repository size (repro.classification)
# ----------------------------------------------------------------------


def _store_scale_workload(size):
    """``size`` vocabulary-disjoint, text-free filler documents (their
    tier-3 bound against Figure 3 is provably 0.0), a fixed handful the
    evolved DTD genuinely recovers, and the drift that triggers the
    evolution."""
    filler = [
        parse_document(
            f"<q{i % 17}><r{i % 13}/><s{i % 7}/></q{i % 17}>"
        )
        for i in range(size)
    ]
    recoverable = [
        parse_document("<a><b>x</b><c>y</c>" + "<d/>" * count + "</a>")
        for count in (6, 7, 8)
    ]
    drift = [
        parse_document("<a><b>x</b><c>y</c><d/><d/></a>") for _ in range(8)
    ]
    return filler, recoverable, drift


def _store_scale_run(kind, size, tmp_dir):
    from repro.classification.stores import make_store
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig

    store = kind
    if kind in ("jsonl", "sqlite"):
        store = make_store(
            kind, os.path.join(tmp_dir, f"scale-{size}.{kind}")
        )
    source = XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5),
        auto_evolve=False,
        store=store,
    )
    filler, recoverable, drift = _store_scale_workload(size)
    for document in filler + recoverable + drift:
        source.process(document)
    deposited = len(source.repository)
    start = time.perf_counter()
    source.evolve_now("figure3")
    evolve_seconds = time.perf_counter() - start
    perf = source.perf.snapshot()
    recovered = source.evolution_log[-1].recovered_from_repository
    remaining = len(source.repository)
    source.close()
    if hasattr(source.repository.store, "close"):
        source.repository.store.close()
    return {
        "size": deposited,
        "recovered": recovered,
        "remaining": remaining,
        "evolve_seconds": evolve_seconds,
        "drain_seconds": perf["drain_ns"] / 1e9,
        "drain_prune_skips": perf["drain_prune_skips"],
        "drain_index_hits": perf["drain_index_hits"],
        "index_rows": perf["index_rows"],
    }


def _store_scale_compare(sizes):
    """Drain latency vs repository size per backend.

    Every backend must recover the same documents at every size (the
    engine-equivalence invariant, re-checked at scale).  The scan
    backends walk — and for jsonl, re-parse — every deposited document,
    so their drain latency is linear in repository size; the sqlite
    indexed drain asks the inverted tag index for the candidate set,
    which stays constant here, so its latency must grow sub-linearly.
    """
    import tempfile

    from repro.classification.stores import STORE_KINDS

    per_kind = {kind: [] for kind in STORE_KINDS}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for size in sizes:
            rows = {
                kind: _store_scale_run(kind, size, tmp_dir)
                for kind in STORE_KINDS
            }
            recovered = {entry["recovered"] for entry in rows.values()}
            if len(recovered) != 1:
                raise AssertionError(
                    f"store_scale: recovered diverges across backends at "
                    f"{size} docs: {rows}"
                )
            if rows["sqlite"]["drain_index_hits"] != 1:
                raise AssertionError(
                    "store_scale: sqlite drain did not take the indexed path"
                )
            timing = "   ".join(
                f"{kind} {rows[kind]['drain_seconds'] * 1000:8.1f} ms"
                for kind in STORE_KINDS
            )
            print(
                f"{'store_scale':<18} {rows['memory']['size']:>4} docs   "
                f"{timing}   (index rows {rows['sqlite']['index_rows']})"
            )
            for kind in STORE_KINDS:
                per_kind[kind].append(rows[kind])
    return per_kind


def _store_ingest_compare(count):
    """Ingestion throughput: per-row commits vs one batched window.

    The sqlite backend must show the write-path win that justifies the
    ``add_many`` contract — one transaction for the whole batch beats a
    commit per insert by at least 5x on tiny documents (the commit is
    the fixed cost the batch amortizes).  The jsonl numbers (flush per
    add vs one bulk flush) are recorded without a gate: appends are
    cheap enough that the win is real but modest.
    """
    import tempfile

    from repro.classification.stores import JsonlStore, SqliteStore

    documents = [parse_document("<a><b/></a>") for _ in range(count)]
    entry = {"documents": count}
    with tempfile.TemporaryDirectory() as tmp_dir:
        slow = SqliteStore(os.path.join(tmp_dir, "perrow.sqlite"))
        start = time.perf_counter()
        for document in documents:
            slow.add(document)
        per_row = time.perf_counter() - start
        slow.close()
        fast = SqliteStore(os.path.join(tmp_dir, "batched.sqlite"))
        start = time.perf_counter()
        fast.add_many(documents)
        batched = time.perf_counter() - start
        if len(fast) != count:
            raise AssertionError("store_ingest: add_many lost documents")
        fast.close()
        sqlite_speedup = per_row / batched if batched > 0 else float("inf")
        entry["sqlite"] = {
            "per_row_commit_seconds": per_row,
            "add_many_seconds": batched,
            "speedup": sqlite_speedup,
        }

        slow = JsonlStore(os.path.join(tmp_dir, "perrow.jsonl"))
        start = time.perf_counter()
        for document in documents:
            slow.add(document)
        per_add = time.perf_counter() - start
        fast = JsonlStore(os.path.join(tmp_dir, "batched.jsonl"))
        start = time.perf_counter()
        fast.add_many(documents)
        bulk = time.perf_counter() - start
        if len(fast) != count:
            raise AssertionError("store_ingest: jsonl add_many lost documents")
        entry["jsonl"] = {
            "per_add_seconds": per_add,
            "add_many_seconds": bulk,
            "speedup": per_add / bulk if bulk > 0 else float("inf"),
        }
    print(
        f"{'store_ingest':<18} {count:>4} docs   "
        f"sqlite per-row {per_row * 1000:8.1f} ms   "
        f"add_many {batched * 1000:8.1f} ms   "
        f"speedup {sqlite_speedup:5.1f}x"
    )
    if sqlite_speedup < 5.0:
        raise AssertionError(
            f"store_ingest: sqlite add_many speedup {sqlite_speedup:.1f}x < 5x"
        )
    return entry


# ----------------------------------------------------------------------
# Script mode: machine-readable fast-path comparison
# ----------------------------------------------------------------------


def _timed_run(dtds, documents, fastpath):
    counters = PerfCounters()
    classifier = Classifier(
        dtds, threshold=0.5, fastpath=fastpath, counters=counters
    )
    start = time.perf_counter()
    outcomes = _classify_all(classifier, documents)
    elapsed = time.perf_counter() - start
    return outcomes, elapsed, counters.snapshot()


def _compare(name, dtds, documents):
    fast_outcomes, fast_time, fast_counters = _timed_run(
        dtds, documents, FastPathConfig()
    )
    slow_outcomes, slow_time, slow_counters = _timed_run(
        dtds, documents, FastPathConfig.disabled()
    )
    if fast_outcomes != slow_outcomes:
        raise AssertionError(f"{name}: fast and slow outcomes diverge")
    speedup = slow_time / fast_time if fast_time > 0 else float("inf")
    print(
        f"{name:<18} {len(documents):>4} docs   "
        f"fast {fast_time * 1000:8.1f} ms   slow {slow_time * 1000:8.1f} ms   "
        f"speedup {speedup:5.1f}x"
    )
    return {
        "documents": len(documents),
        "dtds": len(dtds),
        "fast_seconds": fast_time,
        "slow_seconds": slow_time,
        "speedup": speedup,
        "fast_counters": fast_counters,
        "slow_counters": slow_counters,
    }


def main(argv=None):
    try:  # script mode (sys.path[0] = benchmarks/) vs pytest (rootdir)
        from _harness import run_metadata
    except ImportError:
        from benchmarks._harness import run_metadata

    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    emit_metrics = "--emit-metrics" in argv
    per_scenario, distinct, repeats = (2, 3, 3) if smoke else (10, 8, 25)
    dtds, makers = _five_dtds()
    workloads = {
        "valid_stream": _valid_stream(makers, per_scenario),
        "repeated_stream": _repeated_stream(makers, distinct, repeats),
        "mixed_stream": _valid_stream(makers, max(1, per_scenario // 2))
        + _repeated_stream(makers, distinct, max(1, repeats // 5))
        + figure3_workload(per_scenario, per_scenario, seed=3),
    }
    results = {
        "schema_version": 2,
        "run_metadata": run_metadata(),
        "smoke": smoke,
        "workloads": {},
    }
    for name, documents in sorted(workloads.items()):
        results["workloads"][name] = _compare(name, dtds, documents)
    # 8x per scenario -> 120 / 1000 documents
    engine_corpus = _engine_corpus(makers, 15 if smoke else 125)
    results["tracing_overhead"] = _tracing_overhead_compare(
        dtds, engine_corpus, emit_metrics
    )
    scale_sizes = (64, 256) if smoke else (256, 1024, 4096)
    results["store_scale"] = _store_scale_compare(scale_sizes)
    # not scaled down under --smoke: the 5x gate needs enough rows for
    # the per-commit fixed cost to dominate the measurement noise
    results["store_scale"]["ingestion"] = _store_ingest_compare(2000)
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_micro.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    return results


if __name__ == "__main__":
    main()
