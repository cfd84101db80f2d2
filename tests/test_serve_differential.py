"""Differential harness: served traffic is bit-identical to batch runs.

The same interleaved op sequence — deposits, classify probes, a forced
evolution, a standalone drain — is driven once through a running
:class:`~repro.serve.runner.ServiceRunner` over real HTTP and once
through a fresh batch :class:`~repro.core.engine.XMLSource`.  Every
response must equal the batch result *exactly*: same DTD choices, same
float similarities (JSON round-trips floats bit-exactly), same rankings,
same evolution log (including the evolved DTDs' serializations), same
repository contents in the same drain order.

The single-writer queue imposes the same total order a batch
``process_many`` would, so nothing may diverge.
"""

from __future__ import annotations

import json

import pytest

from repro.generators.scenarios import figure3_workload
from repro.pipeline.events import DocumentClassified
from repro.serve import ServeConfig, ServiceRunner
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

from tests.serve_utils import (
    ServeClient,
    evolution_log_digest,
    figure3_source,
    final_state_digest,
)
from tests.test_stores import selected_store_kinds


def _workload_ops():
    """A deterministic interleaved op sequence over the Figure-3 drift
    families plus alien documents no DTD describes (they must survive in
    the repository, in deposit order, until drained)."""
    documents = [
        serialize_document(doc, xml_declaration=False)
        for doc in figure3_workload(count_d1=8, count_d2=8, seed=7)
    ]
    aliens = [f"<alien><x>{i}</x><x>{i}</x></alien>" for i in range(3)]
    probe = "<a><b>x</b><c>y</c><d>z</d><d>z</d></a>"
    ops = []
    for index, xml in enumerate(documents):
        ops.append(("deposit", xml))
        if index % 3 == 2:
            ops.append(("classify", probe))
        if index == 4:
            ops.append(("deposit", aliens[0]))
        if index == 5:
            ops.append(("evolve", "figure3"))
        if index == 10:
            ops.append(("deposit", aliens[1]))
            ops.append(("deposit", aliens[2]))
    ops.append(("classify", probe))
    ops.append(("drain", None))
    return ops


def _run_served(source, ops, config=None):
    """Drive the op sequence over HTTP; returns per-op response bodies
    (write-only bookkeeping fields stripped for comparison) and the
    final published snapshot version."""
    responses = []
    final_version = 0
    with ServiceRunner(source, config or ServeConfig()) as runner:
        client = ServeClient(runner.port)
        try:
            for kind, arg in ops:
                if kind == "deposit" or kind == "classify":
                    status, _, body = client.post(f"/{kind}", {"xml": arg})
                elif kind == "evolve":
                    status, _, body = client.post("/evolve", {"dtd": arg})
                else:
                    status, _, body = client.post("/drain")
                assert status == 200, f"{kind} failed: {body}"
                final_version = max(
                    final_version, body.get("snapshot_version", 0)
                )
                for key in ("applied_index", "snapshot_version", "fingerprint",
                            "dtd_names", "sigma"):
                    body.pop(key, None)
                responses.append(body)
        finally:
            client.close()
    return responses, final_version


def _run_batch(source, ops):
    """Replay the same ops directly on a batch engine, shaping each
    result exactly like the serve wire format (via one JSON round-trip,
    which is float-exact)."""
    last = {}

    def remember(event):
        last["result"] = event.result

    source.events.subscribe(DocumentClassified, remember)
    responses = []
    for kind, arg in ops:
        if kind == "deposit":
            outcome = source.process(parse_document(arg))
            body = outcome.as_json()
            body["ranking"] = [[n, s] for n, s in last["result"].ranking]
        elif kind == "classify":
            result = source.classify(parse_document(arg))
            body = {
                "dtd": result.dtd_name,
                "similarity": result.similarity,
                "accepted": result.accepted,
                "ranking": [[n, s] for n, s in result.ranking],
            }
        elif kind == "evolve":
            from repro.dtd.serializer import serialize_dtd

            event = source.evolve_now(arg)
            body = {
                "dtd": event.dtd_name,
                "documents_recorded": event.documents_recorded,
                "activation_score": event.activation_score,
                "recovered": event.recovered_from_repository,
                "changed": sorted(event.result.changed_declarations()),
                "new_dtd": serialize_dtd(event.result.new_dtd),
            }
        else:
            body = {"recovered": source.drain()}
        responses.append(json.loads(json.dumps(body)))
    return responses


@pytest.mark.parametrize("store_kind", ["memory", "sqlite"])
def test_served_ops_bit_identical_to_batch(tmp_path, store_kind):
    ops = _workload_ops()

    def store_for(name):
        if store_kind == "memory":
            return None
        from repro.classification.stores import SqliteStore

        return SqliteStore(str(tmp_path / f"{name}.db"))

    served_source = figure3_source(store=store_for("served"))
    batch_source = figure3_source(store=store_for("batch"))
    try:
        served, _ = _run_served(served_source, ops)
        batch = _run_batch(batch_source, ops)

        assert len(served) == len(batch)
        for index, (kind, _) in enumerate(ops):
            assert served[index] == batch[index], (
                f"op {index} ({kind}) diverged:\n"
                f"  served: {served[index]}\n  batch:  {batch[index]}"
            )

        # the engines themselves converged: same evolution history (same
        # evolved DTDs declaration-for-declaration), same repository in
        # the same insertion order, same counters
        assert evolution_log_digest(served_source) == evolution_log_digest(
            batch_source
        )
        assert final_state_digest(served_source) == final_state_digest(batch_source)
        # the drift workload actually evolved something, so the equality
        # above compared real evolutions rather than two no-ops
        assert served_source.evolution_count >= 2
        assert any(op[0] == "deposit" and "alien" in op[1] for op in ops)
    finally:
        served_source.close()
        batch_source.close()


@pytest.mark.parametrize("store_kind", selected_store_kinds())
def test_bulk_deposit_bit_identical_to_singles(tmp_path, store_kind):
    """``{"documents": [...]}`` is one admission-controlled op whose
    per-document outcomes — and the engine it leaves behind — match a
    sequence of single deposits exactly, on every store backend."""
    documents = [
        serialize_document(doc, xml_declaration=False)
        for doc in figure3_workload(count_d1=6, count_d2=6, seed=9)
    ] + [f"<alien><x>{i}</x></alien>" for i in range(2)]

    def run(bulk):
        store = None
        if store_kind != "memory":
            from repro.classification.stores import make_store

            store = make_store(
                store_kind, str(tmp_path / f"{store_kind}-{bulk}.{store_kind}")
            )
        source = figure3_source(store=store)
        try:
            with ServiceRunner(source, ServeConfig()) as runner:
                client = ServeClient(runner.port)
                try:
                    if bulk:
                        status, _, body = client.post(
                            "/deposit", {"documents": documents}
                        )
                        assert status == 200
                        assert body["deposited"] == len(documents)
                        outcomes = body["outcomes"]
                    else:
                        outcomes = []
                        for xml in documents:
                            status, _, body = client.post("/deposit", {"xml": xml})
                            assert status == 200
                            outcomes.append(
                                {
                                    key: body[key]
                                    for key in (
                                        "dtd", "similarity", "evolved", "recovered"
                                    )
                                }
                            )
                finally:
                    client.close()
            return (
                outcomes,
                evolution_log_digest(source),
                final_state_digest(source),
            )
        finally:
            source.close()

    singles = run(bulk=False)
    batched = run(bulk=True)
    assert batched == singles
    assert any(outcome["dtd"] is None for outcome in singles[0])  # deposits


def test_bulk_deposit_rejects_malformed_batches():
    source = figure3_source()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            client = ServeClient(runner.port)
            try:
                for payload in (
                    {"documents": []},
                    {"documents": ["<a/>", 7]},
                    {"documents": ["<a/>", "   "]},
                    {"documents": ["<a/>", "<unclosed>"]},
                ):
                    status, _, _ = client.post("/deposit", payload)
                    assert status == 400, payload
                # nothing was applied by the rejected batches
                status, _, body = client.post("/deposit", {"xml": "<a><b>x</b></a>"})
                assert status == 200 and body["applied_index"] == 1
            finally:
                client.close()
    finally:
        source.close()


def test_sampling_never_perturbs_outcomes(tmp_path):
    """DESIGN decision 15 as a differential: a served run with sampling
    fully on (every request head-sampled, every request also slow-kept,
    spans sunk to disk) returns bit-identical bodies to the batch run
    AND publishes exactly as many snapshot versions as an unsampled
    served run — installing the per-op span collector must never leak
    into the snapshot fingerprint."""
    ops = _workload_ops()
    sampled_source = figure3_source()
    plain_source = figure3_source()
    batch_source = figure3_source()
    sink = str(tmp_path / "spans.jsonl")
    sampled_config = ServeConfig(
        trace_sample=1.0, trace_slow_ms=0.0, trace_seed=3, trace_sink=sink
    )
    try:
        sampled, sampled_version = _run_served(
            sampled_source, ops, sampled_config
        )
        plain, plain_version = _run_served(plain_source, ops)
        batch = _run_batch(batch_source, ops)

        assert sampled == batch
        assert sampled == plain
        # same number of published epochs: sampling added none
        assert sampled_version == plain_version
        assert evolution_log_digest(sampled_source) == evolution_log_digest(
            batch_source
        )
        assert final_state_digest(sampled_source) == final_state_digest(
            batch_source
        )

        # the sink captured engine spans for the sampled writes and
        # loads with the standard trace loader (report-compatible)
        from repro.obs import load_trace

        _, records = load_trace(sink)
        names = {record["name"] for record in records}
        assert any(name.startswith("request./") for name in names)
        assert "write.apply" in names
        assert "doc" in names  # engine spans were collected and grafted
    finally:
        sampled_source.close()
        plain_source.close()
        batch_source.close()


def test_snapshot_fingerprint_ignores_tracing():
    """Installing a tracer changes nothing a classification depends on,
    so the holder keeps one snapshot (one publish, one fingerprint)
    across untraced, traced and untraced again refreshes."""
    from repro.obs.tracing import Tracer
    from repro.serve import SnapshotHolder

    source = figure3_source()
    holder = SnapshotHolder()
    untraced = holder.refresh_from(source)
    source.set_tracer(Tracer())
    traced = holder.refresh_from(source)
    # a holder publishing while traced computes the same content address
    assert SnapshotHolder().refresh_from(source).fingerprint == untraced.fingerprint
    source.set_tracer(None)
    again = holder.refresh_from(source)
    assert untraced is traced is again
    assert holder.publishes == 1
    assert holder.reuses == 2


def test_an_evolution_that_changed_nothing_leaves_no_version_lag():
    """A forced evolution that changes no declaration still installs a
    new DTD object and bumps the engine's state version.  Serve
    publishes a new version for it, with an unchanged fingerprint, so
    /debug/health never reports readers as stale."""
    source = figure3_source(auto_evolve=False)
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            client = ServeClient(runner.port)
            try:
                _, _, before = client.get("/healthz")
                status, _, evolved = client.post("/evolve", {"dtd": "figure3"})
                assert status == 200 and evolved["changed"] == []
                status, _, health = client.get("/debug/health")
                assert status == 200
                assert health["snapshot"]["version_lag"] == 0
                _, _, metrics = client.get("/metrics")
                assert "\nrepro_serve_snapshot_version_lag 0\n" in metrics
                _, _, after = client.get("/healthz")
            finally:
                client.close()
        assert after["snapshot_version"] == before["snapshot_version"] + 1
        assert after["fingerprint"] == before["fingerprint"]
    finally:
        source.close()


def test_served_classify_honours_the_tag_matcher():
    """A served reader classifies with the engine's tag matcher: a
    thesaurus synonym scores the same over HTTP as in the engine."""
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig
    from repro.dtd.parser import parse_dtd
    from repro.similarity.tags import ThesaurusTagMatcher

    dtd = parse_dtd(
        "<!ELEMENT book (author, title)>"
        "<!ELEMENT author (#PCDATA)><!ELEMENT title (#PCDATA)>",
        name="book",
    )
    source = XMLSource(
        [dtd], EvolutionConfig(sigma=0.3),
        tag_matcher=ThesaurusTagMatcher([{"author", "writer"}]),
    )
    xml = "<book><writer>x</writer><title>y</title></book>"
    expected = source.classify(parse_document(xml))
    exact = XMLSource([dtd.copy()], EvolutionConfig(sigma=0.3))
    # the synonym must matter, or this test proves nothing
    assert expected.similarity > exact.classify(parse_document(xml)).similarity
    with ServiceRunner(source, ServeConfig()) as runner:
        client = ServeClient(runner.port)
        try:
            status, _, body = client.post("/classify", {"xml": xml})
        finally:
            client.close()
    assert status == 200
    assert body["dtd"] == expected.dtd_name
    assert body["similarity"] == expected.similarity
    assert body["ranking"] == [[n, s] for n, s in expected.ranking]


def test_served_classify_is_read_only():
    """Classify probes never perturb the engine: a served run with many
    interleaved probes leaves the same terminal state as one without."""
    documents = [
        serialize_document(doc, xml_declaration=False)
        for doc in figure3_workload(count_d1=5, count_d2=5, seed=3)
    ]
    probe = "<a><b>x</b><c>y</c><e>w</e></a>"

    def run(probe_heavy):
        source = figure3_source()
        try:
            with ServiceRunner(source, ServeConfig()) as runner:
                client = ServeClient(runner.port)
                try:
                    for xml in documents:
                        if probe_heavy:
                            for _ in range(3):
                                status, _, _ = client.post("/classify", {"xml": probe})
                                assert status == 200
                        status, _, _ = client.post("/deposit", {"xml": xml})
                        assert status == 200
                finally:
                    client.close()
            return evolution_log_digest(source), final_state_digest(source)
        finally:
            source.close()

    assert run(probe_heavy=False) == run(probe_heavy=True)


def test_served_error_paths_leave_engine_untouched():
    """Malformed requests answer 4xx and apply nothing."""
    source = figure3_source()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            client = ServeClient(runner.port)
            try:
                status, _, body = client.post("/deposit", {"xml": "<broken"})
                assert status == 400 and "error" in body
                status, _, body = client.post("/deposit", {"nope": 1})
                assert status == 400
                status, _, body = client.post("/evolve", {"dtd": "missing"})
                assert status == 404
                status, _, body = client.post("/nonsense")
                assert status == 404
                status, _, body = client.get("/deposit")
                assert status == 405
                status, _, health = client.get("/healthz")
                assert status == 200
                assert health["applied_writes"] == 0
                assert health["documents_processed"] == 0
            finally:
                client.close()
        assert source.documents_processed == 0
        assert source.evolution_count == 0
    finally:
        source.close()
