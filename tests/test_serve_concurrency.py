"""Concurrency semantics of serve mode.

Four properties, each probed over real sockets with racing threads:

1. **Snapshot isolation** — a classify response reflects exactly one
   published epoch, never a mix of DTD versions, and carries that
   epoch's version stamp; a held epoch ranks exactly as it did at
   publish time however the engine evolves afterwards.
2. **Writer serialization** — racing deposits apply in *some* strict
   total order: every response's ``applied_index`` is unique and the
   set is contiguous.
3. **Backpressure** — a full write queue answers 429 with a
   ``Retry-After`` hint instead of queueing unboundedly, a deposit
   whose body is still being parsed (on the writer) never stalls the
   other endpoints, and a body the parser rejects answers 400 on
   either thread without wedging it.
4. **Graceful shutdown** — every *accepted* write completes before the
   service stops, the final checkpoint reflects it, and a disk-backed
   store survives for crash-resume; neither a stuck read nor an idle
   keep-alive client holds the shutdown past its grace period.

5. **Observability** — the ``/debug/*`` endpoints answer with their
   full schemas while deposits and classifies race (introspection is
   admission-exempt and never 429s), and the correlation id a response
   carries in ``X-Request-Id`` is the same id bus handlers observe on
   the *writer thread* while that request's op applies — the id crosses
   the queue boundary with the op, not with the thread.
"""

from __future__ import annotations

import http.client
import os
import sys
import threading
import time

import pytest

from repro.classification.stores import SqliteStore
from repro.core.persistence import load_source
from repro.obs import current_request_id
from repro.pipeline.events import DocumentDeposited
from repro.serve import ServeConfig, ServiceRunner

from tests.serve_utils import (
    ServeClient,
    figure3_source,
    post_with_retry,
    wait_until,
)

PROBE = "<a><b>x</b><c>y</c><d>z</d><d>z</d></a>"


def _suspended(runner):
    """Clear the write gate *and confirm it ran on the loop* before
    returning (``suspend_writes`` alone only schedules the clear)."""

    async def clear():
        runner.service._write_gate.clear()

    runner.submit(clear()).result(timeout=5)


# ----------------------------------------------------------------------
# 1. Snapshot isolation
# ----------------------------------------------------------------------

def test_classify_sees_exactly_one_epoch():
    """Concurrent classify responses during an evolution each match one
    of the two epoch states exactly — never a blend — and the version
    stamp identifies which."""
    source = figure3_source(auto_evolve=False)
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            setup = ServeClient(runner.port)
            for doc in [
                "<a><b>x</b><c>y</c><d>z</d></a>",
                "<a><b>x</b><c>y</c><d>z</d><d>z</d></a>",
                "<a><b>x</b><b>x</b><c>y</c><d>z</d></a>",
            ] * 2:
                status, _, _ = setup.post("/deposit", {"xml": doc})
                assert status == 200
            status, _, before = setup.post("/classify", {"xml": PROBE})
            assert status == 200

            responses = []
            lock = threading.Lock()
            saw_before = threading.Event()
            saw_after = threading.Event()
            stop = threading.Event()

            def reader():
                client = ServeClient(runner.port)
                try:
                    while not stop.is_set():
                        status, _, body = client.post("/classify", {"xml": PROBE})
                        assert status == 200
                        with lock:
                            responses.append(body)
                        if body["snapshot_version"] == before["snapshot_version"]:
                            saw_before.set()
                        elif body["snapshot_version"] > before["snapshot_version"]:
                            saw_after.set()
                finally:
                    client.close()

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            # a reader must have recorded the old epoch before the
            # evolution can replace it, or only the new one is seen
            wait_until(saw_before.is_set, timeout=10)
            status, _, evolved = setup.post("/evolve", {"dtd": "figure3"})
            assert status == 200
            # keep reading until every epoch has demonstrably been seen
            wait_until(saw_after.is_set, timeout=10)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            status, _, after = setup.post("/classify", {"xml": PROBE})
            assert status == 200
            setup.close()

        # the evolution genuinely changed the probe's classification, so
        # "matches one epoch exactly" below is a real distinction
        assert before["similarity"] != after["similarity"]
        assert after["snapshot_version"] == evolved["snapshot_version"]
        assert after["snapshot_version"] > before["snapshot_version"]

        seen_versions = set()
        for body in responses:
            assert body in (before, after), (
                f"response mixes epochs: {body}\n"
                f"  epoch {before['snapshot_version']}: {before}\n"
                f"  epoch {after['snapshot_version']}: {after}"
            )
            seen_versions.add(body["snapshot_version"])
        assert seen_versions == {
            before["snapshot_version"], after["snapshot_version"]
        }
    finally:
        source.close()


def test_a_published_snapshot_survives_later_evolutions():
    """Readers share the engine's DTD objects, so snapshot isolation
    rests on the engine never mutating an installed DTD.  While a reader
    thread classifies against a held snapshot, evolutions that rename a
    tag (thesaurus matcher) and add a declaration run on the engine; the
    reader sees the recorded ranking every time, and afterwards the held
    snapshot still serializes and ranks exactly as it did at publish
    time — and as a classifier built from its recorded DTD text does."""
    from repro.classification.classifier import Classifier
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig
    from repro.dtd.parser import parse_dtd
    from repro.dtd.serializer import serialize_dtd
    from repro.serve import SnapshotHolder
    from repro.similarity.tags import ThesaurusTagMatcher
    from repro.xmltree.parser import parse_document

    # no document records against review, so evolution keeps its
    # declaration as is; the author -> writer rename must rewrite the
    # evolved copy of it, never the installed one
    book = parse_dtd(
        "<!ELEMENT book (title, author, price?)>"
        "<!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>"
        "<!ELEMENT price (#PCDATA)><!ELEMENT review (author, price)>",
        name="book",
    )
    note = parse_dtd(
        "<!ELEMENT note (to, body)>"
        "<!ELEMENT to (#PCDATA)><!ELEMENT body (#PCDATA)>",
        name="note",
    )
    source = XMLSource(
        [book, note],
        EvolutionConfig(sigma=0.3, tau=0.05, psi=0.2, min_documents=10),
        tag_matcher=ThesaurusTagMatcher([{"author", "writer"}]),
    )
    probe = "<book><title>t</title><author>a</author><to>x</to></book>"

    def dtd_texts(snapshot):
        return [
            (name, snapshot.classifier.dtd(name).root,
             serialize_dtd(snapshot.classifier.dtd(name)))
            for name in snapshot.dtd_names
        ]

    holder = SnapshotHolder()
    held = holder.refresh_from(source)
    recorded = dtd_texts(held)
    ranking = held.classifier.classify(parse_document(probe)).ranking

    renamed = "<book><title>t</title><writer>w</writer><price>9</price></book>"
    grown = (
        "<book><title>t</title><writer>w</writer><price>9</price>"
        "<isbn>1</isbn></book>"
    )
    seen = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            seen.append(held.classifier.classify(parse_document(probe)).ranking)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for xml in [renamed] * 12 + [grown] * 12:
            source.process(parse_document(xml))
        source.evolve_now("note")
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert seen and all(ranking_seen == ranking for ranking_seen in seen)
    # the engine really moved on: a rename, a new declaration, and a
    # newly published epoch that ranks the probe differently
    assert source.evolution_count >= 3
    assert "writer" in source.dtd("book") and "author" not in source.dtd("book")
    assert "isbn" in source.dtd("book")
    latest = holder.refresh_from(source)
    assert latest is not held and latest.fingerprint != held.fingerprint
    assert latest.classifier.classify(parse_document(probe)).ranking != ranking

    assert dtd_texts(held) == recorded
    assert held.classifier.classify(parse_document(probe)).ranking == ranking
    rebuilt = Classifier(
        [parse_dtd(text, name=name, root=root) for name, root, text in recorded],
        held.sigma,
        source.similarity_config,
        source.tag_matcher,
        fastpath=source.fastpath,
    )
    assert rebuilt.classify(parse_document(probe)).ranking == ranking


# ----------------------------------------------------------------------
# 2. Writer serialization
# ----------------------------------------------------------------------

def test_racing_deposits_apply_in_a_strict_total_order():
    source = figure3_source()
    threads_n, per_thread = 4, 10
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            indices = []
            lock = threading.Lock()

            def depositor(worker):
                client = ServeClient(runner.port)
                try:
                    for i in range(per_thread):
                        xml = f"<alien><w>{worker}</w><i>{i}</i></alien>"
                        status, _, body = post_with_retry(
                            client, "/deposit", {"xml": xml}
                        )
                        assert status == 200, body
                        with lock:
                            indices.append(body["applied_index"])
                finally:
                    client.close()

            threads = [
                threading.Thread(target=depositor, args=(w,))
                for w in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        total = threads_n * per_thread
        # unique and contiguous: the single writer imposed a total order
        assert sorted(indices) == list(range(1, total + 1))
        assert source.documents_processed == total
        # aliens never classify, so they all sit in the repository
        assert len(source.repository) == total
    finally:
        source.close()


# ----------------------------------------------------------------------
# 3. Backpressure
# ----------------------------------------------------------------------

def test_full_write_queue_answers_429_with_retry_after():
    source = figure3_source()
    queue_limit = 2
    try:
        with ServiceRunner(
            source, ServeConfig(queue_limit=queue_limit, retry_after=3)
        ) as runner:
            _suspended(runner)

            statuses = []
            lock = threading.Lock()

            def blocked_deposit(i):
                client = ServeClient(runner.port, timeout=60)
                try:
                    status, _, _ = client.post(
                        "/deposit", {"xml": f"<alien><x>{i}</x></alien>"}
                    )
                    with lock:
                        statuses.append(status)
                finally:
                    client.close()

            # a suspended writer applies nothing, so exactly queue_limit
            # deposits are admitted; every further one must reject
            blocked = [
                threading.Thread(target=blocked_deposit, args=(i,))
                for i in range(queue_limit)
            ]
            for thread in blocked:
                thread.start()

            probe = ServeClient(runner.port)
            wait_until(
                lambda: probe.get("/healthz")[2]["queue_depth"] == queue_limit
            )
            status, headers, body = probe.post(
                "/deposit", {"xml": "<alien><x>late</x></alien>"}
            )
            assert status == 429
            assert int(headers["retry-after"]) == 3
            assert "queue full" in body["error"]
            # reads stay available under write backpressure
            assert probe.post("/classify", {"xml": PROBE})[0] == 200
            status, _, metrics = probe.get("/metrics")
            assert status == 200
            assert 'repro_serve_rejections_total{endpoint="/deposit"' in metrics

            runner.service.resume_writes()
            for thread in blocked:
                thread.join(timeout=30)
            probe.close()
            assert statuses == [200] * queue_limit
        assert source.documents_processed == queue_limit
    finally:
        source.close()


def test_deposit_parse_never_blocks_the_event_loop(monkeypatch):
    """The writer, not the event loop, parses deposit bodies: while one
    deposit is held inside its parse, /healthz and /classify still
    answer promptly, and the deposit applies once the parse finishes."""
    import repro.serve.service as service_module

    entered = threading.Event()
    release = threading.Event()
    real_parse = service_module.parse_document

    def gated_parse(xml):
        if "gated" in xml:
            entered.set()
            release.wait(timeout=30)
        return real_parse(xml)

    monkeypatch.setattr(service_module, "parse_document", gated_parse)
    source = figure3_source()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            responses = []

            def deposit():
                client = ServeClient(runner.port)
                try:
                    responses.append(
                        client.post("/deposit", {"xml": "<gated><x>1</x></gated>"})
                    )
                finally:
                    client.close()

            thread = threading.Thread(target=deposit)
            thread.start()
            try:
                assert entered.wait(timeout=10)
                probe = ServeClient(runner.port, timeout=2.0)
                try:
                    status, _, health = probe.get("/healthz")
                    assert status == 200 and health["queue_depth"] == 1
                    assert probe.post("/classify", {"xml": PROBE})[0] == 200
                finally:
                    probe.close()
            finally:
                release.set()
                thread.join(timeout=30)
        [(status, _, body)] = responses
        assert status == 200 and body["applied_index"] == 1
    finally:
        source.close()


def test_unterminated_character_reference_answers_400_on_both_threads():
    """A character reference cut off by the end of the body is a parse
    error like any other: /classify (parsed on the reader thread) and
    /deposit (parsed on the writer) each answer 400 promptly, and both
    threads stay free for the well-formed requests after it."""
    source = figure3_source()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            client = ServeClient(runner.port, timeout=5.0)
            try:
                for path in ("/classify", "/deposit"):
                    status, _, body = client.post(path, {"xml": "<a>&#x"})
                    assert status == 400, (path, body)
                    assert "empty hexadecimal character reference" in body["error"]
                assert client.post("/classify", {"xml": PROBE})[0] == 200
                status, _, body = client.post("/deposit", {"xml": PROBE})
                assert status == 200 and body["applied_index"] == 1
            finally:
                client.close()
        assert source.documents_processed == 1
    finally:
        source.close()


# ----------------------------------------------------------------------
# 4. Graceful shutdown
# ----------------------------------------------------------------------

def test_graceful_shutdown_loses_no_accepted_deposit(tmp_path):
    """Deposits queued behind a suspended writer still apply during
    shutdown, land in the final checkpoint, and persist in the sqlite
    file even without a clean store close (crash-resume)."""
    db_path = str(tmp_path / "repository.db")
    checkpoint = str(tmp_path / "state.json")
    source = figure3_source(store=SqliteStore(db_path))
    runner = ServiceRunner(
        source, ServeConfig(checkpoint_path=checkpoint, shutdown_grace=5.0)
    ).start()
    try:
        client = ServeClient(runner.port)
        for i in range(3):
            status, _, _ = client.post("/deposit", {"xml": f"<alien><x>{i}</x></alien>"})
            assert status == 200

        _suspended(runner)
        results = []
        lock = threading.Lock()

        def late_deposit(i):
            late = ServeClient(runner.port, timeout=60)
            try:
                status, _, body = late.post(
                    "/deposit", {"xml": f"<alien><late>{i}</late></alien>"}
                )
                with lock:
                    results.append((status, body))
            finally:
                late.close()

        late_threads = [
            threading.Thread(target=late_deposit, args=(i,)) for i in range(3)
        ]
        for thread in late_threads:
            thread.start()
        # all three are admitted (suspended writer applies none of them)
        wait_until(lambda: client.get("/healthz")[2]["queue_depth"] == 3)
        client.close()
    finally:
        runner.stop()  # graceful: drains the queued deposits
    for thread in late_threads:
        thread.join(timeout=30)

    # every accepted-but-suspended deposit completed with a real result
    assert [status for status, _ in results] == [200, 200, 200]
    assert {body["applied_index"] for _, body in results} == {4, 5, 6}
    assert source.documents_processed == 6
    assert runner.service.checkpoints == 1

    # the final checkpoint saw all six documents
    restored = load_source(checkpoint)
    try:
        assert restored.documents_processed == 6
        assert len(restored.repository) == 6
    finally:
        restored.close()

    # crash-resume: the sqlite file itself retains every deposit even
    # though the store was never close()d by the service
    resumed = SqliteStore(db_path)
    try:
        assert len(resumed) == 6
        tails = [doc.root.tag for doc in resumed]
        assert tails == ["alien"] * 6
    finally:
        resumed.close()
    source.close()


def test_shutdown_does_not_wait_for_a_stuck_read(tmp_path, monkeypatch):
    """A /classify whose reader never returns does not hold shutdown:
    the waiting connection is cancelled after the grace period, the
    checkpoint is written, and the reader pool is released without
    waiting — a read has no effect to lose."""
    from repro.serve.service import ReproService

    entered = threading.Event()
    release = threading.Event()

    def stuck_classify(self, snapshot, xml):
        entered.set()
        release.wait(timeout=60)
        raise RuntimeError("released after shutdown")

    monkeypatch.setattr(ReproService, "_classify_against", stuck_classify)
    checkpoint = str(tmp_path / "state.json")
    source = figure3_source()
    runner = ServiceRunner(
        source, ServeConfig(checkpoint_path=checkpoint, shutdown_grace=0.2)
    ).start()
    outcomes = []

    def classify():
        client = ServeClient(runner.port, timeout=30)
        try:
            outcomes.append(client.post("/classify", {"xml": PROBE})[0])
        except (http.client.HTTPException, OSError) as error:
            outcomes.append(type(error).__name__)
        finally:
            client.close()

    thread = threading.Thread(target=classify)
    thread.start()
    try:
        assert entered.wait(timeout=10)
        runner.submit(runner.service.stop()).result(timeout=10)
        assert runner.service.checkpoints == 1
        assert os.path.exists(checkpoint)
    finally:
        release.set()
        runner.stop()
        thread.join(timeout=30)
        source.close()
    # the cancelled connection closed without an answer
    assert outcomes and outcomes[0] != 200


def test_shutdown_returns_with_an_idle_keep_alive_client():
    """An idle keep-alive connection is cancelled after the grace period
    instead of holding shutdown open (``Server.wait_closed`` waits for
    every open connection since Python 3.12.1)."""
    grace = 0.5
    source = figure3_source()
    runner = ServiceRunner(source, ServeConfig(shutdown_grace=grace)).start()
    client = ServeClient(runner.port)
    try:
        assert client.get("/healthz")[0] == 200  # stays open, idle
        started = time.monotonic()
        runner.submit(runner.service.stop()).result(timeout=10)
        assert time.monotonic() - started < grace + 3.0
    finally:
        client.close()
        runner.stop()
        source.close()


# ----------------------------------------------------------------------
# 5. Observability
# ----------------------------------------------------------------------

def test_debug_endpoints_keep_their_schemas_under_concurrent_load():
    """/debug/vars, /debug/slow and /debug/health answer 200 with their
    full schemas while depositors and classifiers race — and the slow
    ring's span trees reference request ids that real responses
    returned in ``X-Request-Id``."""
    source = figure3_source()
    config = ServeConfig(trace_sample=1.0, trace_seed=7, trace_ring=64)
    seen_ids = set()
    ids_lock = threading.Lock()
    errors = []
    stop = threading.Event()
    try:
        with ServiceRunner(source, config) as runner:

            def depositor(worker):
                client = ServeClient(runner.port)
                try:
                    for i in range(12):
                        status, headers, body = post_with_retry(
                            client, "/deposit",
                            {"xml": f"<alien><w>{worker}</w><i>{i}</i></alien>"},
                        )
                        assert status == 200, body
                        with ids_lock:
                            seen_ids.add(headers["x-request-id"])
                finally:
                    client.close()

            def prober():
                client = ServeClient(runner.port)
                try:
                    while not stop.is_set():
                        status, _, vars_body = client.get("/debug/vars")
                        assert status == 200
                        for key in ("sampler", "ring", "snapshot",
                                    "queue_depth", "counters"):
                            assert key in vars_body, key
                        assert vars_body["sampler"]["rate"] == 1.0

                        status, _, slow = client.get("/debug/slow?n=5")
                        assert status == 200
                        assert slow["count"] == 5
                        durations = [
                            r["duration_ms"] for r in slow["requests"]
                        ]
                        assert durations == sorted(durations, reverse=True)
                        for kept in slow["requests"]:
                            assert kept["reason"] in ("head", "slow", "error")
                            assert kept["spans"][0]["attrs"]["request_id"] == (
                                kept["request_id"]
                            )

                        status, _, health = client.get("/debug/health")
                        assert status == 200
                        assert health["status"] in (
                            "ok", "drifting", "evolution-pending"
                        )
                        for key in ("dtds", "repository", "evolution",
                                    "snapshot"):
                            assert key in health, key
                except Exception as error:  # surfaced after join
                    errors.append(error)
                finally:
                    client.close()

            probers = [threading.Thread(target=prober) for _ in range(2)]
            depositors = [
                threading.Thread(target=depositor, args=(w,)) for w in range(3)
            ]
            for thread in probers + depositors:
                thread.start()
            for thread in depositors:
                thread.join(timeout=60)
            stop.set()
            for thread in probers:
                thread.join(timeout=30)
            assert errors == []

            client = ServeClient(runner.port)
            status, _, slow = client.get("/debug/slow?n=64")
            assert status == 200
            # every successful deposit the ring kept carries an id some
            # response returned (the ring also samples the probers' own
            # debug scrapes, so filter to the endpoint we tracked)
            ring_ids = {
                kept["request_id"]
                for kept in slow["requests"]
                if kept["endpoint"] == "/deposit" and kept["status"] == 200
            }
            assert ring_ids  # rate=1.0 kept the deposits
            assert ring_ids <= seen_ids
            # the id is stamped on every span of the sampled tree
            for kept in slow["requests"]:
                assert all(
                    span["attrs"]["request_id"] == kept["request_id"]
                    for span in kept["spans"]
                )
            status, _, metrics = client.get("/metrics")
            assert 'repro_serve_sampled_requests_total{reason="head"}' in metrics
            assert "repro_repository_misfits" in metrics
            assert 'repro_dtd_activation_score{dtd="figure3"}' in metrics
            client.close()
    finally:
        source.close()


def test_request_id_crosses_the_writer_queue_boundary():
    """A bus handler running on the writer thread during op-apply sees
    the exact correlation id the originating response returned — for
    every request, even when several writers race."""
    source = figure3_source()
    observed = []  # (request_id seen on the writer thread, thread name)
    main_thread = threading.current_thread().name

    def on_deposited(event):
        observed.append(
            (current_request_id(), threading.current_thread().name)
        )

    source.events.subscribe(DocumentDeposited, on_deposited)
    returned = set()
    lock = threading.Lock()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:

            def depositor(worker):
                client = ServeClient(runner.port)
                try:
                    for i in range(8):
                        status, headers, body = post_with_retry(
                            client, "/deposit",
                            {"xml": f"<alien><w>{worker}</w><i>{i}</i></alien>"},
                        )
                        assert status == 200, body
                        with lock:
                            returned.add(headers["x-request-id"])
                finally:
                    client.close()

            threads = [
                threading.Thread(target=depositor, args=(w,)) for w in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        assert len(returned) == 24  # every response carried a unique id
        assert len(observed) == 24
        handler_ids = {request_id for request_id, _ in observed}
        # the handler saw each originating request's id, on a thread
        # that is neither the HTTP client thread nor the event loop
        assert handler_ids == returned
        assert all(name != main_thread for _, name in observed)
    finally:
        source.events.unsubscribe(DocumentDeposited, on_deposited)
        source.close()
