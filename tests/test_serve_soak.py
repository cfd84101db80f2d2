"""Serve-mode soak: sustained mixed traffic across several evolution
epochs.

Depositor threads push three phased drift families (``d``, ``e``, then
``f`` tails on the Figure-3 base) while classifier threads hammer the
read path and a poller samples ``/healthz`` — all against one running
service.  Invariants:

1. every request completes (deposits may see 429 backpressure, which a
   bounded retry absorbs — nothing errors);
2. at least three evolution epochs publish, and every thread observes
   snapshot versions monotonically non-decreasing;
3. the write queue depth never exceeds the configured bound;
4. after the run the metrics registry holds a finite, populated latency
   histogram per exercised endpoint, and the applied-write count equals
   the number of accepted deposits.

Environment knobs (the CI job shrinks the run):

- ``REPRO_SERVE_SOAK_DOCS``    total deposits (default 120)
- ``REPRO_SERVE_SOAK_READERS`` classifier threads (default 3)
"""

from __future__ import annotations

import math
import os
import queue as queue_module
import threading

import pytest

from repro.serve import ServeConfig, ServiceRunner
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

from tests.serve_utils import ServeClient, figure3_source, post_with_retry

pytestmark = [pytest.mark.slow, pytest.mark.soak]

SOAK_DOCS = int(os.environ.get("REPRO_SERVE_SOAK_DOCS", "120"))
SOAK_READERS = int(os.environ.get("REPRO_SERVE_SOAK_READERS", "3"))
QUEUE_LIMIT = 8
PROBE = "<a><b>x</b><c>y</c><d>z</d></a>"


def _phased_workload(total: int):
    """Three drift phases over the Figure-3 base: ``(b, c)`` pairs
    followed by ``d``, then ``e``, then ``f`` tails — each phase novel
    to the DTD when it starts, so each forces its own evolution."""
    import random

    rng = random.Random(99)
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


def test_serve_soak_mixed_traffic():
    documents = _phased_workload(SOAK_DOCS)
    # keep phase order (that is what forces distinct epochs) but share
    # the stream across depositor threads
    work = queue_module.Queue()
    for xml in documents:
        work.put(xml)

    source = figure3_source()
    errors = []
    deposit_versions = []
    classify_versions = []
    depth_samples = []
    accepted = []
    lock = threading.Lock()
    stop_reading = threading.Event()

    try:
        with ServiceRunner(source, ServeConfig(queue_limit=QUEUE_LIMIT)) as runner:

            def depositor():
                client = ServeClient(runner.port, timeout=60)
                versions = []
                try:
                    while True:
                        try:
                            xml = work.get_nowait()
                        except queue_module.Empty:
                            break
                        status, _, body = post_with_retry(
                            client, "/deposit", {"xml": xml}, timeout=60
                        )
                        if status != 200:
                            with lock:
                                errors.append((status, body))
                            continue
                        versions.append(body["snapshot_version"])
                        with lock:
                            accepted.append(body["applied_index"])
                except Exception as error:  # pragma: no cover - failure path
                    with lock:
                        errors.append(("deposit-exception", repr(error)))
                finally:
                    client.close()
                with lock:
                    deposit_versions.append(versions)

            def classifier():
                client = ServeClient(runner.port, timeout=60)
                versions = []
                try:
                    while not stop_reading.is_set():
                        status, _, body = client.post("/classify", {"xml": PROBE})
                        if status != 200:
                            with lock:
                                errors.append((status, body))
                            continue
                        versions.append(body["snapshot_version"])
                except Exception as error:  # pragma: no cover - failure path
                    with lock:
                        errors.append(("classify-exception", repr(error)))
                finally:
                    client.close()
                with lock:
                    classify_versions.append(versions)

            def poller():
                client = ServeClient(runner.port, timeout=60)
                try:
                    while not stop_reading.is_set():
                        status, _, health = client.get("/healthz")
                        if status == 200:
                            with lock:
                                depth_samples.append(health["queue_depth"])
                except Exception as error:  # pragma: no cover - failure path
                    with lock:
                        errors.append(("poller-exception", repr(error)))
                finally:
                    client.close()

            depositors = [threading.Thread(target=depositor) for _ in range(2)]
            readers = [
                threading.Thread(target=classifier) for _ in range(SOAK_READERS)
            ]
            sampler = threading.Thread(target=poller)
            for thread in depositors + readers + [sampler]:
                thread.start()
            for thread in depositors:
                thread.join(timeout=600)
            stop_reading.set()
            for thread in readers + [sampler]:
                thread.join(timeout=60)

            registry = runner.service.registry
            service = runner.service

        # 1. nothing errored; every deposit was eventually accepted
        assert errors == []
        assert sorted(accepted) == list(range(1, SOAK_DOCS + 1))
        assert source.documents_processed == SOAK_DOCS

        # 2. at least three epochs (one per drift phase) and per-thread
        # monotone snapshot versions, read and write path alike
        assert source.evolution_count >= 3
        assert service.holder.version >= 1 + 3
        for versions in deposit_versions + classify_versions:
            assert versions == sorted(versions), "snapshot version went backwards"
        assert sum(len(v) for v in classify_versions) > 0

        # 3. bounded queue: no sample ever exceeded the admission limit
        assert depth_samples, "healthz poller never sampled"
        assert max(depth_samples) <= QUEUE_LIMIT

        # 4. metrics: populated, finite latency digests per endpoint,
        # and the serve counters agree with the engine
        digest = registry.as_dict()
        for endpoint in ("/deposit", "/classify", "/healthz"):
            key = f'repro_serve_request_seconds{{endpoint="{endpoint}"}}'
            summary = digest[key]
            assert summary["count"] > 0
            for stat in ("p50", "p90", "p99"):
                assert math.isfinite(summary[stat])
                assert summary[stat] >= 0.0
            assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert digest["repro_serve_deposits_applied_total"] == SOAK_DOCS
        assert digest["repro_serve_queue_depth"] == 0
        assert (
            digest["repro_serve_snapshot_version"] == service.holder.version
        )

        # the evolved DTD adopted all three drift phases: documents from
        # each family now classify as valid instances
        final = source.classifier
        for tail in ("d", "e", "f"):
            document = parse_document(f"<a><b>x</b><c>y</c><{tail}>z</{tail}></a>")
            result = final.classify(document)
            assert result.accepted, (
                f"{tail}-phase documents still rejected: {result.similarity}\n"
                f"{serialize_document(document)}"
            )
    finally:
        source.close()
