"""``ReproService`` — the async MVCC daemon around one :class:`XMLSource`.

Concurrency model (DESIGN.md decision 13):

- **Readers** (``POST /classify``) never touch the engine.  Each request
  grabs the current :class:`~repro.serve.holder.ServeSnapshot` with one
  lock-free read, then classifies on the one reader thread against the
  snapshot's classifier, which stays warm for the whole epoch.  A
  reader that started under epoch *N* finishes under epoch *N* even if
  an evolution publishes *N+1* mid-flight — snapshot isolation, for
  free, from immutability.  Classification is pure Python, so more
  reader threads would only take turns on the GIL.
- **Writers** (``POST /deposit``, ``/evolve``, ``/drain``) funnel
  through one bounded :class:`asyncio.Queue` into a single writer task
  backed by a one-thread executor.  Engine mutations therefore run
  strictly serially, in admission order — the same total order a batch
  ``process_many`` would impose — which is what makes served traffic
  bit-identical to batch runs.  The event loop only checks a deposit's
  JSON shape; the writer parses its XML, so a large body never stalls
  the other endpoints.  ``/deposit`` also accepts a
  ``{"documents": [...]}`` batch: the whole batch is one queued op,
  parsed in full and then applied in order inside a single store bulk
  window (one flush/commit for every below-sigma deposit it contains).
  After every applied write the writer refreshes the snapshot holder,
  which publishes only when the engine's state version moved.
- **Admission control**: a full write queue (or too many in-flight
  requests) answers ``429`` with a ``Retry-After`` hint instead of
  queueing unboundedly; a service mid-shutdown answers ``503``.  An op
  that was *accepted* (entered the queue) is never dropped: graceful
  shutdown drains the queue before checkpointing.

Observability rides the existing seams: per-request spans spliced into
a :class:`~repro.obs.tracing.Tracer`, request/latency/queue-depth
instruments in a :class:`~repro.obs.metrics.MetricsRegistry` with
Prometheus exposition on ``GET /metrics``, and engine perf counters
mirrored on every scrape.  Checkpoints go through persistence format 3.
"""

from __future__ import annotations

import asyncio
import logging
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dtd.serializer import serialize_dtd
from repro.obs.live import (
    DriftMonitor,
    RequestSample,
    RotatingJsonlSink,
    Sampler,
    SpanRing,
    build_request_spans,
)
from repro.obs.logging import current_request_id, request_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, SpanCollector, Tracer
from repro.pipeline.events import DocumentClassified, EvolutionFinished
from repro.serve import http
from repro.serve.holder import ServeSnapshot, SnapshotHolder
from repro.xmltree.parser import parse_document

__all__ = ["ServeConfig", "ReproService"]

logger = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (all admission-control values are per service)."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (the bound port lands on
    #: :attr:`ReproService.port`)
    port: int = 0
    #: max write ops admitted but not yet applied (queued or in the
    #: writer's hands); beyond it answers 429 + ``Retry-After``
    queue_limit: int = 64
    #: max requests admitted concurrently across all endpoints
    #: (healthz/metrics exempt); beyond it answers 429
    max_inflight: int = 64
    #: the ``Retry-After`` hint on 429 responses, integer seconds
    retry_after: int = 1
    #: where graceful shutdown (and periodic checkpoints) snapshot the
    #: engine (persistence format 3); ``None`` disables checkpointing
    checkpoint_path: Optional[str] = None
    #: checkpoint after every N applied deposits (0 = shutdown only)
    checkpoint_every: int = 0
    #: how long graceful shutdown waits for open connections to finish
    #: their in-flight request before cancelling them, seconds
    shutdown_grace: float = 1.0
    #: head-sampling rate for always-on tracing, in ``[0, 1]`` — the
    #: fraction of requests whose write op runs with an engine span
    #: collector installed.  Tail keeps (slow/error requests) apply even
    #: at 0.0, so the ring and sink are never completely blind.
    trace_sample: float = 0.0
    #: tail-keep latency threshold, milliseconds: any request at or
    #: above it is kept regardless of the head decision
    trace_slow_ms: float = 250.0
    #: seed of the deterministic head-sampling hash (tests pin it)
    trace_seed: int = 0
    #: rotating JSONL file kept span trees stream to (``dtdevolve
    #: report``-compatible); ``None`` keeps samples in the ring only
    trace_sink: Optional[str] = None
    #: capacity of the recent-samples ring behind ``GET /debug/slow``
    trace_ring: int = 256


#: the per-request trace accumulator — set by the dispatcher, filled by
#: ``_submit_write`` with the applied op's phase spans and collected
#: engine records; context-local, so concurrent requests never mix
_trace_acc: "ContextVar[Optional[Dict[str, Any]]]" = ContextVar(
    "repro_serve_trace_acc", default=None
)


def _parse(xml: str) -> "Document":
    """Writer-thread parse of a deposited body; a failure answers 400."""
    try:
        return parse_document(xml)
    except Exception as error:
        raise http.HttpError(400, f"unparsable document: {error}")


class _WriteOp:
    """One queued write: kind, payload (XML text for deposits, parsed by
    the writer), and the future the HTTP handler awaits — plus the
    correlation id that crosses the queue boundary with the op and the
    tracing envelope of sampled ops."""

    __slots__ = (
        "kind", "payload", "future",
        "request_id", "enqueued_ns", "traced", "phases", "records",
    )

    def __init__(
        self,
        kind: str,
        payload: Any,
        future: "asyncio.Future",
        request_id: Optional[str] = None,
        traced: bool = False,
    ):
        self.kind = kind
        self.payload = payload
        self.future = future
        self.request_id = request_id
        self.enqueued_ns = time.perf_counter_ns()
        self.traced = traced
        #: ``(name, start_ns, end_ns, attrs)`` phase intervals
        #: (``queue.wait`` / ``write.apply``), filled by the writer
        self.phases: List[Tuple[str, int, int, Dict[str, Any]]] = []
        #: engine span records collected while applying (sampled ops)
        self.records: List[Any] = []


class ReproService:
    """The serve-mode daemon; see the module docstring for semantics.

    Drive it from an event loop (``await service.start()`` / ``await
    service.stop()``) or through
    :class:`~repro.serve.runner.ServiceRunner`, which owns a loop on a
    background thread.
    """

    def __init__(
        self,
        source: "XMLSource",
        config: ServeConfig = ServeConfig(),
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.source = source
        self.config = config
        self.tracer = tracer or NULL_TRACER
        self.registry = registry or MetricsRegistry()
        self.holder = SnapshotHolder()
        #: head/tail request sampler (always constructed — tail keeps
        #: work even at rate 0.0)
        self.sampler = Sampler(
            rate=config.trace_sample,
            slow_ns=int(config.trace_slow_ms * 1e6),
            seed=config.trace_seed,
        )
        #: recent kept samples, behind ``GET /debug/slow``
        self.ring = SpanRing(max(1, config.trace_ring))
        self.sink: Optional[RotatingJsonlSink] = (
            RotatingJsonlSink(config.trace_sink, trace_id=uuid.uuid4().hex)
            if config.trace_sink
            else None
        )
        #: evolution-drift health telemetry, attached on :meth:`start`
        self.drift: Optional[DriftMonitor] = None
        self._instance_id = uuid.uuid4().hex[:8]
        self._request_seq = 0
        #: completed checkpoint writes
        self.checkpoints = 0
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._write_queue: Optional["asyncio.Queue[_WriteOp]"] = None
        self._write_gate: Optional[asyncio.Event] = None
        self._writer_task: Optional["asyncio.Task"] = None
        self._writer_executor: Optional[ThreadPoolExecutor] = None
        self._reader_executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._closing = False
        self._inflight = 0
        #: write ops admitted but not yet applied — the admission bound
        #: (an op the writer has dequeued but not finished still counts,
        #: so ``queue_limit`` is exact, not queue-position-dependent)
        self._pending_writes = 0
        #: total writes applied, in application order (the serialization
        #: witness every write response carries as ``applied_index``)
        self._applied = 0
        self._writes_since_checkpoint = 0
        self._last_classification = None
        self._routes: Dict[Tuple[str, str], Callable] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/vars"): self._handle_debug_vars,
            ("GET", "/debug/slow"): self._handle_debug_slow,
            ("GET", "/debug/health"): self._handle_debug_health,
            ("POST", "/classify"): self._handle_classify,
            ("POST", "/deposit"): self._handle_deposit,
            ("POST", "/evolve"): self._handle_evolve,
            ("POST", "/drain"): self._handle_drain,
        }
        #: introspection handlers bypass admission control — an operator
        #: diagnosing an overloaded service must not be 429'd away
        self._unmetered = frozenset(
            (
                self._handle_healthz,
                self._handle_metrics,
                self._handle_debug_vars,
                self._handle_debug_slow,
                self._handle_debug_health,
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Publish the initial snapshot, start the writer, bind the
        socket.  The bound port lands on :attr:`port`."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._init_instruments()
        self._publish_metrics(self.holder.refresh_from(self.source))
        # unbounded on purpose: admission is enforced by the
        # _pending_writes counter, which also covers the op the writer
        # has dequeued but not yet applied
        self._write_queue = asyncio.Queue()
        self._write_gate = asyncio.Event()
        self._write_gate.set()
        self._writer_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-writer"
        )
        self._reader_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-reader"
        )
        # the engine announces classification results and evolutions on
        # its bus; the writer thread is the only emitter, so these
        # handlers never race
        self.source.events.subscribe(DocumentClassified, self._remember_classification)
        self.source.events.subscribe(EvolutionFinished, self._count_evolution)
        # attach drift telemetry before the writer starts: every
        # instrument its writer-thread handlers touch is created here,
        # on the loop thread, so the registry map never mutates off it
        self.drift = DriftMonitor(self.registry, self.source).attach()
        self._writer_task = self._loop.create_task(self._writer_loop())
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "repro serve listening on %s:%d (snapshot v%d, dtds=%s)",
            self.config.host, self.port,
            self.holder.version, list(self.holder.current.dtd_names),
        )

    async def stop(self) -> None:
        """Graceful shutdown: refuse new writes, drain every accepted
        one, give open connections a grace period (then cancel them),
        checkpoint, release the pools without waiting for a stuck
        read.  Idempotent."""
        if self._server is None:
            return
        self._closing = True
        self.source.events.unsubscribe(
            DocumentClassified, self._remember_classification
        )
        self.source.events.unsubscribe(EvolutionFinished, self._count_evolution)
        server, self._server = self._server, None
        server.close()
        # a suspended writer must resume, or accepted ops would hang
        self._write_gate.set()
        await self._write_queue.join()
        self._writer_task.cancel()
        try:
            await self._writer_task
        except asyncio.CancelledError:
            pass
        if self._connections:
            done, pending = await asyncio.wait(
                list(self._connections), timeout=self.config.shutdown_grace
            )
            for task in pending:
                task.cancel()
        # only now: since Python 3.12.1 this waits for every open
        # connection, including deposits that waited on the writer
        await server.wait_closed()
        await self._loop.run_in_executor(self._writer_executor, self._checkpoint)
        self._writer_executor.shutdown(wait=True)
        # a read has no effect to lose, so a stuck one is not waited for
        self._reader_executor.shutdown(wait=False, cancel_futures=True)
        if self.drift is not None:
            self.drift.detach()
        if self.sink is not None:
            self.sink.close()
        logger.info(
            "repro serve stopped (%d writes applied, %d checkpoints)",
            self._applied, self.checkpoints,
        )

    def suspend_writes(self) -> None:
        """Hold the writer loop (queued ops wait; admission control
        still applies).  Thread-safe once started."""
        self._loop.call_soon_threadsafe(self._write_gate.clear)

    def resume_writes(self) -> None:
        """Release a suspended writer loop.  Thread-safe once started."""
        self._loop.call_soon_threadsafe(self._write_gate.set)

    @property
    def applied_writes(self) -> int:
        """Total write ops applied so far."""
        return self._applied

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------

    def _init_instruments(self) -> None:
        """Pre-create every instrument the writer/reader threads touch,
        so the registry's get-or-create map is only ever mutated on the
        event-loop thread."""
        registry = self.registry
        self._queue_gauge = registry.gauge(
            "repro_serve_queue_depth",
            "write ops admitted but not yet applied by the single writer",
        )
        self._inflight_gauge = registry.gauge(
            "repro_serve_inflight", "requests currently admitted"
        )
        self._version_gauge = registry.gauge(
            "repro_serve_snapshot_version", "current MVCC snapshot version"
        )
        self._publish_counter = registry.counter(
            "repro_serve_snapshot_publishes_total", "snapshot versions published"
        )
        self._deposit_counter = registry.counter(
            "repro_serve_deposits_applied_total", "deposits applied by the writer"
        )
        self._evolution_counter = registry.counter(
            "repro_serve_evolutions_total", "evolutions adopted while serving"
        )
        self._snapshot_age_gauge = registry.gauge(
            "repro_serve_snapshot_age_seconds",
            "seconds since the current MVCC snapshot was published",
        )
        self._snapshot_lag_gauge = registry.gauge(
            "repro_serve_snapshot_version_lag",
            "engine state versions not yet published to readers "
            "(0 = snapshot current)",
        )
        self._sampled_counters = {
            reason: registry.counter(
                "repro_serve_sampled_requests_total",
                "requests kept by the trace sampler, by keep reason",
                reason=reason,
            )
            for reason in ("head", "slow", "error")
        }

    def _publish_metrics(self, snapshot: ServeSnapshot) -> None:
        self._version_gauge.set(snapshot.version)
        self._publish_counter.set_to(self.holder.publishes)

    def _remember_classification(self, event: DocumentClassified) -> None:
        self._last_classification = event.result

    def _count_evolution(self, event: EvolutionFinished) -> None:
        self._evolution_counter.inc()

    def _next_request_id(self) -> str:
        """A fresh correlation id (loop thread only): the service
        instance tag plus a monotone sequence — unique, orderable, and
        grep-friendly."""
        self._request_seq += 1
        return f"{self._instance_id}-{self._request_seq}"

    def _observe_request(
        self,
        method: str,
        path: str,
        status: int,
        start_ns: int,
        end_ns: int,
        request_id: str,
        head_sampled: bool,
        acc: Dict[str, Any],
    ) -> None:
        self.registry.counter(
            "repro_serve_requests_total", "requests by endpoint and status",
            endpoint=path, status=str(status),
        ).inc()
        self.registry.histogram(
            "repro_serve_request_seconds", "request latency by endpoint",
            endpoint=path,
        ).observe((end_ns - start_ns) / 1e9)
        reason = self.sampler.keep_reason(head_sampled, status, end_ns - start_ns)
        if reason is None:
            return
        self._sampled_counters[reason].inc()
        # one log line per *kept* request: volume is bounded by the
        # sample rate, and the request_id joins the line to the span
        # tree in the ring/sink and to the X-Request-Id a client saw
        logger.info(
            "sampled %s %s -> %d in %.2fms (%s)",
            method, path, status, (end_ns - start_ns) / 1e6, reason,
            extra={
                "request_id": request_id,
                "endpoint": path,
                "status": status,
                "duration_ms": (end_ns - start_ns) / 1e6,
                "reason": reason,
            },
        )
        spans = build_request_spans(
            request_id, method, path, status, start_ns, end_ns,
            phases=acc.get("phases", ()),
            engine_records=acc.get("records", ()),
        )
        sample = RequestSample(
            request_id, method, path, status, start_ns, end_ns, reason, spans
        )
        self.ring.append(sample)
        if self.sink is not None:
            try:
                self.sink.write(sample)
            except OSError as error:  # a full disk must not fail requests
                logger.warning("trace sink write failed: %s", error)
        if self.tracer.enabled:
            # spliced in from the loop thread — the tracer's stack
            # discipline is never touched by interleaved requests
            self.tracer.splice(spans, parent_id=None, sampled=reason)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except http.HttpError as error:
                    writer.write(http.error_response(error, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._closing
                response = await self._dispatch(request, keep_alive)
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request: http.Request, keep_alive: bool) -> bytes:
        start_ns = time.perf_counter_ns()
        request_id = self._next_request_id()
        head_sampled = self.sampler.sample(request_id)
        acc: Dict[str, Any] = {"phases": [], "records": []}
        acc_token = _trace_acc.set(acc)
        admitted = False
        try:
            with request_context(request_id):
                handler = self._routes.get((request.method, request.path))
                if handler is None:
                    if any(path == request.path for _, path in self._routes):
                        raise http.HttpError(
                            405,
                            f"method {request.method} not allowed on {request.path}",
                        )
                    raise http.HttpError(404, f"no such endpoint {request.path}")
                if handler not in self._unmetered:
                    if self._inflight >= self.config.max_inflight:
                        raise self._too_busy("max in-flight requests reached")
                    self._inflight += 1
                    self._inflight_gauge.set(self._inflight)
                    admitted = True
                status, response = await handler(request, keep_alive)
        except http.HttpError as error:
            status, response = error.status, http.error_response(error, keep_alive)
        except Exception:
            logger.exception(
                "unhandled error on %s %s", request.method, request.path,
                extra={"request_id": request_id},
            )
            error = http.HttpError(500, "internal server error")
            status, response = 500, http.error_response(error, keep_alive)
        finally:
            _trace_acc.reset(acc_token)
            if admitted:
                self._inflight -= 1
                self._inflight_gauge.set(self._inflight)
        self._observe_request(
            request.method, request.path, status, start_ns,
            time.perf_counter_ns(), request_id, head_sampled, acc,
        )
        return http.with_header(response, "X-Request-Id", request_id)

    def _too_busy(self, message: str) -> http.HttpError:
        return http.HttpError(
            429, message,
            headers=[("Retry-After", str(max(1, self.config.retry_after)))],
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _classify_against(self, snapshot: ServeSnapshot, xml: str) -> Dict[str, Any]:
        """Reader-thread body: parse, classify against the epoch's
        classifier, stamp the response with that epoch's version."""
        result = snapshot.classifier.classify(parse_document(xml))
        return {
            "snapshot_version": snapshot.version,
            "fingerprint": snapshot.fingerprint,
            "dtd_names": list(snapshot.dtd_names),
            "sigma": snapshot.sigma,
            "dtd": result.dtd_name,
            "similarity": result.similarity,
            "accepted": result.accepted,
            "ranking": [[name, similarity] for name, similarity in result.ranking],
        }

    async def _handle_classify(self, request, keep_alive) -> Tuple[int, bytes]:
        xml = self._xml_field(http.json_body(request))
        snapshot = self.holder.current  # the lock-free epoch read
        try:
            body = await self._loop.run_in_executor(
                self._reader_executor, self._classify_against, snapshot, xml
            )
        except Exception as error:
            raise http.HttpError(400, f"unclassifiable document: {error}")
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    async def _submit_write(self, kind: str, payload: Any) -> Dict[str, Any]:
        """Admission-controlled entry to the single-writer queue."""
        if self._closing:
            raise http.HttpError(503, "service is shutting down")
        if self._pending_writes >= self.config.queue_limit:
            self.registry.counter(
                "repro_serve_rejections_total", "writes refused by admission control",
                endpoint=f"/{kind}", reason="queue_full",
            ).inc()
            raise self._too_busy(
                f"write queue full ({self.config.queue_limit} ops waiting)"
            )
        self._pending_writes += 1
        self._queue_gauge.set(self._pending_writes)
        future = self._loop.create_future()
        request_id = current_request_id()
        op = _WriteOp(
            kind, payload, future,
            request_id=request_id,
            traced=request_id is not None and self.sampler.sample(request_id),
        )
        self._write_queue.put_nowait(op)
        result = await future
        # hand the applied op's trace envelope (queue.wait/write.apply
        # phases, collected engine spans) back to the dispatcher
        acc = _trace_acc.get()
        if acc is not None:
            acc["phases"] = op.phases
            acc["records"] = op.records
        return result

    async def _writer_loop(self) -> None:
        while True:
            op = await self._write_queue.get()
            # gate check *after* dequeue: a suspended writer holds the
            # op un-applied (it still counts against queue_limit), so
            # suspension never lets an extra write sneak past admission
            await self._write_gate.wait()
            try:
                result = await self._loop.run_in_executor(
                    self._writer_executor, self._apply_write, op
                )
                if not op.future.done():
                    op.future.set_result(result)
            except Exception as error:  # surfaced to the waiting handler
                if not op.future.done():
                    op.future.set_exception(error)
            finally:
                self._pending_writes -= 1
                self._queue_gauge.set(self._pending_writes)
                self._write_queue.task_done()

    def _apply_write(self, op: _WriteOp) -> Dict[str, Any]:
        """Writer-thread body: apply one op to the engine, refresh the
        snapshot, stamp the serialization witness.

        The op's correlation id is re-entered here, so log lines and
        bus-event handlers running on the writer thread carry the id of
        the request that enqueued the op — the id crosses the queue
        boundary with the op, not the thread.  Head-sampled ops run with
        a :class:`SpanCollector` installed on the engine, restored to
        the previous tracer once the op is applied.  The snapshot
        refresh does not depend on that ordering: the holder publishes
        on the engine's state version alone, so a sampled op that
        evolved nothing republishes nothing either way.  An op that
        raises (a deposit whose XML does not parse) applies nothing and
        does not advance ``applied_index``.
        """
        apply_start = time.perf_counter_ns()
        op.phases.append(("queue.wait", op.enqueued_ns, apply_start, {}))
        with request_context(op.request_id):
            previous_tracer = None
            collector = None
            if op.traced:
                previous_tracer = self.source.tracer
                collector = SpanCollector()
                self.source.set_tracer(collector)
            try:
                result = self._apply_write_op(op)
            finally:
                if collector is not None:
                    self.source.set_tracer(previous_tracer)
                    op.records = collector.take_records()
                op.phases.append(
                    ("write.apply", apply_start, time.perf_counter_ns(),
                     {"kind": op.kind}),
                )
            self._applied += 1
            snapshot = self.holder.refresh_from(self.source)
            self._publish_metrics(snapshot)
            result["applied_index"] = self._applied
            result["snapshot_version"] = snapshot.version
        return result

    def _apply_write_op(self, op: _WriteOp) -> Dict[str, Any]:
        source = self.source
        if op.kind == "deposit":
            outcome = source.process(_parse(op.payload))
            result = outcome.as_json()
            classification = self._last_classification
            if classification is not None:
                result["ranking"] = [
                    [name, similarity]
                    for name, similarity in classification.ranking
                ]
            self._deposit_counter.inc()
            self._maybe_checkpoint(1)
        elif op.kind == "deposit_many":
            # one writer turn, one store bulk window: every below-sigma
            # deposit in the batch shares a single flush/commit.  The
            # whole batch parses before the window opens, so a bad
            # document rejects it with nothing applied
            documents = [_parse(xml) for xml in op.payload]
            outcomes = []
            with source.repository.bulk():
                for document in documents:
                    outcomes.append(source.process(document).as_json())
                    self._deposit_counter.inc()
            result = {"deposited": len(outcomes), "outcomes": outcomes}
            self._maybe_checkpoint(len(outcomes))
        elif op.kind == "evolve":
            event = source.evolve_now(op.payload)
            result = {
                "dtd": event.dtd_name,
                "documents_recorded": event.documents_recorded,
                "activation_score": event.activation_score,
                "recovered": event.recovered_from_repository,
                "changed": sorted(event.result.changed_declarations()),
                "new_dtd": serialize_dtd(event.result.new_dtd),
            }
        elif op.kind == "drain":
            result = {"recovered": source.drain()}
        else:  # pragma: no cover - routes only enqueue known kinds
            raise ValueError(f"unknown write op {op.kind!r}")
        return result

    def _maybe_checkpoint(self, applied: int) -> None:
        self._writes_since_checkpoint += applied
        if (
            self.config.checkpoint_every
            and self._writes_since_checkpoint >= self.config.checkpoint_every
        ):
            self._checkpoint()

    async def _handle_deposit(self, request, keep_alive) -> Tuple[int, bytes]:
        payload = http.json_body(request)
        batch = payload.get("documents") if isinstance(payload, dict) else None
        if batch is not None:
            if not isinstance(batch, list) or not batch or not all(
                isinstance(xml, str) and xml.strip() for xml in batch
            ):
                raise http.HttpError(
                    400,
                    'expected a JSON body like'
                    ' {"documents": ["<a>...</a>", ...]}',
                )
            body = await self._submit_write("deposit_many", batch)
        else:
            body = await self._submit_write("deposit", self._xml_field(payload))
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    async def _handle_evolve(self, request, keep_alive) -> Tuple[int, bytes]:
        payload = http.json_body(request)
        name = payload.get("dtd") if isinstance(payload, dict) else None
        if not isinstance(name, str):
            raise http.HttpError(400, 'expected a JSON body like {"dtd": "name"}')
        if name not in self.holder.current.dtd_names:
            raise http.HttpError(404, f"no DTD named {name!r}")
        body = await self._submit_write("evolve", name)
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    async def _handle_drain(self, request, keep_alive) -> Tuple[int, bytes]:
        body = await self._submit_write("drain", None)
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    @staticmethod
    def _xml_field(payload: Any) -> str:
        xml = payload.get("xml") if isinstance(payload, dict) else None
        if not isinstance(xml, str) or not xml.strip():
            raise http.HttpError(400, 'expected a JSON body like {"xml": "<a>...</a>"}')
        return xml

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Snapshot the engine to ``checkpoint_path`` (format 3)."""
        path = self.config.checkpoint_path
        if not path:
            return
        from repro.core.persistence import save_source

        save_source(self.source, path)
        self._writes_since_checkpoint = 0
        self.checkpoints += 1

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    async def _handle_healthz(self, request, keep_alive) -> Tuple[int, bytes]:
        snapshot = self.holder.current
        body = {
            "status": "closing" if self._closing else "ok",
            "snapshot_version": snapshot.version,
            "fingerprint": snapshot.fingerprint,
            "dtd_names": list(snapshot.dtd_names),
            "queue_depth": self._pending_writes,
            "inflight": self._inflight,
            "applied_writes": self._applied,
            "documents_processed": self.source.documents_processed,
            "repository_size": len(self.source.repository),
            "evolutions": self.source.evolution_count,
            "checkpoints": self.checkpoints,
        }
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    def _refresh_scrape_gauges(self) -> None:
        """Pull-phase gauges recomputed on every scrape/debug hit."""
        snapshot = self.holder.current
        self._snapshot_age_gauge.set(max(0.0, time.time() - snapshot.published_at))
        self._snapshot_lag_gauge.set(
            max(0, self.source.state_version - snapshot.state_version)
        )
        self._queue_gauge.set(self._pending_writes)
        if self.drift is not None:
            self.drift.refresh()

    async def _handle_metrics(self, request, keep_alive) -> Tuple[int, bytes]:
        # perf counter reads are plain int loads — safe to mirror while
        # the writer thread increments them
        self.registry.update_from_perf(self.source.perf_snapshot())
        self.registry.gauge(
            "repro_event_dead_letters",
            "Subscriber exceptions swallowed by the event bus",
        ).set(self.source.events.dead_letters)
        self._refresh_scrape_gauges()
        return 200, http.text_response(
            200, self.registry.expose(), keep_alive=keep_alive
        )

    async def _handle_debug_vars(self, request, keep_alive) -> Tuple[int, bytes]:
        """Service internals at a glance: queue/snapshot state, sampler
        tallies, and the full counters snapshot."""
        self._refresh_scrape_gauges()
        snapshot = self.holder.current
        body = {
            "queue_depth": self._pending_writes,
            "inflight": self._inflight,
            "applied_writes": self._applied,
            "connections": len(self._connections),
            "writer_suspended": (
                self._write_gate is not None and not self._write_gate.is_set()
            ),
            "snapshot": {
                "version": snapshot.version,
                "state_version": snapshot.state_version,
                "fingerprint": snapshot.fingerprint,
                "age_seconds": max(0.0, time.time() - snapshot.published_at),
                "publishes": self.holder.publishes,
                "reuses": self.holder.reuses,
                "dtd_names": list(snapshot.dtd_names),
            },
            "sampler": self.sampler.stats(),
            "ring": {
                "size": len(self.ring),
                "capacity": self.ring.capacity,
                "appended": self.ring.appended,
            },
            "sink": self.sink.stats() if self.sink is not None else None,
            "counters": self.registry.as_dict(),
        }
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    async def _handle_debug_slow(self, request, keep_alive) -> Tuple[int, bytes]:
        """The N slowest recent kept requests, with their span trees."""
        count = max(1, min(request.query_int("n", 10), self.ring.capacity))
        body = {
            "count": count,
            "ring_size": len(self.ring),
            "requests": [sample.as_dict() for sample in self.ring.slowest(count)],
        }
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    async def _handle_debug_health(self, request, keep_alive) -> Tuple[int, bytes]:
        """The evolution-drift digest plus snapshot freshness."""
        snapshot = self.holder.current
        body = self.drift.summary() if self.drift is not None else {"status": "ok"}
        body["snapshot"] = {
            "version": snapshot.version,
            "age_seconds": max(0.0, time.time() - snapshot.published_at),
            "version_lag": max(
                0, self.source.state_version - snapshot.state_version
            ),
        }
        body["closing"] = self._closing
        return 200, http.json_response(200, body, keep_alive=keep_alive)

    def __repr__(self) -> str:
        state = "closing" if self._closing else (
            "listening" if self._server is not None else "stopped"
        )
        return (
            f"ReproService({state}, port={self.port}, "
            f"snapshot=v{self.holder.version}, applied={self._applied})"
        )
