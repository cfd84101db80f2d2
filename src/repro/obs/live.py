"""Continuous service telemetry: sampled tracing and drift health.

PR 5's :mod:`repro.obs` was built for finite batch runs — tracing is
all-or-nothing and metrics are a post-hoc export.  This module is the
*always-on* complement a long-running ``dtdevolve serve`` daemon needs:

- :class:`Sampler` — head-based rate sampling (deterministic given a
  seed, so tests can pin the kept set) plus tail-based keeps for slow
  and errored requests.  Head sampling decides *before* the work (cheap
  requests stay cheap); tail keeps decide *after* (a slow outlier is
  always captured, even at a 0.0 head rate — which is why sampling is
  on by default: the steady-state cost is a couple of timestamps per
  request).
- :class:`SpanRing` — a bounded ring of recently kept
  :class:`RequestSample`\\ s backing ``GET /debug/slow``.
- :class:`RotatingJsonlSink` — kept span trees streamed to a rotating
  JSONL file in the exact ``--trace-jsonl`` span schema, so
  ``dtdevolve report <sink>`` renders production samples directly.
- :class:`DriftMonitor` — evolution-drift health gauges and counters
  fed from the existing :class:`~repro.pipeline.events.EventBus`
  events: per-DTD classification/acceptance rates, repository misfit
  count and sigma-window position, documents-since-evolution.

Nothing here sits on an engine decision path: samplers observe request
envelopes, the drift monitor observes bus events, and span collection
during a sampled write is the same observation-only tracing the batch
path uses (DESIGN.md decision 15).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from hashlib import blake2b
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.logging import current_request_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanCollector, SpanRecord

__all__ = [
    "Sampler",
    "RequestSample",
    "SpanRing",
    "RotatingJsonlSink",
    "DriftMonitor",
    "build_request_spans",
]


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


class Sampler:
    """Head-rate plus tail-keep request sampling.

    ``sample(request_id)`` is the head decision: a keyed hash of
    ``(seed, request_id)`` mapped to ``[0, 1)`` and compared to
    ``rate`` — deterministic, so the same seed and the same request ids
    always select the same subset (no RNG state, safe from any thread).
    ``keep_reason`` is the tail decision, taken when the request
    finishes: head-sampled requests are kept as ``"head"``; requests
    that erred (status >= 500) or ran longer than ``slow_ns`` are kept
    as ``"error"`` / ``"slow"`` even when the head coin said no.
    """

    def __init__(
        self,
        rate: float = 0.0,
        slow_ns: int = 250_000_000,
        seed: int = 0,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.slow_ns = int(slow_ns)
        self.seed = seed
        #: head-decision threshold in hash space (2**64 buckets)
        self._threshold = int(rate * 2.0**64)
        # decision tallies, surfaced on /debug/vars
        self.offered = 0
        self.kept_head = 0
        self.kept_slow = 0
        self.kept_error = 0
        self.dropped = 0

    def sample(self, request_id: str) -> bool:
        """The head decision for ``request_id`` (deterministic)."""
        if self._threshold == 0:
            return False
        digest = blake2b(
            f"{self.seed}:{request_id}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") < self._threshold

    def keep_reason(
        self, head_sampled: bool, status: int, duration_ns: int
    ) -> Optional[str]:
        """Why a finished request is kept (``None`` = dropped).

        Error beats slow beats head in the recorded reason, so the ring
        and sink label the *interesting* property of a tail-kept
        request; the tallies follow the same precedence.
        """
        self.offered += 1
        if status >= 500:
            self.kept_error += 1
            return "error"
        if self.slow_ns >= 0 and duration_ns >= self.slow_ns:
            self.kept_slow += 1
            return "slow"
        if head_sampled:
            self.kept_head += 1
            return "head"
        self.dropped += 1
        return None

    def stats(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "slow_threshold_ms": self.slow_ns / 1e6,
            "seed": self.seed,
            "offered": self.offered,
            "kept_head": self.kept_head,
            "kept_slow": self.kept_slow,
            "kept_error": self.kept_error,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:
        return (
            f"Sampler(rate={self.rate}, slow_ms={self.slow_ns / 1e6:.0f}, "
            f"kept={self.kept_head + self.kept_slow + self.kept_error}/"
            f"{self.offered})"
        )


class RequestSample(NamedTuple):
    """One kept request: the envelope plus its span tree."""

    request_id: str
    method: str
    endpoint: str
    status: int
    start_ns: int
    end_ns: int
    #: ``"head"`` / ``"slow"`` / ``"error"``
    reason: str
    #: the request span tree — root first, ids unique, every parent
    #: resolving (see :func:`build_request_spans`)
    spans: Tuple[SpanRecord, ...]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        from repro.obs.export import span_dict

        return {
            "request_id": self.request_id,
            "method": self.method,
            "endpoint": self.endpoint,
            "status": self.status,
            "duration_ms": self.duration_ns / 1e6,
            "reason": self.reason,
            "spans": [span_dict(record) for record in self.spans],
        }


def build_request_spans(
    request_id: str,
    method: str,
    endpoint: str,
    status: int,
    start_ns: int,
    end_ns: int,
    phases: Sequence[Tuple[str, int, int, Dict[str, Any]]] = (),
    engine_records: Iterable[SpanRecord] = (),
) -> Tuple[SpanRecord, ...]:
    """Assemble one rooted span tree for a kept request.

    The root is the synthetic ``request.<endpoint>`` span; ``phases``
    (``(name, start_ns, end_ns, attrs)``, e.g. ``queue.wait`` /
    ``write.apply``) become its direct children; ``engine_records``
    (raw :data:`SpanRecord` tuples drained from a
    :class:`~repro.obs.tracing.SpanCollector` during the applied op)
    are grafted under the last phase.  All three levels go through
    :meth:`~repro.obs.tracing.Tracer.splice`, so ids are allocated once
    and the whole tree stays unique and resolvable.  Every span is
    stamped with ``request_id`` — the join key to log lines and
    metrics.
    """
    tree = SpanCollector(trace_id="")
    root = (
        1, None, f"request.{endpoint}", start_ns, end_ns,
        {"method": method, "status": status},
    )
    tree.splice([root], request_id=request_id)
    phase_records = [
        (index, None, name, phase_start, phase_end, attrs)
        for index, (name, phase_start, phase_end, attrs) in enumerate(phases)
    ]
    # the root is id 1 and the phases follow it, so the last phase's id
    # is one past the number of phases grafted
    last_phase = 1 + tree.splice(phase_records, parent_id=1, request_id=request_id)
    tree.splice(engine_records, parent_id=last_phase, request_id=request_id)
    return tuple(tree.take_records())


class SpanRing:
    """A bounded, thread-safe ring of kept :class:`RequestSample`\\ s.

    Backs ``GET /debug/slow``: :meth:`slowest` returns the N slowest
    samples currently in the window, slowest first (ties keep arrival
    order).  Appends evict the oldest sample once ``capacity`` is
    reached, so memory is bounded no matter how long the daemon runs.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._entries: "deque[RequestSample]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.appended = 0

    def append(self, sample: RequestSample) -> None:
        with self._lock:
            self._entries.append(sample)
            self.appended += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> List[RequestSample]:
        """The current window, oldest first."""
        with self._lock:
            return list(self._entries)

    def slowest(self, count: int = 10) -> List[RequestSample]:
        """The ``count`` slowest samples in the window, slowest first."""
        window = self.snapshot()
        window.sort(key=lambda sample: -sample.duration_ns)
        return window[:count]

    def __repr__(self) -> str:
        return f"SpanRing({len(self)}/{self.capacity}, appended={self.appended})"


class RotatingJsonlSink:
    """Kept span trees appended to a size-rotated JSONL file.

    Lines are the exact ``--trace-jsonl`` span schema (one header line
    per file, then one span object per line), so the sink file — and
    every rotated generation — loads with
    :func:`repro.obs.export.load_trace` and renders with ``dtdevolve
    report``.  When the live file exceeds ``max_bytes`` it rotates
    (``spans.jsonl`` → ``spans.jsonl.1`` → … up to ``backups``, oldest
    deleted), so disk stays bounded on a long-running daemon.
    """

    def __init__(
        self,
        path: str,
        trace_id: str = "",
        max_bytes: int = 8 * 1024 * 1024,
        backups: int = 3,
    ):
        self.path = path
        self.trace_id = trace_id
        self.max_bytes = max_bytes
        self.backups = max(0, backups)
        self.rotations = 0
        self.spans_written = 0
        self._lock = threading.Lock()
        self._handle = None

    def _open(self):
        import json

        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._handle.write(
                    json.dumps({"trace_id": self.trace_id, "spans": 0}) + "\n"
                )
        return self._handle

    def write(self, sample: RequestSample) -> None:
        """Append one kept request's spans (root first)."""
        import json

        from repro.obs.export import span_dict

        with self._lock:
            handle = self._open()
            for record in sample.spans:
                handle.write(json.dumps(span_dict(record), default=str) + "\n")
                self.spans_written += 1
            handle.flush()
            if handle.tell() >= self.max_bytes:
                self._rotate()

    def _rotate(self) -> None:
        self._handle.close()
        self._handle = None
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                source = f"{self.path}.{index}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "max_bytes": self.max_bytes,
            "backups": self.backups,
            "rotations": self.rotations,
            "spans_written": self.spans_written,
        }

    def __repr__(self) -> str:
        return (
            f"RotatingJsonlSink({self.path!r}, "
            f"spans={self.spans_written}, rotations={self.rotations})"
        )


# ----------------------------------------------------------------------
# Evolution-drift health
# ----------------------------------------------------------------------


class DriftMonitor:
    """Evolution-drift health telemetry over one engine's event bus.

    Counters accumulate from events (per-DTD classified / accepted /
    recorded totals, deposits, recoveries, evolutions); gauges are
    re-pulled from engine state on :meth:`refresh` (activation scores,
    recording-period sizes, repository misfit count), which the serve
    layer calls on every ``/metrics`` scrape
    and ``/debug/health`` hit.  :meth:`summary` condenses the same
    signals into the JSON the health endpoint returns.

    Event handlers run inline on whatever thread emits (the serve
    writer thread); they only touch pre-created instruments and plain
    attributes, so no handler ever mutates the registry's get-or-create
    map off the owning thread.
    """

    def __init__(self, registry: MetricsRegistry, source: "XMLSource"):
        self.registry = registry
        self.source = source
        self._handlers: List[Tuple[type, Callable]] = []
        #: documents processed at the moment of the last adopted
        #: evolution (drives documents-since-evolution)
        self._processed_at_last_evolution = source.documents_processed
        self._last_evolved_dtd: Optional[str] = None
        self._misfit_gauge = registry.gauge(
            "repro_repository_misfits",
            "documents currently held in the repository (below sigma "
            "against every DTD)",
        )
        self._sigma_margin_gauge = registry.gauge(
            "repro_repository_sigma_margin",
            "sigma minus the best similarity of the most recent misfit "
            "(how far below the acceptance window it sat)",
        )
        self._since_evolution_gauge = registry.gauge(
            "repro_docs_since_evolution",
            "documents processed since the last adopted evolution",
        )
        self._deposit_similarity = registry.histogram(
            "repro_deposit_similarity",
            "best similarity of deposited (rejected) documents",
            buckets=tuple(round(0.05 * i, 2) for i in range(21)),
        )
        self._recovered_counter = registry.counter(
            "repro_repository_recovered_total",
            "repository documents recovered by drains",
        )
        # per-DTD instruments for the initial set; evolutions keep the
        # names, mine_repository additions are picked up on refresh
        for name in source.dtd_names():
            self._dtd_instruments(name)

    # ------------------------------------------------------------------
    # Instrument plumbing
    # ------------------------------------------------------------------

    def _dtd_instruments(self, name: str) -> Dict[str, Any]:
        registry = self.registry
        return {
            "classified": registry.counter(
                "repro_dtd_classified_total",
                "documents whose best-ranked DTD was this one",
                dtd=name,
            ),
            "accepted": registry.counter(
                "repro_dtd_accepted_total",
                "documents accepted (similarity >= sigma) by this DTD",
                dtd=name,
            ),
            "recorded": registry.counter(
                "repro_dtd_recorded_total",
                "documents folded into this DTD's recording aggregates",
                dtd=name,
            ),
            "evolutions": registry.counter(
                "repro_dtd_evolutions_total",
                "evolutions adopted for this DTD",
                dtd=name,
            ),
            "activation": registry.gauge(
                "repro_dtd_activation_score",
                "current activation score (average invalid fraction) of "
                "the recording period",
                dtd=name,
            ),
            "recording": registry.gauge(
                "repro_dtd_documents_recorded",
                "documents in the current recording period",
                dtd=name,
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "DriftMonitor":
        """Subscribe to the engine bus (idempotent)."""
        if self._handlers:
            return self
        from repro.pipeline.events import (
            DocumentClassified,
            DocumentDeposited,
            DocumentRecorded,
            EvolutionFinished,
            RepositoryDrained,
        )

        pairs = (
            (DocumentClassified, self._on_classified),
            (DocumentDeposited, self._on_deposited),
            (DocumentRecorded, self._on_recorded),
            (EvolutionFinished, self._on_evolution),
            (RepositoryDrained, self._on_drained),
        )
        for event_type, handler in pairs:
            self.source.events.subscribe(event_type, handler)
            self._handlers.append((event_type, handler))
        self.refresh()
        return self

    def detach(self) -> None:
        for event_type, handler in self._handlers:
            self.source.events.unsubscribe(event_type, handler)
        self._handlers.clear()

    # ------------------------------------------------------------------
    # Event handlers (writer-thread inline)
    # ------------------------------------------------------------------

    def _on_classified(self, event) -> None:
        name = event.dtd_name
        if name is not None:
            instruments = self._dtd_instruments(name)
            instruments["classified"].inc()
            if event.accepted:
                instruments["accepted"].inc()

    def _on_deposited(self, event) -> None:
        self._misfit_gauge.set(event.repository_size)
        self._sigma_margin_gauge.set(
            self.source.classifier.threshold - event.similarity
        )
        self._deposit_similarity.observe(event.similarity)

    def _on_recorded(self, event) -> None:
        instruments = self._dtd_instruments(event.dtd_name)
        instruments["recorded"].inc()
        instruments["recording"].set(event.documents_recorded)

    def _on_evolution(self, event) -> None:
        self._dtd_instruments(event.dtd_name)["evolutions"].inc()
        self._processed_at_last_evolution = self.source.documents_processed
        self._last_evolved_dtd = event.dtd_name
        self._since_evolution_gauge.set(0)

    def _on_drained(self, event) -> None:
        self._misfit_gauge.set(event.remaining)
        if event.recovered:
            self._recovered_counter.inc(event.recovered)

    # ------------------------------------------------------------------
    # Pull-based gauges
    # ------------------------------------------------------------------

    def docs_since_evolution(self) -> int:
        return self.source.documents_processed - self._processed_at_last_evolution

    def refresh(self) -> None:
        """Re-pull every engine-state gauge (scrape-time)."""
        source = self.source
        self._misfit_gauge.set(len(source.repository))
        self._since_evolution_gauge.set(self.docs_since_evolution())
        for name in source.dtd_names():
            extended = source.extended.get(name)
            if extended is None:
                continue
            instruments = self._dtd_instruments(name)
            instruments["activation"].set(extended.activation_score)
            instruments["recording"].set(extended.document_count)

    # ------------------------------------------------------------------
    # The health digest
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The ``/debug/health`` drift digest.

        Per-DTD ``status``: ``"evolution-pending"`` once the paper's
        check-phase condition holds (enough documents recorded and
        activation above tau), ``"drifting"`` when the activation score
        crossed half of tau (invalidity accumulating, evolution not yet
        due), ``"ok"`` otherwise.
        """
        self.refresh()
        source = self.source
        config = source.config
        dtds: Dict[str, Any] = {}
        for name in source.dtd_names():
            extended = source.extended.get(name)
            if extended is None:
                continue
            instruments = self._dtd_instruments(name)
            classified = instruments["classified"].value
            accepted = instruments["accepted"].value
            activation = extended.activation_score
            if (
                extended.document_count >= config.min_documents
                and extended.should_evolve(config.tau)
            ):
                status = "evolution-pending"
            elif activation > config.tau / 2:
                status = "drifting"
            else:
                status = "ok"
            dtds[name] = {
                "status": status,
                "classified": int(classified),
                "accepted": int(accepted),
                "acceptance_rate": accepted / classified if classified else 0.0,
                "documents_recorded": extended.document_count,
                "activation_score": activation,
                "evolutions": extended.evolution_count,
            }
        deposit_digest = self._deposit_similarity.summary()
        return {
            "status": (
                "evolution-pending"
                if any(d["status"] == "evolution-pending" for d in dtds.values())
                else "drifting"
                if any(d["status"] == "drifting" for d in dtds.values())
                else "ok"
            ),
            "dtds": dtds,
            "repository": {
                "misfits": len(source.repository),
                "sigma": source.classifier.threshold,
                "last_misfit_margin": self._sigma_margin_gauge.value,
                "deposit_similarity": deposit_digest,
            },
            "evolution": {
                "total": source.evolution_count,
                "last_dtd": self._last_evolved_dtd,
                "docs_since_last": self.docs_since_evolution(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"DriftMonitor(dtds={self.source.dtd_names()!r}, "
            f"attached={bool(self._handlers)})"
        )
