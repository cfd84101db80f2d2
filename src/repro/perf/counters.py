"""Fast-path hit counters and phase timers.

:class:`PerfCounters` is plumbing shared by the similarity matcher, the
classifier, the evolution phase, and the
:class:`repro.core.engine.XMLSource` pipeline; it carries no algorithmic
behaviour of its own.  The fast paths themselves have one switch, the
``fastpath`` flag of those classes (see :mod:`repro.perf`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


#: wall-clock phase timers (integer nanoseconds); they live in the same
#: snapshot as the counters, so every reader of ``perf_snapshot()``
#: sees them with no extra plumbing.
#: ``snapshot_serialize_ns`` times serve's snapshot publishes (the
#: fingerprint plus the classifier build) and is accumulated directly
#: by :class:`repro.serve.holder.SnapshotHolder` (not via
#: :meth:`PerfCounters.timer`), so it never mirrors a ``phase.*`` span.
TIMER_NAMES = (
    "evolve_ns",
    "evolve_mine_ns",
    "evolve_build_ns",
    "evolve_rewrite_ns",
    "evolve_restrict_ns",
    "drain_ns",
    "snapshot_serialize_ns",
)

#: the counter fields, in snapshot order
COUNTER_NAMES = (
    "documents_classified",
    "validations",
    "validity_short_circuits",
    "synthesized_evaluations",
    "structural_cache_hits",
    "structural_cache_misses",
    "structural_cache_evictions",
    "bound_skips",
    "dp_runs",
    "dp_cells",
    # these three stay 0; the benchmark ledger still reads them
    "evolution_element_skips",
    "mined_rule_hits",
    "mined_rule_misses",
    "drain_prune_skips",
    "drain_index_hits",
    "index_rows",
    "ingest_batch_commits",
) + TIMER_NAMES


class PerfCounters:
    """Mutable hit counters and phase timers for the fast paths.

    One instance is shared by a classifier, its matchers, its recorders,
    and the evolution phase, so a single snapshot describes the whole
    pipeline.  Counting is unconditional and cheap (integer increments);
    benchmarks and tests read the counters to assert the fast paths
    actually fire.  This is the one counting path: nothing re-derives
    these counts elsewhere, and every reader (``--report-perf``,
    ``/metrics``, the benchmark ledger) takes
    ``XMLSource.perf_snapshot()``.

    Timers (:data:`TIMER_NAMES`) accumulate monotonic wall-clock
    nanoseconds via the :meth:`timer` context manager.  They are plain
    monotone integers, so snapshot and reset apply to them unchanged;
    nested spans of the *same* timer count once (only
    the outermost span accumulates), while differently named spans may
    overlap freely (``evolve_ns`` wraps the per-phase timers, so it is
    always at least their sum for non-overlapping phases).
    """

    __slots__ = COUNTER_NAMES + ("_active_timers", "_span_sink")

    def __init__(self) -> None:
        self._active_timers: Dict[str, int] = {}
        #: an enabled tracer, when the engine wants phase spans mirrored
        #: off the same timers (see :meth:`set_span_sink`)
        self._span_sink = None
        self.reset()

    def reset(self) -> None:
        #: documents that went through ``Classifier.classify``
        self.documents_classified = 0
        #: tier-1 validator runs attempted
        self.validations = 0
        #: tier-1 hits: valid documents that skipped the span DP
        self.validity_short_circuits = 0
        #: tier-1 evaluations synthesized without any DP
        self.synthesized_evaluations = 0
        #: tier-2 fingerprint-cache hits (a whole DP run avoided)
        self.structural_cache_hits = 0
        #: tier-2 fingerprint-cache misses (DP ran, result interned)
        self.structural_cache_misses = 0
        #: tier-2 LRU evictions
        self.structural_cache_evictions = 0
        #: tier-3 DTDs skipped because their bound could not win
        self.bound_skips = 0
        #: span-DP invocations (one per element-against-declaration)
        self.dp_runs = 0
        #: span-DP memo cells computed (the quadratic work unit)
        self.dp_cells = 0
        #: always 0 (see COUNTER_NAMES)
        self.evolution_element_skips = 0
        self.mined_rule_hits = 0
        self.mined_rule_misses = 0
        #: repository documents skipped by the pruned post-evolution
        #: drain (provably still below sigma)
        self.drain_prune_skips = 0
        #: post-evolution drains answered by a store index query
        #: instead of a whole-repository scan
        self.drain_index_hits = 0
        #: candidate rows returned by store index queries (the documents
        #: an indexed drain actually examined)
        self.index_rows = 0
        #: store commits that covered a whole deposit batch (``add_many``
        #: or a ``bulk()`` window) instead of one document
        self.ingest_batch_commits = 0
        for name in TIMER_NAMES:
            setattr(self, name, 0)
        self._active_timers.clear()

    def set_span_sink(self, tracer) -> None:
        """Mirror every outermost :meth:`timer` interval as a
        ``phase.<name-without-_ns>`` span on ``tracer`` (ignored unless
        the tracer is enabled; ``None`` detaches).  The span rides the
        tracer's usual stack discipline, so evolution-phase spans nest
        under whatever stage span is open — the trace and the ``*_ns``
        counters describe the same intervals by construction."""
        self._span_sink = (
            tracer if tracer is not None and tracer.enabled else None
        )

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate monotonic wall-clock time under timer ``name``.

        Nestable: re-entering the same timer does not double-count (the
        outermost span owns the accumulation); distinct timers nest and
        overlap freely.
        """
        depth = self._active_timers.get(name, 0) + 1
        self._active_timers[name] = depth
        sink = self._span_sink if depth == 1 else None
        # the span opens before the timer clock and closes after it, so
        # the phase span always brackets the ``*_ns`` interval
        span = sink.start(f"phase.{name[:-3]}") if sink is not None else None
        start = time.perf_counter_ns() if depth == 1 else 0
        try:
            yield
        finally:
            self._active_timers[name] = depth - 1
            if depth == 1:
                del self._active_timers[name]
                elapsed = time.perf_counter_ns() - start
                setattr(self, name, getattr(self, name) + elapsed)
                if span is not None:
                    sink.finish(span)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (stable key order, JSON-friendly)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def timings(self) -> Dict[str, int]:
        """The timer fields alone (nanoseconds), for phase reporting."""
        return {name: getattr(self, name) for name in TIMER_NAMES}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"PerfCounters({inner})"
