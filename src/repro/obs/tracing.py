"""Nested spans over a monotonic clock.

A :class:`Tracer` produces :class:`Span`\\ s — named, attributed,
monotonic-clock intervals arranged in a parent/child tree by a plain
stack discipline: ``tracer.span(name)`` opens a child of whatever span
is currently open, and closing restores the parent.  The engine opens
one root span per batch (``batch``), one per document (``doc``), one
per Figure-1 phase (``stage.classify`` … ``stage.drain``), and the
:meth:`repro.perf.PerfCounters.timer` phases surface as ``phase.*``
spans through the same seam the nanosecond counters use — so the trace
and ``perf_snapshot()`` can never tell different stories.

The default tracer on every :class:`~repro.core.engine.XMLSource` is
:data:`NULL_TRACER`, whose ``span()`` hands back a shared, stateless
no-op — tracing costs one attribute read and one truth test per
document until somebody installs a real tracer.

Collecting elsewhere, grafting later: a :class:`SpanCollector` is a
tracer whose finished spans drain as plain tuples.  The serve layer
installs one on the engine for each sampled write op and, once the op
is applied, :meth:`Tracer.splice` grafts the drained records into the
request's span tree — remapping span ids and stamping attributes.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanCollector",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: a finished span as a plain tuple: (span_id, parent_id, name,
#: start_ns, end_ns, attributes)
SpanRecord = Tuple[int, Optional[int], str, int, int, Dict[str, Any]]


class Span:
    """One named interval in the trace tree.

    Usable as a context manager (``with tracer.span("x") as span:``);
    :meth:`set` attaches attributes while the span is open or after.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns",
                 "attrs", "_tracer")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        attrs: Dict[str, Any],
        tracer: "Tracer",
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attrs = attrs
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute."""
        self.attrs[key] = value

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_record(self) -> SpanRecord:
        """Flatten to the plain record tuple shape."""
        return (
            self.span_id,
            self.parent_id,
            self.name,
            self.start_ns,
            self.end_ns,
            dict(self.attrs),
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self._tracer.finish(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ns}ns)"
        )


class Tracer:
    """Collects a tree of spans for one run.

    ``trace_id`` identifies the run (a fresh UUID hex by default) and
    rides every export.  Finished spans accumulate on :attr:`spans` in
    finish order; the open-span stack defines parentage, so spans from
    nested ``with`` blocks form a tree without any caller bookkeeping.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex
        #: finished spans, in finish order
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span as a context manager::

            with tracer.span("stage.classify", doc_id=7) as span:
                ...
                span.set("hit", True)
        """
        return self.start(name, **attrs)

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span explicitly (pair with :meth:`finish`)."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(name, span_id, parent_id, time.perf_counter_ns(), attrs, self)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` (and, defensively, anything opened under it
        that was left dangling — stack discipline is LIFO)."""
        span.end_ns = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end_ns = span.end_ns
            self.spans.append(top)
        self.spans.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Splicing collected spans
    # ------------------------------------------------------------------

    def splice(
        self,
        records: Iterable[SpanRecord],
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Graft span records collected by another tracer into this one.

        Span ids are remapped through this tracer's allocator (internal
        parent links are preserved); records whose parent is not in the
        batch become children of ``parent_id``.  Timestamps are kept
        as-is: the records come from this process's monotonic clock.
        ``attrs`` are stamped onto every grafted span.  Returns how
        many spans were grafted.
        """
        batch = list(records)
        if not batch:
            return 0
        remap: Dict[int, int] = {}
        for record in batch:
            remap[record[0]] = self._next_id
            self._next_id += 1
        for old_id, old_parent, name, start_ns, end_ns, span_attrs in batch:
            merged = dict(span_attrs)
            merged.update(attrs)
            span = Span(
                name,
                remap[old_id],
                remap.get(old_parent, parent_id) if old_parent is not None
                else parent_id,
                start_ns,
                merged,
                self,
            )
            span.end_ns = end_ns
            self.spans.append(span)
        return len(batch)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """Every finished span as a plain tuple (finish order)."""
        return [span.to_record() for span in self.spans]

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (``about:tracing`` / Perfetto)."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.spans, trace_id=self.trace_id)

    def write_jsonl(self, path: str) -> None:
        """The compact one-span-per-line stream."""
        from repro.obs.export import write_jsonl

        write_jsonl(path, self.spans, trace_id=self.trace_id)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(trace_id={self.trace_id!r}, "
            f"spans={len(self.spans)}, open={len(self._stack)})"
        )


class SpanCollector(Tracer):
    """A tracer whose spans are collected for grafting elsewhere: same
    span machinery, plus a drain method so each collection window
    hands over exactly its own spans."""

    def take_records(self) -> List[SpanRecord]:
        """Drain the finished spans as plain records."""
        records = self.records()
        self.spans.clear()
        return records


class _NullSpan:
    """The shared no-op span: attribute writes vanish, context-manager
    entry/exit does nothing.  Stateless, hence safely reentrant."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The zero-overhead default: ``enabled`` is False (hot paths check
    it and skip all span work) and every span operation is a no-op, so
    even un-guarded call sites stay safe."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(trace_id="")

    def span(self, name: str, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def start(self, name: str, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def finish(self, span) -> None:  # type: ignore[override]
        pass


#: the process-wide no-op tracer every source starts with
NULL_TRACER = NullTracer()
