"""Counters, gauges, and fixed-bucket histograms with Prometheus text
exposition.

A :class:`MetricsRegistry` is a flat namespace of instruments keyed by
``(name, labels)``.  It *wraps* the engine's
:class:`~repro.perf.PerfCounters` rather than replacing them:
:meth:`MetricsRegistry.update_from_perf` mirrors a ``perf_snapshot()``
into ``repro_perf_*`` counters (the snapshot stays the one source of
counts; the registry only copies it), and
:meth:`MetricsRegistry.observe_spans` folds a tracer's finished spans
into per-span-name latency histograms.
:meth:`MetricsRegistry.expose` renders the whole registry as Prometheus
text exposition (format 0.0.4).

Histograms use fixed upper-bound buckets (seconds by default, tuned
for the sub-millisecond classification path) and derive p50/p90/p99
summaries by linear interpolation inside the winning bucket, clamped
to the observed min/max so small samples never report a bucket bound
nothing ever reached.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: default histogram upper bounds, in seconds (latency-shaped)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _format_value(value: float) -> str:
    if value == inf:
        return "+Inf"
    if value == -inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    # format 0.0.4: HELP text escapes backslash and newline only
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: LabelItems, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"' for key, value in items)
    return "{" + body + "}"


class _Instrument:
    """Shared identity plumbing: name, help text, frozen labels."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        self.name = name
        self.help = help
        self.labels = labels

    def samples(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}{dict(self.labels) or ''})"


class Counter(_Instrument):
    """A monotone counter.  :meth:`inc` adds; :meth:`set_to` mirrors an
    externally maintained monotone total (a ``PerfCounters`` snapshot
    value) and refuses to go backwards."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Adopt an external monotone total (never decreases)."""
        if value > self.value:
            self.value = value

    def samples(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labels)} {_format_value(self.value)}"
        ]


class Gauge(_Instrument):
    """A value that may go either way."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labels)} {_format_value(self.value)}"
        ]


class Histogram(_Instrument):
    """A fixed-bucket histogram with interpolated percentile summaries.

    Buckets are cumulative upper bounds in Prometheus style (an
    implicit ``+Inf`` bucket catches the tail); :meth:`percentile`
    walks the cumulative counts to the target rank and interpolates
    linearly inside the winning bucket, clamping to the observed
    min/max.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelItems = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self._min = inf
        self._max = -inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` in ``[0, 1]`` (0.0 when
        empty)."""
        if self.count == 0:
            return 0.0
        target = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self._max
                )
                fraction = (
                    (target - previous) / bucket_count if bucket_count else 1.0
                )
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(self._min, min(self._max, estimate))
        return self._max  # pragma: no cover - cumulative always reaches count

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly digest benchmarks embed."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self._min if self.count else 0.0,
            "max": self._max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def samples(self) -> List[str]:
        lines = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labels, (('le', _format_value(bound)),))}"
                f" {cumulative}"
            )
        lines.append(
            f"{self.name}_bucket"
            f"{_render_labels(self.labels, (('le', '+Inf'),))} {self.count}"
        )
        lines.append(
            f"{self.name}_sum{_render_labels(self.labels)} "
            f"{_format_value(self.sum)}"
        )
        lines.append(
            f"{self.name}_count{_render_labels(self.labels)} {self.count}"
        )
        return lines


class MetricsRegistry:
    """A namespace of instruments, get-or-create by (name, labels).

    Creation is idempotent: asking twice for the same name and labels
    returns the same instrument; asking for the same name with a
    different kind raises.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[Tuple[str, LabelItems], _Instrument]" = {}

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: Mapping[str, str], **kwargs):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument
        instrument = cls(name, help, key[1], **kwargs)
        self._instruments[key] = instrument
        return instrument

    # metric name and help text are positional-only so ``name=...`` /
    # ``help=...`` stay usable as label keys (span histograms label by
    # span name)
    def counter(self, name: str, help: str = "", /, **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", /, **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        /,
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------

    def update_from_perf(self, snapshot: Mapping[str, int]) -> None:
        """Mirror a ``perf_snapshot()`` into ``repro_perf_*`` counters.

        Values are the snapshot's own (monotone) totals, so repeated
        updates are idempotent; timer entries keep their nanosecond
        unit and ``_ns`` suffix.
        """
        for name, value in snapshot.items():
            self.counter(
                f"repro_perf_{name}", f"PerfCounters.{name} mirror"
            ).set_to(value)

    def observe_spans(
        self, spans: Iterable[Any], metric: str = "repro_span_seconds"
    ) -> None:
        """Fold finished spans — :class:`~repro.obs.tracing.Span`
        objects, record tuples, or the dicts
        :func:`~repro.obs.export.load_trace` yields — into one latency
        histogram per span name."""
        for span in spans:
            if isinstance(span, tuple):
                _, _, name, start_ns, end_ns, _ = span
            elif isinstance(span, dict):
                name, start_ns, end_ns = (
                    span["name"], span["start_ns"], span["end_ns"]
                )
            else:
                name, start_ns, end_ns = span.name, span.start_ns, span.end_ns
            self.histogram(
                metric, "span latency by span name", name=name
            ).observe((end_ns - start_ns) / 1e9)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The registry as a JSON-able digest: counters and gauges map
        to their value, histograms to their :meth:`Histogram.summary`.
        Labelled instruments key as ``name{k=v,...}`` (sorted labels),
        so the shape is stable across runs — benchmark outputs
        (``BENCH_serve.json``) embed this directly."""
        digest: Dict[str, Any] = {}
        for (name, labels), instrument in self._instruments.items():
            key = name + _render_labels(labels)
            if isinstance(instrument, Histogram):
                digest[key] = instrument.summary()
            else:
                digest[key] = instrument.value
        return digest

    def expose(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every
        instrument, grouped by metric family in registration order.

        ``# HELP`` and ``# TYPE`` appear exactly once per family —
        HELP taken from the first instrument in the family that *has*
        help text (a labelled child created without help must not
        silence the family's description), escaped per the format
        (backslash and newline); all of a family's samples are
        contiguous under its headers."""
        lines: List[str] = []
        seen_families = set()
        for (name, _labels), instrument in self._instruments.items():
            if name in seen_families:
                continue
            seen_families.add(name)
            family = [
                other
                for (other_name, _), other in self._instruments.items()
                if other_name == name
            ]
            help_text = next((m.help for m in family if m.help), "")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for member in family:
                lines.extend(member.samples())
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
