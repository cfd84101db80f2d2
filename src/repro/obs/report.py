"""Latency reporting over a trace dump (`dtdevolve report`).

Consumes the records :func:`repro.obs.export.load_trace` yields and
renders the run as fixed-width tables (the same
:class:`~repro.metrics.report.Table` the benchmarks print):

- **per-stage latency** — count, total, p50/p90/p99/max per span name
  for the Figure-1 phases (``stage.*``), the per-document roots
  (``doc``) and batches;
- **slowest documents** — the ``doc`` spans ranked by duration, with
  their ``doc_id``/root-tag/DTD provenance attributes;
- **evolution phase breakdown** — the ``phase.*`` spans (the same
  intervals the ``*_ns`` perf timers accumulate), with each phase's
  share of the total evolution wall-clock.

Percentiles here are exact (computed from the full duration lists, not
histogram buckets — a trace dump carries every span).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List

from repro.metrics.report import Table

__all__ = ["render_report", "stage_latencies"]


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


def _percentile(durations: List[int], quantile: float) -> int:
    """Exact nearest-rank percentile (1-based ``ceil(q * n)``) over a
    sorted duration list."""
    if not durations:
        return 0
    index = min(len(durations), max(1, math.ceil(quantile * len(durations))))
    return durations[index - 1]


def stage_latencies(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-span-name duration digests (count, total/p50/p90/p99/max in
    nanoseconds), for programmatic consumers."""
    by_name: Dict[str, List[int]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(
            record["end_ns"] - record["start_ns"]
        )
    digests: Dict[str, Dict[str, float]] = {}
    for name, durations in sorted(by_name.items()):
        durations.sort()
        digests[name] = {
            "count": len(durations),
            "total_ns": sum(durations),
            "p50_ns": _percentile(durations, 0.50),
            "p90_ns": _percentile(durations, 0.90),
            "p99_ns": _percentile(durations, 0.99),
            "max_ns": durations[-1],
        }
    return digests


def _latency_table(records: List[Dict[str, Any]]) -> Table:
    table = Table(
        "Per-stage latency (ms)",
        ["span", "count", "total", "p50", "p90", "p99", "max"],
    )
    digests = stage_latencies(
        r
        for r in records
        if r["name"] in ("batch", "doc")
        or r["name"].startswith("stage.")
    )
    for name, digest in digests.items():
        table.add_row(
            [
                name,
                int(digest["count"]),
                _ms(digest["total_ns"]),
                _ms(digest["p50_ns"]),
                _ms(digest["p90_ns"]),
                _ms(digest["p99_ns"]),
                _ms(digest["max_ns"]),
            ]
        )
    return table


def _slowest_documents(records: List[Dict[str, Any]], top: int) -> Table:
    table = Table(
        f"Slowest documents (top {top})",
        ["doc_id", "root", "dtd", "ms", "evolved"],
    )
    docs = [r for r in records if r["name"] == "doc"]
    docs.sort(key=lambda r: r["end_ns"] - r["start_ns"], reverse=True)
    for record in docs[:top]:
        attrs = record["attrs"]
        table.add_row(
            [
                attrs.get("doc_id", "?"),
                attrs.get("root", "?"),
                attrs.get("dtd") or "<repository>",
                _ms(record["end_ns"] - record["start_ns"]),
                ",".join(attrs.get("evolved", ())) or "-",
            ]
        )
    return table


def _phase_breakdown(records: List[Dict[str, Any]]) -> Table:
    table = Table(
        "Evolution phase breakdown (ms)",
        ["phase", "count", "total", "p50", "p99", "share"],
    )
    digests = stage_latencies(
        r for r in records if r["name"].startswith("phase.")
    )
    evolve_total = digests.get("phase.evolve", {}).get("total_ns", 0)
    drain_total = digests.get("phase.drain", {}).get("total_ns", 0)
    whole = evolve_total + drain_total
    for name, digest in digests.items():
        share = digest["total_ns"] / whole if whole else 0.0
        table.add_row(
            [
                name,
                int(digest["count"]),
                _ms(digest["total_ns"]),
                _ms(digest["p50_ns"]),
                _ms(digest["p99_ns"]),
                f"{share:6.1%}",
            ]
        )
    return table


def render_report(
    records: Iterable[Dict[str, Any]], trace_id: str = "", top: int = 5
) -> str:
    """The full report as printable text."""
    records = list(records)
    header = f"trace {trace_id or '<unknown>'} — {len(records)} spans"
    sections = [header, "", _latency_table(records).render()]
    slowest = _slowest_documents(records, top)
    if slowest.rows:
        sections += ["", slowest.render()]
    phases = _phase_breakdown(records)
    if phases.rows:
        sections += ["", phases.render()]
    return "\n".join(sections)
