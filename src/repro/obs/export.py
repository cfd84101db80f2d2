"""Trace serialization: Chrome trace-event JSON and a JSONL stream.

Two formats, one span model:

- **Chrome trace-event JSON** (:func:`write_chrome_trace`): an object
  with a ``traceEvents`` array of complete (``"ph": "X"``) events —
  microsecond timestamps/durations, span attributes under ``args`` —
  directly loadable in ``about:tracing`` or https://ui.perfetto.dev.
- **JSONL** (:func:`write_jsonl`): a compact stream — one header line
  (``{"trace_id": …, "spans": N}``) followed by one span object per
  line — cheap to append, grep, and stream-parse.

:func:`load_trace` reads either format back into ``(trace_id,
records)`` where each record is a plain dict with ``span_id``,
``parent_id``, ``name``, ``start_ns``, ``end_ns``, ``attrs`` — the
shape :mod:`repro.obs.report` consumes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "span_dict",
    "load_trace",
]


def span_dict(span: Any) -> Dict[str, Any]:
    """One span (object or record tuple) as the canonical plain dict."""
    if isinstance(span, tuple):
        span_id, parent_id, name, start_ns, end_ns, attrs = span
    else:
        span_id, parent_id = span.span_id, span.parent_id
        name, start_ns, end_ns = span.name, span.start_ns, span.end_ns
        attrs = span.attrs
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "attrs": dict(attrs),
    }


def chrome_trace(
    spans: Iterable[Any], trace_id: str = "", pid: Optional[int] = None
) -> Dict[str, Any]:
    """Chrome trace-event JSON as a plain dict.

    Each span becomes a complete (``"X"``) event on one timeline row
    (tid 0); timestamps are rebased so the trace starts at zero
    microseconds.
    """
    records = [span_dict(span) for span in spans]
    pid = pid if pid is not None else os.getpid()
    base_ns = min((r["start_ns"] for r in records), default=0)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro trace {trace_id}".strip()},
        }
    ]
    for record in records:
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (record["start_ns"] - base_ns) / 1000.0,
                "dur": (record["end_ns"] - record["start_ns"]) / 1000.0,
                "pid": pid,
                "tid": 0,
                "args": {
                    "span_id": record["span_id"],
                    "parent_id": record["parent_id"],
                    "start_ns": record["start_ns"],
                    "end_ns": record["end_ns"],
                    **record["attrs"],
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "spans": len(records)},
    }


def write_chrome_trace(path: str, spans: Iterable[Any], trace_id: str = "") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, trace_id), handle, indent=1, default=str)
        handle.write("\n")


def write_jsonl(path: str, spans: Iterable[Any], trace_id: str = "") -> None:
    records = [span_dict(span) for span in spans]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"trace_id": trace_id, "spans": len(records)}) + "\n"
        )
        for record in records:
            handle.write(json.dumps(record, default=str) + "\n")


def _records_from_chrome(data: Dict[str, Any]) -> Tuple[str, List[Dict[str, Any]]]:
    trace_id = str(data.get("otherData", {}).get("trace_id", ""))
    records = []
    for event in data.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start_ns = args.pop("start_ns", None)
        end_ns = args.pop("end_ns", None)
        if start_ns is None:
            start_ns = int(event.get("ts", 0) * 1000)
            end_ns = start_ns + int(event.get("dur", 0) * 1000)
        records.append(
            {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": event.get("name", ""),
                "start_ns": start_ns,
                "end_ns": end_ns,
                "attrs": args,
            }
        )
    return trace_id, records


def load_trace(path: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Read a Chrome trace JSON or a span JSONL back into records.

    Either format loads to the same ``(trace_id, records)`` shape, so
    ``dtdevolve report`` accepts ``--trace`` and ``--trace-jsonl``
    output (and the serve sink's rotated generations) alike.  Raises
    ``ValueError`` with the offending path (and line, for JSONL) for
    content that is neither — including *mixed* files where
    Chrome-trace events appear inside a JSONL stream.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"{path}: empty trace file")
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "traceEvents" in data:
        if not isinstance(data["traceEvents"], list):
            raise ValueError(
                f"{path}: Chrome trace with a non-array traceEvents field"
            )
        return _records_from_chrome(data)
    if data is not None and not isinstance(data, dict):
        raise ValueError(
            f"{path}: not a trace (top-level JSON is "
            f"{type(data).__name__}, expected a Chrome trace object or "
            f"JSONL span lines)"
        )
    # JSONL: header line then one span per line
    trace_id = ""
    saw_header = False
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(stripped.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{index + 1}: bad JSONL line: {error}")
        if not isinstance(entry, dict):
            raise ValueError(
                f"{path}:{index + 1}: bad JSONL entry "
                f"({type(entry).__name__}, expected an object)"
            )
        if "traceEvents" in entry or entry.get("ph") is not None:
            raise ValueError(
                f"{path}:{index + 1}: mixed formats — Chrome trace-event "
                f"content inside a JSONL stream; re-export with one of "
                f"--trace or --trace-jsonl"
            )
        if "name" in entry and "start_ns" in entry:
            records.append(
                {
                    "span_id": entry.get("span_id"),
                    "parent_id": entry.get("parent_id"),
                    "name": entry["name"],
                    "start_ns": entry["start_ns"],
                    "end_ns": entry.get("end_ns", entry["start_ns"]),
                    "attrs": dict(entry.get("attrs", {})),
                }
            )
        elif "trace_id" in entry:
            if saw_header and str(entry["trace_id"]) != trace_id:
                raise ValueError(
                    f"{path}:{index + 1}: second JSONL header with a "
                    f"different trace_id ({entry['trace_id']!r} after "
                    f"{trace_id!r}) — concatenated traces are not one "
                    f"trace"
                )
            trace_id = str(entry["trace_id"])
            saw_header = True
        else:
            keys = ", ".join(sorted(map(str, entry))) or "no keys"
            raise ValueError(
                f"{path}:{index + 1}: neither span nor header "
                f"(object with {keys})"
            )
    return trace_id, records
