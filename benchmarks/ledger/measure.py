"""Statistics, span self times and outcome digests (stdlib only)."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence

#: percentiles a timing may be reported at, highest first
PERCENTILES = (0.999, 0.99, 0.95, 0.9, 0.5)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (1-based ``ceil(q * n)``)."""
    ordered = sorted(values)
    index = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[index - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - min(n, max(1, math.ceil(q * n)))


def tail_percentile(n: int, beyond: int = 10) -> float:
    """The highest percentile of :data:`PERCENTILES` with at least
    ``beyond`` samples above it (0.5 when nothing higher qualifies)."""
    for q in PERCENTILES:
        if samples_beyond(n, q) >= beyond:
            return q
    return 0.5


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, interquartile range, min and max of repeated runs."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "iqr": q3 - q1,
        "min": min(values),
        "max": max(values),
    }


def self_times(records: Iterable[Mapping]) -> Dict[object, int]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (concurrent work under one
    parent); the covered part is the union of their intervals clipped
    to the parent, so no instant is subtracted twice.
    """
    records = list(records)
    children: Dict[object, List[Mapping]] = {}
    for record in records:
        children.setdefault(record["parent_id"], []).append(record)
    result = {}
    for record in records:
        start, end = record["start_ns"], record["end_ns"]
        covered, reach = 0, start
        spans = sorted(
            (max(start, c["start_ns"]), min(end, c["end_ns"]))
            for c in children.get(record["span_id"], ())
        )
        for child_start, child_end in spans:
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[record["span_id"]] = (end - start) - covered
    return result


#: which layer each span's self time belongs to: the benchmark's own
#: ``layer.*`` spans around calls into the program, the engine's
#: ``doc``/``stage.*``/``phase.*`` spans nested under them, and the
#: service's per-request spans
LAYER_OF_SPAN = {
    "layer.parse": "xmltree.parse_share",
    "layer.classify": "classification.classify_share",
    "stage.classify": "classification.classify_share",
    "stage.record": "core.record_check_share",
    "stage.check": "core.record_check_share",
    "stage.evolve": "core.evolve_share",
    "phase.evolve": "core.evolve_share",
    "phase.evolve_mine": "core.evolve_share",
    "phase.evolve_build": "core.evolve_share",
    "phase.evolve_rewrite": "core.evolve_share",
    "phase.evolve_restrict": "core.evolve_share",
    "stage.drain": "classification.drain_share",
    "phase.drain": "classification.drain_share",
    "layer.checkpoint": "core.checkpoint_share",
    "layer.load": "core.load_share",
    "layer.pipeline": "pipeline.facade_share",
    "doc": "pipeline.facade_share",
    "request./deposit": "serve.http_share",
    "queue.wait": "serve.queue_wait_share",
    "write.apply": "serve.write_apply_share",
}

#: the evolution phases, reported as parts of ``core.evolve_share``
EVOLVE_PHASES = ("mine", "build", "rewrite", "restrict")

LAYER_SHARES = tuple(dict.fromkeys(LAYER_OF_SPAN.values())) + (
    "pipeline.unattributed_share",
)


def self_by_name(records: Sequence[Mapping]) -> Dict[str, int]:
    """Total self time per span name."""
    own = self_times(records)
    totals: Dict[str, int] = {}
    for record in records:
        name = record["name"]
        totals[name] = totals.get(name, 0) + own[record["span_id"]]
    return totals


def layer_shares(self_ns: Mapping[str, int], wall_ns: int) -> Dict[str, float]:
    """Each layer's self time (from :func:`self_by_name`) as a share of
    ``wall_ns``, the evolution phases' shares, and the unattributed
    remainder: wall time no layer span covers (loop overhead)."""
    shares = dict.fromkeys(LAYER_SHARES, 0.0)
    attributed = 0
    for name, layer in LAYER_OF_SPAN.items():
        shares[layer] += self_ns.get(name, 0) / wall_ns
        attributed += self_ns.get(name, 0)
    shares["pipeline.unattributed_share"] = (wall_ns - attributed) / wall_ns
    for phase in EVOLVE_PHASES:
        shares[f"core.evolve_{phase}_share"] = (
            self_ns.get(f"phase.evolve_{phase}", 0) / wall_ns
        )
    return shares


def digest(value) -> str:
    """A short content hash of a JSON-able value (floats by repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
