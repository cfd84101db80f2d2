"""``PerfCounters.merge`` and the counter-bus subscriber.

The merge adds deltas commutatively, and the event-bus subscriber must
not double-apply a redelivered event.
"""

from __future__ import annotations

from repro.perf import PerfCounters
from repro.pipeline.events import (
    DocumentClassified,
    EventBus,
    subscribe_counters,
)
from repro.pipeline.events import _SEEN_EVENT_WINDOW


# ----------------------------------------------------------------------
# Merge: plain commutative addition
# ----------------------------------------------------------------------


def test_keyless_merge_adds():
    counters = PerfCounters()
    applied = counters.merge({"dp_runs": 3, "validations": 2, "bound_skips": 0})
    assert applied == {"dp_runs": 3, "validations": 2}
    assert counters.dp_runs == 3 and counters.validations == 2


def test_keyless_merge_is_commutative():
    deltas = [
        {"dp_runs": 2, "dp_cells": 40},
        {"validations": 5},
        {"dp_runs": 1, "structural_cache_hits": 7},
    ]
    forward, backward = PerfCounters(), PerfCounters()
    for delta in deltas:
        forward.merge(delta)
    for delta in reversed(deltas):
        backward.merge(delta)
    assert forward.snapshot() == backward.snapshot()


# ----------------------------------------------------------------------
# The bus subscriber
# ----------------------------------------------------------------------


def _classified(delta):
    return DocumentClassified(None, "dtd", 1.0, True, perf_delta=delta)


def test_subscriber_accumulates_deltas():
    bus, counters = EventBus(), PerfCounters()
    subscribe_counters(bus, counters)
    bus.emit(_classified({"dp_runs": 2}))
    bus.emit(_classified({"dp_runs": 1, "validations": 4}))
    assert counters.dp_runs == 3 and counters.validations == 4


def test_subscriber_ignores_redelivered_event_object():
    """The same event *object* delivered twice (an observer re-emitting,
    or two buses sharing a subscriber) must count once; an equal-valued
    but distinct event still counts."""
    bus, counters = EventBus(), PerfCounters()
    subscribe_counters(bus, counters)
    event = _classified({"dp_runs": 2})
    bus.emit(event)
    bus.emit(event)
    assert counters.dp_runs == 2
    bus.emit(_classified({"dp_runs": 2}))
    assert counters.dp_runs == 4


def test_subscriber_window_is_bounded():
    bus, counters = EventBus(), PerfCounters()
    subscribe_counters(bus, counters)
    for _ in range(_SEEN_EVENT_WINDOW * 2):
        bus.emit(_classified({"dp_runs": 1}))
    assert counters.dp_runs == _SEEN_EVENT_WINDOW * 2


def test_subscriber_mirrors_perf_snapshot_on_a_serial_run():
    """The engine invariant the duplicate guard must preserve: summing
    the bus ``perf_delta``s reconstructs ``perf_snapshot()`` exactly."""
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig
    from repro.generators.scenarios import figure3_dtd, figure3_workload

    source = XMLSource([figure3_dtd()], EvolutionConfig(sigma=0.2))
    mirror = PerfCounters()
    subscribe_counters(source.events, mirror)
    merged = PerfCounters()
    handle = source.events.subscribe_all(
        lambda event: None
    )  # unrelated observer must not perturb counting
    for document in figure3_workload(6, 2, seed=9):
        source.process(document)
    source.events.unsubscribe_all(handle)
    merged.merge(source.perf_snapshot())
    assert mirror.snapshot() == merged.snapshot() == source.perf_snapshot()
