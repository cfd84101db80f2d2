"""The lifecycle of the Figure-1 loop that
:class:`repro.core.engine.XMLSource` runs.

:mod:`repro.pipeline.events` holds the typed lifecycle events, the
:class:`EventBus` they are announced on — the engine's one observable
seam — and the loop's result records (:class:`ProcessOutcome`,
:class:`EvolutionEvent`).
"""

from repro.pipeline.events import (
    LIFECYCLE_EVENTS,
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EventBus,
    EvolutionEvent,
    EvolutionFinished,
    EvolutionStarted,
    ProcessOutcome,
    RepositoryDrained,
)

__all__ = [
    "ProcessOutcome",
    "EvolutionEvent",
    "EventBus",
    "LIFECYCLE_EVENTS",
    "DocumentClassified",
    "DocumentDeposited",
    "DocumentRecorded",
    "EvolutionStarted",
    "EvolutionFinished",
    "RepositoryDrained",
]
