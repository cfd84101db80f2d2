"""Typed lifecycle events, the subscription bus and the loop's results.

Every phase transition of the Figure-1 loop that
:class:`~repro.core.engine.XMLSource` runs is announced on an
:class:`EventBus` as a typed, immutable event.  The bus is the engine's
one observable seam: its own bookkeeping — the evolution log — rides it
the same way user observers (drift telemetry, audit trails) do,
without touching the engine:

    source.events.subscribe(EvolutionFinished, on_evolution)
    source.events.subscribe_all(audit_logger)

Event catalogue, in emission order for one processed document::

    DocumentClassified                  every document
    DocumentDeposited                   below-sigma documents only
    DocumentRecorded                    accepted documents only
    EvolutionStarted                    when the check phase fires
    EvolutionFinished                   the evolved DTD was adopted
    RepositoryDrained                   after every evolution (also after
                                        standalone drains, e.g.
                                        ``mine_repository``)

Events carry decisions, not counts: the fast-path counters live on
:class:`repro.perf.PerfCounters` alone and are read through
``XMLSource.perf_snapshot()``.

The loop's two result records live here too: :class:`ProcessOutcome`
(what ``XMLSource.process`` returns) and :class:`EvolutionEvent` (one
evolution-log entry, carried by the :class:`RepositoryDrained` that
closes an evolution).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, NamedTuple, Optional, Type

from repro.classification.classifier import ClassificationResult
from repro.core.evolution import EvolutionResult
from repro.xmltree.document import Document


class ProcessOutcome(NamedTuple):
    """What happened to one processed document."""

    document: Document
    #: the DTD the document was classified into (None → repository)
    dtd_name: Optional[str]
    similarity: float
    #: names of DTDs whose evolution this document triggered
    evolved: List[str]
    #: documents recovered from the repository by those evolutions
    recovered: int

    def as_json(self) -> dict:
        """The JSON-able wire shape (document excluded; the caller
        already has it).  Floats pass through untouched — ``json``
        round-trips them bit-exactly — so serve-mode responses compare
        float-identical to batch outcomes."""
        return {
            "dtd": self.dtd_name,
            "similarity": self.similarity,
            "evolved": list(self.evolved),
            "recovered": self.recovered,
        }


class EvolutionEvent(NamedTuple):
    """One entry of the evolution log."""

    dtd_name: str
    #: how many documents had been recorded when the trigger fired
    documents_recorded: int
    activation_score: float
    result: EvolutionResult
    recovered_from_repository: int


class DocumentClassified(NamedTuple):
    """The classification phase ran for one document."""

    document: Document
    #: the accepting DTD, or ``None`` when the document is headed for
    #: the repository
    dtd_name: Optional[str]
    similarity: float
    accepted: bool
    #: the full :class:`ClassificationResult` (ranking, evaluation) —
    #: observers that only need the decision can ignore it
    result: Optional[ClassificationResult] = None


class DocumentDeposited(NamedTuple):
    """A below-``sigma`` document entered the repository."""

    document: Document
    similarity: float
    #: repository size after the deposit
    repository_size: int


class DocumentRecorded(NamedTuple):
    """The recording phase folded one document into its extended DTD."""

    document: Document
    dtd_name: str
    #: documents recorded in the current recording period, this one
    #: included
    documents_recorded: int


class EvolutionStarted(NamedTuple):
    """The check phase fired; the evolution phase is about to run."""

    dtd_name: str
    documents_recorded: int
    activation_score: float


class EvolutionFinished(NamedTuple):
    """The evolution phase adopted the evolved DTD (the repository
    re-classification follows; its outcome arrives as
    :class:`RepositoryDrained`)."""

    dtd_name: str
    result: EvolutionResult
    documents_recorded: int
    activation_score: float


class RepositoryDrained(NamedTuple):
    """A repository re-classification pass finished.

    ``evolution`` carries the completed log entry when the drain closed
    an evolution (the engine's evolution log subscribes on exactly
    that); it is ``None`` for standalone drains.
    """

    recovered: int
    #: documents still unclassified after the pass
    remaining: int
    evolution: Optional[EvolutionEvent] = None


#: every event type the pipeline emits, in first-possible-emission order
LIFECYCLE_EVENTS = (
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EvolutionStarted,
    EvolutionFinished,
    RepositoryDrained,
)

Handler = Callable[[object], None]


class EventBus:
    """A minimal synchronous publish/subscribe hub.

    Handlers run inline on the emitting thread, in subscription order —
    type-specific subscribers first, then catch-all subscribers.

    A raising handler never aborts the pipeline (a broken observer must
    not lose the document mid-loop): the exception is logged to the
    ``repro.obs`` logger, counted on :attr:`dead_letters`, and delivery
    continues with the next handler.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type, List[Handler]] = {}
        self._catch_all: List[Handler] = []
        #: events a subscriber raised on (one count per failed delivery,
        #: not per event) — the observability dead-letter counter
        self.dead_letters = 0

    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Call ``handler(event)`` for every event of ``event_type``.
        Returns the handler, for symmetry with :meth:`unsubscribe`."""
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Call ``handler(event)`` for every emitted event."""
        self._catch_all.append(handler)
        return handler

    def unsubscribe(self, event_type: Type, handler: Handler) -> None:
        """Remove a type-specific subscription (no-op if absent)."""
        handlers = self._handlers.get(event_type, [])
        if handler in handlers:
            handlers.remove(handler)

    def unsubscribe_all(self, handler: Handler) -> None:
        """Remove a catch-all subscription (no-op if absent)."""
        if handler in self._catch_all:
            self._catch_all.remove(handler)

    def emit(self, event: object) -> None:
        """Deliver ``event`` to its type's subscribers, then to the
        catch-all subscribers.  Subscriber exceptions are isolated (see
        the class docstring)."""
        for handler in tuple(self._handlers.get(type(event), ())):
            self._deliver(handler, event)
        for handler in tuple(self._catch_all):
            self._deliver(handler, event)

    def _deliver(self, handler: Handler, event: object) -> None:
        try:
            handler(event)
        except Exception:
            self.dead_letters += 1
            logging.getLogger("repro.obs").exception(
                "event subscriber %r raised on %s; delivery continues",
                handler,
                type(event).__name__,
            )

    def subscriber_count(self, event_type: Optional[Type] = None) -> int:
        """How many handlers would see an event of ``event_type``
        (all catch-alls plus that type's subscribers); with no argument,
        the total number of registered handlers."""
        if event_type is None:
            return sum(map(len, self._handlers.values())) + len(self._catch_all)
        return len(self._handlers.get(event_type, [])) + len(self._catch_all)

