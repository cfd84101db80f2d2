"""The staged Figure-1 pipeline behind :class:`repro.core.engine.XMLSource`.

- :mod:`repro.pipeline.context` — the per-document
  :class:`PipelineContext` plus the public result records
  (:class:`ProcessOutcome`, :class:`EvolutionEvent`);
- :mod:`repro.pipeline.events` — the typed lifecycle event bus;
- :mod:`repro.pipeline.stages` — the :class:`Stage` protocol, one
  concrete stage per paper phase, and the :class:`Pipeline` driver.

The engine remains the facade; import from here to compose stages
differently or to observe the lifecycle.
"""

from repro.pipeline.context import EvolutionEvent, PipelineContext, ProcessOutcome
from repro.pipeline.events import (
    LIFECYCLE_EVENTS,
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EventBus,
    EvolutionFinished,
    EvolutionStarted,
    RepositoryDrained,
)
from repro.pipeline.stages import (
    CheckStage,
    ClassifyStage,
    DrainStage,
    EvolveStage,
    Pipeline,
    RecordStage,
    Stage,
)

__all__ = [
    "PipelineContext",
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
    "Stage",
    "Pipeline",
    "ClassifyStage",
    "RecordStage",
    "CheckStage",
    "EvolveStage",
    "DrainStage",
]
