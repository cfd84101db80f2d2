"""The Figure-1 phases as composable pipeline stages.

Each paper phase is one :class:`Stage` — classification, recording, the
check, evolution, and the repository drain — run in order by a
:class:`Pipeline` driver that threads a per-document
:class:`~repro.pipeline.context.PipelineContext` through them.  The
stages own no per-document state and share the source's collaborators
(classifier, recorders, extended DTDs, repository), so the composition
— not the stages — decides what a "process one document" means.  The
:class:`~repro.core.engine.XMLSource` facade keeps the public API and
delegates here.

Stage table::

    ClassifyStage   classification phase; deposits below-sigma documents
    RecordStage     recording phase (accepted documents only)
    CheckStage      activation condition / trigger rules → evolve request
    EvolveStage     evolution phase; adopts the evolved DTD
    DrainStage      repository re-classification after an evolution
                    (also runnable standalone)

Every stage announces its transition on the pipeline's
:class:`~repro.pipeline.events.EventBus`; the behaviour visible through
the facade is bit-identical to the pre-pipeline monolith (asserted by
``tests/test_engine.py`` / ``tests/test_fastpath.py`` running
unchanged).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

try:
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - pre-3.8 fallback, never hit
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro.core.evolution import EvolutionConfig, evolve_dtd
from repro.obs.logging import current_request_id as _current_request_id
from repro.pipeline.context import EvolutionEvent, PipelineContext
from repro.pipeline.events import (
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EventBus,
    EvolutionFinished,
    EvolutionStarted,
    RepositoryDrained,
)
from repro.xmltree.document import Document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine → stages)
    from repro.classification.classifier import ClassificationResult
    from repro.core.engine import XMLSource


@runtime_checkable
class Stage(Protocol):
    """One phase of the loop: mutate the context (and the shared source
    state), emit lifecycle events, optionally halt the run."""

    #: the phase name, as in Figure 1
    name: str

    def run(self, ctx: PipelineContext) -> None:
        """Execute this phase for the document in ``ctx``."""


class _SourceStage:
    """Shared plumbing: every stage sees the source and the pipeline
    (for the bus and the perf-delta bookkeeping)."""

    name = "stage"

    def __init__(self, source: "XMLSource", pipeline: "Pipeline") -> None:
        self.source = source
        self.pipeline = pipeline

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ClassifyStage(_SourceStage):
    """Classification phase: rank against every DTD, apply ``sigma``;
    below-threshold documents are deposited and the run halts.

    A context arriving with ``ctx.classification`` already set (a
    caller that classified the document itself, see
    :meth:`~repro.core.engine.XMLSource.process`) skips the classifier
    call; everything downstream — the deposit, the events, the halt —
    is identical either way.
    """

    name = "classify"

    def run(self, ctx: PipelineContext) -> None:
        source, document = self.source, ctx.document
        classification = ctx.classification
        if classification is None:
            classification = source.classifier.classify(document)
            ctx.classification = classification
        self.pipeline.emit(
            DocumentClassified(
                document,
                classification.dtd_name,
                classification.similarity,
                classification.accepted,
                self.pipeline.perf_delta(),
                result=classification,
            )
        )
        if not classification.accepted:
            source.repository.add(document)
            self.pipeline.emit(
                DocumentDeposited(
                    document,
                    classification.similarity,
                    len(source.repository),
                    self.pipeline.perf_delta(),
                )
            )
            ctx.halt()
            return
        ctx.dtd_name = classification.dtd_name


class RecordStage(_SourceStage):
    """Recording phase: fold the document into its DTD's aggregates."""

    name = "record"

    def run(self, ctx: PipelineContext) -> None:
        source, name = self.source, ctx.dtd_name
        assert name is not None
        # With a thesaurus matcher, the classifier's evaluation scores
        # synonym matches as (near-)valid — reusing it would hide the
        # very deviations tag evolution needs.  Recording always uses
        # exact tag matching (the recorder's own matcher); the cheap
        # reuse path stays for the exact-matching default.
        evaluation = (
            ctx.classification.evaluation if source.tag_matcher is None else None
        )
        source.recorders[name].record(ctx.document, evaluation)
        self.pipeline.emit(
            DocumentRecorded(
                ctx.document,
                name,
                source.extended[name].document_count,
                self.pipeline.perf_delta(),
            )
        )


class CheckStage(_SourceStage):
    """Check phase: decide whether to evolve the document's DTD now.

    With a trigger set installed, the first matching rule whose
    condition holds fires (with its parameter overrides); otherwise the
    paper's default check — ``min_documents`` recorded and activation
    score above ``tau`` — applies.  The decision lands in
    ``ctx.evolve_request``; this stage never evolves anything itself.
    """

    name = "check"

    def run(self, ctx: PipelineContext) -> None:
        source = self.source
        if not source.auto_evolve:
            ctx.halt()
            return
        name = ctx.dtd_name
        assert name is not None
        extended = source.extended[name]
        if source.triggers is not None:
            from repro.triggers.trigger import metrics_environment

            environment = metrics_environment(extended, len(source.repository))
            trigger = source.triggers.firing_trigger(name, environment)
            if trigger is None:
                ctx.halt()
                return
            ctx.evolve_request = (name, trigger.apply_overrides(source.config))
            return
        if (
            extended.document_count >= source.config.min_documents
            and extended.should_evolve(source.config.tau)
        ):
            ctx.evolve_request = (name, None)
        else:
            ctx.halt()


class EvolveStage(_SourceStage):
    """Evolution phase: evolve the requested DTD and adopt the result;
    the drain stage completes the log entry."""

    name = "evolve"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.evolve_request is None:
            ctx.halt()
            return
        name, config = ctx.evolve_request
        self.execute(ctx, name, config)

    def execute(
        self, ctx: PipelineContext, name: str, config: Optional[EvolutionConfig]
    ) -> None:
        """Evolve ``name`` now (also the entry point for forced
        evolutions via ``XMLSource.evolve_now``)."""
        source = self.source
        extended = source.extended[name]
        documents_recorded = extended.document_count
        activation_score = extended.activation_score
        self.pipeline.emit(
            EvolutionStarted(
                name, documents_recorded, activation_score, self.pipeline.perf_delta()
            )
        )
        # the timer closes before EvolutionFinished is emitted, so its
        # wall-clock rides that event's perf_delta (the subscribe_counters
        # mirror must reconstruct perf_snapshot() exactly)
        with source.perf.timer("evolve_ns"):
            result = evolve_dtd(
                extended,
                config or source.config,
                tag_matcher=source.tag_matcher,
                counters=source.perf,
            )
        # adopt the evolved DTD and start a fresh recording period
        source.classifier.replace_dtd(result.new_dtd)
        source._install(result.new_dtd)
        source.extended[name].evolution_count = extended.evolution_count + 1
        self.pipeline.emit(
            EvolutionFinished(
                name,
                result,
                documents_recorded,
                activation_score,
                self.pipeline.perf_delta(),
            )
        )
        ctx.pending_evolution = (name, documents_recorded, activation_score, result)
        ctx.evolved.append(name)


class DrainStage(_SourceStage):
    """Repository re-classification: retry every held document against
    the (evolved) DTD set.

    Recovered documents go through the normal record path (they are now
    instances of a DTD and must count toward future triggers);
    evolution is *not* re-triggered while draining, to keep the drain a
    single pass.  When the drain closes an evolution, the completed
    :class:`EvolutionEvent` rides the :class:`RepositoryDrained` event
    (that is where the engine's evolution log subscribes).

    **Pruning** (``FastPathConfig.pruned_drain``): a drain that closes
    an evolution re-evaluates only the documents the evolution could
    have flipped.  The invariant — every repository document sat below
    ``sigma`` against *every* DTD when it was last examined, and only
    the evolved DTD has changed since — means a document whose sound
    vocabulary-overlap bound against the evolved DTD stays below
    ``sigma`` is provably still unclassifiable; it is put back without
    constructing a single evaluation.  When the evolution changed no
    declaration at all, every document is skipped outright.  Skipped
    documents re-enter the repository in drain order, so the surviving
    order (and every downstream artefact) is bit-identical to the
    unpruned pass; standalone drains (after ``mine_repository`` adds
    brand-new DTDs) never prune, because the invariant does not cover
    DTDs the documents have not seen.

    **Indexing**: when the store is index-capable (``SqliteStore``) the
    bound-vs-sigma candidate set is pushed down as an index query
    instead of scanning every document — see :meth:`_drain_indexed` and
    DESIGN.md decision 12 for why the results stay bit-identical and
    order-preserving.
    """

    name = "drain"

    def run(self, ctx: PipelineContext) -> None:
        source = self.source
        prune_name: Optional[str] = None
        prune_unchanged = False
        if ctx.pending_evolution is not None and source.fastpath.pruned_drain:
            prune_name = ctx.pending_evolution[0]
            prune_unchanged = not ctx.pending_evolution[3].changed_declarations()
        sigma = source.classifier.threshold
        # The indexed path only applies when the bound-vs-sigma prune is
        # live at all: a pruning drain (evolved DTD known), a sigma that
        # can actually reject (``bound < sigma`` is unsatisfiable at
        # sigma 0 since bounds are >= 0), an index-capable store, and a
        # pushable query (exact semantics, no ANY).  Everything else
        # classifies every document anyway, so the scan drain is both
        # simpler and no slower.
        query = None
        indexed = (
            prune_name is not None
            and sigma > 0.0
            and source.repository.supports_indexed_drain
        )
        if indexed and not prune_unchanged:
            query = source.classifier.drain_query(prune_name)
            indexed = query is not None
        if indexed:
            recovered = self._drain_indexed(
                prune_name, prune_unchanged, query, sigma
            )
        else:
            recovered = self._drain_scan(prune_name, prune_unchanged, sigma)
        event: Optional[EvolutionEvent] = None
        if ctx.pending_evolution is not None:
            name, documents_recorded, activation_score, result = ctx.pending_evolution
            event = EvolutionEvent(
                name, documents_recorded, activation_score, result, recovered
            )
            ctx.evolution_events.append(event)
            ctx.pending_evolution = None
        ctx.recovered += recovered
        self.pipeline.emit(
            RepositoryDrained(
                recovered, len(source.repository), event, self.pipeline.perf_delta()
            )
        )

    def _drain_scan(
        self,
        prune_name: Optional[str],
        prune_unchanged: bool,
        sigma: float,
    ) -> int:
        """The whole-repository drain: remove everything, classify what
        the bound cannot rule out, re-add the rest in drain order."""
        source = self.source
        recovered = 0
        with source.perf.timer("drain_ns"):
            for document in source.repository.drain():
                if prune_name is not None:
                    bound = (
                        0.0
                        if prune_unchanged
                        else source.classifier.acceptance_bound(
                            document, prune_name
                        )
                    )
                    if bound is not None and bound < sigma:
                        source.repository.add(document)
                        source.perf.drain_prune_skips += 1
                        continue
                classification = source.classifier.classify(document)
                if classification.dtd_name is None:
                    source.repository.add(document)
                    continue
                recovered += 1
                evaluation = (
                    classification.evaluation if source.tag_matcher is None else None
                )
                source.recorders[classification.dtd_name].record(
                    document, evaluation
                )
        return recovered

    def _drain_indexed(
        self,
        prune_name: str,
        prune_unchanged: bool,
        query,
        sigma: float,
    ) -> int:
        """The index-query drain: bit-identical to :meth:`_drain_scan`.

        The store returns the sound candidate over-approximation (every
        non-candidate provably has bound exactly 0.0 < sigma) in
        insertion order; the exact bound is then recomputed *in Python*
        from each candidate's persisted profile — the same float
        arithmetic as ``acceptance_bound`` — so the classify-vs-skip
        decisions match the scan path bit for bit.  Only recovered
        documents are removed; skipped and still-failing documents are
        never touched, so the surviving order is the original insertion
        order restricted to survivors — exactly the scan path's
        re-add-in-drain-order outcome.  An evolution that changed no
        declaration skips the whole repository without reading a row.
        """
        source = self.source
        recovered = 0
        with source.perf.timer("drain_ns"):
            total = len(source.repository)
            classify_ids: List[int] = []
            if not prune_unchanged:
                candidates = source.repository.candidates(query)
                source.perf.index_rows += len(candidates)
                for doc_id, row in candidates:
                    bound = source.classifier.bound_from_row(prune_name, row)
                    if bound is not None and bound < sigma:
                        continue
                    classify_ids.append(doc_id)
            source.perf.drain_prune_skips += total - len(classify_ids)
            source.perf.drain_index_hits += 1
            removed: List[int] = []
            if classify_ids:
                for doc_id, document in zip(
                    classify_ids, source.repository.fetch(classify_ids)
                ):
                    classification = source.classifier.classify(document)
                    if classification.dtd_name is None:
                        continue
                    removed.append(doc_id)
                    recovered += 1
                    evaluation = (
                        classification.evaluation
                        if source.tag_matcher is None
                        else None
                    )
                    source.recorders[classification.dtd_name].record(
                        document, evaluation
                    )
            if removed:
                source.repository.remove(removed)
        return recovered


class Pipeline:
    """Drives the staged Figure-1 loop for one source.

    ``stages`` is the per-document composition — classify → record →
    check → evolve → drain — each stage free to halt the rest;
    :meth:`evolve` and :meth:`drain` run the tail of the pipeline alone
    for forced evolutions and standalone drains.
    """

    def __init__(self, source: "XMLSource", bus: EventBus) -> None:
        self.source = source
        self.bus = bus
        self.classify_stage = ClassifyStage(source, self)
        self.record_stage = RecordStage(source, self)
        self.check_stage = CheckStage(source, self)
        self.evolve_stage = EvolveStage(source, self)
        self.drain_stage = DrainStage(source, self)
        self.stages: Tuple[Stage, ...] = (
            self.classify_stage,
            self.record_stage,
            self.check_stage,
            self.evolve_stage,
            self.drain_stage,
        )
        #: counter values already attributed to an emitted event
        self._perf_attributed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def emit(self, event: object) -> None:
        self.bus.emit(event)

    def perf_delta(self) -> Dict[str, int]:
        """Counter increments since the previous emitted event (sparse:
        zero entries are dropped), attributing them to the next one."""
        snapshot = self.source.perf.snapshot()
        delta = {
            name: value - self._perf_attributed.get(name, 0)
            for name, value in snapshot.items()
        }
        self._perf_attributed = snapshot
        return {name: value for name, value in delta.items() if value}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(
        self,
        document: Document,
        classification: Optional["ClassificationResult"] = None,
    ) -> PipelineContext:
        """One document through the full loop.

        A precomputed ``classification`` (for the same document against
        the *current* DTD set) is injected into the context and the
        classify stage reuses it instead of re-classifying; callers are
        responsible for its freshness.
        """
        ctx = PipelineContext(document)
        ctx.classification = classification
        if self.source.tracer.enabled:
            return self._run_traced(ctx)
        for stage in self.stages:
            if ctx.halted:
                break
            stage.run(ctx)
        return ctx

    #: perf counters surfaced as fast-path hit/miss span attributes on
    #: the classify stage span
    _FASTPATH_ATTRS = (
        "validations",
        "validity_short_circuits",
        "structural_cache_hits",
        "structural_cache_misses",
        "bound_skips",
        "dp_runs",
    )

    def _run_traced(self, ctx: PipelineContext) -> PipelineContext:
        """The same stage loop, wrapped in observability spans: one
        ``doc`` root per document, one ``stage.*`` child per executed
        stage, fast-path deltas as classify-span attributes.  Control
        flow and engine state transitions are identical to the untraced
        loop — spans only observe."""
        source = self.source
        tracer = source.tracer
        document = ctx.document
        attrs = {
            "doc_id": source.documents_processed,
            "root": document.root.tag if document is not None else None,
        }
        # the serve layer's correlation id, when this document arrived
        # through a request (joins the span to log lines and metrics)
        request_id = _current_request_id()
        if request_id is not None:
            attrs["request_id"] = request_id
        with tracer.span("doc", **attrs) as doc_span:
            for stage in self.stages:
                if ctx.halted:
                    break
                with tracer.span(f"stage.{stage.name}") as stage_span:
                    if stage is self.classify_stage:
                        if ctx.classification is not None:
                            stage_span.set("injected", True)
                        before = source.perf.snapshot()
                        stage.run(ctx)
                        for name in self._FASTPATH_ATTRS:
                            delta = getattr(source.perf, name) - before[name]
                            if delta:
                                stage_span.set(name, delta)
                    else:
                        stage.run(ctx)
            doc_span.set("dtd", ctx.dtd_name)
            if ctx.evolved:
                doc_span.set("evolved", list(ctx.evolved))
        return ctx

    def evolve(
        self, name: str, config: Optional[EvolutionConfig] = None
    ) -> EvolutionEvent:
        """Force the evolution phase (plus its drain) for one DTD."""
        ctx = PipelineContext(document=None)
        tracer = self.source.tracer
        if tracer.enabled:
            with tracer.span("evolve_now", dtd=name):
                with tracer.span("stage.evolve"):
                    self.evolve_stage.execute(ctx, name, config)
                with tracer.span("stage.drain"):
                    self.drain_stage.run(ctx)
        else:
            self.evolve_stage.execute(ctx, name, config)
            self.drain_stage.run(ctx)
        return ctx.evolution_events[-1]

    def drain(self) -> int:
        """A standalone repository re-classification pass; returns how
        many documents were recovered."""
        ctx = PipelineContext(document=None)
        tracer = self.source.tracer
        if tracer.enabled:
            with tracer.span("stage.drain", standalone=True):
                self.drain_stage.run(ctx)
        else:
            self.drain_stage.run(ctx)
        return ctx.recovered

    def __repr__(self) -> str:
        names = " → ".join(stage.name for stage in self.stages)
        return f"Pipeline({names})"
