"""The end-to-end source pipeline (Figure 1).

An :class:`XMLSource` owns the set of (extended) DTDs, the repository of
unclassified documents, and the iterated loop of the approach:

    queue → **classification** → **recording** → **check** →
    (**evolution** → repository re-classification) → queue ...

"This cycle includes all the activities in our approach, but the ones
in the initialization phase."

The class runs the loop itself, one private method per phase
(``_classify``, ``_record``, ``_check``, ``_evolve``, ``_drain``) called
in Figure-1 order by :meth:`XMLSource.process`,
:meth:`XMLSource.evolve_now` and :meth:`XMLSource.drain`.  Every phase
transition is announced on the :attr:`XMLSource.events` bus — the
engine's one observable seam — and the repository's documents live in
one of two stores (:class:`~repro.classification.stores.MemoryStore`,
or :class:`~repro.classification.stores.SqliteStore` on disk).

Usage::

    source = XMLSource([dtd], EvolutionConfig(sigma=0.4, tau=0.1))
    for document in stream:
        outcome = source.process(document)
    source.dtd("catalog")          # the current (possibly evolved) DTD
    source.evolution_log           # every evolution that happened

    from repro.pipeline import EvolutionFinished
    source.events.subscribe(EvolutionFinished, print)   # observe the loop
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.classification.classifier import ClassificationResult, Classifier
from repro.classification.repository import Repository
from repro.classification.stores import MemoryStore, SqliteStore, make_store
from repro.core.evolution import EvolutionConfig, evolve_dtd
from repro.core.extended_dtd import ExtendedDTD
from repro.core.recorder import Recorder
from repro.dtd.dtd import DTD
from repro.obs.logging import current_request_id
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.perf import PerfCounters
from repro.pipeline.events import (
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
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document

__all__ = ["XMLSource", "ProcessOutcome", "EvolutionEvent"]

#: perf counters surfaced as fast-path hit/miss span attributes on the
#: ``stage.classify`` span of a traced document
_FASTPATH_ATTRS = (
    "validations",
    "validity_short_circuits",
    "structural_cache_hits",
    "structural_cache_misses",
    "bound_skips",
    "dp_runs",
)


class XMLSource:
    """A source of XML documents with an evolving DTD set."""

    def __init__(
        self,
        dtds: Iterable[DTD],
        config: EvolutionConfig = EvolutionConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        auto_evolve: bool = True,
        triggers: Optional["TriggerSet"] = None,
        fastpath: bool = True,
        store: Union[None, str, MemoryStore, SqliteStore] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.similarity_config = SimilarityConfig(config.alpha, config.beta)
        #: also drives tag evolution during the evolution phase (a
        #: thesaurus matcher enables renames; the default exact matcher
        #: keeps the feature inert)
        self.tag_matcher = tag_matcher
        #: the one fast-path switch, shared by the classifier, the
        #: recorders and the drain (exact by construction, so ``False``
        #: only selects the reference path; see repro.perf)
        self.fastpath = fastpath
        #: shared hit counters and phase timers across classification,
        #: recording and evolution — snapshot via :meth:`perf_snapshot`
        self.perf = PerfCounters()
        #: the observability tracer (``repro.obs``); the no-op default
        #: costs one flag check per document — install a real
        #: :class:`~repro.obs.tracing.Tracer` (or pass ``trace=`` to
        #: :meth:`process_many`) to collect spans
        self.tracer = tracer or NULL_TRACER
        self.perf.set_span_sink(self.tracer)
        self.classifier = Classifier(
            dtds,
            config.sigma,
            self.similarity_config,
            tag_matcher,
            fastpath=self.fastpath,
            counters=self.perf,
        )
        self.extended: Dict[str, ExtendedDTD] = {}
        self.recorders: Dict[str, Recorder] = {}
        #: bumped by every :meth:`_install` (initial DTDs, evolutions,
        #: repository mining) — the classification state's cheap version
        #: stamp, which serve's snapshot holder keys its publishes on
        self._state_version = 0
        for name in self.classifier.dtd_names():
            self._install(self.classifier.dtd(name))
        #: unclassified documents, backed by the configured store
        #: (``None``/``"memory"`` in RAM, ``"sqlite"`` on disk with a tag
        #: index, or a :class:`MemoryStore`/:class:`SqliteStore`
        #: instance; anything else raises ``TypeError``)
        self.repository = Repository(make_store(store))
        # a store built here from a kind name is this engine's to close;
        # an instance passed in stays the caller's
        self._owns_store = isinstance(store, str)
        if isinstance(self.repository.store, SqliteStore):
            # sqlite's batch commits count on the shared counters
            self.repository.store.set_counters(self.perf)
        self.evolution_log: List[EvolutionEvent] = []
        #: check the activation condition after every document; turn off
        #: to drive evolution manually via :meth:`evolve_now`
        self.auto_evolve = auto_evolve
        #: when set, trigger rules replace the default tau check phase
        #: (Section 6's "evolution trigger language")
        self.triggers = triggers
        self.documents_processed = 0
        #: the lifecycle event bus — register observers here (see
        #: :mod:`repro.pipeline.events`)
        self.events = EventBus()
        # the evolution log is itself a bus subscriber: every drain that
        # closes an evolution carries the completed log entry
        self.events.subscribe(RepositoryDrained, self._log_evolution)

    def _install(self, dtd: DTD, extended: Optional[ExtendedDTD] = None) -> None:
        """Start recording against ``dtd``: a fresh :class:`ExtendedDTD`,
        or the restored ``extended`` (whose ``dtd`` it must be) when a
        snapshot is loaded."""
        self._state_version += 1
        if extended is None:
            extended = ExtendedDTD(dtd)
        self.extended[dtd.name] = extended
        # the recorder's matcher always matches tags exactly, but shares
        # the source's fast-path settings and counters so structural
        # interning also accelerates the recording phase
        matcher = StructureMatcher(
            dtd,
            self.similarity_config,
            fastpath=self.fastpath,
            counters=self.perf,
        )
        self.recorders[dtd.name] = Recorder(
            extended, self.similarity_config, matcher=matcher
        )

    def _log_evolution(self, event: RepositoryDrained) -> None:
        if event.evolution is not None:
            self.evolution_log.append(event.evolution)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def dtd(self, name: str) -> DTD:
        """The current (possibly evolved) DTD under ``name``."""
        return self.classifier.dtd(name)

    def dtd_names(self) -> List[str]:
        return self.classifier.dtd_names()

    def extended_dtd(self, name: str) -> ExtendedDTD:
        return self.extended[name]

    @property
    def evolution_count(self) -> int:
        return len(self.evolution_log)

    def perf_snapshot(self) -> Dict[str, int]:
        """Fast-path hit counters and phase timers as a plain dict (see
        :class:`repro.perf.PerfCounters`) — benchmarks assert on these
        to prove the short-circuit and caches actually fire.  The
        ``*_ns`` entries are wall-clock nanoseconds of the evolution
        phases (total / mine / build / rewrite / restrict) and the
        repository drain."""
        return self.perf.snapshot()

    # ------------------------------------------------------------------
    # The Figure-1 loop
    # ------------------------------------------------------------------

    def classify(self, document: Document) -> ClassificationResult:
        """Classification phase only (no recording, no events)."""
        return self.classifier.classify(document)

    def process(
        self,
        document: Document,
        classification: Optional[ClassificationResult] = None,
    ) -> ProcessOutcome:
        """Run one document through the full Figure-1 loop: classify
        (a below-``sigma`` document is deposited and stops there),
        record, check, and — when the check fires — evolve the DTD and
        drain the repository against the evolved set.

        ``classification`` injects a precomputed result for this
        document against the *current* DTD set — ``process(d,
        classify(d))`` is ``process(d)`` with the classify call made by
        the caller, so it can be timed on its own; the classify phase
        then skips the classifier call but deposits, records, checks
        and evolves exactly as usual.
        """
        self.documents_processed += 1
        if self.tracer.enabled:
            return self._process_traced(document, classification)
        classification = self._classify(document, classification)
        name = classification.dtd_name
        if name is None:
            return ProcessOutcome(document, None, classification.similarity, [], 0)
        self._record(document, classification)
        config = self._check(name)
        if config is None:
            return ProcessOutcome(document, name, classification.similarity, [], 0)
        drained = self._drain(self._evolve(name, config))
        return ProcessOutcome(
            document, name, classification.similarity, [name], drained.recovered
        )

    def _process_traced(
        self, document: Document, classification: Optional[ClassificationResult]
    ) -> ProcessOutcome:
        """:meth:`process` under observability spans: one ``doc`` root,
        one ``stage.<phase>`` child per phase that ran, fast-path deltas
        as classify-span attributes.  The phases and their order are
        :meth:`process`'s — spans only observe."""
        tracer = self.tracer
        attrs = {"doc_id": self.documents_processed, "root": document.root.tag}
        # the serve layer's correlation id, when this document arrived
        # through a request (joins the span to log lines and metrics)
        request_id = current_request_id()
        if request_id is not None:
            attrs["request_id"] = request_id
        evolved: List[str] = []
        recovered = 0
        with tracer.span("doc", **attrs) as doc_span:
            with tracer.span("stage.classify") as span:
                if classification is not None:
                    span.set("injected", True)
                before = self.perf.snapshot()
                classification = self._classify(document, classification)
                for key in _FASTPATH_ATTRS:
                    delta = getattr(self.perf, key) - before[key]
                    if delta:
                        span.set(key, delta)
            name = classification.dtd_name
            if name is not None:
                with tracer.span("stage.record"):
                    self._record(document, classification)
                with tracer.span("stage.check"):
                    config = self._check(name)
                if config is not None:
                    with tracer.span("stage.evolve"):
                        finished = self._evolve(name, config)
                    with tracer.span("stage.drain"):
                        recovered = self._drain(finished).recovered
                    evolved = [name]
            doc_span.set("dtd", name)
            if evolved:
                doc_span.set("evolved", list(evolved))
        return ProcessOutcome(
            document, name, classification.similarity, evolved, recovered
        )

    def _classify(
        self, document: Document, classification: Optional[ClassificationResult]
    ) -> ClassificationResult:
        """Classification phase: rank against every DTD and apply
        ``sigma`` (unless the caller injected the result); a
        below-threshold document is deposited in the repository."""
        if classification is None:
            classification = self.classifier.classify(document)
        self.events.emit(
            DocumentClassified(
                document,
                classification.dtd_name,
                classification.similarity,
                classification.accepted,
                result=classification,
            )
        )
        if not classification.accepted:
            self.repository.add(document)
            self.events.emit(
                DocumentDeposited(
                    document, classification.similarity, len(self.repository)
                )
            )
        return classification

    def _record(self, document: Document, classification: ClassificationResult) -> None:
        """Recording phase: fold the document into its DTD's aggregates."""
        name = classification.dtd_name
        # With a thesaurus matcher, the classifier's evaluation scores
        # synonym matches as (near-)valid — reusing it would hide the
        # very deviations tag evolution needs.  Recording always uses
        # exact tag matching (the recorder's own matcher); the cheap
        # reuse path stays for the exact-matching default.
        evaluation = classification.evaluation if self.tag_matcher is None else None
        self.recorders[name].record(document, evaluation)
        self.events.emit(
            DocumentRecorded(document, name, self.extended[name].document_count)
        )

    def _check(self, name: str) -> Optional[EvolutionConfig]:
        """Check phase: the configuration to evolve ``name`` with now,
        or ``None`` to leave it.

        With a trigger set installed, the first matching rule whose
        condition holds fires (with its parameter overrides); otherwise
        the paper's default check — ``min_documents`` recorded and
        activation score above ``tau`` — applies.  Never fires while
        ``auto_evolve`` is off.
        """
        if not self.auto_evolve:
            return None
        extended = self.extended[name]
        if self.triggers is not None:
            from repro.triggers.trigger import metrics_environment

            environment = metrics_environment(extended, len(self.repository))
            trigger = self.triggers.firing_trigger(name, environment)
            if trigger is None:
                return None
            return trigger.apply_overrides(self.config)
        if (
            extended.document_count >= self.config.min_documents
            and extended.should_evolve(self.config.tau)
        ):
            return self.config
        return None

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Install (or, with ``None``, remove) the observability tracer,
        re-pointing the perf timers' span sink with it."""
        self.tracer = tracer or NULL_TRACER
        self.perf.set_span_sink(self.tracer)

    # ------------------------------------------------------------------
    # The classification state version (serve publishes on it)
    # ------------------------------------------------------------------

    @property
    def state_version(self) -> int:
        """The classification state's cheap monotone version stamp,
        bumped on every DTD install (initial set, evolutions,
        repository mining).  Deposits and drains do not bump it — only
        changes that could alter a classification decision do, which is
        exactly what the serve layer's MVCC holder keys on."""
        return self._state_version

    def close(self) -> None:
        """Release the document store if this engine built it from a
        kind name (``store="sqlite"`` deletes its temporary database);
        usable as ``with XMLSource(...) as source:``.  A store instance
        passed in stays open: closing it belongs to whoever configured
        it.  Closing again is a no-op."""
        if self._owns_store:
            self._owns_store = False
            if isinstance(self.repository.store, SqliteStore):
                self.repository.store.close()

    def __enter__(self) -> "XMLSource":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def process_many(
        self,
        documents: Iterable[Document],
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        trace: Optional[Tracer] = None,
    ) -> List[ProcessOutcome]:
        """Process a batch, in order.

        The batch path amortises structural work: element fingerprints
        are computed once per subtree and the matchers' fingerprint-
        keyed caches persist across the whole batch (and across any
        repository drains evolution triggers mid-batch), so repeated
        structures in a stream cost one DP run total.  Deposits share
        one store bulk window (one flush/transaction on capable
        stores).

        With ``checkpoint_every`` set (and a ``checkpoint_path``), the
        source snapshots itself to that path after every
        ``checkpoint_every`` documents, so a long stream survives
        interruption mid-run; the snapshot is the same format
        :func:`repro.core.persistence.save_source` writes.

        ``trace`` installs a :class:`~repro.obs.tracing.Tracer` for the
        duration of this batch (restoring the previous tracer after).
        When tracing is on — via ``trace`` or a tracer installed at
        construction — the whole batch is wrapped in one ``batch`` root
        span, so the run exports a single rooted span tree.  Tracing
        never changes engine outputs.
        """
        if trace is not None:
            previous = self.tracer
            self.set_tracer(trace)
            try:
                return self.process_many(
                    documents, checkpoint_every, checkpoint_path
                )
            finally:
                self.set_tracer(previous)
        if not self.tracer.enabled:
            return self._run_batch(documents, checkpoint_every, checkpoint_path)
        documents = list(documents)
        with self.tracer.span("batch", documents=len(documents)):
            return self._run_batch(documents, checkpoint_every, checkpoint_path)

    def _run_batch(
        self,
        documents: Iterable[Document],
        checkpoint_every: int,
        checkpoint_path: Optional[str],
    ) -> List[ProcessOutcome]:
        outcomes: List[ProcessOutcome] = []
        # one batched-ingestion window for the whole batch: deposits
        # share a flush/transaction on capable stores (drains mid-batch
        # make their own durability point, so nothing is lost to them)
        with self.repository.bulk():
            for index, document in enumerate(documents, start=1):
                outcomes.append(self.process(document))
                if checkpoint_every and checkpoint_path and index % checkpoint_every == 0:
                    from repro.core.persistence import save_source

                    save_source(self, checkpoint_path)
        return outcomes

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def evolve_now(
        self, name: str, config: Optional[EvolutionConfig] = None
    ) -> EvolutionEvent:
        """Force the evolution phase, and the repository drain after
        it, for one DTD (the check phase fires it automatically when
        ``auto_evolve`` is on).  ``config`` overrides the source's
        evolution parameters for this run only (trigger WITH clauses
        use it).  Returns the evolution-log entry."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._drain(self._evolve(name, config)).evolution
        with tracer.span("evolve_now", dtd=name):
            with tracer.span("stage.evolve"):
                finished = self._evolve(name, config)
            with tracer.span("stage.drain"):
                return self._drain(finished).evolution

    def drain(self) -> int:
        """A standalone repository re-classification pass against the
        current DTD set (``mine_repository`` runs one after adding
        DTDs); returns how many documents were recovered."""
        if not self.tracer.enabled:
            return self._drain().recovered
        with self.tracer.span("stage.drain", standalone=True):
            return self._drain().recovered

    def _evolve(
        self, name: str, config: Optional[EvolutionConfig] = None
    ) -> EvolutionFinished:
        """Evolution phase: evolve ``name`` and adopt the result, which
        starts a fresh recording period.  Returns the announced
        :class:`EvolutionFinished`; the drain that follows completes the
        log entry from it."""
        extended = self.extended[name]
        documents_recorded = extended.document_count
        activation_score = extended.activation_score
        self.events.emit(EvolutionStarted(name, documents_recorded, activation_score))
        with self.perf.timer("evolve_ns"):
            result = evolve_dtd(
                extended,
                config or self.config,
                tag_matcher=self.tag_matcher,
                counters=self.perf,
            )
        self.classifier.replace_dtd(result.new_dtd)
        self._install(result.new_dtd)
        self.extended[name].evolution_count = extended.evolution_count + 1
        finished = EvolutionFinished(name, result, documents_recorded, activation_score)
        self.events.emit(finished)
        return finished

    def _drain(self, evolution: Optional[EvolutionFinished] = None) -> RepositoryDrained:
        """Repository re-classification: retry held documents against
        the (evolved) DTD set and remove the recovered ones.  Returns
        the announced :class:`RepositoryDrained`, which carries the
        completed :class:`EvolutionEvent` when the drain closes
        ``evolution`` (the evolution log subscribes on exactly that).

        Recovered documents go through the normal record path (they are
        now instances of a DTD and must count toward future triggers);
        evolution is *not* re-triggered while draining, to keep the
        drain a single pass.  Candidates are classified in insertion-id
        order and only recovered ones are removed, so the survivors keep
        their insertion order on either store.

        **Pruning** (on the fast path): every repository document sat
        below ``sigma`` against *every* DTD when it was last examined,
        and only the evolved DTD has changed since, so a document whose
        sound vocabulary-overlap bound against it stays below ``sigma``
        is provably still unclassifiable and is never read.  The store
        screens candidates (an index query on sqlite) and the bound is
        computed from each candidate's profile row by the function
        classification uses (DESIGN.md decision 12); an evolution that
        changed no declaration reads no row.  Without a prunable query —
        the reference path, a standalone drain (``mine_repository``'s
        new DTDs are outside the invariant), ``sigma`` 0, inexact
        semantics, an ``ANY`` declaration — every document is a
        candidate.
        """
        sigma = self.classifier.threshold
        # the prune is live for a drain closing an evolution on the
        # fast path at a sigma that can reject (bounds are >= 0, so
        # ``bound < 0`` never holds); an evolution that changed no
        # declaration leaves every document below sigma, so none is read
        pruning = evolution is not None and self.fastpath and sigma > 0.0
        unchanged = pruning and not evolution.result.changed_declarations()
        query = None
        if pruning and not unchanged:
            query = self.classifier.drain_query(evolution.dtd_name)
            pruning = query is not None
        removed: List[int] = []
        with self.perf.timer("drain_ns"):
            classify_ids: List[int] = []
            if not unchanged:
                rows = self.repository.candidates(query)
                if query is None:
                    classify_ids = [doc_id for doc_id, _ in rows]
                else:
                    self.perf.index_rows += len(rows)
                    for doc_id, row in rows:
                        bound = self.classifier.bound_from_row(
                            evolution.dtd_name, row
                        )
                        if bound is None or bound >= sigma:
                            classify_ids.append(doc_id)
            if pruning:
                self.perf.drain_index_hits += 1
                self.perf.drain_prune_skips += (
                    len(self.repository) - len(classify_ids)
                )
            for doc_id, document in zip(
                classify_ids, self.repository.fetch(classify_ids)
            ):
                classification = self.classifier.classify(document)
                if classification.dtd_name is None:
                    continue
                removed.append(doc_id)
                evaluation = (
                    classification.evaluation if self.tag_matcher is None else None
                )
                self.recorders[classification.dtd_name].record(document, evaluation)
            if removed:
                self.repository.remove(removed)
        logged: Optional[EvolutionEvent] = None
        if evolution is not None:
            logged = EvolutionEvent(
                evolution.dtd_name,
                evolution.documents_recorded,
                evolution.activation_score,
                evolution.result,
                len(removed),
            )
        drained = RepositoryDrained(len(removed), len(self.repository), logged)
        self.events.emit(drained)
        return drained

    def mine_repository(
        self,
        threshold: float = 0.5,
        min_cluster_size: int = 3,
        name_prefix: str = "repo",
    ) -> List[str]:
        """Create DTDs for repository documents no existing DTD covers.

        The Section 2 companion problem: repository documents are
        clustered by structural similarity and each large-enough
        cluster gets an inferred DTD, which joins the source's DTD set;
        the repository is then re-classified (cluster members — and
        possibly older strays — are recovered through the normal
        record path).  Returns the new DTD names.
        """
        from repro.classification.clustering import extract_dtds

        extracted = extract_dtds(
            list(self.repository),
            threshold=threshold,
            min_cluster_size=min_cluster_size,
            name_prefix=f"{name_prefix}{len(self.extended)}_",
        )
        names: List[str] = []
        for dtd, _members in extracted:
            self.classifier.add_dtd(dtd)
            self._install(dtd)
            names.append(dtd.name)
        if names:
            self.drain()
        return names

    def __repr__(self) -> str:
        return (
            f"XMLSource(dtds={self.dtd_names()!r}, "
            f"processed={self.documents_processed}, "
            f"repository={len(self.repository)}, "
            f"evolutions={self.evolution_count})"
        )
