"""The end-to-end source pipeline (Figure 1).

An :class:`XMLSource` owns the set of (extended) DTDs, the repository of
unclassified documents, and the iterated loop of the approach:

    queue → **classification** → **recording** → **check** →
    (**evolution** → repository re-classification) → queue ...

"This cycle includes all the activities in our approach, but the ones
in the initialization phase."

The class is a thin facade: the loop itself lives in
:mod:`repro.pipeline` as composable stages driven by a
:class:`~repro.pipeline.stages.Pipeline`, every phase transition is
announced on the :attr:`XMLSource.events` bus, and the repository's
documents live in a pluggable
:class:`~repro.classification.stores.DocumentStore` (in memory, or
persisted in sqlite).  The facade keeps
the paper's Figure-1 vocabulary — ``process`` *is* the cycle — while the
pipeline underneath stays open for recomposition.

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
from repro.classification.stores import DocumentStore, make_store
from repro.core.evolution import EvolutionConfig
from repro.core.extended_dtd import ExtendedDTD
from repro.core.recorder import Recorder
from repro.dtd.dtd import DTD
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.perf import FastPathConfig, PerfCounters
from repro.pipeline.context import EvolutionEvent, ProcessOutcome
from repro.pipeline.events import EventBus, RepositoryDrained
from repro.pipeline.stages import Pipeline
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document

__all__ = ["XMLSource", "ProcessOutcome", "EvolutionEvent"]


class XMLSource:
    """A source of XML documents with an evolving DTD set."""

    def __init__(
        self,
        dtds: Iterable[DTD],
        config: EvolutionConfig = EvolutionConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        auto_evolve: bool = True,
        triggers: Optional["TriggerSet"] = None,
        fastpath: Optional[FastPathConfig] = None,
        store: Union[None, str, DocumentStore] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.similarity_config = SimilarityConfig(config.alpha, config.beta)
        #: also drives tag evolution during the evolution phase (a
        #: thesaurus matcher enables renames; the default exact matcher
        #: keeps the feature inert)
        self.tag_matcher = tag_matcher
        #: fast-path switches shared by the classifier and the recorders
        #: (exact-by-construction; see repro.perf)
        self.fastpath = fastpath or FastPathConfig()
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
        #: index, or any :class:`DocumentStore` instance)
        self.repository = Repository(make_store(store))
        # a store built here from a kind name is this engine's to close;
        # an instance passed in stays the caller's
        self._owns_store = isinstance(store, str)
        # stores that batch durability work (sqlite's batch commits)
        # report it through the shared counters
        attach_counters = getattr(self.repository.store, "set_counters", None)
        if attach_counters is not None:
            attach_counters(self.perf)
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
        #: the staged Figure-1 loop this facade delegates to
        self.pipeline = Pipeline(self, self.events)

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
    # The pipeline
    # ------------------------------------------------------------------

    def classify(self, document: Document) -> ClassificationResult:
        """Classification phase only (no recording, no events)."""
        return self.classifier.classify(document)

    def process(
        self,
        document: Document,
        classification: Optional[ClassificationResult] = None,
    ) -> ProcessOutcome:
        """Run one document through the full Figure-1 loop.

        ``classification`` injects a precomputed result for this
        document against the *current* DTD set — ``process(d,
        classify(d))`` is ``process(d)`` with the classify call made by
        the caller, so it can be timed on its own; the classify stage
        then skips the classifier call but deposits, records, checks
        and evolves exactly as usual.
        """
        self.documents_processed += 1
        return self.pipeline.run(document, classification).outcome()

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
            close_store = getattr(self.repository.store, "close", None)
            if close_store is not None:
                close_store()

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
        """Force the evolution phase for one DTD (the check phase calls
        this automatically when ``auto_evolve`` is on).  ``config``
        overrides the source's evolution parameters for this run only
        (trigger WITH clauses use it)."""
        return self.pipeline.evolve(name, config)

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
            self._reclassify_repository()
        return names

    def _reclassify_repository(self) -> int:
        """Re-classify repository documents against the evolved set
        (one standalone pass of the drain stage)."""
        return self.pipeline.drain()

    def __repr__(self) -> str:
        return (
            f"XMLSource(dtds={self.dtd_names()!r}, "
            f"processed={self.documents_processed}, "
            f"repository={len(self.repository)}, "
            f"evolutions={self.evolution_count})"
        )
