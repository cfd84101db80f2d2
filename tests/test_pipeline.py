"""Tests for the Figure-1 loop ``XMLSource`` runs and its lifecycle
event bus (repro.pipeline): phase order, event sequences, injected
classifications, and the memory-vs-sqlite store equivalence of the full
engine.
"""

from __future__ import annotations

import pytest

from repro.classification.stores import MemoryStore, SqliteStore
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.obs.tracing import Tracer
from repro.perf import TIMER_NAMES
from repro.pipeline import (
    LIFECYCLE_EVENTS,
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EventBus,
    EvolutionFinished,
    EvolutionStarted,
    RepositoryDrained,
)
from repro.triggers.trigger import TriggerSet
from repro.xmltree.parser import parse_document

from tests.differential_utils import COMPARED, run_view


def _source(**overrides):
    defaults = dict(sigma=0.3, tau=0.15, psi=0.2, mu=0.0, min_documents=20)
    config_overrides = {
        key: overrides.pop(key)
        for key in list(overrides)
        if key in EvolutionConfig._fields
    }
    defaults.update(config_overrides)
    return XMLSource([figure3_dtd()], EvolutionConfig(**defaults), **overrides)


# ----------------------------------------------------------------------
# The event bus
# ----------------------------------------------------------------------


class TestEventBus:
    def test_typed_subscription_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(DocumentDeposited, seen.append)
        deposited = DocumentDeposited(None, 0.1, 1)
        bus.emit(deposited)
        bus.emit(EvolutionStarted("x", 1, 0.5))  # different type: unseen
        assert seen == [deposited]
        bus.unsubscribe(DocumentDeposited, handler)
        bus.emit(deposited)
        assert seen == [deposited]

    def test_catch_all_sees_everything(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe_all(seen.append)
        events = [DocumentDeposited(None, 0.1, 1), EvolutionStarted("x", 1, 0.5)]
        for event in events:
            bus.emit(event)
        assert seen == events
        bus.unsubscribe_all(handler)
        bus.emit(events[0])
        assert len(seen) == 2

    def test_subscriber_count(self):
        bus = EventBus()
        bus.subscribe(DocumentClassified, lambda e: None)
        bus.subscribe_all(lambda e: None)
        assert bus.subscriber_count(DocumentClassified) == 2
        assert bus.subscriber_count(EvolutionStarted) == 1
        assert bus.subscriber_count() == 2

    def test_unsubscribe_missing_is_noop(self):
        bus = EventBus()
        bus.unsubscribe(DocumentClassified, print)
        bus.unsubscribe_all(print)


class TestSubscriberIsolation:
    def test_raising_handler_does_not_stop_delivery(self, caplog):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("observer bug")

        bus.subscribe(DocumentDeposited, broken)
        bus.subscribe(DocumentDeposited, seen.append)
        deposited = DocumentDeposited(None, 0.1, 1)
        with caplog.at_level("ERROR", logger="repro.obs"):
            bus.emit(deposited)
        assert seen == [deposited]  # the later subscriber still ran
        assert bus.dead_letters == 1
        assert any("repro.obs" == record.name for record in caplog.records)

    def test_raising_subscriber_does_not_abort_the_pipeline(self, caplog):
        source = _source(min_documents=3, tau=0.05)

        def broken(event):
            raise RuntimeError("observer bug")

        source.events.subscribe_all(broken)
        workload = figure3_workload()
        with caplog.at_level("ERROR", logger="repro.obs"):
            outcomes = source.process_many(workload)
        # every document processed, evolution still happened, and the
        # engine's own log subscriber kept working despite the bad peer
        assert len(outcomes) == len(workload)
        assert source.evolution_count >= 1
        assert source.events.dead_letters > 0

        reference = _source(min_documents=3, tau=0.05)
        reference_outcomes = reference.process_many(figure3_workload())
        assert [
            (o.dtd_name, o.similarity, o.evolved, o.recovered) for o in outcomes
        ] == [
            (o.dtd_name, o.similarity, o.evolved, o.recovered)
            for o in reference_outcomes
        ]


# ----------------------------------------------------------------------
# Phase order
# ----------------------------------------------------------------------


def _phases_per_document(tracer):
    """Each traced document's ``stage.*`` children, in the order they
    ran."""
    spans = sorted(tracer.spans, key=lambda span: span.span_id)
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span.name)
    return [children.get(span.span_id, []) for span in spans if span.name == "doc"]


class TestPipelineComposition:
    def test_phases_run_in_figure1_order(self):
        """A deposit stops after classify, an accepted document that
        does not trigger stops after check, and the triggering one runs
        evolve and drain as well."""
        source = _source(sigma=0.3, min_documents=20)
        tracer = Tracer()
        source.set_tracer(tracer)
        documents = [parse_document("<zzz><qqq/></zzz>")]
        documents += figure3_workload(15, 15, seed=11)
        outcomes = [source.process(document) for document in documents]
        source.set_tracer(None)
        assert source.evolution_count == 1
        phases = ["stage.classify", "stage.record", "stage.check",
                  "stage.evolve", "stage.drain"]
        expected = [
            phases[:1] if outcome.dtd_name is None
            else phases if outcome.evolved
            else phases[:3]
            for outcome in outcomes
        ]
        assert expected[0] == phases[:1]
        assert expected.count(phases) == 1
        assert _phases_per_document(tracer) == expected

    def test_rejected_document_halts_after_classify(self):
        source = _source(sigma=0.9)
        tracer = Tracer()
        source.set_tracer(tracer)
        outcome = source.process(parse_document("<zzz><qqq/></zzz>"))
        assert outcome.dtd_name is None
        assert outcome.evolved == [] and outcome.recovered == 0
        assert len(source.repository) == 1
        assert source.extended_dtd("figure3").document_count == 0
        assert _phases_per_document(tracer) == [["stage.classify"]]


class TestDepthLimit:
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_max_depth_documents_run_the_whole_loop(self, tmp_path, kind, traced):
        """Documents as deep as the XML parser accepts are classified
        valid, recorded invalid and deposited, then evolved, drained and
        saved and loaded back, without exceeding the recursion limit."""
        from repro.core.persistence import load_source, save_source, source_to_json
        from repro.dtd.parser import parse_dtd
        from repro.xmltree.parser import MAX_DEPTH

        chain = "<a>" * (MAX_DEPTH - 1) + "x" + "</a>" * (MAX_DEPTH - 1)
        valid = parse_document(f"<r>{chain}</r>")
        invalid = parse_document(f"<r><b/>{chain}</r>")
        foreign = parse_document(
            "<q>" * MAX_DEPTH + "y" + "</q>" * MAX_DEPTH
        )
        assert valid.element_count() == foreign.element_count() == MAX_DEPTH
        dtd = parse_dtd("<!ELEMENT r (a)*><!ELEMENT a (#PCDATA|a)*>", name="deep")
        source = XMLSource(
            [dtd],
            EvolutionConfig(sigma=0.5, tau=0.01, min_documents=1),
            auto_evolve=False,
            store=kind,
            tracer=Tracer() if traced else None,
        )
        outcomes = [source.process(d) for d in (valid, invalid, foreign)]
        assert [o.dtd_name for o in outcomes] == ["deep", "deep", None]
        assert outcomes[0].similarity == 1.0 > outcomes[1].similarity > 0.5
        extended = source.extended_dtd("deep")
        assert (extended.document_count, extended.valid_document_count) == (2, 1)
        source.evolve_now("deep")
        assert source.drain() == 0
        assert len(source.repository) == 1
        path = str(tmp_path / "state.json")
        save_source(source, path)
        restored = load_source(path)
        try:
            assert source_to_json(restored) == source_to_json(source)
        finally:
            restored.close()
            source.close()


# ----------------------------------------------------------------------
# Lifecycle event sequences
# ----------------------------------------------------------------------


class _Recorder:
    """A test observer: records (event type name, event) pairs."""

    def __init__(self, source):
        self.events = []
        source.events.subscribe_all(self.events.append)

    @property
    def names(self):
        return [type(event).__name__ for event in self.events]


class TestLifecycleEvents:
    def test_accepted_document_sequence(self):
        source = _source()
        observed = _Recorder(source)
        source.process(parse_document("<a><b>x</b><c>y</c></a>"))
        assert observed.names == ["DocumentClassified", "DocumentRecorded"]
        classified, recorded = observed.events
        assert classified.dtd_name == "figure3"
        assert classified.accepted
        assert classified.similarity == 1.0
        assert recorded.dtd_name == "figure3"
        assert recorded.documents_recorded == 1

    def test_rejected_document_sequence(self):
        source = _source(sigma=0.9)
        observed = _Recorder(source)
        source.process(parse_document("<zzz><qqq/></zzz>"))
        assert observed.names == ["DocumentClassified", "DocumentDeposited"]
        classified, deposited = observed.events
        assert not classified.accepted
        assert classified.dtd_name is None
        assert deposited.repository_size == 1
        assert deposited.similarity == classified.similarity

    def test_triggered_evolution_full_sequence(self):
        """The acceptance sequence: a subscriber observes
        EvolutionStarted → EvolutionFinished → RepositoryDrained for a
        triggered evolution, with consistent payloads."""
        source = _source()
        observed = _Recorder(source)
        for document in figure3_workload(15, 15, seed=11):
            source.process(document)
        assert source.evolution_count == 1
        evolution_names = [
            name
            for name in observed.names
            if name in ("EvolutionStarted", "EvolutionFinished", "RepositoryDrained")
        ]
        assert evolution_names == [
            "EvolutionStarted",
            "EvolutionFinished",
            "RepositoryDrained",
        ]
        started = next(e for e in observed.events if isinstance(e, EvolutionStarted))
        finished = next(e for e in observed.events if isinstance(e, EvolutionFinished))
        drained = next(e for e in observed.events if isinstance(e, RepositoryDrained))
        event = source.evolution_log[0]
        assert started.dtd_name == finished.dtd_name == "figure3"
        assert started.documents_recorded == event.documents_recorded == 20
        assert started.activation_score == event.activation_score > 0.15
        assert finished.result is event.result
        assert drained.evolution is event
        assert drained.recovered == event.recovered_from_repository

    def test_evolution_log_is_a_bus_subscriber(self):
        """The log entry appears exactly when RepositoryDrained carries
        the completed evolution — forced evolutions included."""
        source = _source()
        source.auto_evolve = False
        for document in figure3_workload(15, 15, seed=11):
            source.process(document)
        assert source.evolution_log == []
        event = source.evolve_now("figure3")
        assert source.evolution_log == [event]

    def test_standalone_drain_has_no_evolution_payload(self):
        source = _source(sigma=0.9)
        observed = _Recorder(source)
        source.process(parse_document("<zzz><qqq/></zzz>"))
        recovered = source.drain()
        assert recovered == 0
        drained = observed.events[-1]
        assert isinstance(drained, RepositoryDrained)
        assert drained.evolution is None
        assert drained.remaining == 1
        assert source.evolution_log == []

    def test_trigger_rules_flow_through_the_check_stage(self):
        triggers = TriggerSet.parse(
            "ON * WHEN documents >= 3 AND score > 0.01 EVOLVE\n"
        )
        source = _source(sigma=0.3, triggers=triggers)
        observed = _Recorder(source)
        for document in figure3_workload(4, 4, seed=5):
            source.process(document)
        assert source.evolution_count >= 1
        assert "EvolutionStarted" in observed.names

    def test_every_lifecycle_event_type_fires_somewhere(self):
        source = _source(sigma=0.6, tau=0.01, min_documents=5)
        observed = _Recorder(source)
        documents = [
            parse_document("<a>" + "<b>x</b><c>y</c>" * 2 + "<d>z</d></a>")
            for _ in range(6)
        ]
        documents += [
            parse_document("<a><b>x</b><c>y</c><c>y</c></a>") for _ in range(6)
        ]
        for document in documents:
            source.process(document)
        assert {type(event) for event in observed.events} == set(LIFECYCLE_EVENTS)


# ----------------------------------------------------------------------
# Injected classifications
# ----------------------------------------------------------------------


class TestInjectedClassification:
    @pytest.mark.parametrize("store_kind", ["memory", "sqlite"])
    def test_process_with_classify_matches_process(self, tmp_path, store_kind):
        """``process(d, classify(d))`` — the caller classifies, the
        pipeline writes, which is how a benchmark times the two apart —
        is the same run as ``process(d)``: outcomes, rankings, events,
        evolution log, DTDs, repository and every non-timer counter,
        over a drift stream whose evolutions drain the repository."""
        drift = figure3_workload(25, 0, seed=3) + figure3_workload(0, 25, seed=4)
        aliens = [parse_document(f"<alien><x>{i}</x></alien>") for i in range(4)]
        documents = drift[:10] + aliens[:2] + drift[10:35] + aliens[2:] + drift[35:]

        def run(name, step):
            store = (
                SqliteStore(str(tmp_path / f"{name}.sqlite"))
                if store_kind == "sqlite" else MemoryStore()
            )
            source = XMLSource(
                [figure3_dtd()],
                EvolutionConfig(sigma=0.4, tau=0.05, min_documents=6),
                store=store,
            )
            return run_view(
                source,
                lambda source: [step(source, d.copy()) for d in documents],
            )

        whole = run("whole", lambda source, d: source.process(d))
        split = run(
            "split", lambda source, d: source.process(d, source.classify(d))
        )
        for key in COMPARED:
            assert whole[key] == split[key], key
        counters = {
            name: value for name, value in whole["perf"].items()
            if name not in TIMER_NAMES
        }
        assert counters == {
            name: value for name, value in split["perf"].items()
            if name not in TIMER_NAMES
        }
        assert whole["source"].evolution_count >= 2
        assert sum(outcome[3] for outcome in whole["outcomes"]) > 0  # drains
        assert whole["repository"]  # the aliens stay deposited


# ----------------------------------------------------------------------
# Store equivalence through the full engine
# ----------------------------------------------------------------------


class TestStoreEquivalence:
    def test_memory_and_sqlite_sources_agree(self, tmp_path):
        """One workload through a MemoryStore source and a SqliteStore
        source: identical outcomes, evolution logs, evolved DTDs, and
        repository contents (the acceptance equivalence)."""
        config = EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5)
        documents = figure3_workload(15, 15, seed=3)
        memory = XMLSource([figure3_dtd()], config, store=MemoryStore())
        sqlite = XMLSource(
            [figure3_dtd()],
            config,
            store=SqliteStore(str(tmp_path / "repository.sqlite")),
        )
        memory_outcomes = memory.process_many([d.copy() for d in documents])
        sqlite_outcomes = sqlite.process_many([d.copy() for d in documents])
        for ours, theirs in zip(memory_outcomes, sqlite_outcomes):
            assert ours.dtd_name == theirs.dtd_name
            assert ours.similarity == theirs.similarity
            assert ours.evolved == theirs.evolved
            assert ours.recovered == theirs.recovered
        assert len(memory.evolution_log) == len(sqlite.evolution_log) > 0
        for ours, theirs in zip(memory.evolution_log, sqlite.evolution_log):
            assert ours.dtd_name == theirs.dtd_name
            assert ours.documents_recorded == theirs.documents_recorded
            assert ours.activation_score == theirs.activation_score
            assert ours.recovered_from_repository == theirs.recovered_from_repository
            assert serialize_dtd(ours.result.new_dtd) == serialize_dtd(
                theirs.result.new_dtd
            )
        for name in memory.dtd_names():
            assert serialize_dtd(memory.dtd(name)) == serialize_dtd(sqlite.dtd(name))
        from repro.xmltree.serializer import serialize_document

        assert [
            serialize_document(d, xml_declaration=False) for d in memory.repository
        ] == [serialize_document(d, xml_declaration=False) for d in sqlite.repository]
        sqlite.repository.store.close()

    def test_store_kinds_accepted_by_name(self, tmp_path):
        memory = XMLSource([figure3_dtd()], store="memory")
        sqlite = XMLSource([figure3_dtd()], store="sqlite")
        assert isinstance(memory.repository.store, MemoryStore)
        assert isinstance(sqlite.repository.store, SqliteStore)
        memory.close()
        sqlite.close()

    def test_source_closes_only_the_store_it_built(self, tmp_path):
        """A store built from a kind name is the engine's: ``close()``
        deletes its temporary database, and closing again is a no-op.
        A store instance passed in stays open for its owner."""
        import os

        built = XMLSource([figure3_dtd()], store="sqlite")
        built.repository.add(figure3_workload(1, 0, seed=1)[0])
        path = built.repository.store.path
        assert os.path.exists(path)
        built.close()
        assert not os.path.exists(path)
        built.close()

        given = SqliteStore(str(tmp_path / "given.sqlite"))
        with XMLSource([figure3_dtd()], store=given) as source:
            source.repository.add(figure3_workload(1, 0, seed=1)[0])
        assert len(given) == 1
        assert len(list(given)) == 1  # the connection is still open
        given.close()

    def test_unknown_store_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown store kind"):
            XMLSource([figure3_dtd()], store="bogus")
