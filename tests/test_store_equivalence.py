"""Store engine-equivalence differentials.

The acceptance bar of the indexed-store work: the full engine pipeline
— classification, mid-batch evolution, the pruned post-evolution drain,
save/load resume — produces bit-identical observable state (outcomes,
rankings, evolution log, repository content *and order*) whichever
backend holds the repository (memory scan, jsonl scan, sqlite indexed).

The CI store-matrix job narrows the backend parameterization with
``REPRO_STORE_KINDS``; locally all backends run.
"""

from __future__ import annotations

import os

import pytest

from repro.classification.classifier import Classifier
from repro.classification.stores import SqliteStore
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import load_source, save_source
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.perf import FastPathConfig
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

from tests.test_stores import selected_store_kinds

_CONFIG = EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5)

STORE_KINDS = selected_store_kinds()


def _source(kind, tmp_path, fastpath=None, auto_evolve=True, dtds=None,
            config=_CONFIG):
    store = kind
    if kind in ("jsonl", "sqlite"):
        store_path = str(tmp_path / f"repo.{kind}")
        from repro.classification.stores import make_store

        store = make_store(kind, store_path)
    return XMLSource(
        dtds if dtds is not None else [figure3_dtd()],
        config,
        fastpath=fastpath,
        auto_evolve=auto_evolve,
        store=store,
    )


def _close(source):
    source.close()
    if hasattr(source.repository.store, "close"):
        source.repository.store.close()


def _state(source):
    """Everything the differential compares (order-sensitive)."""
    return {
        "dtds": {
            name: serialize_dtd(source.dtd(name)) for name in source.dtd_names()
        },
        "evolution_log": [
            (
                event.dtd_name,
                event.documents_recorded,
                event.activation_score,
                serialize_dtd(event.result.new_dtd),
                event.recovered_from_repository,
            )
            for event in source.evolution_log
        ],
        "repository": [
            serialize_document(document, xml_declaration=False)
            for document in source.repository
        ],
        "documents_processed": source.documents_processed,
    }


def _run(source, documents):
    outcomes = [
        (o.dtd_name, o.similarity, tuple(o.evolved), o.recovered)
        for o in source.process_many([d.copy() for d in documents])
    ]
    return {"outcomes": outcomes, **_state(source)}


def _drain_workload():
    """A workload whose post-evolution drain meets real pruning:
    vocabulary-disjoint, text-free filler (provably bound 0.0), deep
    documents (no sound bound → always classified), and documents the
    evolved DTD genuinely recovers."""
    filler = [
        parse_document(f"<q{i % 7}><r{i % 5}/><s{i % 3}/></q{i % 7}>")
        for i in range(40)
    ]
    # height past TripleConfig.max_depth (64): no sound bound exists,
    # so every backend must classify it during the drain
    deep = [parse_document(
        "<m>" + "<m>" * 70 + "<n/>" + "</m>" * 70 + "</m>")]
    recoverable = [
        parse_document(
            "<a><b>x</b><c>y</c>" + "<d/>" * count + "</a>"
        )
        for count in (6, 7, 8)
    ]
    # two d's per drift document make the mined rule d+ (not a single
    # d), so the heavy-tail recoverable documents really come back
    drift = [
        parse_document("<a><b>x</b><c>y</c><d/><d/></a>") for _ in range(8)
    ]
    return filler, deep, recoverable, drift


class TestEngineEquivalenceAcrossBackends:
    """Reference: memory. Every backend must match it bit for bit
    through a mid-batch evolution."""

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_full_workload_is_bit_identical(self, tmp_path, kind):
        documents = figure3_workload(15, 15, seed=3)
        reference = _source("memory", tmp_path)
        expected = _run(reference, documents)
        _close(reference)
        assert len(expected["evolution_log"]) > 0  # the workload evolves

        candidate = _source(kind, tmp_path)
        actual = _run(candidate, documents)
        _close(candidate)
        assert actual == expected

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_drain_order_and_pruning_are_bit_identical(self, tmp_path, kind):
        filler, deep, recoverable, drift = _drain_workload()
        deposited = filler + recoverable + deep

        def run(mode_kind, subdir):
            source = _source(mode_kind, tmp_path / subdir, auto_evolve=False)
            for document in deposited:
                source.process(document.copy())
            assert len(source.repository) == len(deposited)
            for document in drift:
                source.process(document.copy())
            result = source.evolve_now("figure3")
            assert result is not None
            state = _state(source)
            perf = source.perf.snapshot()
            _close(source)
            return state, perf

        (tmp_path / "ref").mkdir()
        (tmp_path / "mode").mkdir()
        expected, _ = run("memory", "ref")
        actual, perf = run(kind, "mode")
        assert actual == expected
        recovered = expected["evolution_log"][-1][-1]
        assert recovered == len(recoverable)  # the drain recovered them
        # the filler survived, in insertion order
        assert len(expected["repository"]) == len(filler) + len(deep)
        if kind == "sqlite":
            assert perf["drain_index_hits"] == 1
            # the index pre-filtered the scan: candidate rows exclude
            # the vocabulary-disjoint filler
            assert perf["index_rows"] == len(recoverable) + len(deep)
            assert perf["drain_prune_skips"] == len(filler)

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_matches_the_all_fastpaths_off_reference(self, tmp_path, kind):
        """The seed code path (no pruning, no indexing) pins every fast
        path at once."""
        documents = figure3_workload(10, 10, seed=7)
        reference = _source(
            "memory", tmp_path, fastpath=FastPathConfig.disabled()
        )
        expected = _run(reference, documents)
        _close(reference)
        candidate = _source(kind, tmp_path)
        actual = _run(candidate, documents)
        _close(candidate)
        assert actual == expected


class TestSaveLoadResumeAcrossBackends:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_resume_straddling_an_evolution(self, tmp_path, kind):
        documents = figure3_workload(15, 15, seed=3)
        split = 10

        uninterrupted = _source("memory", tmp_path)
        expected = _run(uninterrupted, documents)
        _close(uninterrupted)

        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        interrupted = _source(kind, tmp_path / "first")
        interrupted.process_many([d.copy() for d in documents[:split]])
        snapshot_path = str(tmp_path / "state.json")
        save_source(interrupted, snapshot_path)
        evolutions_before = len(interrupted.evolution_log)
        _close(interrupted)

        resumed = load_source(
            snapshot_path,
            store=_source(kind, tmp_path / "second").repository.store,
        )
        resumed.process_many([d.copy() for d in documents[split:]])
        actual = _state(resumed)
        _close(resumed)
        assert actual["dtds"] == expected["dtds"]
        assert actual["repository"] == expected["repository"]
        assert actual["documents_processed"] == expected["documents_processed"]
        assert (
            actual["evolution_log"]
            == expected["evolution_log"][evolutions_before:]
        )

    def test_sqlite_crash_resume(self, tmp_path):
        """A process that dies without close() loses nothing: the
        repository and its index are already committed, and a reopened
        store drains identically to an uninterrupted memory run."""
        filler, deep, recoverable, drift = _drain_workload()
        deposited = filler + recoverable + deep

        reference = _source("memory", tmp_path, auto_evolve=False)
        for document in deposited:
            reference.process(document.copy())
        for document in drift:
            reference.process(document.copy())
        reference.evolve_now("figure3")
        expected = _state(reference)
        _close(reference)

        db_path = str(tmp_path / "crash.sqlite")
        crashed = XMLSource(
            [figure3_dtd()], _CONFIG, auto_evolve=False,
            store=SqliteStore(db_path),
        )
        for document in deposited:
            crashed.process(document.copy())
        pre_crash = [
            serialize_document(d, xml_declaration=False)
            for d in crashed.repository
        ]
        del crashed  # no close(), no save: the crash

        reopened = SqliteStore(db_path)
        assert [
            serialize_document(d, xml_declaration=False) for d in reopened
        ] == pre_crash
        resumed = XMLSource(
            [figure3_dtd()], _CONFIG, auto_evolve=False, store=reopened
        )
        for document in drift:
            resumed.process(document.copy())
        resumed.evolve_now("figure3")
        actual = _state(resumed)
        perf = resumed.perf.snapshot()
        _close(resumed)
        assert actual["repository"] == expected["repository"]
        assert actual["dtds"] == expected["dtds"]
        assert perf["drain_index_hits"] == 1


class TestBoundRowAgreement:
    """bound_from_row(candidate row) must equal acceptance_bound(doc)
    bit for bit — the invariant the indexed drain stands on."""

    def test_bounds_agree_on_generated_documents(self, tmp_path):
        dtd = parse_dtd(
            "<!ELEMENT a (b, c)><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (#PCDATA)>",
            name="A",
        )
        classifier = Classifier([dtd], threshold=0.5)
        store = SqliteStore(str(tmp_path / "bounds.sqlite"))
        documents = [
            parse_document(xml)
            for xml in [
                "<a><b>x</b><c>y</c></a>",
                "<a><b>x</b><c>y</c><d/><d/></a>",
                "<q><r/></q>",
                "<a>just text</a>",
                "<b><a/><c>t</c></b>",
                "<x><b>v</b></x>",
            ]
        ]
        for document in documents:
            store.add(document)
        query = classifier.drain_query("A")
        assert query is not None
        rows = dict(store.candidates(query))
        candidate_ids = set(rows)
        for doc_id, document in enumerate(documents, start=1):
            expected = classifier.acceptance_bound(document, "A")
            if doc_id not in candidate_ids:
                # non-candidates are provably bound 0.0
                assert expected == 0.0
                continue
            actual = classifier.bound_from_row("A", rows[doc_id])
            assert actual == expected
        store.close()
