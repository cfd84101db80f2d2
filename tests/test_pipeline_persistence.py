"""Persistence across the staged pipeline: format-3 snapshots, the
v1/v2 backward-compat loaders, mid-batch checkpoints, and the
acceptance scenario — save/load between ``process_many`` batches that
straddle an evolution must continue exactly like the uninterrupted run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import stat
from contextlib import closing

import pytest

from repro.classification.repository import Repository
from repro.classification.stores import JsonlStore, MemoryStore, make_store
from repro.core import persistence
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import (
    FORMAT_VERSION,
    load_source,
    save_source,
    source_from_json,
    source_to_json,
)
from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

from tests.test_store_equivalence import _drain_workload
from tests.test_stores import selected_store_kinds

STORE_KINDS = selected_store_kinds()


_CONFIG = EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5)


def _fresh_source(**kwargs):
    return XMLSource([figure3_dtd()], _CONFIG, **kwargs)


def _workload():
    # 30 documents; with min_documents=5 the evolution fires mid-stream,
    # so any split around the middle straddles it
    return figure3_workload(15, 15, seed=3)


def _state(source):
    """Everything the acceptance criterion compares."""
    return {
        "dtds": {name: serialize_dtd(source.dtd(name)) for name in source.dtd_names()},
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


class TestMidBatchEvolutionRoundTrip:
    @pytest.mark.parametrize("split", [4, 10, 20])
    def test_save_load_between_batches_straddling_an_evolution(
        self, tmp_path, split
    ):
        documents = _workload()
        uninterrupted = _fresh_source()
        uninterrupted.process_many([d.copy() for d in documents])

        interrupted = _fresh_source()
        interrupted.process_many([d.copy() for d in documents[:split]])
        evolutions_before_snapshot = len(interrupted.evolution_log)
        path = str(tmp_path / "mid.json")
        save_source(interrupted, path)
        resumed = load_source(path)
        assert resumed.evolution_log == []  # the log is runtime history
        resumed.process_many([d.copy() for d in documents[split:]])

        # the restored source's next evolution, evolution log, and
        # repository are identical to the uninterrupted run (the resumed
        # log holds exactly the post-snapshot continuation)
        expected = _state(uninterrupted)
        actual = _state(resumed)
        assert actual["dtds"] == expected["dtds"]
        assert actual["repository"] == expected["repository"]
        assert actual["documents_processed"] == expected["documents_processed"]
        assert (
            actual["evolution_log"]
            == expected["evolution_log"][evolutions_before_snapshot:]
        )
        assert len(expected["evolution_log"]) > 0

    def test_split_exactly_at_the_evolution_boundary(self, tmp_path):
        documents = _workload()
        probe = _fresh_source()
        trigger_index = None
        for index, document in enumerate(probe.process_many([d.copy() for d in documents])):
            if document.evolved:
                trigger_index = index
                break
        assert trigger_index is not None
        split = trigger_index + 1  # snapshot immediately after the evolution

        uninterrupted = _fresh_source()
        uninterrupted.process_many([d.copy() for d in documents])
        interrupted = _fresh_source()
        interrupted.process_many([d.copy() for d in documents[:split]])
        assert len(interrupted.evolution_log) == 1
        path = str(tmp_path / "boundary.json")
        save_source(interrupted, path)
        resumed = load_source(path)
        resumed.process_many([d.copy() for d in documents[split:]])
        assert _state(resumed)["dtds"] == _state(uninterrupted)["dtds"]
        assert _state(resumed)["repository"] == _state(uninterrupted)["repository"]


class TestCheckpointEvery:
    def test_checkpoints_are_written_and_loadable(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        source = _fresh_source()
        documents = _workload()[:7]
        source.process_many(
            [d.copy() for d in documents], checkpoint_every=3, checkpoint_path=path
        )
        assert os.path.exists(path)
        checkpoint = load_source(path)
        # the last checkpoint landed at document 6 of 7
        assert checkpoint.documents_processed == 6

    def test_checkpointing_does_not_change_the_run(self, tmp_path):
        documents = _workload()
        plain = _fresh_source()
        plain_outcomes = plain.process_many([d.copy() for d in documents])
        checkpointed = _fresh_source()
        checkpointed_outcomes = checkpointed.process_many(
            [d.copy() for d in documents],
            checkpoint_every=5,
            checkpoint_path=str(tmp_path / "c.json"),
        )
        for ours, theirs in zip(plain_outcomes, checkpointed_outcomes):
            assert ours.dtd_name == theirs.dtd_name
            assert ours.similarity == theirs.similarity
            assert ours.evolved == theirs.evolved
        assert _state(plain) == _state(checkpointed)

    def test_checkpoint_every_without_path_is_ignored(self):
        source = _fresh_source()
        outcomes = source.process_many(
            [d.copy() for d in _workload()[:3]], checkpoint_every=1
        )
        assert len(outcomes) == 3


class TestFormatVersions:
    def test_snapshots_are_format_3(self):
        source = _fresh_source()
        data = source_to_json(source)
        assert FORMAT_VERSION == 3
        assert data["format"] == 3
        assert data["repository"] == {
            "store": "memory",
            "index": None,
            "documents": [],
        }
        assert "classifier" not in data

    def test_sqlite_snapshot_records_index_metadata(self):
        from repro.classification.stores import SqliteStore

        source = _fresh_source(store="sqlite")
        source.process_many([d.copy() for d in _workload()[:4]])
        try:
            data = source_to_json(source)
            assert data["repository"]["store"] == "sqlite"
            index = data["repository"]["index"]
            assert index["kind"] == "tag-vocabulary"
            assert index["documents"] == len(source.repository)
            if len(source.repository):
                assert index["rows"] > 0
            restored = source_from_json(data)
            try:
                assert isinstance(restored.repository.store, SqliteStore)
                assert len(restored.repository) == len(source.repository)
            finally:
                restored.repository.store.close()
        finally:
            source.repository.store.close()

    def test_format_3_snapshot_with_a_classifier_section_still_loads(self):
        """Format-3 snapshots written while a sharded classifier existed
        carry a ``classifier`` section; one taken mid-stream restores
        and finishes the stream exactly like the uninterrupted run."""
        documents = _workload()
        split = 10

        def run(source, batch):
            return [
                (o.dtd_name, o.similarity, tuple(o.evolved), o.recovered)
                for o in source.process_many([d.copy() for d in batch])
            ]

        uninterrupted = _fresh_source()
        expected_outcomes = run(uninterrupted, documents)
        interrupted = _fresh_source()
        run(interrupted, documents[:split])
        data = source_to_json(interrupted)
        data["classifier"] = {"sharded": True, "shards": [["figure3"]]}
        resumed = source_from_json(json.loads(json.dumps(data)))
        assert run(resumed, documents[split:]) == expected_outcomes[split:]
        expected = _state(uninterrupted)
        # the resumed log holds exactly the post-snapshot continuation
        del expected["evolution_log"][: len(interrupted.evolution_log)]
        assert _state(resumed) == expected

    def test_v2_snapshot_still_loads(self):
        """A format-2 snapshot (no index metadata) restores into a
        working source."""
        source = _fresh_source()
        source.process_many([d.copy() for d in _workload()[:4]])
        data = source_to_json(source)
        v2 = dict(data)
        v2["format"] = 2
        v2["repository"] = {
            "store": data["repository"]["store"],
            "documents": data["repository"]["documents"],
        }
        v2 = json.loads(json.dumps(v2))
        restored = source_from_json(v2)
        assert isinstance(restored.repository.store, MemoryStore)
        assert len(restored.repository) == len(source.repository)
        assert restored.documents_processed == source.documents_processed

    def test_store_kind_round_trips(self, tmp_path):
        source = _fresh_source(store=JsonlStore(str(tmp_path / "r.jsonl")))
        source.process_many([d.copy() for d in _workload()[:4]])
        data = source_to_json(source)
        assert data["repository"]["store"] == "jsonl"
        restored = source_from_json(data)
        assert isinstance(restored.repository.store, JsonlStore)
        assert len(restored.repository) == len(source.repository)
        restored.repository.store.close()

    def test_store_override_at_load_time(self, tmp_path):
        source = _fresh_source(store=JsonlStore(str(tmp_path / "r.jsonl")))
        restored = source_from_json(source_to_json(source), store="memory")
        assert isinstance(restored.repository.store, MemoryStore)

    def test_v1_snapshot_still_loads(self):
        """A pre-pipeline snapshot (format 1, repository as a bare list)
        restores into a working source."""
        source = XMLSource([figure3_dtd()], EvolutionConfig(sigma=0.9))
        for document in _workload()[:3]:
            source.process(document.copy())
        assert len(source.repository) > 0
        data = source_to_json(source)
        v1 = dict(data)
        v1["format"] = 1
        v1["repository"] = data["repository"]["documents"]
        v1 = json.loads(json.dumps(v1))
        restored = source_from_json(v1)
        assert isinstance(restored.repository.store, MemoryStore)
        assert len(restored.repository) == len(source.repository)
        assert restored.documents_processed == source.documents_processed

    def test_unknown_format_still_rejected(self):
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            source_from_json({"format": 99})

    def test_fastpath_collaborator_resupplied_at_load(self, tmp_path):
        from repro.perf import FastPathConfig

        source = _fresh_source()
        path = str(tmp_path / "s.json")
        save_source(source, path)
        restored = load_source(path, fastpath=FastPathConfig.disabled())
        assert not restored.fastpath.validity_short_circuit

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    def test_loaded_recorders_share_the_counters_and_fastpath(
        self, tmp_path, fast
    ):
        """A loaded source's recorders use the source's counters and
        fast-path config, as a fresh source's do: with a tag matcher
        the record stage evaluates against the recorder's own matcher,
        so the DP work it does must show in the same counters."""
        from repro.perf import FastPathConfig
        from repro.similarity.tags import ThesaurusTagMatcher

        fastpath = FastPathConfig() if fast else FastPathConfig.disabled()
        matcher = ThesaurusTagMatcher([{"b", "bb"}])
        config = EvolutionConfig(sigma=0.3, min_documents=10 ** 9)
        original = XMLSource(
            [figure3_dtd()], config, tag_matcher=matcher, fastpath=fastpath
        )
        path = str(tmp_path / "empty.json")
        save_source(original, path)
        loaded = load_source(path, tag_matcher=matcher, fastpath=fastpath)

        documents = figure3_workload(5, 30, seed=3)
        runs = []
        for source in (original, loaded):
            outcomes = source.process_many([d.copy() for d in documents])
            runs.append([(o.dtd_name, o.similarity) for o in outcomes])
        assert runs[0] == runs[1]
        keys = ("dp_runs", "dp_cells", "structural_cache_hits",
                "structural_cache_misses")
        expected = {key: original.perf_snapshot()[key] for key in keys}
        assert {key: loaded.perf_snapshot()[key] for key in keys} == expected


def _store_source(kind, tmp_path, **kwargs):
    store = "memory"
    if kind != "memory":
        store = make_store(kind, str(tmp_path / f"r.{kind}"))
    return _fresh_source(store=store, **kwargs)


def _release(source):
    source.close()
    close_store = getattr(source.repository.store, "close", None)
    if close_store is not None:
        close_store()


def _xml(document):
    return serialize_document(document, xml_declaration=False)


def _reference_snapshot(source):
    """The snapshot as it was built before stores exposed ``texts()``:
    every repository document parsed back and serialized again."""
    data = source_to_json(source)
    data["repository"]["documents"] = [_xml(d) for d in source.repository]
    return data


class TestSnapshotCopiesStoredText:
    """``source_to_json`` copies the text a store already holds; it must
    equal the parse-and-serialize reference on every backend."""

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_drift_stream_matches_the_reference(self, tmp_path, kind):
        filler, deep, recoverable, drift = _drain_workload()
        stream = (
            filler[:20] + recoverable + deep + filler[20:] + drift
            + figure3_workload(15, 15, seed=3)
        )
        source = _store_source(kind, tmp_path)
        try:
            for document in stream:
                source.process(document.copy())
                assert source_to_json(source) == _reference_snapshot(source)
            assert source.evolution_count >= 2
            assert sum(e.recovered_from_repository for e in source.evolution_log) > 0
            if kind == "sqlite":
                assert source.perf_snapshot()["drain_index_hits"] >= 1
                # indexed drains removed rows from the middle of the table
                rows = source.repository.store._connection.execute(
                    "SELECT id FROM documents ORDER BY id"
                )
                ids = [doc_id for (doc_id,) in rows]
                assert ids != list(range(ids[0], ids[0] + len(ids)))
            path = str(tmp_path / "checkpoint.json")
            save_source(source, path)
            with open(path, encoding="utf-8") as handle:
                saved = handle.read()
            assert saved == json.dumps(_reference_snapshot(source), indent=1)
        finally:
            _release(source)

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_snapshot_inside_an_open_bulk_window(self, tmp_path, kind):
        filler = _drain_workload()[0][:15]
        source = _store_source(kind, tmp_path)
        try:
            source.process_many([d.copy() for d in filler[:5]])
            with source.repository.bulk():
                for document in filler[5:]:
                    source.process(document.copy())
                if kind == "sqlite":
                    # the window's inserts are not committed yet ...
                    with closing(sqlite3.connect(source.repository.store.path)) as other:
                        (committed,) = other.execute(
                            "SELECT COUNT(*) FROM documents"
                        ).fetchone()
                    assert committed == 5
                snapshot = source_to_json(source)
                assert snapshot == _reference_snapshot(source)
            # ... but the snapshot holds them, in order
            assert snapshot["repository"]["documents"] == [_xml(d) for d in filler]
        finally:
            _release(source)

    @pytest.mark.skipif("jsonl" not in STORE_KINDS, reason="jsonl not selected")
    def test_jsonl_tombstones_and_compaction(self, tmp_path):
        store = JsonlStore(
            str(tmp_path / "r.jsonl"), segment_records=4, compact_ratio=0.5
        )
        source = _fresh_source(store=store)
        try:
            documents = [parse_document(f"<q{i}><r/></q{i}>") for i in range(12)]
            for document in documents:
                source.process(document)
            # one of four records in the first segment: tombstoned only
            source.repository.drain(lambda d: d.root.tag == "q1")
            assert os.path.exists(store.path + ".tombstones")
            assert source_to_json(source) == _reference_snapshot(source)
            # two of four in the second segment: that segment is compacted
            source.repository.drain(lambda d: d.root.tag in ("q5", "q6"))
            assert source.perf_snapshot()["segments_compacted"] == 1
            source.process(parse_document("<late><r/></late>"))
            snapshot = source_to_json(source)
            assert snapshot == _reference_snapshot(source)
            kept = [d for i, d in enumerate(documents) if i not in (1, 5, 6)]
            assert snapshot["repository"]["documents"] == [
                _xml(d) for d in kept
            ] + ["<late><r/></late>"]
        finally:
            _release(source)


class TestAtomicSave:
    def test_a_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.json"
        documents = _workload()
        source = _fresh_source()
        source.process_many([d.copy() for d in documents[:10]])
        save_source(source, str(path))
        first = path.read_bytes()
        source.process_many([d.copy() for d in documents[10:]])

        real_source_to_json = persistence.source_to_json

        def poisoned(snapshotted):
            # an unencodable value after the aggregates: the encoder has
            # written part of the file when it raises
            data = real_source_to_json(snapshotted)
            data["extended"].append(object())
            return data

        removed_sizes = []
        real_remove = os.remove

        def remove(name):
            removed_sizes.append(os.path.getsize(name))
            real_remove(name)

        monkeypatch.setattr(persistence, "source_to_json", poisoned)
        monkeypatch.setattr(persistence.os, "remove", remove)
        with pytest.raises(TypeError):
            save_source(source, str(path))
        monkeypatch.undo()

        assert removed_sizes and removed_sizes[0] > 0  # a partial temp file
        assert os.listdir(str(tmp_path)) == ["checkpoint.json"]
        assert path.read_bytes() == first
        assert load_source(str(path)).documents_processed == 10

    def test_save_replaces_the_target_with_the_same_bytes_and_mode(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("a stale, torn checkpoint")
        source = _fresh_source()
        source.process_many([d.copy() for d in _workload()[:6]])
        save_source(source, str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(
            source_to_json(source), indent=1
        )
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert os.listdir(str(tmp_path)) == ["checkpoint.json"]


class TestBulkRestore:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_the_repository_is_restored_in_one_bulk_add(
        self, tmp_path, kind, monkeypatch
    ):
        source = _store_source(kind, tmp_path)
        try:
            for document in _drain_workload()[0][:12]:
                source.process(document.copy())
            data = json.loads(json.dumps(source_to_json(source)))
        finally:
            _release(source)

        def single_add(self, document):
            raise AssertionError("restore must not add documents one by one")

        monkeypatch.setattr(Repository, "add", single_add)
        restored = source_from_json(data)
        try:
            assert source_to_json(restored) == data
            if kind != "memory":
                # one flush/transaction for the whole repository
                assert restored.perf_snapshot()["ingest_batch_commits"] == 1
        finally:
            _release(restored)
