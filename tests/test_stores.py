"""Unit tests for the two document stores (repro.classification.stores)."""

import os

import pytest

from repro.classification.repository import Repository
from repro.classification.stores import (
    STORE_KINDS,
    DocumentStore,
    DrainQuery,
    MemoryStore,
    SqliteStore,
    make_store,
    profile_document,
    store_kind,
)
from repro.xmltree.document import Document, Element, Text
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document


def selected_store_kinds():
    """The backends under test — the CI store-matrix job narrows the
    parameterization via ``REPRO_STORE_KINDS`` (comma/space separated)."""
    spec = os.environ.get("REPRO_STORE_KINDS", "")
    chosen = tuple(
        kind
        for kind in STORE_KINDS
        if kind in spec.replace(",", " ").split()
    )
    return chosen or STORE_KINDS


def _documents():
    return [
        parse_document("<a><b>x</b></a>"),
        parse_document("<b/>"),
        parse_document("<a><c>y</c></a>"),
    ]


def _xml(document):
    return serialize_document(document, xml_declaration=False)


def _ids(store):
    """Every held document's insertion id, in insertion order."""
    return [doc_id for doc_id, _ in store.candidates(None)]


@pytest.fixture(params=selected_store_kinds())
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
        return
    backend = SqliteStore(str(tmp_path / "repo.sqlite"))
    yield backend
    backend.close()


class TestStoreContract:
    """Every backend satisfies the one DocumentStore contract."""

    def test_satisfies_protocol(self, store):
        assert isinstance(store, DocumentStore)

    def test_add_len_iter_order(self, store):
        documents = _documents()
        for document in documents:
            store.add(document)
        assert len(store) == 3
        assert [_xml(d) for d in store] == [_xml(d) for d in documents]

    def test_drain_takes_all(self, store):
        """With no query every document is a candidate: fetching and
        removing them all is a drain that recovers everything."""
        documents = _documents()
        for document in documents:
            store.add(document)
        ids = _ids(store)
        assert ids == [1, 2, 3]
        fetched = store.fetch(ids)
        assert [_xml(d) for d in fetched] == [_xml(d) for d in documents]
        store.remove(ids)
        assert len(store) == 0
        assert list(store) == []

    def test_drain_empty(self, store):
        assert store.candidates(None) == []
        assert store.fetch([]) == []
        store.remove([])
        assert len(store) == 0

    def test_clear(self, store):
        """Removing every id clears the store: no document, no text,
        and no candidate row left for any query (sqlite deletes the
        index rows with their documents)."""
        for document in _documents():
            store.add(document)
        store.remove(_ids(store))
        assert len(store) == 0
        assert list(store) == []
        assert list(store.texts()) == []
        everything = DrainQuery(vocabulary=("a", "b", "c"), allows_text=True,
                                dtd_root="a", max_depth=0)
        assert store.candidates(everything) == []
        assert store.candidates(None) == []

    def test_add_after_drain(self, store):
        for document in _documents():
            store.add(document)
        store.remove(_ids(store))
        store.add(parse_document("<late/>"))
        assert len(store) == 1
        assert next(iter(store)).root.tag == "late"
        assert _ids(store) == [4]  # insertion ids are never reused

    def test_add_many_preserves_order(self, store):
        documents = _documents()
        store.add_many(documents)
        assert len(store) == 3
        assert [_xml(d) for d in store] == [_xml(d) for d in documents]

    def test_texts_are_the_canonical_text_in_insertion_order(self, store):
        documents = _documents()
        store.add_many(documents)
        store.remove(_ids(store))
        store.add_many([documents[0], documents[2]])
        store.add(parse_document("<late/>"))
        # built through the API: an empty text child, written as <s/>
        store.add(Document(Element("q", children=[Element("s", children=[Text("")])])))
        expected = [_xml(documents[0]), _xml(documents[2]), "<late/>", "<q><s/></q>"]
        assert list(store.texts()) == expected
        assert [_xml(d) for d in store] == expected
        assert len(store) == 4  # reading texts removes nothing

    def test_bulk_window_nests_and_reads_through(self, store):
        with store.bulk():
            store.add(parse_document("<a/>"))
            with store.bulk():
                store.add_many([parse_document("<b/>")])
            # reads inside the window already see every pending add
            assert [d.root.tag for d in store] == ["a", "b"]
        assert [d.root.tag for d in store] == ["a", "b"]

    def test_insertion_ids_keep_order_across_removals(self, store):
        for document in _documents():
            store.add(document)
        ids = [doc_id for doc_id, _ in store.candidates(
            DrainQuery(vocabulary=("a", "b", "c"), allows_text=True,
                       dtd_root="a", max_depth=50)
        )]
        assert ids == [1, 2, 3]
        store.remove([ids[1]])
        assert [d.root.tag for d in store] == ["a", "a"]
        store.add(parse_document("<late/>"))  # appended after the gap
        assert [d.root.tag for d in store] == ["a", "a", "late"]
        assert _ids(store) == [1, 3, 4]
        assert len(store) == 3

    def test_candidates_select_exactly_the_four_conditions(self, store):
        documents = [
            parse_document("<a><b/></a>"),      # vocabulary overlap
            parse_document("<z><q/></z>"),      # nothing: not a candidate
            parse_document("<r><s>txt</s></r>"),  # text leaf (if allowed)
            parse_document("<a><a><a><a/></a></a></a>"),  # deep: height guard
        ]
        for document in documents:
            store.add(document)
        query = DrainQuery(
            vocabulary=("a", "b"), allows_text=False, dtd_root="a", max_depth=3
        )
        rows = store.candidates(query)
        # doc 1 (vocab + root), doc 4 (vocab + height >= 3); never doc 2;
        # doc 3 only when text is allowed
        assert [doc_id for doc_id, _ in rows] == [1, 4]
        with_text = store.candidates(query._replace(allows_text=True))
        assert [doc_id for doc_id, _ in with_text] == [1, 3, 4]
        by_id = dict(rows)
        assert by_id[1].matched == 2 and by_id[1].total_tags == 2
        assert by_id[4].matched == 4 and by_id[4].height == 3
        # each condition alone selects: the root tag, and the depth guard
        alone = DrainQuery(vocabulary=(), allows_text=False, dtd_root="r",
                           max_depth=3)
        assert [doc_id for doc_id, _ in store.candidates(alone)] == [3, 4]

    def test_candidate_rows_reproduce_the_census(self, store):
        """Every row equals profile_document for its document."""
        documents = [
            parse_document("<a><b>x</b><c/><b>y</b></a>"),
            parse_document("<m><n><o>deep</o></n></m>"),
        ]
        for document in documents:
            store.add(document)
        # height >= max_depth 0 makes every document a candidate
        everything = DrainQuery(vocabulary=("b", "zz"), allows_text=True,
                                dtd_root="none", max_depth=0)
        for query in (None, everything):
            rows = store.candidates(query)
            assert len(rows) == len(documents)
            for (doc_id, row), document in zip(rows, documents):
                profile = profile_document(document)
                assert row.total_tags == profile.total_tags
                assert row.matched == (
                    profile.tag_counts.get("b", 0) if query is not None else 0
                )
                assert row.text_count == profile.text_count
                assert row.weight == profile.weight
                assert row.height == profile.height
                assert row.root_tag == profile.root_tag

    def test_fetch_returns_id_order(self, store):
        for document in _documents():
            store.add(document)
        fetched = store.fetch([3, 1])
        assert [d.root.tag for d in fetched] == ["a", "a"]
        assert [_xml(d) for d in fetched] == [
            _xml(_documents()[0]), _xml(_documents()[2])
        ]


class TestSqliteStore:
    def test_round_trips_structure(self, tmp_path):
        store = SqliteStore(str(tmp_path / "r.sqlite"))
        document = parse_document(
            '<a id="1"><b>text &amp; entities</b><c/><!-- gone --></a>'
        )
        store.add(document)
        again = next(iter(store))
        store.close()
        assert _xml(again) == _xml(document)

    def test_resumes_existing_file_with_index(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        first = SqliteStore(path)
        for document in _documents():
            first.add(document)
        rows = self._committed_rows(path, "tags")
        first._connection.close()  # crash: never SqliteStore.close()
        second = SqliteStore(path)
        assert len(second) == 3
        assert [d.root.tag for d in second] == ["a", "b", "a"]
        # the inverted index survived without a rebuild
        assert self._committed_rows(path, "tags") == rows > 0
        second.close()

    def test_temporary_file_is_owned_and_removed(self):
        store = SqliteStore()
        store.add(parse_document("<a/>"))
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)
        assert len(store) == 0
        store.close()  # a second close is a no-op

    def test_named_file_survives_close(self, tmp_path):
        path = str(tmp_path / "kept.sqlite")
        store = SqliteStore(path)
        store.add(parse_document("<a/>"))
        store.close()
        assert os.path.exists(path)

    @staticmethod
    def _committed_rows(path, table="documents"):
        """What a second connection sees — i.e. what is durably committed."""
        import sqlite3

        reader = sqlite3.connect(path)
        try:
            return reader.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        finally:
            reader.close()

    def test_add_many_commits_once(self, tmp_path):
        from repro.perf import PerfCounters

        path = str(tmp_path / "r.sqlite")
        store = SqliteStore(path)
        counters = PerfCounters()
        store.set_counters(counters)
        documents = [parse_document(f"<a><b>x{i}</b></a>") for i in range(10)]
        store.add_many(documents)
        assert counters.ingest_batch_commits == 1
        assert self._committed_rows(path) == 10
        assert [_xml(d) for d in store] == [_xml(d) for d in documents]
        store.close()

    def test_bulk_window_groups_transactions(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        store = SqliteStore(path)
        with store.bulk():
            for i in range(4):
                store.add(parse_document(f"<a><b>x{i}</b></a>"))
            # own-connection reads see pending rows; other connections don't
            assert len(list(store)) == 4
            assert self._committed_rows(path) == 0
        assert self._committed_rows(path) == 4
        store.close()

    def test_close_commits_pending_inserts(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        store = SqliteStore(path)
        with store.bulk():
            store.add(parse_document("<a/>"))
            assert self._committed_rows(path) == 0
            store.close()  # a shutdown inside an open window
            assert self._committed_rows(path) == 1

    def test_drain_commits_pending_inserts_first(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        store = SqliteStore(path)
        with store.bulk():
            for document in _documents():
                store.add(document)
            ids = _ids(store)
            assert [d.root.tag for d in store.fetch(ids)] == ["a", "b", "a"]
            store.remove(ids)
            assert self._committed_rows(path) == 0
            store.add(parse_document("<late/>"))
        assert len(store) == 1
        store.close()
        assert self._committed_rows(path) == 1


class TestMakeStore:
    def test_default_and_memory(self):
        assert isinstance(make_store(), MemoryStore)
        assert isinstance(make_store("memory"), MemoryStore)

    def test_instance_passes_through(self):
        store = MemoryStore()
        assert make_store(store) is store

    def test_sqlite_with_and_without_path(self, tmp_path):
        named = make_store("sqlite", str(tmp_path / "x.sqlite"))
        assert isinstance(named, SqliteStore)
        named.close()
        anonymous = make_store("sqlite")
        assert isinstance(anonymous, SqliteStore)
        anonymous.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown store kind"):
            make_store("leveldb")

    def test_store_kind_tags(self, tmp_path):
        assert store_kind(MemoryStore()) == "memory"
        sqlite_store = SqliteStore(str(tmp_path / "k.sqlite"))
        assert store_kind(sqlite_store) == "sqlite"
        sqlite_store.close()

    def test_other_store_objects_rejected(self, tmp_path):
        """Only the two backends exist: any other object passed as a
        store raises ``TypeError`` wherever a store is accepted."""
        from repro.core.engine import XMLSource
        from repro.core.persistence import load_source, save_source

        class Lookalike:
            """Has the whole store surface without being a store."""

            def __getattr__(self, name):
                return getattr(MemoryStore(), name)

        path = str(tmp_path / "state.json")
        save_source(XMLSource([]), path)
        for make in (
            lambda store: make_store(store),
            lambda store: XMLSource([], store=store),
            lambda store: load_source(path, store=store),
        ):
            for bogus in (Lookalike(), object(), 3):
                with pytest.raises(TypeError, match="unsupported document store"):
                    make(bogus)


class TestRepositoryDelegation:
    def test_defaults_to_memory(self):
        assert isinstance(Repository().store, MemoryStore)

    def test_delegates_to_configured_store(self, tmp_path):
        backing = SqliteStore(str(tmp_path / "repo.sqlite"))
        repository = Repository(backing)
        repository.add(parse_document("<a/>"))
        assert len(repository) == 1
        assert len(backing) == 1
        ids = [doc_id for doc_id, _ in repository.candidates(None)]
        assert repository.fetch(ids)[0].root.tag == "a"
        repository.remove(ids)
        assert len(repository) == 0 and len(backing) == 0
        backing.close()

    def test_repr_counts(self):
        repository = Repository()
        repository.add(parse_document("<a/>"))
        assert "1 documents" in repr(repository)


class TestSqliteThreadHandoff:
    def test_connection_may_move_between_serialized_threads(self, tmp_path):
        """Serve mode creates the store on the main thread and applies
        every write on the single writer thread; sqlite's per-thread
        pinning must not forbid that externally serialized handoff."""
        import threading

        store = SqliteStore(str(tmp_path / "handoff.sqlite"))
        store.add(parse_document("<a><b>main</b></a>"))
        failures = []

        def worker():
            try:
                store.add(parse_document("<a><b>worker</b></a>"))
                assert len(store) == 2
                assert [doc.root.children[0].text() for doc in store] == [
                    "main", "worker",
                ]
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert failures == []
        assert len(store.fetch(_ids(store))) == 2
        store.close()
