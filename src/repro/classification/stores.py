"""The two document stores backing the repository.

The repository of Section 2 is, operationally, an ordered multiset of
documents with three lifecycle operations: *deposit* (a document no
DTD describes well enough), *inspection* (iteration for clustering,
and :meth:`~DocumentStore.texts` — the stored text, unparsed — for
snapshots), and *drain* (re-classify the held documents after an
evolution and remove the recovered ones).  :class:`DocumentStore`
states that contract; two backends implement all of it, and
:func:`make_store` accepts no other:

- :class:`MemoryStore` — an in-process insertion-ordered map, persisting
  nothing;
- :class:`SqliteStore` — the one persisted backend: documents on disk
  with a persistent inverted tag→document index, so the pruned
  post-evolution drain's candidate screen is an index query.

Write-path throughput: both accept :meth:`~DocumentStore.add_many` (the
bulk contract — semantically a loop of ``add``, but one transaction on
sqlite) and a nestable ``bulk()`` context manager that defers
per-document durability work (the sqlite commit) until the outermost
window closes; in memory both are plain inserts.

Drain contract: every document has a monotone insertion id, and a
store answers :meth:`~DocumentStore.candidates` — for a
:class:`DrainQuery`, the sound over-approximation of documents whose
tier-3 bound against one DTD may be non-zero; for ``None``, every
document — plus :meth:`~DocumentStore.fetch` and
:meth:`~DocumentStore.remove` by insertion id.  Sqlite applies the
query's four conditions in SQL over its index, memory applies the same
four in Python over each document's :func:`profile_document`; the two
return the same ids and rows for the same documents.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from contextlib import contextmanager
from typing import (
    AbstractSet,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.xmltree.document import Document, Element
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document


class DocumentProfile(NamedTuple):
    """Everything the tier-3 vocabulary-overlap bound needs, from one
    cheap pass over a document.

    This is the single census implementation shared by the classifier
    and both stores, so the profile :class:`SqliteStore` persists at
    ``add`` time is exactly the one the classifier and
    :class:`MemoryStore` compute from the document.
    """

    tag_counts: Dict[str, int]
    text_count: int
    weight: float
    height: int
    root_tag: str

    @property
    def total_tags(self) -> int:
        return sum(self.tag_counts.values())

    def matched(self, vocabulary: AbstractSet[str]) -> int:
        """How many element vertices carry a tag in ``vocabulary``."""
        matched = 0
        for tag, count in self.tag_counts.items():
            if tag in vocabulary:
                matched += count
        return matched


def profile_document(document: Document) -> DocumentProfile:
    """One cheap pass over a document: everything the bounds need."""
    root = document.root
    tag_counts: Dict[str, int] = {}
    text_count = 0
    stack = [root]
    while stack:
        element = stack.pop()
        tag_counts[element.tag] = tag_counts.get(element.tag, 0) + 1
        for child in element.children:
            if isinstance(child, Element):
                stack.append(child)
            elif child.value.strip():
                text_count += 1
    info = root.structure_info()
    return DocumentProfile(
        tag_counts=tag_counts,
        text_count=text_count,
        weight=info.weight,
        height=info.height,
        root_tag=root.tag,
    )


class DrainQuery(NamedTuple):
    """The candidate conditions of one DTD, pushed down into the store.

    A stored document's acceptance bound against the DTD is provably
    exactly 0.0 — hence safely skippable for any ``sigma > 0`` — unless
    at least one of these holds:

    - some document tag is in ``vocabulary`` (matched weight > 0);
    - ``height >= max_depth`` (no sound bound: must be classified);
    - ``root_tag == dtd_root`` (the root vertex anchors common weight);
    - ``allows_text`` and the document has non-whitespace text leaves.

    ``candidates`` returns exactly the union of those four sets, in
    insertion order, with the per-document matched-tag total so the
    caller can recompute the exact bound in Python (never SQL floats).
    """

    vocabulary: Tuple[str, ...]
    allows_text: bool
    dtd_root: str
    max_depth: int


class CandidateRow(NamedTuple):
    """One candidate's profile, as the bound consumes it: ``matched``
    counts the element vertices whose tag is in the query vocabulary
    (0 when there is no query)."""

    total_tags: int
    matched: int
    text_count: int
    weight: float
    height: int
    root_tag: str


@runtime_checkable
class DocumentStore(Protocol):
    """The storage contract behind :class:`~repro.classification.repository.Repository`,
    implemented in full by :class:`MemoryStore` and :class:`SqliteStore`.

    Implementations must preserve insertion order and must not copy
    semantics: a removed document is *gone* from the store (the sqlite
    store returns structurally identical re-parsed documents).
    """

    def add(self, document: Document) -> None:
        """Append one document under the next insertion id."""

    def add_many(self, documents: Iterable[Document]) -> None:
        """Append documents in order — the bulk-ingestion contract:
        semantically identical to looping :meth:`add`, with the
        durability work batched into one transaction on sqlite."""

    def bulk(self) -> ContextManager["DocumentStore"]:
        """A nestable batched-ingestion window: per-document durability
        work is deferred until the outermost window closes."""

    def __len__(self) -> int:
        """Number of documents currently held."""

    def __iter__(self) -> Iterator[Document]:
        """Iterate the held documents in insertion order (no removal)."""

    def texts(self) -> Iterator[str]:
        """The canonical text of each held document, in insertion order
        (no removal, no parse): ``serialize_document(d,
        xml_declaration=False)`` — what snapshots copy.  The sqlite
        store returns the text it wrote at :meth:`add`."""

    def candidates(
        self, query: Optional[DrainQuery]
    ) -> List[Tuple[int, CandidateRow]]:
        """``(insertion id, profile row)`` pairs in insertion order: the
        documents meeting at least one :class:`DrainQuery` condition,
        or every document when ``query`` is ``None``."""

    def fetch(self, ids: Sequence[int]) -> List[Document]:
        """The held documents with these insertion ids, in id order."""

    def remove(self, ids: Sequence[int]) -> None:
        """Delete the documents with these insertion ids; every other
        document keeps its id, hence its insertion order."""


class MemoryStore:
    """The in-RAM store: documents by monotone insertion id (from 1, as
    on sqlite) in an insertion-ordered dict.

    Profiles are not kept: :meth:`candidates` computes each document's
    :func:`profile_document` when asked and applies the
    :class:`DrainQuery` conditions to it in Python.
    """

    def __init__(self) -> None:
        self._documents: Dict[int, Document] = {}
        self._next_id = 1

    def add(self, document: Document) -> None:
        self._documents[self._next_id] = document
        self._next_id += 1

    def add_many(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    @contextmanager
    def bulk(self) -> Iterator["MemoryStore"]:
        """No deferred durability work in RAM — a no-op window."""
        yield self

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def texts(self) -> Iterator[str]:
        for document in self._documents.values():
            yield serialize_document(document, xml_declaration=False)

    def candidates(
        self, query: Optional[DrainQuery]
    ) -> List[Tuple[int, CandidateRow]]:
        """:meth:`SqliteStore.candidates`, with the four conditions
        applied in Python to each document's profile."""
        vocabulary = frozenset(query.vocabulary if query is not None else ())
        rows: List[Tuple[int, CandidateRow]] = []
        for doc_id, document in self._documents.items():
            profile = profile_document(document)
            matched = profile.matched(vocabulary)
            if query is None or (
                matched > 0
                or profile.height >= query.max_depth
                or profile.root_tag == query.dtd_root
                or (query.allows_text and profile.text_count > 0)
            ):
                rows.append(
                    (
                        doc_id,
                        CandidateRow(
                            total_tags=profile.total_tags,
                            matched=matched,
                            text_count=profile.text_count,
                            weight=profile.weight,
                            height=profile.height,
                            root_tag=profile.root_tag,
                        ),
                    )
                )
        return rows

    def fetch(self, ids: Sequence[int]) -> List[Document]:
        """The documents themselves (not copies), in insertion-id order."""
        documents = self._documents
        return [documents[doc_id] for doc_id in sorted(ids) if doc_id in documents]

    def remove(self, ids: Sequence[int]) -> None:
        for doc_id in ids:
            self._documents.pop(doc_id, None)

    def __repr__(self) -> str:
        return f"MemoryStore({len(self._documents)} documents)"


class SqliteStore:
    """The persisted store: documents on disk with a persistent inverted
    tag index.

    Each document is persisted alongside its :class:`DocumentProfile`
    (tag vocabulary with counts, text-leaf count, weight, height, root
    tag) under a monotonically increasing insertion id.  The ``tags``
    table is the inverted tag→document index that lets the pruned
    post-evolution drain select candidate documents with an index query
    (:meth:`candidates`) instead of scanning every document.

    Opening an existing path resumes it — the index is already on disk,
    so resume costs a row count, not a rebuild.  When ``path`` is
    omitted a private temporary database is created and removed again
    by :meth:`close`.

    Write-path policy: :meth:`add` commits each insert on its own,
    while :meth:`add_many` and :meth:`bulk` windows commit once at the
    end.  Reads on this store's own connection always see pending
    inserts, and :meth:`close` commits them.  Removed rows' pages stay
    in the file for later inserts (no ``VACUUM``).
    """

    _SCHEMA = (
        """
        CREATE TABLE IF NOT EXISTS documents (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            xml TEXT NOT NULL,
            total_tags INTEGER NOT NULL,
            text_count INTEGER NOT NULL,
            weight REAL NOT NULL,
            height INTEGER NOT NULL,
            root_tag TEXT NOT NULL
        )
        """,
        """
        CREATE TABLE IF NOT EXISTS tags (
            doc_id INTEGER NOT NULL REFERENCES documents(id) ON DELETE CASCADE,
            tag TEXT NOT NULL,
            count INTEGER NOT NULL,
            PRIMARY KEY (tag, doc_id)
        ) WITHOUT ROWID
        """,
        "CREATE INDEX IF NOT EXISTS idx_tags_doc ON tags(doc_id)",
        "CREATE INDEX IF NOT EXISTS idx_documents_height ON documents(height)",
        "CREATE INDEX IF NOT EXISTS idx_documents_root ON documents(root_tag)",
        "CREATE INDEX IF NOT EXISTS idx_documents_text ON documents(text_count)",
    )

    def __init__(self, path: Optional[str] = None) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-repository-", suffix=".sqlite")
            os.close(handle)
            self._owns_path = True
        else:
            self._owns_path = False
        self.path = path
        self._pending = 0
        self._bulk_depth = 0
        self._counters = None
        # check_same_thread=False: the store is handed between threads
        # whose access is already externally serialized (serve mode's
        # single-writer executor) — never used from two threads at once,
        # so sqlite's per-thread pinning would only forbid safe usage
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA foreign_keys = ON")
        # committed transactions survive a *process* crash either way;
        # synchronous=OFF only trades OS-crash durability for not
        # paying an fsync per deposit, which is the right trade for a
        # re-buildable repository spill
        self._connection.execute("PRAGMA synchronous = OFF")
        for statement in self._SCHEMA:
            self._connection.execute(statement)
        self._connection.commit()
        row = self._connection.execute("SELECT COUNT(*) FROM documents").fetchone()
        self._count = int(row[0])

    # -- plain DocumentStore contract ----------------------------------

    def set_counters(self, counters) -> None:
        """Attach a :class:`~repro.perf.counters.PerfCounters` so batch
        commits are observable."""
        self._counters = counters

    def _insert(self, document: Document) -> None:
        xml = serialize_document(document, xml_declaration=False)
        profile = profile_document(document)
        cursor = self._connection.execute(
            "INSERT INTO documents (xml, total_tags, text_count, weight, height, root_tag)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                xml,
                profile.total_tags,
                profile.text_count,
                profile.weight,
                profile.height,
                profile.root_tag,
            ),
        )
        doc_id = cursor.lastrowid
        self._connection.executemany(
            "INSERT INTO tags (doc_id, tag, count) VALUES (?, ?, ?)",
            [(doc_id, tag, count) for tag, count in profile.tag_counts.items()],
        )
        self._pending += 1
        self._count += 1

    def _flush(self) -> None:
        if self._pending == 0:
            return
        self._connection.commit()
        if self._pending > 1 and self._counters is not None:
            self._counters.ingest_batch_commits += 1
        self._pending = 0

    def add(self, document: Document) -> None:
        self._insert(document)
        if self._bulk_depth == 0:
            self._flush()

    def add_many(self, documents: Iterable[Document]) -> None:
        with self.bulk():
            for document in documents:
                self._insert(document)

    @contextmanager
    def bulk(self) -> Iterator["SqliteStore"]:
        """One transaction for every insert until the outermost window
        closes.  Reads on this connection still see the pending rows."""
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                self._flush()

    def __len__(self) -> int:
        return self._count

    def texts(self) -> Iterator[str]:
        """The ``xml`` column in insertion order, pending inserts
        included (they are visible on this connection)."""
        for (xml,) in self._connection.execute(
            "SELECT xml FROM documents ORDER BY id"
        ):
            yield xml

    def __iter__(self) -> Iterator[Document]:
        return map(parse_document, self.texts())

    def close(self) -> None:
        """Commit pending inserts and close; delete the file if owned.
        Closing again is a no-op."""
        self._flush()
        self._connection.close()
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)
        self._count = 0

    # -- drain -----------------------------------------------------------

    def candidates(
        self, query: Optional[DrainQuery]
    ) -> List[Tuple[int, CandidateRow]]:
        """The sound candidate set for one DTD's pruned drain.

        Returns ``(insertion id, profile row)`` pairs in insertion
        order for exactly the documents matching at least one
        :class:`DrainQuery` condition; every other document provably
        has tier-3 bound 0.0.  ``matched`` is the summed count of
        document tags inside the DTD vocabulary — an exact integer, so
        the caller computes the bound's float arithmetic in Python,
        exactly as classification does.  With ``query`` ``None``,
        every document is a candidate (``matched`` 0).
        """
        connection = self._connection
        if query is None:
            rows = connection.execute(
                "SELECT id, total_tags, 0, text_count, weight, height, root_tag"
                " FROM documents ORDER BY id"
            ).fetchall()
            return self._candidate_rows(rows)
        connection.execute(
            "CREATE TEMP TABLE IF NOT EXISTS drain_vocab (tag TEXT PRIMARY KEY)"
        )
        connection.execute("DELETE FROM drain_vocab")
        connection.executemany(
            "INSERT OR IGNORE INTO drain_vocab (tag) VALUES (?)",
            [(tag,) for tag in query.vocabulary],
        )
        rows = connection.execute(
            """
            SELECT d.id, d.total_tags, COALESCE(m.matched, 0), d.text_count,
                   d.weight, d.height, d.root_tag
            FROM documents d
            JOIN (
                SELECT DISTINCT t.doc_id AS id
                FROM tags t JOIN drain_vocab v ON v.tag = t.tag
                UNION SELECT id FROM documents WHERE height >= :max_depth
                UNION SELECT id FROM documents WHERE root_tag = :root
                UNION SELECT id FROM documents WHERE text_count > 0 AND :allows_text
            ) hits ON hits.id = d.id
            LEFT JOIN (
                SELECT t.doc_id, SUM(t.count) AS matched
                FROM tags t JOIN drain_vocab v ON v.tag = t.tag
                GROUP BY t.doc_id
            ) m ON m.doc_id = d.id
            ORDER BY d.id
            """,
            {
                "max_depth": query.max_depth,
                "root": query.dtd_root,
                "allows_text": 1 if query.allows_text else 0,
            },
        ).fetchall()
        connection.execute("DELETE FROM drain_vocab")
        return self._candidate_rows(rows)

    @staticmethod
    def _candidate_rows(rows) -> List[Tuple[int, CandidateRow]]:
        """Typed ``(id, row)`` pairs from a candidate ``SELECT``."""
        return [
            (
                int(doc_id),
                CandidateRow(
                    total_tags=int(total),
                    matched=int(matched),
                    text_count=int(text),
                    weight=float(weight),
                    height=int(height),
                    root_tag=root_tag,
                ),
            )
            for doc_id, total, matched, text, weight, height, root_tag in rows
        ]

    def fetch(self, ids: Sequence[int]) -> List[Document]:
        """Parse and return the documents with the given insertion ids,
        in insertion-id order (one batched query per 500 ids)."""
        documents: List[Document] = []
        ids = sorted(ids)
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            placeholders = ",".join("?" for _ in chunk)
            for _, xml in self._connection.execute(
                f"SELECT id, xml FROM documents WHERE id IN ({placeholders})"
                " ORDER BY id",
                chunk,
            ):
                documents.append(parse_document(xml))
        return documents

    def remove(self, ids: Sequence[int]) -> None:
        """Delete the documents (and their index rows) with these ids;
        every other document keeps its id, hence its insertion order."""
        removed = 0
        ids = list(ids)
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            placeholders = ",".join("?" for _ in chunk)
            self._connection.execute(
                f"DELETE FROM tags WHERE doc_id IN ({placeholders})", chunk
            )
            cursor = self._connection.execute(
                f"DELETE FROM documents WHERE id IN ({placeholders})", chunk
            )
            removed += cursor.rowcount
        self._connection.commit()
        self._pending = 0
        self._count -= removed

    def __repr__(self) -> str:
        return f"SqliteStore({self._count} documents at {self.path!r})"


#: the named backends ``make_store`` (and the CLI ``--store`` flag) accept
STORE_KINDS = ("memory", "sqlite")


def store_kind(store: DocumentStore) -> str:
    """The snapshot tag for a store instance: ``"sqlite"`` or
    ``"memory"``."""
    return "sqlite" if isinstance(store, SqliteStore) else "memory"


def make_store(
    spec: Union[None, str, MemoryStore, SqliteStore] = None,
    path: Optional[str] = None,
) -> DocumentStore:
    """Resolve a store spec: ``None``/``"memory"`` → :class:`MemoryStore`,
    ``"sqlite"`` → :class:`SqliteStore` (at ``path``, or a temporary
    database the store deletes on close), and a :class:`MemoryStore` or
    :class:`SqliteStore` instance passes through unchanged.  An unknown
    kind name raises ``ValueError``; any other object raises
    ``TypeError`` — there is no third backend."""
    if spec is None or spec == "memory":
        return MemoryStore()
    if spec == "sqlite":
        return SqliteStore(path)
    if isinstance(spec, str):
        raise ValueError(
            f"unknown store kind {spec!r} (expected one of {', '.join(STORE_KINDS)})"
        )
    if isinstance(spec, (MemoryStore, SqliteStore)):
        return spec
    raise TypeError(
        f"unsupported document store {spec!r} (expected a kind name, "
        "a MemoryStore or a SqliteStore)"
    )
