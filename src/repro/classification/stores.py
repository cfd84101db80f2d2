"""Pluggable document stores backing the repository.

The repository of Section 2 is, operationally, an ordered multiset of
documents with exactly three lifecycle operations: *deposit* (a document
no DTD describes well enough), *inspection* (iteration for clustering,
and :meth:`~DocumentStore.texts` — the stored text, unparsed — for
snapshots), and *drain* (remove documents for re-classification after
an evolution).  :class:`DocumentStore` captures that contract so
the backing representation can vary without touching the pipeline:

- :class:`MemoryStore` — a plain in-process list (the seed behaviour);
- :class:`JsonlStore` — spill-to-disk, one JSON-encoded XML document per
  line across a compacting sequence of segment files, so a very large
  repository neither lives in RAM nor grows without bound under
  sustained deposit/drain churn;
- :class:`SqliteStore` — spill-to-disk with a persistent inverted
  tag→document index, so the pruned post-evolution drain becomes an
  index lookup instead of a whole-repository scan.

Drain semantics (the single, consolidated API): ``drain(accepts=None)``
removes and returns the documents ``accepts`` matches — all of them when
``accepts`` is ``None`` — while non-matching documents stay, in order.

Write-path throughput: every backend accepts :meth:`add_many` (the bulk
contract — semantically a loop of :meth:`add`, but batched under one
flush/transaction where the backend can) and a nestable ``bulk()``
context manager that defers per-document durability work (the jsonl
flush, the sqlite commit) until the outermost window closes.  Callers
that only know the protocol go through
:meth:`~repro.classification.repository.Repository.add_many` /
``Repository.bulk``, which degrade to the per-document path for stores
without the capability.

Indexed capability (optional — duck-typed via
``supports_indexed_drain``): a store that persists each document's
tag-vocabulary profile can answer :meth:`SqliteStore.candidates` — the
sound over-approximation of documents whose tier-3 acceptance bound
against one DTD may be non-zero — plus :meth:`SqliteStore.fetch` and
:meth:`SqliteStore.remove` by insertion id.  Plain stores simply lack
the attribute and the drain falls back to the scan path.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import tempfile
import warnings
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
    Union,
)

try:  # Protocol is typing-only plumbing; 3.9+ always has it
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - pre-3.8 fallback, never hit
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro.xmltree.document import Document, Element
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

#: what an ``accepts`` predicate looks like
DrainPredicate = Callable[[Document], bool]


class DocumentProfile(NamedTuple):
    """Everything the tier-3 vocabulary-overlap bound needs, from one
    cheap pass over a document.

    This is the single census implementation shared by the classifier
    (``_DocumentCensus`` is an alias) and the indexed store, so the
    profile persisted at :meth:`SqliteStore.add` time is byte-for-byte
    the census the scan path would recompute at drain time.
    """

    tag_counts: Dict[str, int]
    text_count: int
    weight: float
    height: int
    root_tag: str

    @property
    def total_tags(self) -> int:
        return sum(self.tag_counts.values())


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
    """One candidate's persisted profile, as the bound consumes it."""

    total_tags: int
    matched: int
    text_count: int
    weight: float
    height: int
    root_tag: str


@runtime_checkable
class DocumentStore(Protocol):
    """The storage contract behind :class:`~repro.classification.repository.Repository`.

    Implementations must preserve insertion order and must not copy
    semantics: a drained document is *gone* from the store (disk-backed
    stores return structurally identical re-parsed documents).
    """

    def add(self, document: Document) -> None:
        """Append one document."""

    def add_many(self, documents: Iterable[Document]) -> None:
        """Append documents in order — the bulk-ingestion contract.

        Semantically identical to looping :meth:`add`; backends batch
        the durability work (one flush, one transaction) where they
        can.  The default loops :meth:`add`.
        """
        for document in documents:
            self.add(document)

    def __len__(self) -> int:
        """Number of documents currently held."""

    def __iter__(self) -> Iterator[Document]:
        """Iterate the held documents in insertion order (no removal)."""

    def texts(self) -> Iterator[str]:
        """The canonical text of each held document, in insertion order
        (no removal, no parse): ``serialize_document(d,
        xml_declaration=False)`` — what snapshots copy.

        Disk-backed stores return the text they wrote at :meth:`add`.
        The default serializes each document :meth:`__iter__` yields.
        """
        for document in self:
            yield serialize_document(document, xml_declaration=False)

    def drain(self, accepts: Optional[DrainPredicate] = None) -> List[Document]:
        """Remove and return matching documents (all when ``accepts`` is
        ``None``); non-matching documents stay, in order."""

    def clear(self) -> None:
        """Discard every held document."""


class MemoryStore:
    """The in-RAM store — a plain ordered list (the seed behaviour)."""

    def __init__(self) -> None:
        self._documents: List[Document] = []

    def add(self, document: Document) -> None:
        self._documents.append(document)

    def add_many(self, documents: Iterable[Document]) -> None:
        self._documents.extend(documents)

    @contextmanager
    def bulk(self) -> Iterator["MemoryStore"]:
        """No deferred durability work in RAM — a no-op window."""
        yield self

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def texts(self) -> Iterator[str]:
        for document in self._documents:
            yield serialize_document(document, xml_declaration=False)

    def drain(self, accepts: Optional[DrainPredicate] = None) -> List[Document]:
        if accepts is None:
            drained = self._documents
            self._documents = []
            return drained
        drained: List[Document] = []
        remaining: List[Document] = []
        for document in self._documents:
            (drained if accepts(document) else remaining).append(document)
        self._documents = remaining
        return drained

    def clear(self) -> None:
        self._documents.clear()

    def __repr__(self) -> str:
        return f"MemoryStore({len(self._documents)} documents)"


class _Segment:
    """One jsonl segment file with its live/dead record counts."""

    __slots__ = ("path", "live", "dead")

    def __init__(self, path: str, live: int = 0, dead: int = 0) -> None:
        self.path = path
        self.live = live
        self.dead = dead

    @property
    def records(self) -> int:
        return self.live + self.dead


class JsonlStore:
    """A spill-to-disk store: one ``[id, xml]`` JSON record per line
    across a compacting sequence of segment files.

    Documents are serialized on :meth:`add` and re-parsed on access, so
    only per-segment counts and the tombstone set live in RAM; a
    million-document repository costs files, not a heap.  Appends land
    in the *active* segment (``path`` itself at first, then
    ``path.seg1``, ``path.seg2``, … sealed every ``segment_records``
    records), through a lazily-opened handle held until :meth:`close`.

    Predicate drains never rewrite the whole repository: matched record
    ids are appended to a sidecar tombstone log (``path.tombstones``)
    and skipped on every later read.  Whenever a segment's tombstoned
    fraction reaches ``compact_ratio`` the segment alone is rewritten —
    kept lines copied verbatim to ``<segment>.compact-tmp``, which
    atomically replaces the segment — and the reclaimed ids leave the
    tombstone log, so sustained deposit/drain churn stays bounded on
    disk.  A full ``drain()`` (or :meth:`clear`) instead resets to a
    single empty base segment with no sidecar files at all.

    Crash safety: a stale ``.compact-tmp`` is discarded on open (the
    original segment is still intact), and tombstone ids whose records
    are already gone (a crash between the segment replace and the log
    rewrite) are filtered out by intersecting the log with the ids
    actually on disk.  Record ids are embedded, monotone, and never
    reused; legacy single-file stores (plain JSON-string lines) are
    migrated in place on first open.

    When ``path`` is omitted a private temporary file is created and
    removed again by :meth:`close`.  Inside a :meth:`bulk` window the
    per-add flush is deferred until the window closes.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        segment_records: int = 4096,
        compact_ratio: float = 0.5,
    ) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-repository-", suffix=".jsonl")
            os.close(handle)
            self._owns_path = True
        else:
            self._owns_path = False
        self.path = path
        self.segment_records = max(1, int(segment_records))
        self.compact_ratio = compact_ratio
        self._count = 0
        self._next_id = 0
        self._append: Optional[TextIO] = None
        self._bulk_depth = 0
        self._bulk_adds = 0
        self._counters = None
        self._tombstones: Set[int] = set()
        self._segments: List[_Segment] = []
        self._load()

    # -- open/resume ----------------------------------------------------

    @property
    def _tombstone_path(self) -> str:
        return self.path + ".tombstones"

    def _load(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        base = os.path.basename(self.path)
        seg_pattern = re.compile(re.escape(base) + r"\.seg(\d+)$")
        numbered: List[Tuple[int, str]] = []
        for name in os.listdir(directory):
            full = os.path.join(directory, name)
            if name.startswith(base) and name.endswith(".compact-tmp"):
                # a compaction that crashed before its os.replace — the
                # original segment is intact, the partial copy is noise
                os.remove(full)
            else:
                match = seg_pattern.fullmatch(name)
                if match:
                    numbered.append((int(match.group(1)), full))
        if not os.path.exists(self.path):
            # make the base segment exist so reads never special-case
            open(self.path, "w", encoding="utf-8").close()
        seg_paths = [self.path] + [p for _, p in sorted(numbered)]

        raw_tombstones: Set[int] = set()
        if os.path.exists(self._tombstone_path):
            with open(self._tombstone_path, "r", encoding="utf-8") as log:
                for line in log:
                    stripped = line.strip()
                    if stripped:
                        raw_tombstones.add(int(stripped))

        segments: List[_Segment] = []
        present: Set[int] = set()
        max_id = -1
        legacy = False
        for seg_path in seg_paths:
            segment = _Segment(seg_path)
            with open(seg_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    value = json.loads(stripped)
                    if isinstance(value, list):
                        rec_id = int(value[0])
                        present.add(rec_id)
                        if rec_id > max_id:
                            max_id = rec_id
                        if rec_id in raw_tombstones:
                            segment.dead += 1
                        else:
                            segment.live += 1
                    else:
                        legacy = True
                        segment.live += 1
            segments.append(segment)

        if legacy:
            self._assign_legacy_ids(seg_paths, max_id)
            self._load()  # exactly one more pass: everything embedded now
            return

        self._segments = segments
        self._tombstones = raw_tombstones & present
        self._next_id = max_id + 1
        self._count = sum(segment.live for segment in segments)
        if raw_tombstones - self._tombstones:
            # stale ids from a compaction interrupted before its log
            # rewrite — their records are gone, drop them from the log
            self._rewrite_tombstone_log()

    def _assign_legacy_ids(self, seg_paths: Sequence[str], max_id: int) -> None:
        """One-time migration: plain JSON-string lines gain embedded ids."""
        next_id = max_id + 1
        for seg_path in seg_paths:
            entries: List[str] = []
            dirty = False
            with open(seg_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    value = json.loads(stripped)
                    if isinstance(value, list):
                        entries.append(stripped + "\n")
                    else:
                        entries.append(json.dumps([next_id, value]) + "\n")
                        next_id += 1
                        dirty = True
            if dirty:
                tmp = seg_path + ".compact-tmp"
                with open(tmp, "w", encoding="utf-8") as out:
                    out.writelines(entries)
                os.replace(tmp, seg_path)

    # -- write path -----------------------------------------------------

    def set_counters(self, counters) -> None:
        """Attach a :class:`~repro.perf.counters.PerfCounters` so
        compaction and batch-flush activity is observable."""
        self._counters = counters

    def _close_append(self) -> None:
        # after os.replace the old handle would write to a deleted
        # inode, so every path that replaces/truncates a segment closes
        # the append handle first
        if self._append is not None:
            self._append.close()
            self._append = None

    def _seal_segment(self) -> _Segment:
        self._close_append()
        path = f"{self.path}.seg{len(self._segments)}"
        open(path, "w", encoding="utf-8").close()
        segment = _Segment(path)
        self._segments.append(segment)
        return segment

    def add(self, document: Document) -> None:
        xml = serialize_document(document, xml_declaration=False)
        segment = self._segments[-1]
        if segment.records >= self.segment_records:
            segment = self._seal_segment()
        if self._append is None:
            self._append = open(segment.path, "a", encoding="utf-8")
        self._append.write(json.dumps([self._next_id, xml]) + "\n")
        if self._bulk_depth == 0:
            # keep on-disk state current so concurrent readers (resume,
            # snapshots taken via a second store on the same path) see it
            self._append.flush()
        else:
            self._bulk_adds += 1
        segment.live += 1
        self._next_id += 1
        self._count += 1

    def add_many(self, documents: Iterable[Document]) -> None:
        with self.bulk():
            for document in documents:
                self.add(document)

    @contextmanager
    def bulk(self) -> Iterator["JsonlStore"]:
        """Defer the per-add flush until the outermost window closes."""
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                if self._append is not None:
                    self._append.flush()
                if self._bulk_adds > 1 and self._counters is not None:
                    self._counters.ingest_batch_commits += 1
                self._bulk_adds = 0

    # -- read path ------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def _read_segment(self, path: str) -> Iterator[Tuple[int, str]]:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped:
                    continue
                rec_id, xml = json.loads(stripped)
                yield int(rec_id), xml

    def texts(self) -> Iterator[str]:
        """The record lines' XML, tombstoned records skipped."""
        if self._append is not None:
            self._append.flush()
        for segment in self._segments:
            for rec_id, xml in self._read_segment(segment.path):
                if rec_id not in self._tombstones:
                    yield xml

    def __iter__(self) -> Iterator[Document]:
        return map(parse_document, self.texts())

    # -- drain + compaction ---------------------------------------------

    def drain(self, accepts: Optional[DrainPredicate] = None) -> List[Document]:
        self._close_append()
        if accepts is None:
            drained = list(self)
            self.clear()
            return drained
        drained: List[Document] = []
        fresh: List[int] = []
        for segment in self._segments:
            for rec_id, xml in self._read_segment(segment.path):
                if rec_id in self._tombstones:
                    continue
                document = parse_document(xml)
                if accepts(document):
                    drained.append(document)
                    fresh.append(rec_id)
                    segment.live -= 1
                    segment.dead += 1
        if fresh:
            # tombstones are durable before any segment is rewritten, so
            # a crash at any point never resurrects a drained document
            with open(self._tombstone_path, "a", encoding="utf-8") as log:
                log.writelines(f"{rec_id}\n" for rec_id in fresh)
            self._tombstones.update(fresh)
            self._count -= len(fresh)
            self._maybe_compact()
        return drained

    def _maybe_compact(self) -> None:
        compacted = False
        for segment in self._segments:
            if segment.dead and segment.dead / segment.records >= self.compact_ratio:
                self._compact_segment(segment)
                compacted = True
        if compacted:
            self._rewrite_tombstone_log()

    def _compact_segment(self, segment: _Segment) -> None:
        if segment is self._segments[-1]:
            self._close_append()
        old_size = os.path.getsize(segment.path)
        tmp = segment.path + ".compact-tmp"
        dropped: Set[int] = set()
        with open(segment.path, "r", encoding="utf-8") as source, open(
            tmp, "w", encoding="utf-8"
        ) as keep:
            for line in source:
                stripped = line.strip()
                if not stripped:
                    continue
                rec_id = int(json.loads(stripped)[0])
                if rec_id in self._tombstones:
                    dropped.add(rec_id)
                else:
                    keep.write(stripped + "\n")
        os.replace(tmp, segment.path)
        self._tombstones -= dropped
        segment.dead = 0
        if self._counters is not None:
            self._counters.segments_compacted += 1
            self._counters.compaction_bytes_reclaimed += max(
                0, old_size - os.path.getsize(segment.path)
            )

    def _rewrite_tombstone_log(self) -> None:
        if not self._tombstones:
            if os.path.exists(self._tombstone_path):
                os.remove(self._tombstone_path)
            return
        tmp = self._tombstone_path + ".compact-tmp"
        with open(tmp, "w", encoding="utf-8") as log:
            log.writelines(f"{rec_id}\n" for rec_id in sorted(self._tombstones))
        os.replace(tmp, self._tombstone_path)

    # -- lifecycle ------------------------------------------------------

    def disk_usage(self) -> int:
        """Total bytes across every segment and the tombstone log."""
        total = 0
        for segment in self._segments:
            if os.path.exists(segment.path):
                total += os.path.getsize(segment.path)
        if os.path.exists(self._tombstone_path):
            total += os.path.getsize(self._tombstone_path)
        return total

    def clear(self) -> None:
        self._close_append()
        for segment in self._segments[1:]:
            if os.path.exists(segment.path):
                os.remove(segment.path)
        open(self.path, "w", encoding="utf-8").close()
        if os.path.exists(self._tombstone_path):
            os.remove(self._tombstone_path)
        self._segments = [_Segment(self.path)]
        self._tombstones = set()
        self._count = 0
        # record ids stay monotone across a clear: a resurrected
        # tombstone from a crashed rewrite can never hit a new record

    def close(self) -> None:
        """Delete every backing file if this store created the path."""
        self._close_append()
        if self._owns_path:
            for segment in self._segments:
                if os.path.exists(segment.path):
                    os.remove(segment.path)
            if os.path.exists(self._tombstone_path):
                os.remove(self._tombstone_path)
        self._count = 0

    def __repr__(self) -> str:
        return (
            f"JsonlStore({self._count} documents in {len(self._segments)} "
            f"segments at {self.path!r})"
        )


class SqliteStore:
    """A spill-to-disk store with a persistent inverted tag index.

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

    Write-path policy: ``commit_every`` inserts share one transaction
    (1 = the historical commit-per-add), :meth:`add_many` and
    :meth:`bulk` windows always commit once at the end, and
    ``vacuum_every`` > 0 runs ``VACUUM`` after every that-many removal
    operations (``remove``/``clear``) so sustained churn hands pages
    back to the filesystem.  Reads on this store's own connection
    always see pending inserts, and :meth:`close` commits them.
    """

    #: advertises the indexed-drain capability (duck-typed by DrainStage)
    supports_indexed_drain = True

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

    def __init__(
        self,
        path: Optional[str] = None,
        commit_every: int = 1,
        vacuum_every: int = 0,
    ) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-repository-", suffix=".sqlite")
            os.close(handle)
            self._owns_path = True
        else:
            self._owns_path = False
        self.path = path
        self.commit_every = max(1, int(commit_every))
        self.vacuum_every = max(0, int(vacuum_every))
        self._pending = 0
        self._bulk_depth = 0
        self._removal_ops = 0
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
        if self._bulk_depth == 0 and self._pending >= self.commit_every:
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

    def drain(self, accepts: Optional[DrainPredicate] = None) -> List[Document]:
        if accepts is None:
            drained = list(self)
            self.clear()
            return drained
        drained: List[Document] = []
        removed: List[int] = []
        # stream the cursor — a predicate drain holds O(matches) rows,
        # never the whole table; deletes wait until iteration finishes
        # so the cursor is never invalidated mid-scan
        for doc_id, xml in self._connection.execute(
            "SELECT id, xml FROM documents ORDER BY id"
        ):
            document = parse_document(xml)
            if accepts(document):
                drained.append(document)
                removed.append(doc_id)
        if removed:
            self.remove(removed)
        return drained

    def _after_removal(self) -> None:
        self._removal_ops += 1
        if self.vacuum_every and self._removal_ops % self.vacuum_every == 0:
            self._connection.execute("VACUUM")

    def clear(self) -> None:
        self._connection.execute("DELETE FROM tags")
        self._connection.execute("DELETE FROM documents")
        self._connection.commit()
        self._pending = 0
        self._count = 0
        self._after_removal()

    def close(self) -> None:
        """Commit pending inserts and close; delete the file if owned."""
        self._flush()
        self._connection.close()
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)
        self._count = 0

    # -- indexed capability --------------------------------------------

    def index_rows(self) -> int:
        """Number of rows in the inverted tag index (snapshot metadata)."""
        row = self._connection.execute("SELECT COUNT(*) FROM tags").fetchone()
        return int(row[0])

    def index_metadata(self) -> Dict[str, object]:
        """Index description persisted into format-3 snapshots."""
        return {
            "kind": "tag-vocabulary",
            "rows": self.index_rows(),
            "documents": self._count,
        }

    def candidates(self, query: DrainQuery) -> List[Tuple[int, CandidateRow]]:
        """The sound candidate set for one DTD's pruned drain.

        Returns ``(insertion id, profile row)`` pairs in insertion
        order for exactly the documents matching at least one
        :class:`DrainQuery` condition; every other document provably
        has acceptance bound 0.0.  ``matched`` is the summed count of
        document tags inside the DTD vocabulary — an exact integer, so
        the caller reproduces the scan path's bound arithmetic
        bit-for-bit in Python.
        """
        connection = self._connection
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
        self._after_removal()

    def __repr__(self) -> str:
        return f"SqliteStore({self._count} documents at {self.path!r})"


#: the named backends ``make_store`` (and the CLI ``--store`` flag) accept
STORE_KINDS = ("memory", "jsonl", "sqlite")


def store_kind(store: DocumentStore) -> str:
    """The snapshot tag for a store instance.

    Unknown third-party backends still persist as ``memory`` (the
    documents themselves are always inlined in the snapshot, so nothing
    is lost) — but loudly, so snapshots don't silently lie about their
    store: a :class:`RuntimeWarning` carries the backend's repr.
    """
    if isinstance(store, SqliteStore):
        return "sqlite"
    if isinstance(store, JsonlStore):
        return "jsonl"
    if isinstance(store, MemoryStore):
        return "memory"
    warnings.warn(
        f"unknown document-store backend {store!r}: the snapshot records it "
        "as 'memory' and a load will not recreate the custom backend "
        "(pass store= explicitly when loading)",
        RuntimeWarning,
        stacklevel=2,
    )
    return "memory"


def make_store(
    spec: Union[None, str, DocumentStore] = None, path: Optional[str] = None
) -> DocumentStore:
    """Resolve a store spec: ``None``/``"memory"`` → :class:`MemoryStore`,
    ``"jsonl"`` → :class:`JsonlStore`, ``"sqlite"`` → :class:`SqliteStore`
    (each optionally at ``path``), and any :class:`DocumentStore`
    instance passes through unchanged."""
    if spec is None or spec == "memory":
        return MemoryStore()
    if spec == "jsonl":
        return JsonlStore(path)
    if spec == "sqlite":
        return SqliteStore(path)
    if isinstance(spec, str):
        raise ValueError(
            f"unknown store kind {spec!r} (expected one of {', '.join(STORE_KINDS)})"
        )
    return spec
