"""The repository of unclassified documents (Section 2).

Documents whose best similarity falls below ``sigma`` wait here.
"After the evolution phase, the documents in the repository are
classified again against the restructured set of DTDs in order to check
whether the similarity is now above the threshold ``sigma`` for some DTD
in the source so that the document can be considered as instance of such
DTD."

The repository itself is policy only; the actual document storage is
one of the two :class:`~repro.classification.stores.DocumentStore`
backends (:class:`~repro.classification.stores.MemoryStore` by default,
persisted and indexed via
:class:`~repro.classification.stores.SqliteStore`).
"""

from __future__ import annotations

from typing import ContextManager, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.classification.stores import (
    CandidateRow,
    DocumentStore,
    DrainQuery,
    MemoryStore,
)
from repro.xmltree.document import Document


class Repository:
    """An ordered store of documents no DTD currently describes."""

    def __init__(self, store: Optional[DocumentStore] = None):
        self._store: DocumentStore = store if store is not None else MemoryStore()

    @property
    def store(self) -> DocumentStore:
        """The backing :class:`DocumentStore`."""
        return self._store

    def candidates(
        self, query: Optional[DrainQuery]
    ) -> List[Tuple[int, CandidateRow]]:
        """``(insertion id, profile row)`` pairs in insertion order: one
        DTD's pruned-drain candidates, or every document when ``query``
        is ``None``."""
        return self._store.candidates(query)

    def fetch(self, ids: Sequence[int]) -> List[Document]:
        """The documents behind the given insertion ids, in id order."""
        return self._store.fetch(ids)

    def remove(self, ids: Sequence[int]) -> None:
        """Delete the documents behind the given insertion ids; all other
        documents keep their order."""
        self._store.remove(ids)

    def add(self, document: Document) -> None:
        self._store.add(document)

    def add_many(self, documents: Iterable[Document]) -> None:
        """Bulk deposit: one transaction on sqlite."""
        self._store.add_many(documents)

    def bulk(self) -> ContextManager[DocumentStore]:
        """A batched-ingestion window: sqlite defers its per-document
        commit until the outermost window closes."""
        return self._store.bulk()

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._store)

    def texts(self) -> Iterator[str]:
        """Each held document's ``serialize_document(d,
        xml_declaration=False)`` text, in insertion order (sqlite copies
        what it wrote, without parsing)."""
        return self._store.texts()

    def __repr__(self) -> str:
        return f"Repository({len(self._store)} documents)"
