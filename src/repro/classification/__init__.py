"""Flexible document classification (Sections 1 and 2).

"Each document entering the database is classified against the set of
DTDs the database schema consists of, to determine the DTD in the set
best describing the structure of the document. [...] we rely on a more
flexible classification approach [2], based on an algorithm to measure
the structural similarity between a document and a DTD that produces a
numeric rank in the range [0, 1]."

- :class:`~repro.classification.classifier.Classifier` ranks a document
  against every DTD of the source and applies the threshold ``sigma``;
- :class:`~repro.classification.repository.Repository` holds the
  documents no DTD describes well enough, for later re-classification
  against the evolved DTD set;
- :mod:`repro.classification.stores` supplies the pluggable storage
  backends the repository delegates to (in-memory or spill-to-disk).
"""

from repro.classification.classifier import Classifier, ClassificationResult
from repro.classification.repository import Repository
from repro.classification.stores import (
    DocumentStore,
    JsonlStore,
    MemoryStore,
    SqliteStore,
    make_store,
)

__all__ = [
    "Classifier",
    "ClassificationResult",
    "Repository",
    "DocumentStore",
    "MemoryStore",
    "JsonlStore",
    "SqliteStore",
    "make_store",
]
