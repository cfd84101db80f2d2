"""The MVCC snapshot holder: versioned, immutable, swapped atomically.

A :class:`SnapshotHolder` owns the service's reader-visible view of the
engine.  Each published :class:`ServeSnapshot` is an immutable value —
a serve-side epoch number, the engine's state version, a
:class:`~repro.classification.classifier.Classifier` over the engine's
installed DTD objects with the content fingerprint of that DTD set,
and the DTD names frozen at publish time.  Readers obtain the current
snapshot with one attribute read (:attr:`current`), which CPython makes
atomic under the GIL: a reader either sees the old epoch or the new
one, never a mixture.

Publishing is the single writer's job.  :meth:`refresh_from` compares
the engine's :attr:`~repro.core.engine.XMLSource.state_version` with
the current snapshot's and builds a new version **only when it
differs** — a deposit that evolved nothing costs one integer compare
and publishes nothing.  The snapshot's classifier shares the engine's
DTD objects, which the engine never mutates (an evolution installs new
ones), so a published epoch stays exact however the engine evolves
afterwards.  Versions are strictly monotone; the holder refuses to go
backwards.
"""

from __future__ import annotations

import hashlib
import time
from typing import NamedTuple, Optional, Tuple

from repro.classification.classifier import Classifier
from repro.dtd.serializer import serialize_dtd

__all__ = ["ServeSnapshot", "SnapshotHolder"]


class ServeSnapshot(NamedTuple):
    """One immutable reader-visible epoch of the classification state."""

    #: the serve-side epoch number, strictly monotone from 1
    version: int
    #: the engine's :attr:`~repro.core.engine.XMLSource.state_version`
    #: at publish time
    state_version: int
    #: blake2b content address of the DTD set and sigma
    fingerprint: str
    #: the classifier readers use as is: the engine's DTD objects,
    #: threshold, similarity config, tag matcher and ``fastpath`` flag,
    #: with its own caches and counters (see :meth:`Classifier.copy`)
    classifier: Classifier
    #: the DTD names of this epoch, in classifier order
    dtd_names: Tuple[str, ...]
    #: the acceptance threshold of this epoch
    sigma: float
    #: wall-clock publish instant (``time.time()``), informational
    published_at: float


def _fingerprint(classifier: Classifier) -> str:
    """The content address of a classifier's DTD set and sigma: each
    DTD's name, root and serialized declarations, in classifier order."""
    digest = hashlib.blake2b(repr(classifier.threshold).encode(), digest_size=16)
    for name in classifier.dtd_names():
        dtd = classifier.dtd(name)
        digest.update(f"\0{name}\0{dtd.root}\0{serialize_dtd(dtd)}".encode())
    return digest.hexdigest()


class SnapshotHolder:
    """Atomic single-slot publication point for :class:`ServeSnapshot`.

    Reads are lock-free (one attribute load); writes happen only from
    the service's single writer, so no further synchronisation is
    needed — the GIL guarantees readers see either the previous or the
    next complete tuple.
    """

    def __init__(self) -> None:
        self._current: Optional[ServeSnapshot] = None
        #: how many refreshes found the state version unchanged (free)
        self.reuses = 0
        #: how many refreshes published a new version
        self.publishes = 0

    @property
    def current(self) -> ServeSnapshot:
        """The live snapshot.  Raises if nothing was published yet."""
        snapshot = self._current
        if snapshot is None:
            raise RuntimeError("SnapshotHolder has no published snapshot yet")
        return snapshot

    @property
    def version(self) -> int:
        """The live snapshot's version (0 before the first publish)."""
        snapshot = self._current
        return snapshot.version if snapshot is not None else 0

    def refresh_from(self, source: "XMLSource") -> ServeSnapshot:
        """Publish the engine's current state if its version changed.

        Keyed on :attr:`~repro.core.engine.XMLSource.state_version`:
        deposits and drains do not bump it, and neither does installing
        a tracer, so the common case returns the current snapshot
        without allocating anything.  A publish builds the classifier
        and fingerprint once, timed into the engine's
        ``snapshot_serialize_ns``.  Must only be called from the single
        writer.
        """
        current = self._current
        if current is not None and current.state_version == source.state_version:
            self.reuses += 1
            return current
        start = time.perf_counter_ns()
        classifier = source.classifier.copy()
        fingerprint = _fingerprint(classifier)
        source.perf.snapshot_serialize_ns += time.perf_counter_ns() - start
        snapshot = ServeSnapshot(
            version=(current.version if current is not None else 0) + 1,
            state_version=source.state_version,
            fingerprint=fingerprint,
            classifier=classifier,
            dtd_names=tuple(classifier.dtd_names()),
            sigma=classifier.threshold,
            published_at=time.time(),
        )
        self.publish(snapshot)
        return snapshot

    def publish(self, snapshot: ServeSnapshot) -> None:
        """Swap ``snapshot`` in (single writer only; strictly monotone)."""
        current = self._current
        if current is not None and snapshot.version <= current.version:
            raise ValueError(
                f"snapshot version must be monotone: "
                f"{snapshot.version} <= {current.version}"
            )
        self.publishes += 1
        self._current = snapshot

    def __repr__(self) -> str:
        current = self._current
        if current is None:
            return "SnapshotHolder(empty)"
        return (
            f"SnapshotHolder(version={current.version}, "
            f"fingerprint={current.fingerprint[:8]}, "
            f"dtds={list(current.dtd_names)!r})"
        )
