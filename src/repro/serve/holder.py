"""The MVCC snapshot holder: versioned, immutable, swapped atomically.

A :class:`SnapshotHolder` owns the service's reader-visible view of the
engine.  Each published :class:`ServeSnapshot` is an immutable value —
a serve-side epoch number, the engine's state version, the pickled
:class:`~repro.classification.snapshot.ClassifierSnapshot` bytes with
their content fingerprint, and the DTD names frozen at publish time.
Readers obtain the current snapshot with one attribute read
(:attr:`current`), which CPython makes atomic under the GIL: a reader
either sees the old epoch or the new one, never a mixture.

Publishing is the single writer's job.  :meth:`refresh_from` asks the
engine for its (cached, content-addressed) snapshot payload and swaps a
new version in **only when the fingerprint changed** — a deposit that
evolved nothing re-uses the engine's pickle cache and publishes nothing,
so unchanged epochs are free.  Versions are strictly monotone; the
holder refuses to go backwards.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional, Tuple

__all__ = ["ServeSnapshot", "SnapshotHolder"]


class ServeSnapshot(NamedTuple):
    """One immutable reader-visible epoch of the classification state."""

    #: the serve-side epoch number, strictly monotone from 1
    version: int
    #: the engine's :attr:`~repro.core.engine.XMLSource.state_version`
    #: at publish time
    state_version: int
    #: blake2b content address of ``payload``
    fingerprint: str
    #: the pickled :class:`~repro.classification.snapshot.ClassifierSnapshot`
    #: — readers unpickle (at most once per fingerprint per thread) and
    #: classify against the rebuilt frozen classifier
    payload: bytes
    #: the DTD names of this epoch, in classifier order
    dtd_names: Tuple[str, ...]
    #: the acceptance threshold of this epoch
    sigma: float
    #: wall-clock publish instant (``time.time()``), informational
    published_at: float


class SnapshotHolder:
    """Atomic single-slot publication point for :class:`ServeSnapshot`.

    Reads are lock-free (one attribute load); writes happen only from
    the service's single writer, so no further synchronisation is
    needed — the GIL guarantees readers see either the previous or the
    next complete tuple.
    """

    def __init__(self) -> None:
        self._current: Optional[ServeSnapshot] = None
        #: how many refreshes found the fingerprint unchanged (free)
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
        """Publish the engine's current state if it changed.

        Keyed on the snapshot payload's content fingerprint: an engine
        whose classification state is unchanged (the common case —
        deposits and drains don't bump the state version, and the
        engine's pickle cache hands the same bytes back) returns the
        current snapshot without allocating anything.  Must only be
        called from the single writer.
        """
        fingerprint, payload = source.snapshot_payload()
        current = self._current
        if current is not None and current.fingerprint == fingerprint:
            self.reuses += 1
            return current
        snapshot = ServeSnapshot(
            version=(current.version if current is not None else 0) + 1,
            state_version=source.state_version,
            fingerprint=fingerprint,
            payload=payload,
            dtd_names=tuple(source.dtd_names()),
            sigma=source.classifier.threshold,
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
