"""The frozen classification state the serve layer publishes.

:class:`ClassifierSnapshot` holds everything a classification decision
depends on — the DTD set, ``sigma``, the similarity and fast-path
configuration, and the tag matcher — as one picklable value.
:meth:`repro.core.engine.XMLSource.snapshot_payload` pickles it once
per changed state version and addresses the bytes by
:func:`snapshot_fingerprint`; serve readers unpickle it and classify
against the rebuilt classifier without touching the engine.

>>> from repro.dtd.parser import parse_dtd
>>> from repro.perf import FastPathConfig
>>> from repro.similarity.triple import SimilarityConfig
>>> from repro.xmltree.parser import parse_document
>>> dtd = parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", name="A")
>>> snapshot = ClassifierSnapshot([dtd], 0.5, SimilarityConfig(), FastPathConfig())
>>> snapshot.build_classifier().classify(parse_document("<a><b>x</b></a>")).dtd_name
'A'
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Tuple

from repro.classification.classifier import Classifier
from repro.dtd.dtd import DTD
from repro.perf import FastPathConfig
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import SimilarityConfig

__all__ = ["ClassifierSnapshot", "snapshot_fingerprint"]


def snapshot_fingerprint(payload: bytes) -> str:
    """The content address of a pickled snapshot."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class ClassifierSnapshot:
    """Immutable, picklable classification state of one engine version."""

    __slots__ = ("dtds", "threshold", "config", "fastpath", "tag_matcher")

    def __init__(
        self,
        dtds: Iterable[DTD],
        threshold: float,
        config: SimilarityConfig,
        fastpath: FastPathConfig,
        tag_matcher: Optional[TagMatcher] = None,
    ):
        self.dtds: Tuple[DTD, ...] = tuple(dtds)
        self.threshold = threshold
        self.config = config
        self.fastpath = fastpath
        #: the engine's tag matcher (``None`` = exact tag equality)
        self.tag_matcher = tag_matcher

    @classmethod
    def of(cls, source: "XMLSource") -> "ClassifierSnapshot":
        """Freeze ``source``'s current classification state."""
        classifier = source.classifier
        return cls(
            (classifier.dtd(name) for name in source.dtd_names()),
            classifier.threshold,
            source.similarity_config,
            source.fastpath,
            tag_matcher=source.tag_matcher,
        )

    def build_classifier(self) -> Classifier:
        """Reconstruct a classifier equivalent to the frozen one."""
        return Classifier(
            self.dtds,
            self.threshold,
            self.config,
            tag_matcher=self.tag_matcher,
            fastpath=self.fastpath,
        )

    def __repr__(self) -> str:
        names = [dtd.name for dtd in self.dtds]
        return f"ClassifierSnapshot(dtds={names!r}, sigma={self.threshold})"
