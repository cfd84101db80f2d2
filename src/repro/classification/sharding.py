"""DTD-set sharding by tag-vocabulary clusters.

The tier-3 bound (PR 1) already partitions DTD candidates by tag
vocabulary per document; :class:`ShardedClassifier` lifts the same
signal to the DTD *set*: DTDs whose vocabularies transitively overlap
form one shard, and classification consults only shards whose
vocabulary (or root tag, or ``#PCDATA``/``ANY`` capability) overlaps
the document.  A screened-out shard's DTDs provably score exactly 0.0
— the same four-condition argument that makes the indexed drain's
candidate query sound (see ``DrainQuery`` in
:mod:`repro.classification.stores` and DESIGN.md decision 12) — so
their names join the lazily-realized ranking tail and every observable
result stays bit-identical to the unsharded classifier.

Exact fallback: whenever the screen cannot soundly restrict the
candidate set — pruned ranking disabled, inexact semantics, document
beyond the DP depth guard, no shard screened out, or a best similarity
of 0.0 (a zero-score tie could alphabetically favour a DTD inside a
skipped shard) — the full unsharded path runs instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.classification.classifier import (
    ClassificationResult,
    Classifier,
    _DocumentCensus,
    profile_document,
)
from repro.dtd.dtd import DTD
from repro.perf import FastPathConfig, PerfCounters
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document

#: a shard map as snapshots and saved state carry it: member names per shard
ShardMap = Tuple[Tuple[str, ...], ...]


class _ShardData:
    """One vocabulary cluster's aggregate screening facts."""

    __slots__ = ("names", "vocabulary", "roots", "allows_text", "has_any")

    def __init__(self, names: Tuple[str, ...], bounds: Dict[str, object]):
        self.names = names
        vocabulary = frozenset().union(
            *(bounds[name].vocabulary for name in names)
        )
        self.vocabulary = vocabulary
        self.roots = frozenset(bounds[name].root for name in names)
        self.allows_text = any(bounds[name].allows_text for name in names)
        self.has_any = any(bounds[name].has_any for name in names)

    def overlaps(self, census: _DocumentCensus) -> bool:
        """True unless every DTD in this shard provably scores 0.0.

        Mirrors the :class:`~repro.classification.stores.DrainQuery`
        candidate conditions: matched vocabulary weight, root-vertex
        anchoring, text leaves against ``#PCDATA``, or ``ANY``.
        """
        if self.has_any:
            return True
        if census.root_tag in self.roots:
            return True
        if self.allows_text and census.text_count > 0:
            return True
        return not self.vocabulary.isdisjoint(census.tag_counts)


class ShardedClassifier(Classifier):
    """A :class:`Classifier` that screens DTD shards before ranking.

    Shards are recomputed lazily after any :meth:`add_dtd` /
    :meth:`replace_dtd` via deterministic union-find over vocabulary
    intersection, so an explicit ``shard_map`` (carried on serve
    snapshots and persisted state) is only adopted when it covers
    exactly the current DTD names — otherwise it is recomputed,
    yielding the identical map.
    """

    def __init__(
        self,
        dtds: Iterable[DTD],
        threshold: float = 0.5,
        config: SimilarityConfig = SimilarityConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        fastpath: Optional[FastPathConfig] = None,
        counters: Optional[PerfCounters] = None,
        shard_map: Optional[ShardMap] = None,
    ):
        self._shards: Optional[Tuple[_ShardData, ...]] = None
        super().__init__(dtds, threshold, config, tag_matcher, fastpath, counters)
        if shard_map is not None and {
            name for shard in shard_map for name in shard
        } == set(self._dtds):
            self._shards = tuple(
                _ShardData(tuple(shard), self._bounds) for shard in shard_map
            )

    # ------------------------------------------------------------------

    def add_dtd(self, dtd: DTD) -> None:
        super().add_dtd(dtd)
        self._shards = None

    def replace_dtd(self, dtd: DTD) -> None:
        super().replace_dtd(dtd)
        self._shards = None

    def _shard_data(self) -> Tuple[_ShardData, ...]:
        if self._shards is None:
            self._shards = self._recluster()
        return self._shards

    def shard_map(self) -> ShardMap:
        """The current shards as name tuples (snapshot/persistence form)."""
        return tuple(shard.names for shard in self._shard_data())

    def _recluster(self) -> Tuple[_ShardData, ...]:
        """Union-find over shared vocabulary tags, deterministically
        ordered (members sorted by name, shards by first member)."""
        names = sorted(self._dtds)
        parent = {name: name for name in names}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:  # path compression
                parent[name], name = root, parent[name]
            return root

        def union(left: str, right: str) -> None:
            left, right = find(left), find(right)
            if left != right:
                parent[right] = left

        tag_owner: Dict[str, str] = {}
        for name in names:
            for tag in self._bounds[name].vocabulary:
                owner = tag_owner.setdefault(tag, name)
                if owner != name:
                    union(owner, name)
        groups: Dict[str, List[str]] = {}
        for name in names:
            groups.setdefault(find(name), []).append(name)
        ordered = sorted(groups.values(), key=lambda members: members[0])
        return tuple(
            _ShardData(tuple(members), self._bounds) for members in ordered
        )

    # ------------------------------------------------------------------

    def _classify_document(
        self, document: Document, census: Optional[_DocumentCensus] = None
    ) -> ClassificationResult:
        shards = self._shard_data()
        if len(shards) <= 1 or not (
            self.fastpath.pruned_ranking and self._exact_semantics()
        ):
            return super()._classify_document(document, census)
        if census is None:
            census = profile_document(document)
        if census.height >= self.config.max_depth:
            return super()._classify_document(document, census)
        candidates: List[str] = []
        screened: List[str] = []
        screened_shards = 0
        for shard in shards:
            if shard.overlaps(census):
                candidates.extend(shard.names)
            else:
                screened.extend(shard.names)
                screened_shards += 1
        if not screened or not candidates:
            return super()._classify_document(document, census)
        result = self._classify_pruned(
            document, census, candidates, tuple(screened)
        )
        if result.similarity <= 0.0:
            # all candidates scored 0.0 — a zero tie breaks on name
            # across the FULL DTD set, which may live in a skipped shard
            return super()._classify_document(document, census)
        self.counters.shard_skips += screened_shards
        return result
