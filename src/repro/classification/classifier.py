"""Similarity-based classification against a set of DTDs.

"If a document, matched against each DTD in the source, does not
produce a similarity value above a fixed threshold, it is stored in a
separate repository, containing unclassified documents.  Otherwise, the
document is handled as an instance of the DTD for which the evaluation
produced the highest similarity value." (Section 2)

Fast paths (all exact — see ``docs/API.md``, "Performance
architecture"):

- **tier 1**: a valid document scores exactly 1.0 (Section 3.1:
  fullness of the global measure coincides with validity), so a
  linear-time automaton validation replaces the span DP and the
  per-element evaluation is synthesized as all-common triples;
- **tier 3**: :meth:`Classifier.classify` computes a cheap sound upper
  bound per DTD from tag-vocabulary overlap and evaluates DTDs
  best-bound-first, skipping every DTD whose bound cannot beat the
  current best (skipped similarities are still exact — the full
  ranking is realized lazily on first access).

Both tiers follow the classifier's one ``fastpath`` switch and disable
themselves when a thesaurus tag matcher is active or the similarity
weights are degenerate (``alpha`` or ``beta`` of 0), so results are
bit-identical with the fast paths on or off.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.classification.stores import (
    CandidateRow,
    DrainQuery,
    profile_document,
)
from repro.dtd import content_model as cm
from repro.dtd.automaton import Validator
from repro.dtd.dtd import DTD
from repro.errors import ClassificationError
from repro.perf import PerfCounters
from repro.similarity.evaluation import (
    DocumentEvaluation,
    evaluate_document,
    valid_document_evaluation,
)
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import ExactTagMatcher, TagMatcher
from repro.similarity.triple import EvalTriple, SimilarityConfig
from repro.xmltree.document import Document

Ranking = List[Tuple[str, float]]


class _BoundData:
    """Per-DTD facts for the tier-3 upper bound (computed once)."""

    __slots__ = ("vocabulary", "allows_text", "has_any", "root")

    def __init__(self, dtd: DTD):
        vocabulary: Set[str] = set()
        allows_text = False
        has_any = False
        for decl in dtd:
            vocabulary |= decl.declared_labels()
            for node in decl.content.iter_preorder():
                if node.label == cm.PCDATA:
                    allows_text = True
                elif node.label == cm.ANY:
                    has_any = True
        self.vocabulary = frozenset(vocabulary)
        self.allows_text = allows_text
        self.has_any = has_any
        self.root = dtd.root

    def upper_bound(
        self,
        total_tags: int,
        matched: int,
        text_count: int,
        weight: float,
        root_tag: str,
        config: SimilarityConfig,
    ) -> float:
        """A sound upper bound on a document's similarity, from its
        profile (:class:`CandidateRow` fields, ``matched`` against this
        DTD's vocabulary).

        Element vertices whose tag no content model references can
        never score common (they are plus, with at least their vertex
        weight), text leaves need ``#PCDATA`` somewhere, and the root
        vertex is common only when it equals the DTD root.  With
        ``u`` such unmatchable weight and ``r`` the root minus, the
        evaluation of any alignment is at most
        ``E(u, r, W - u)`` because ``E`` is monotone (increasing in
        common, decreasing in plus/minus).  ``ANY`` declarations make
        everything matchable, so they yield the trivial bound 1.0.

        Classification computes the profile per document; the drain
        reads it from the store.
        """
        if self.has_any:
            return 1.0
        unmatchable = float(total_tags - matched)
        root_minus = 0.0
        if root_tag == self.root:
            if root_tag not in self.vocabulary:
                # the root vertex itself is anchored onto the DTD root
                # and scores common even when nothing references its tag
                unmatchable -= 1.0
        else:
            root_minus = 1.0
            if root_tag in self.vocabulary:
                # the root vertex is only ever compared to the DTD
                # root, so it is plus despite its tag being referenced
                unmatchable += 1.0
        if not self.allows_text:
            unmatchable += text_count
        return EvalTriple(
            plus=unmatchable, minus=root_minus, common=weight - unmatchable
        ).evaluate(config)


class ClassificationResult:
    """The outcome of classifying one document."""

    __slots__ = (
        "document",
        "dtd_name",
        "similarity",
        "evaluation",
        "_ranking",
    )

    def __init__(
        self,
        document: Document,
        dtd_name: Optional[str],
        similarity: float,
        evaluation: Optional[DocumentEvaluation],
        ranking: Union[Ranking, Callable[[], Ranking]],
    ):
        self.document = document
        #: the selected DTD, or ``None`` when below threshold (repository)
        self.dtd_name = dtd_name
        #: similarity against the best DTD (even when below threshold)
        self.similarity = similarity
        #: full evaluation against the best DTD (None when no DTD exists)
        self.evaluation = evaluation
        self._ranking = ranking

    @property
    def ranking(self) -> Ranking:
        """All (dtd name, similarity) pairs, best first.

        When the pruned fast path skipped some DTDs, their exact
        similarities are computed lazily here on first access (against
        the DTD set as it was at classification time), so readers see
        the same full exact ranking the slow path produces.
        """
        if callable(self._ranking):
            self._ranking = self._ranking()
        return self._ranking

    @property
    def accepted(self) -> bool:
        return self.dtd_name is not None

    def __repr__(self) -> str:
        target = self.dtd_name if self.accepted else "<repository>"
        return f"ClassificationResult({target!r}, {self.similarity:.3f})"


class Classifier:
    """Ranks documents against a DTD set with a similarity threshold.

    Matchers are cached per DTD, so declaration-level work (automata,
    minimal weights) is shared across documents.

    >>> from repro.dtd.parser import parse_dtd
    >>> from repro.xmltree.parser import parse_document
    >>> classifier = Classifier(
    ...     [parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", name="A")],
    ...     threshold=0.5,
    ... )
    >>> classifier.classify(parse_document("<a><b>x</b></a>")).dtd_name
    'A'
    """

    def __init__(
        self,
        dtds: Iterable[DTD],
        threshold: float = 0.5,
        config: SimilarityConfig = SimilarityConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        fastpath: bool = True,
        counters: Optional[PerfCounters] = None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ClassificationError(
                f"threshold sigma must be in [0, 1], got {threshold}"
            )
        self.threshold = threshold
        self.config = config
        self.tag_matcher = tag_matcher
        self.fastpath = fastpath
        self.counters = counters or PerfCounters()
        # whether tiers 1 and 3 (and the drain's bound) run: they are
        # exact only when validity and vocabulary overlap bound the
        # similarity — a thesaurus matcher lets renamed tags score
        # common, and a zero ``alpha``/``beta`` lets the DP tie-break
        # onto optima that are not all-common
        exact_tags = tag_matcher is None or isinstance(tag_matcher, ExactTagMatcher)
        self._fast = (
            fastpath and exact_tags and config.alpha > 0 and config.beta > 0
        )
        self._matchers: Dict[str, StructureMatcher] = {}
        self._validators: Dict[str, Validator] = {}
        self._bounds: Dict[str, _BoundData] = {}
        self._dtds: Dict[str, DTD] = {}
        for dtd in dtds:
            self.add_dtd(dtd)

    # ------------------------------------------------------------------

    def add_dtd(self, dtd: DTD) -> None:
        if dtd.name in self._dtds:
            raise ClassificationError(f"duplicate DTD name {dtd.name!r}")
        self._dtds[dtd.name] = dtd
        self._install_dtd(dtd)

    def replace_dtd(self, dtd: DTD) -> None:
        """Swap in an evolved DTD under the same name.

        The matcher (and with it every cached triple) is rebuilt from
        scratch, so an evolved DTD can never serve stale evaluations.
        """
        if dtd.name not in self._dtds:
            raise ClassificationError(f"unknown DTD name {dtd.name!r}")
        self._dtds[dtd.name] = dtd
        self._install_dtd(dtd)

    def _install_dtd(self, dtd: DTD) -> None:
        self._matchers[dtd.name] = StructureMatcher(
            dtd, self.config, self.tag_matcher, self.fastpath, self.counters
        )
        self._validators[dtd.name] = Validator(dtd)
        self._bounds[dtd.name] = _BoundData(dtd)

    def copy(self) -> "Classifier":
        """A classifier that decides exactly as this one does, with its
        own cold caches and its own :class:`PerfCounters`.

        It shares this classifier's DTD objects, threshold, similarity
        configuration, ``fastpath`` flag and tag matcher — everything a
        decision depends on — so it stays exact only while nobody
        mutates those DTDs.  The engine never does: an evolution
        installs a new DTD object (DESIGN.md decision 6).
        """
        return Classifier(
            self._dtds.values(),
            self.threshold,
            self.config,
            self.tag_matcher,
            fastpath=self.fastpath,
        )

    def dtd_names(self) -> List[str]:
        return list(self._dtds)

    def dtd(self, name: str) -> DTD:
        return self._dtds[name]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _score_with(
        self, matcher: StructureMatcher, validator: Validator, document: Document
    ) -> Tuple[float, bool]:
        """Exact similarity of one document against one DTD.

        Returns ``(similarity, short_circuited)``; the second flag is
        True when tier 1 proved the document valid (similarity exactly
        1.0) without running the span DP.
        """
        counters = self.counters
        if self._fast:
            counters.validations += 1
            if validator.is_valid(document):
                counters.validity_short_circuits += 1
                return 1.0, True
        similarity = matcher.document_similarity(document.root)
        matcher.clear_cache()
        return similarity, False

    def drain_query(self, name: str) -> Optional[DrainQuery]:
        """The candidate conditions of a pruned drain against one DTD,
        or ``None`` when no document can be ruled out.

        ``None`` covers the two cases without a useful bound: inexact
        semantics or the reference path (no sound bound at all) and an
        ``ANY`` declaration (trivial bound 1.0 for every document, so
        the query would just select everything).  The per-document
        depth guard travels inside the query — documents at or beyond
        ``max_depth`` are always candidates.
        """
        if not self._fast:
            return None
        data = self._bounds[name]
        if data.has_any:
            return None
        return DrainQuery(
            vocabulary=tuple(sorted(data.vocabulary)),
            allows_text=data.allows_text,
            dtd_root=data.root,
            max_depth=self.config.max_depth,
        )

    def bound_from_row(self, name: str, row: CandidateRow) -> Optional[float]:
        """The tier-3 bound of a stored document against one DTD, from
        its profile row (``matched`` against that DTD's
        :meth:`drain_query` vocabulary), or ``None`` beyond the DP
        depth guard, where no sound bound exists."""
        if row.height >= self.config.max_depth:
            return None
        return self._bounds[name].upper_bound(
            row.total_tags,
            row.matched,
            row.text_count,
            row.weight,
            row.root_tag,
            self.config,
        )

    def rank(self, document: Document) -> Ranking:
        """Similarity of the document against every DTD, best first.

        Ties break on DTD name for determinism.  Always exact and
        complete (tier-3 pruning applies only to :meth:`classify`,
        which does not need every similarity eagerly).
        """
        if not self._dtds:
            raise ClassificationError("the classifier holds no DTDs")
        scores = [
            (name, self._score_with(
                self._matchers[name], self._validators[name], document
            )[0])
            for name in self._dtds
        ]
        return sorted(scores, key=lambda pair: (-pair[1], pair[0]))

    def _bounds_for(self, document: Document) -> Dict[str, float]:
        """Every DTD's tier-3 bound on ``document``; the trivial bound
        1.0 for all when there is no sound one — inexact semantics,
        the reference path, or a document at or beyond ``max_depth``,
        where the DP truncates recursion and deflates the plus totals
        the bound relies on."""
        if self._fast:
            profile = profile_document(document)
            if profile.height < self.config.max_depth:
                total_tags = profile.total_tags
                return {
                    name: data.upper_bound(
                        total_tags,
                        profile.matched(data.vocabulary),
                        profile.text_count,
                        profile.weight,
                        profile.root_tag,
                        self.config,
                    )
                    for name, data in self._bounds.items()
                }
        return dict.fromkeys(self._dtds, 1.0)

    def classify(self, document: Document) -> ClassificationResult:
        """Pick the best DTD, or none when below the threshold ``sigma``.

        DTDs are scored best-bound-first; once a DTD's bound falls
        below the best similarity seen, it and every later DTD are
        skipped (tier 3) and join the lazily-realized ranking tail.
        With only the trivial bound, every DTD is scored.
        """
        if not self._dtds:
            raise ClassificationError("the classifier holds no DTDs")
        self.counters.documents_classified += 1
        bounds = self._bounds_for(document)
        order = sorted(self._dtds, key=lambda name: (-bounds[name], name))
        evaluated: Ranking = []
        skipped: List[str] = []
        short_circuited: Set[str] = set()
        best_seen = float("-inf")
        for position, name in enumerate(order):
            if bounds[name] < best_seen:
                # bounds are non-increasing from here on: no later
                # DTD can reach, let alone beat, the current best
                skipped = order[position:]
                break
            similarity, shorted = self._score_with(
                self._matchers[name], self._validators[name], document
            )
            evaluated.append((name, similarity))
            if shorted:
                short_circuited.add(name)
            if similarity > best_seen:
                best_seen = similarity
        evaluated.sort(key=lambda pair: (-pair[1], pair[0]))
        ranking: Union[Ranking, Callable[[], Ranking]] = evaluated
        if skipped:
            self.counters.bound_skips += len(skipped)
            ranking = self.deferred_ranking(document, evaluated, tuple(skipped))
        best_name, best_similarity = evaluated[0]
        if best_similarity < self.threshold:
            return ClassificationResult(
                document, None, best_similarity, None, ranking
            )
        evaluation = self._best_evaluation(
            document, best_name, best_name in short_circuited
        )
        return ClassificationResult(
            document, best_name, best_similarity, evaluation, ranking
        )

    def deferred_ranking(
        self, document: Document, head: Ranking, pruned: Tuple[str, ...]
    ) -> Callable[[], Ranking]:
        """A callable realizing the exact full ranking lazily.

        ``head`` holds the already-scored pairs and ``pruned`` the DTD
        names tier-3 skipped.  The matchers and validators are captured
        *now* (an evolved DTD swapped in later must not leak into the
        realization), so the callable stays exact for the DTD set at
        classification time.
        """
        snapshot = [
            (name, self._matchers[name], self._validators[name])
            for name in pruned
        ]
        head = list(head)

        def realize() -> Ranking:
            tail = [
                (name, self._score_with(matcher, validator, document)[0])
                for name, matcher, validator in snapshot
            ]
            return sorted(head + tail, key=lambda pair: (-pair[1], pair[0]))

        return realize

    def _best_evaluation(
        self, document: Document, name: str, short_circuited: bool
    ) -> DocumentEvaluation:
        """Evaluation against the winning DTD, synthesized when tier 1
        proved validity (and the depth guard allows exact synthesis)."""
        if (
            short_circuited
            and document.root.structure_info().height < self.config.max_depth
        ):
            self.counters.synthesized_evaluations += 1
            return valid_document_evaluation(document, self._dtds[name], self.config)
        return evaluate_document(
            document,
            self._dtds[name],
            self.config,
            matcher=self._matchers[name],
        )
