"""The recording phase (Section 3).

"After having classified each document, some structural information of
the document are extracted (recording phase). [...] The recording phase
allows one to carry on the evolution phase without need of analyzing
again the documents."

For each element of a classified document whose tag the DTD declares:

- full local similarity → bump the valid counters and the valid-side
  occurrence stats (used by the restriction of operators);
- otherwise → bump the non-valid counter, add the instance's direct
  child tags to ``Label``, add its tag set to the sequence multiset,
  update per-label stats and co-repetition groups, and — for labels
  the DTD declares nowhere — recursively record the child structure so
  a brand-new declaration can later be inferred (Example 5's tree (4)).

Elements with undeclared tags are *plus* structure; they are recorded
inside their closest declared ancestor's record (through the nested
plus records) and never as top-level records of their own.

Deviation note: the paper stores nested structural information for
every label ``l ∉ alphabeta(e)``.  Because XML DTD declarations are
global (one declaration per tag for the whole DTD), we narrow this to
labels declared nowhere in the DTD — for a label that *is* declared
elsewhere, the evolved content model of ``e`` simply references the
existing declaration, and inferring a second one could only conflict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.core.extended_dtd import ElementRecord, ExtendedDTD
from repro.similarity.evaluation import DocumentEvaluation, evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document, Element


def _occurrences(element: Element) -> Dict[str, int]:
    """Occurrence count of each direct-subelement tag, in first-seen order."""
    occurrences: Dict[str, int] = {}
    for child in element.children:
        if isinstance(child, Element):
            occurrences[child.tag] = occurrences.get(child.tag, 0) + 1
    return occurrences


def _co_repetition_groups(occurrences: Dict[str, int]) -> Dict[FrozenSet[str], int]:
    """The paper's *groups*: for every repetition count > 1, the set of
    tags repeated exactly that number of times in this instance."""
    by_count: Dict[int, Set[str]] = {}
    for tag, count in occurrences.items():
        if count > 1:
            by_count.setdefault(count, set()).add(tag)
    return {frozenset(tags): count for count, tags in by_count.items()}


class Recorder:
    """Fills an :class:`ExtendedDTD` from classified documents."""

    def __init__(
        self,
        extended: ExtendedDTD,
        config: SimilarityConfig = SimilarityConfig(),
        matcher: Optional[StructureMatcher] = None,
    ):
        self.extended = extended
        self.config = config
        # an injected matcher lets the pipeline share fast-path settings
        # and perf counters; recording always matches tags exactly, so
        # callers must not pass a thesaurus-backed matcher here
        self._matcher = matcher or StructureMatcher(extended.dtd, config)
        #: declaration name -> its ``alphabeta`` (declared labels).  Kept
        #: here rather than on the declaration: the engine builds a new
        #: recorder for every DTD it installs and never mutates an
        #: installed DTD, so the cache cannot go stale.
        self._labels: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------

    def record(
        self,
        document: Document,
        evaluation: Optional[DocumentEvaluation] = None,
    ) -> DocumentEvaluation:
        """Record one classified document.

        An existing :class:`DocumentEvaluation` (from the classification
        phase — "since the similarity degrees have been computed in the
        first step, the second step is very quick") can be passed to
        avoid re-evaluating; otherwise the document is evaluated here.
        A synthesized evaluation (tier 1 proved the document valid) is
        recorded in one walk of the document, without reading its
        per-element list.
        """
        if evaluation is None:
            evaluation = evaluate_document(
                document, self.extended.dtd, self.config, matcher=self._matcher
            )
        self.extended.document_count += 1
        self.extended.sum_invalid_fraction += evaluation.invalid_element_fraction
        if evaluation.invalid_element_count == 0:
            self.extended.valid_document_count += 1
        if evaluation.synthesized:
            self._record_valid_document(evaluation.document.root)
            return evaluation

        valid_tags_in_document: Set[str] = set()
        for element_evaluation in evaluation.elements:
            element = element_evaluation.element
            if element.tag not in self.extended.dtd:
                continue  # plus structure: captured via the parent's record
            record = self.extended.record_for(element.tag)
            if element_evaluation.is_locally_valid:
                self._record_valid(record, element, _occurrences(element))
                valid_tags_in_document.add(element.tag)
            else:
                self._record_invalid(
                    record, element, self._declared_labels(element.tag)
                )
        for tag in valid_tags_in_document:
            self.extended.record_for(tag).documents_with_valid += 1
        return evaluation

    # ------------------------------------------------------------------

    def _declared_labels(self, name: str) -> FrozenSet[str]:
        labels = self._labels.get(name)
        if labels is None:
            labels = self._labels[name] = self.extended.dtd[name].declared_labels()
        return labels

    def _record_valid_document(self, root: Element) -> None:
        """Record a document whose every element is declared and locally
        valid: exactly the per-element loop of :meth:`record` over its
        synthesized evaluation, as one preorder walk that tallies each
        element's child tags while pushing its element children."""
        dtd = self.extended.dtd
        seen: Dict[str, ElementRecord] = {}
        stack = [root]
        while stack:
            element = stack.pop()
            occurrences: Dict[str, int] = {}
            for child in reversed(element.children):
                if isinstance(child, Element):
                    stack.append(child)
                    occurrences[child.tag] = occurrences.get(child.tag, 0) + 1
            record = seen.get(element.tag)
            if record is None:
                if element.tag not in dtd:
                    continue  # as in :meth:`record` (never in a valid document)
                record = seen[element.tag] = self.extended.record_for(element.tag)
            self._record_valid(record, element, occurrences)
        for record in seen.values():
            record.documents_with_valid += 1

    def _record_valid(
        self, record: ElementRecord, element: Element, occurrences: Dict[str, int]
    ) -> None:
        record.valid_count += 1
        for attribute in element.attributes:
            record.attribute_counts[attribute] += 1
        for label in self._declared_labels(record.name):
            record.valid_stats_for(label).observe(occurrences.get(label, 0))

    def _record_invalid(
        self, record: ElementRecord, element: Element, declared_here: FrozenSet[str]
    ) -> None:
        """Record a non-valid instance, then — recursively, as *plus*
        records — its children whose tags neither the DTD nor
        ``declared_here`` (the instance's own declared labels) know.

        A plus element has no declaration to be valid against, so every
        instance is non-valid by definition and only the invalid-side
        structures are filled.
        """
        record.invalid_count += 1
        for attribute in element.attributes:
            record.attribute_counts[attribute] += 1
        tags = element.child_tags()
        occurrences = _occurrences(element)
        record.sequences[frozenset(occurrences)] += 1
        record.observe_ordered_sequence(tuple(tags))
        has_text = element.has_text()
        if has_text:
            record.text_count += 1
        if not occurrences and not has_text:
            record.empty_count += 1
        for tag in tags:  # first-seen order, document order
            if tag not in record.labels:
                record.labels[tag] = len(record.labels)
        for tag, count in occurrences.items():
            record.stats_for(tag).observe(count)
        for group in _co_repetition_groups(occurrences):
            record.groups[group] += 1
        # nested recording of labels unknown to the whole DTD
        dtd = self.extended.dtd
        for child in element.element_children():
            if child.tag in dtd or child.tag in declared_here:
                continue
            self._record_invalid(
                record.plus_record_for(child.tag), child, frozenset()
            )
