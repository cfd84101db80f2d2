"""Document-level evaluation: the public face of the similarity layer.

The evolution pipeline needs, per document (Sections 2 and 3):

1. a *document similarity* against each DTD of the source (drives
   classification, threshold ``sigma``);
2. for the selected DTD, a *per-element* evaluation — the local and
   global similarity of every element whose tag the DTD declares —
   which is exactly what the recording phase stores into the extended
   DTD (an element is "non valid" when its local similarity is not
   full).

:func:`evaluate_document` computes both in one pass and returns a
:class:`DocumentEvaluation`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dtd.dtd import DTD
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import EvalTriple, SimilarityConfig
from repro.xmltree.document import Document, Element


class ElementEvaluation:
    """Similarity of one document element against its tag's declaration."""

    __slots__ = ("element", "declared", "local_triple", "global_triple", "config")

    def __init__(
        self,
        element: Element,
        declared: bool,
        local_triple: EvalTriple,
        global_triple: EvalTriple,
        config: SimilarityConfig,
    ):
        self.element = element
        #: whether the DTD declares this element's tag at all
        self.declared = declared
        self.local_triple = local_triple
        self.global_triple = global_triple
        self.config = config

    @property
    def local_similarity(self) -> float:
        return self.local_triple.evaluate(self.config)

    @property
    def global_similarity(self) -> float:
        return self.global_triple.evaluate(self.config)

    @property
    def is_locally_valid(self) -> bool:
        """Full local similarity — the paper's per-element validity notion."""
        return self.declared and self.local_triple.is_full

    def __repr__(self) -> str:
        return (
            f"ElementEvaluation({self.element.tag!r}, "
            f"local={self.local_similarity:.3f}, "
            f"global={self.global_similarity:.3f})"
        )


class DocumentEvaluation:
    """Similarity of a whole document against one DTD.

    ``elements`` is ``None`` for the synthesized evaluation of a document
    known to be valid (:func:`valid_document_evaluation`): then
    :attr:`synthesized` is True, the per-element list is built on first
    read of :attr:`elements`, and the invalid-element count is 0 without
    building it.
    """

    def __init__(
        self,
        document: Document,
        dtd: DTD,
        triple: EvalTriple,
        elements: Optional[List[ElementEvaluation]],
        config: SimilarityConfig,
    ):
        self.document = document
        self.dtd = dtd
        self.triple = triple
        self.config = config
        #: every element is declared and locally valid (tier 1), so the
        #: recorder may record the whole document in one walk
        self.synthesized = elements is None
        self._elements = elements
        self._invalid_count: Optional[int] = 0 if elements is None else None

    @property
    def elements(self) -> List[ElementEvaluation]:
        """Per-element evaluations, in document preorder."""
        if self._elements is None:
            self._elements = _valid_element_evaluations(self.document, self.config)
        return self._elements

    @property
    def similarity(self) -> float:
        """The numeric rank in [0, 1] used by the classifier."""
        return self.triple.evaluate(self.config)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def invalid_element_count(self) -> int:
        """Number of elements whose local similarity is not full."""
        if self._invalid_count is None:
            self._invalid_count = sum(
                1 for evaluation in self.elements if not evaluation.is_locally_valid
            )
        return self._invalid_count

    @property
    def invalid_element_fraction(self) -> float:
        """The per-document term of the paper's activation condition."""
        invalid = self.invalid_element_count
        if invalid == 0:
            return 0.0
        return invalid / len(self.elements)

    @property
    def is_valid(self) -> bool:
        """Full global similarity at the root ⇔ boolean validity."""
        return self.triple.is_full

    def __repr__(self) -> str:
        return (
            f"DocumentEvaluation(dtd={self.dtd.name!r}, "
            f"similarity={self.similarity:.3f}, "
            f"invalid={self.invalid_element_count}/{self.element_count})"
        )


def evaluate_document(
    document: Document,
    dtd: DTD,
    config: SimilarityConfig = SimilarityConfig(),
    matcher: Optional[StructureMatcher] = None,
    tag_matcher: Optional[TagMatcher] = None,
) -> DocumentEvaluation:
    """Evaluate a document against a DTD, globally and per element.

    Pass a pre-built ``matcher`` to reuse its declaration-level caches
    across many documents (the classifier does).

    >>> from repro.dtd.parser import parse_dtd
    >>> from repro.xmltree.parser import parse_document
    >>> dtd = parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>")
    >>> evaluate_document(parse_document("<a><b>x</b></a>"), dtd).is_valid
    True
    """
    if matcher is None:
        matcher = StructureMatcher(dtd, config, tag_matcher)
    else:
        matcher.clear_cache()
    document_triple = matcher.document_triple(document.root)
    evaluations: List[ElementEvaluation] = []
    for element in document.root.iter_elements():
        declared = element.tag in dtd
        local_triple = matcher.content_triple(element, "local")
        global_triple = matcher.content_triple(element, "global")
        if not declared:
            # an undeclared element is entirely uncaptured structure
            local_triple = local_triple.add_plus(1.0)
            global_triple = global_triple.add_plus(1.0)
        evaluations.append(
            ElementEvaluation(element, declared, local_triple, global_triple, config)
        )
    matcher.clear_cache()
    return DocumentEvaluation(document, dtd, document_triple, evaluations, config)


def valid_document_evaluation(
    document: Document,
    dtd: DTD,
    config: SimilarityConfig = SimilarityConfig(),
) -> DocumentEvaluation:
    """Synthesize the evaluation of a document *known to be valid*.

    Section 3.1: for the global measure, fullness coincides with
    validity — a valid document's optimal alignment matches every
    vertex, so every triple is all-common and no span DP is needed.
    For a valid document this returns values bit-identical to
    :func:`evaluate_document` (asserted in ``tests/test_fastpath.py``):

    - document triple: ``(0, 0, W)`` where ``W`` is the subtree weight
      (element vertices + non-whitespace text leaves) — the root's tag
      vertex is common, and recursively so is all content;
    - per element: local triple ``(0, 0, n)`` with ``n`` its direct
      item count, global triple ``(0, 0, w - 1)`` with ``w`` its
      subtree weight (the element's own vertex excluded, as
      :meth:`StructureMatcher.content_triple` does).

    Callers must guarantee validity (``Validator.is_valid``), an exact
    tag matcher, positive ``alpha``/``beta`` (a zero weight lets the DP
    tie-break onto non-all-common optima), and a document shallower
    than ``config.max_depth`` (beyond it the DP truncates recursion and
    its common totals shrink).  The classifier's tier-1 fast path
    checks all four.  The per-element list is built on first read of
    :attr:`DocumentEvaluation.elements`, from the document as it is then
    (the pipeline never mutates a document).
    """
    document_triple = EvalTriple(common=document.root.structure_info().weight)
    return DocumentEvaluation(document, dtd, document_triple, None, config)


def _valid_element_evaluations(
    document: Document, config: SimilarityConfig
) -> List[ElementEvaluation]:
    """The per-element triples :func:`valid_document_evaluation` defers."""
    evaluations: List[ElementEvaluation] = []
    for element in document.root.iter_elements():
        items = 0
        for child in element.children:
            if isinstance(child, Element) or child.value.strip():
                items += 1
        local_triple = EvalTriple(common=float(items))
        global_triple = EvalTriple(common=element.structure_info().weight - 1.0)
        evaluations.append(
            ElementEvaluation(element, True, local_triple, global_triple, config)
        )
    return evaluations


def similarity(
    document: Document, dtd: DTD, config: SimilarityConfig = SimilarityConfig()
) -> float:
    """Document-against-DTD similarity rank in ``[0, 1]``."""
    return StructureMatcher(dtd, config).document_similarity(document.root)


def local_similarity(
    element: Element, dtd: DTD, config: SimilarityConfig = SimilarityConfig()
) -> float:
    """Local similarity of one element (Section 3.1)."""
    return StructureMatcher(dtd, config).local_similarity(element)


def similarity_map(
    document: Document,
    dtd: DTD,
    config: SimilarityConfig = SimilarityConfig(),
) -> Dict[int, ElementEvaluation]:
    """Per-element evaluations keyed by ``id(element)`` (recorder input)."""
    evaluation = evaluate_document(document, dtd, config)
    return {id(entry.element): entry for entry in evaluation.elements}
