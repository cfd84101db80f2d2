"""repro — a reproduction of Bertino, Guerrini, Mesiti & Tosetto,
*Evolving a Set of DTDs According to a Dynamic Set of XML Documents*
(EDBT 2002 Workshops, LNCS 2490, pp. 45–66).

The library adapts a set of DTDs to the documents actually flowing into
an XML source: documents are classified by structural similarity,
their deviations recorded as aggregates inside *extended DTDs*, and —
when deviations accumulate — each element declaration is kept,
restricted, rebuilt (via association rules and heuristic policies) or
OR-merged, at per-element granularity.

Quickstart::

    from repro import XMLSource, EvolutionConfig, parse_dtd, parse_document

    source = XMLSource(
        [parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", name="T")],
        EvolutionConfig(sigma=0.3, tau=0.1, psi=0.2, mu=0.05),
    )
    source.process(parse_document("<a><b>x</b><c>new</c></a>"))
    ...
    source.dtd("T")        # the current (possibly evolved) DTD

Subpackages: :mod:`repro.xmltree` and :mod:`repro.dtd` (substrates),
:mod:`repro.similarity` (classification measure), :mod:`repro.mining`
(association rules), :mod:`repro.core` (recording + evolution + the
engine that runs the Figure-1 loop), :mod:`repro.pipeline` (the loop's
lifecycle event bus), :mod:`repro.classification` (classifier,
repository, the memory and sqlite document stores), :mod:`repro.generators`,
:mod:`repro.baselines`, :mod:`repro.metrics`.
"""

from repro.xmltree import (
    Document,
    Element,
    Text,
    parse_document,
    parse_fragment,
    serialize_document,
)
from repro.xmltree.document import element
from repro.dtd import (
    DTD,
    ElementDecl,
    Validator,
    parse_dtd,
    parse_content_model,
    serialize_dtd,
    serialize_content_model,
    simplify,
)
from repro.similarity import (
    SimilarityConfig,
    evaluate_document,
    similarity,
    local_similarity,
)
from repro.classification import Classifier, Repository
from repro.classification.stores import DocumentStore, MemoryStore
from repro.core import (
    ExtendedDTD,
    Recorder,
    Window,
    EvolutionConfig,
    EvolutionResult,
    evolve_dtd,
    build_structure,
    XMLSource,
)
from repro.pipeline import EventBus
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Document",
    "Element",
    "Text",
    "element",
    "parse_document",
    "parse_fragment",
    "serialize_document",
    "DTD",
    "ElementDecl",
    "Validator",
    "parse_dtd",
    "parse_content_model",
    "serialize_dtd",
    "serialize_content_model",
    "simplify",
    "SimilarityConfig",
    "evaluate_document",
    "similarity",
    "local_similarity",
    "Classifier",
    "Repository",
    "DocumentStore",
    "MemoryStore",
    "EventBus",
    "ExtendedDTD",
    "Recorder",
    "Window",
    "EvolutionConfig",
    "EvolutionResult",
    "evolve_dtd",
    "build_structure",
    "XMLSource",
    "ReproError",
    "__version__",
]
