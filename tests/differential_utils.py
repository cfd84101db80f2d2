"""Run fingerprinting shared by the engine differential tests.

A differential test runs the same documents through two engines that
should agree — fast paths on vs off, or two entry points into the
pipeline — and compares everything observable: per-document outcomes,
full exact rankings, evaluation triples, repository contents, the
evolution log, the final DTD serializations, and the lifecycle event
sequence.  :func:`run_view` collects those artefacts for one run;
:data:`COMPARED` names the keys that must match.
"""

from __future__ import annotations

import random

from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import (
    bibliography_scenario,
    catalog_scenario,
    newsfeed_scenario,
)
from repro.pipeline.events import (
    DocumentClassified,
    DocumentDeposited,
    DocumentRecorded,
    EvolutionFinished,
    EvolutionStarted,
    RepositoryDrained,
)
from repro.xmltree.document import Element, Text
from repro.xmltree.serializer import serialize_document

#: the artefacts two equivalent runs must agree on exactly
COMPARED = (
    "outcomes", "rankings", "evaluations", "repository",
    "evolution_log", "dtds", "events",
)


def event_view(event):
    """An event's comparable projection (``result`` is compared
    separately through the ranking/evaluation views; counts are compared
    through ``perf_snapshot()``)."""
    if isinstance(event, DocumentClassified):
        return (
            "classified",
            serialize_document(event.document),
            event.dtd_name,
            event.similarity,
            event.accepted,
        )
    if isinstance(event, DocumentDeposited):
        return (
            "deposited",
            serialize_document(event.document),
            event.similarity,
            event.repository_size,
        )
    if isinstance(event, DocumentRecorded):
        return (
            "recorded",
            serialize_document(event.document),
            event.dtd_name,
            event.documents_recorded,
        )
    if isinstance(event, EvolutionStarted):
        return (
            "evolution_started",
            event.dtd_name,
            event.documents_recorded,
            event.activation_score,
        )
    if isinstance(event, EvolutionFinished):
        return (
            "evolution_finished",
            event.dtd_name,
            event.documents_recorded,
            event.activation_score,
            serialize_dtd(event.result.new_dtd),
            tuple((action.name, action.action) for action in event.result.actions),
        )
    if isinstance(event, RepositoryDrained):
        return ("drained", event.recovered, event.remaining)
    return (type(event).__name__,)


def _evaluation_view(result):
    if result.evaluation is None:
        return None
    return (
        tuple(result.evaluation.triple),
        tuple(
            (entry.declared, tuple(entry.local_triple), tuple(entry.global_triple))
            for entry in result.evaluation.elements
        ),
    )


def run_view(source, process):
    """Run ``process(source)`` with every lifecycle event recorded and
    return the run's comparable artefacts (plus ``perf`` and the
    ``source`` itself).  ``process`` returns the outcomes."""
    events = []
    source.events.subscribe_all(events.append)
    outcomes = process(source)
    classifications = [
        event.result for event in events if isinstance(event, DocumentClassified)
    ]
    return {
        "outcomes": [
            (outcome.dtd_name, outcome.similarity, tuple(outcome.evolved),
             outcome.recovered)
            for outcome in outcomes
        ],
        # realizes any lazy tails — full exact rankings either way
        "rankings": [tuple(result.ranking) for result in classifications],
        "evaluations": [_evaluation_view(result) for result in classifications],
        "repository": [
            serialize_document(document) for document in source.repository
        ],
        "evolution_log": [
            (entry.dtd_name, entry.documents_recorded, entry.activation_score,
             serialize_dtd(entry.result.new_dtd), entry.recovered_from_repository)
            for entry in source.evolution_log
        ],
        "dtds": {
            name: serialize_dtd(source.dtd(name)) for name in source.dtd_names()
        },
        "events": [event_view(event) for event in events],
        "perf": source.perf_snapshot(),
        "source": source,
    }


def run_batch(build_source, documents):
    """One ``process_many`` run over fresh copies of ``documents``."""
    return run_view(
        build_source(),
        lambda source: source.process_many(
            [document.copy() for document in documents]
        ),
    )


def _mutated(documents, seed):
    """Structurally perturbed copies: stray elements force real DP work
    and below-sigma deposits."""
    rng = random.Random(seed)
    mutated = []
    for document in documents:
        copy = document.copy()
        for _ in range(rng.randint(1, 3)):
            copy.root.append(Element(f"stray{rng.randint(0, 2)}",
                                     children=[Text("x")]))
        mutated.append(copy)
    return mutated


def multi_dtd_corpus(per_scenario, seed):
    """Three realistic scenario DTDs and a shuffled mix of their clean
    documents plus structurally perturbed copies."""
    dtds, documents = [], []
    for scenario in (catalog_scenario, bibliography_scenario, newsfeed_scenario):
        dtd, make = scenario()
        dtds.append(dtd)
        clean = make(per_scenario, seed=seed)
        documents.extend(clean)
        documents.extend(_mutated(clean[: per_scenario // 2], seed + 1))
    random.Random(seed).shuffle(documents)
    return dtds, documents
