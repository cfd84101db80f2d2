"""Fast-path exactness and cache correctness (``repro.perf``).

The classification fast paths — validity short-circuit, structural
interning cache, pruned ranking — are only admissible because they are
*semantics-preserving*: with the fast paths on or off, every similarity,
ranking, classification and per-element evaluation triple must be
bit-identical.  These tests assert that equivalence directly, plus the
cache-correctness corners (hot vs cold, DTD replacement, thesaurus
matchers, LRU eviction) and that the counters prove the fast paths
actually fire.
"""

from __future__ import annotations

import json

import pytest

from repro.classification.classifier import Classifier
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import extended_to_json, save_source
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.generators.documents import DocumentGenerator
from repro.generators.scenarios import (
    auction_scenario,
    bibliography_scenario,
    catalog_scenario,
    figure3_dtd,
    figure3_workload,
    newsfeed_scenario,
)
from repro.perf import PerfCounters
from repro.similarity.evaluation import evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import ThesaurusTagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.parser import parse_document


def _scenario_set():
    """Five DTDs with overlapping-but-distinct vocabularies."""
    dtds = [figure3_dtd()]
    makers = {}
    for scenario in (
        catalog_scenario,
        bibliography_scenario,
        newsfeed_scenario,
        auction_scenario,
    ):
        dtd, make = scenario()
        dtds.append(dtd)
        makers[dtd.name] = make
    return dtds, makers


def _mixed_stream(makers, per_scenario=4, seed=7):
    """Valid documents from each scenario plus deviating strays."""
    documents = []
    for offset, make in enumerate(sorted(makers)):
        documents.extend(makers[make](per_scenario, seed + offset))
    documents.extend(figure3_workload(3, 3, seed=seed))
    documents.append(parse_document("<unrelated><thing>x</thing></unrelated>"))
    documents.append(
        parse_document("<catalog><oddity>1</oddity><oddity>2</oddity></catalog>")
    )
    return documents


def _triples(evaluation):
    if evaluation is None:
        return None
    return [
        (e.element.tag, e.declared, tuple(e.local_triple), tuple(e.global_triple))
        for e in evaluation.elements
    ]


def _assert_same_result(fast, slow):
    assert fast.dtd_name == slow.dtd_name
    assert fast.similarity == slow.similarity
    assert fast.ranking == slow.ranking
    assert _triples(fast.evaluation) == _triples(slow.evaluation)


# ----------------------------------------------------------------------
# Equivalence: fast paths on vs off
# ----------------------------------------------------------------------


def test_classifier_equivalence_on_vs_off():
    dtds, makers = _scenario_set()
    fast_counters = PerfCounters()
    fast = Classifier(dtds, threshold=0.5, counters=fast_counters)
    slow = Classifier(dtds, threshold=0.5, fastpath=False)
    for document in _mixed_stream(makers):
        _assert_same_result(fast.classify(document), slow.classify(document))
    # the equivalence is only meaningful if the fast paths actually ran
    assert fast_counters.validity_short_circuits > 0
    assert fast_counters.structural_cache_hits > 0
    assert fast_counters.bound_skips > 0
    assert fast_counters.dp_runs < fast_counters.documents_classified * len(dtds)


def test_rank_equivalence_on_vs_off():
    dtds, makers = _scenario_set()
    fast = Classifier(dtds, threshold=0.5)
    slow = Classifier(dtds, threshold=0.5, fastpath=False)
    for document in _mixed_stream(makers, per_scenario=2):
        assert fast.rank(document) == slow.rank(document)


def _assert_same_engine_run(make_dtds, documents, config, tmp_path):
    """Fast paths on and off process ``documents`` identically: outcomes,
    evolution log, evolved DTDs, recorded aggregates (values and dict
    order) and saved bytes.  Returns the fast engine."""
    fast = XMLSource(make_dtds(), config)
    slow = XMLSource(make_dtds(), config, fastpath=False)
    fast_outcomes = fast.process_many([d.copy() for d in documents])
    slow_outcomes = slow.process_many([d.copy() for d in documents])
    for ours, theirs in zip(fast_outcomes, slow_outcomes):
        assert ours.dtd_name == theirs.dtd_name
        assert ours.similarity == theirs.similarity
        assert ours.evolved == theirs.evolved
        assert ours.recovered == theirs.recovered
    assert len(fast.evolution_log) == len(slow.evolution_log)
    for ours, theirs in zip(fast.evolution_log, slow.evolution_log):
        assert ours.dtd_name == theirs.dtd_name
        assert ours.documents_recorded == theirs.documents_recorded
        assert ours.activation_score == theirs.activation_score
        assert ours.recovered_from_repository == theirs.recovered_from_repository
    assert fast.dtd_names() == slow.dtd_names()
    for name in fast.dtd_names():
        assert serialize_dtd(fast.dtd(name)) == serialize_dtd(slow.dtd(name))
        assert json.dumps(extended_to_json(fast.extended_dtd(name))) == json.dumps(
            extended_to_json(slow.extended_dtd(name))
        )
    assert len(fast.repository) == len(slow.repository)
    save_source(fast, str(tmp_path / "fast.json"))
    save_source(slow, str(tmp_path / "slow.json"))
    assert (tmp_path / "fast.json").read_bytes() == (
        tmp_path / "slow.json"
    ).read_bytes()
    # the comparison covers the tier-1 recording path only if it ran
    assert fast.perf.validity_short_circuits > 0
    assert slow.perf.validity_short_circuits == 0
    return fast


def test_engine_equivalence_with_evolutions(tmp_path):
    """The full Figure-1 loop — including evolutions and repository
    drains — produces identical outcomes, evolved DTDs and recordings."""
    config = EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5)
    documents = figure3_workload(15, 15, seed=3)
    fast = _assert_same_engine_run(
        lambda: [figure3_dtd()], documents, config, tmp_path
    )
    assert fast.evolution_count > 0


def test_engine_equivalence_over_scenarios(tmp_path):
    """Recording through the engine over five DTDs, where tier 1 fires
    for every scenario: the whole-document valid recording equals the
    per-element recording of the reference path."""
    makers = _scenario_set()[1]
    config = EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5)
    fast = _assert_same_engine_run(
        lambda: _scenario_set()[0], _mixed_stream(makers), config, tmp_path
    )
    for name in makers:
        assert fast.extended_dtd(name).valid_document_count > 0


def test_degenerate_weights_stay_exact():
    """alpha=0 (or beta=0) voids the all-common-optimum argument, so the
    fast paths must self-disable — and results must still match."""
    dtds, makers = _scenario_set()
    for config in (SimilarityConfig(alpha=0.0), SimilarityConfig(beta=0.0)):
        counters = PerfCounters()
        fast = Classifier(dtds, threshold=0.5, config=config, counters=counters)
        slow = Classifier(
            dtds, threshold=0.5, config=config, fastpath=False
        )
        for document in _mixed_stream(makers, per_scenario=2):
            _assert_same_result(fast.classify(document), slow.classify(document))
        assert counters.validity_short_circuits == 0
        assert counters.bound_skips == 0


def test_beyond_max_depth_stays_exact():
    """Past the recursion guard the DP truncates, so tier-2/3 sharing is
    off; the fast and slow paths must still agree."""
    dtd = parse_dtd(
        "<!ELEMENT a (a?, b)><!ELEMENT b (#PCDATA)>", name="deep"
    )
    xml = "<a>" * 6 + "<b>x</b>" + "</a>" * 6
    config = SimilarityConfig(max_depth=3)
    fast = Classifier([dtd], threshold=0.1, config=config)
    slow = Classifier(
        [dtd], threshold=0.1, config=config, fastpath=False
    )
    document = parse_document(xml)
    _assert_same_result(fast.classify(document), slow.classify(document))


# ----------------------------------------------------------------------
# Validity short-circuit (tier 1)
# ----------------------------------------------------------------------


def test_valid_document_short_circuits(simple_dtd, valid_simple_doc):
    counters = PerfCounters()
    classifier = Classifier([simple_dtd], threshold=0.5, counters=counters)
    result = classifier.classify(valid_simple_doc)
    assert result.dtd_name == "simple"
    assert result.similarity == 1.0
    assert counters.validity_short_circuits == 1
    assert counters.synthesized_evaluations == 1
    assert counters.dp_runs == 0


def test_synthesized_evaluation_matches_computed(simple_dtd, valid_simple_doc):
    """The all-common synthesis equals the DP's evaluation exactly."""
    counters = PerfCounters()
    classifier = Classifier([simple_dtd], threshold=0.5, counters=counters)
    synthesized = classifier.classify(valid_simple_doc).evaluation
    computed = evaluate_document(valid_simple_doc, simple_dtd, SimilarityConfig())
    assert counters.synthesized_evaluations == 1
    assert _triples(synthesized) == _triples(computed)
    assert synthesized.triple == computed.triple
    assert synthesized.similarity == computed.similarity == 1.0


def test_synthesized_evaluations_match_across_scenarios():
    dtds, makers = _scenario_set()
    for name, make in sorted(makers.items()):
        dtd = next(d for d in dtds if d.name == name)
        classifier = Classifier([dtd], threshold=0.5)
        for document in make(3, seed=11):
            fast = classifier.classify(document).evaluation
            slow = evaluate_document(document, dtd, SimilarityConfig())
            assert _triples(fast) == _triples(slow)
            assert fast.triple == slow.triple


def test_invalid_document_takes_dp_path(simple_dtd):
    counters = PerfCounters()
    classifier = Classifier([simple_dtd], threshold=0.1, counters=counters)
    document = parse_document("<r><y>2</y><w>?</w></r>")
    result = classifier.classify(document)
    assert result.similarity < 1.0
    assert counters.validity_short_circuits == 0
    assert counters.dp_runs > 0


# ----------------------------------------------------------------------
# Structural interning cache (tier 2)
# ----------------------------------------------------------------------


def test_hot_cache_identical_results(simple_dtd):
    """A repeated (invalid) document hits the fingerprint cache on the
    second classification and yields the identical result."""
    counters = PerfCounters()
    classifier = Classifier([simple_dtd], threshold=0.1, counters=counters)
    xml = "<r><x>1</x><w>stray</w><z>3</z></r>"
    cold = classifier.classify(parse_document(xml))
    dp_after_cold = counters.dp_runs
    hot = classifier.classify(parse_document(xml))
    assert counters.structural_cache_hits > 0
    assert counters.dp_runs == dp_after_cold  # no new DP work
    _assert_same_result(hot, cold)


def test_structural_cache_survives_clear_cache(simple_dtd):
    """clear_cache() drops only the per-document id-keyed memo; the
    fingerprint-keyed LRU persists across documents by design."""
    matcher = StructureMatcher(simple_dtd, counters=PerfCounters())
    document = parse_document("<r><x>1</x><w>stray</w></r>")
    first = matcher.document_similarity(document.root)
    matcher.clear_cache()
    hits_before = matcher.counters.structural_cache_hits
    second = matcher.document_similarity(parse_document("<r><x>1</x><w>stray</w></r>").root)
    assert second == first
    assert matcher.counters.structural_cache_hits > hits_before


def test_lru_eviction_keeps_results_exact(simple_dtd, monkeypatch):
    """A tiny cache evicts constantly but never changes any similarity."""
    monkeypatch.setattr(StructureMatcher, "STRUCTURAL_CACHE_SIZE", 2)
    counters = PerfCounters()
    fast = Classifier([simple_dtd], threshold=0.1, counters=counters)
    slow = Classifier([simple_dtd], threshold=0.1, fastpath=False)
    documents = [
        parse_document(f"<r><x>1</x><w{i}>s</w{i}><z>3</z></r>") for i in range(6)
    ] * 2
    for document in documents:
        _assert_same_result(fast.classify(document), slow.classify(document))
    assert counters.structural_cache_evictions > 0


def test_replace_dtd_discards_cached_triples(simple_dtd):
    """After replace_dtd the old DTD's cached triples must not leak."""
    counters = PerfCounters()
    classifier = Classifier([simple_dtd], threshold=0.1, counters=counters)
    xml = "<r><x>1</x><w>stray</w></r>"
    before = classifier.classify(parse_document(xml))
    evolved = parse_dtd(
        """
        <!ELEMENT r (x, w)>
        <!ELEMENT x (#PCDATA)>
        <!ELEMENT w (#PCDATA)>
        """,
        name="simple",
    )
    classifier.replace_dtd(evolved)
    after = classifier.classify(parse_document(xml))
    fresh = Classifier([evolved], threshold=0.1).classify(parse_document(xml))
    assert after.similarity == fresh.similarity == 1.0
    assert after.similarity != before.similarity
    assert _triples(after.evaluation) == _triples(fresh.evaluation)


# ----------------------------------------------------------------------
# Pruned ranking (tier 3)
# ----------------------------------------------------------------------


def test_pruned_ranking_skips_and_stays_exact():
    dtds, makers = _scenario_set()
    counters = PerfCounters()
    fast = Classifier(dtds, threshold=0.5, counters=counters)
    slow = Classifier(dtds, threshold=0.5, fastpath=False)
    document = makers["auction"](1, seed=5)[0]
    fast_result = fast.classify(document)
    slow_result = slow.classify(document)
    assert counters.bound_skips > 0
    assert fast_result.dtd_name == slow_result.dtd_name
    assert fast_result.similarity == slow_result.similarity
    # the lazily realized ranking is the exact full ranking
    assert fast_result.ranking == slow_result.ranking
    assert len(fast_result.ranking) == len(dtds)


def test_lazy_ranking_survives_replace_dtd():
    """Rankings snapshot the matchers at classification time, so a later
    replace_dtd cannot leak into an already-returned result."""
    dtds, makers = _scenario_set()
    fast = Classifier(dtds, threshold=0.5)
    slow = Classifier(dtds, threshold=0.5, fastpath=False)
    document = makers["auction"](1, seed=5)[0]
    fast_result = fast.classify(document)
    slow_result = slow.classify(document)  # ranking fully realized eagerly
    fast.replace_dtd(
        parse_dtd("<!ELEMENT catalog (#PCDATA)>", name="catalog")
    )
    assert fast_result.ranking == slow_result.ranking


# ----------------------------------------------------------------------
# Thesaurus matchers disable the fast paths
# ----------------------------------------------------------------------


def test_thesaurus_disables_fast_paths(simple_dtd):
    matcher = ThesaurusTagMatcher([{"x", "ex"}], 0.9)
    counters = PerfCounters()
    fast = Classifier(
        [simple_dtd], threshold=0.1, tag_matcher=matcher, counters=counters
    )
    slow = Classifier(
        [simple_dtd],
        threshold=0.1,
        tag_matcher=matcher,
        fastpath=False,
    )
    for xml in (
        "<r><x>1</x><y>2</y></r>",
        "<r><ex>1</ex><y>2</y></r>",
        "<r><ex>1</ex><y>2</y></r>",  # repeat: structural cache may fire
    ):
        _assert_same_result(
            fast.classify(parse_document(xml)), slow.classify(parse_document(xml))
        )
    assert counters.validity_short_circuits == 0
    assert counters.synthesized_evaluations == 0
    assert counters.bound_skips == 0


def test_thesaurus_engine_equivalence():
    matcher = ThesaurusTagMatcher([{"b", "bee"}], 0.9)
    config = EvolutionConfig(sigma=0.4, tau=0.05, min_documents=4)
    documents = figure3_workload(8, 8, seed=13)
    fast = XMLSource([figure3_dtd()], config, tag_matcher=matcher)
    slow = XMLSource(
        [figure3_dtd()],
        config,
        tag_matcher=matcher,
        fastpath=False,
    )
    for document in documents:
        ours = fast.process(document.copy())
        theirs = slow.process(document.copy())
        assert ours.dtd_name == theirs.dtd_name
        assert ours.similarity == theirs.similarity
    for name in fast.dtd_names():
        assert serialize_dtd(fast.dtd(name)) == serialize_dtd(slow.dtd(name))


# ----------------------------------------------------------------------
# Counters and introspection
# ----------------------------------------------------------------------


def test_perf_snapshot_counts_stream():
    config = EvolutionConfig(sigma=0.5, tau=0.9, min_documents=10**6)
    dtd, make = catalog_scenario()
    source = XMLSource([dtd], config)
    source.process_many(make(5, seed=2))
    snapshot = source.perf_snapshot()
    assert snapshot["documents_classified"] == 5
    assert snapshot["validity_short_circuits"] == 5
    assert snapshot["dp_runs"] == 0
    assert snapshot["validations"] == 5


def test_counters_reset():
    counters = PerfCounters()
    counters.dp_runs += 3
    counters.structural_cache_hits += 1
    counters.reset()
    assert all(value == 0 for value in counters.snapshot().values())


def test_fastpath_config_disabled():
    """``fastpath=False`` switches every tier off at once: the same
    stream that fires tiers 1-3 on the default path fires none."""
    dtds, makers = _scenario_set()
    documents = _mixed_stream(makers, per_scenario=2) * 2
    counters = {}
    for fastpath in (True, False):
        counters[fastpath] = PerfCounters()
        classifier = Classifier(
            dtds, threshold=0.5, fastpath=fastpath, counters=counters[fastpath]
        )
        assert classifier.fastpath is fastpath
        for document in documents:
            classifier.classify(document)
    tiers = ("validations", "validity_short_circuits", "structural_cache_hits",
             "structural_cache_misses", "bound_skips")
    assert all(getattr(counters[True], tier) > 0 for tier in tiers)
    assert all(getattr(counters[False], tier) == 0 for tier in tiers)
