"""Unit tests for similarity-based classification and the repository."""

import pytest

from repro.classification.classifier import Classifier
from repro.classification.repository import Repository
from repro.dtd.parser import parse_dtd
from repro.errors import ClassificationError
from repro.xmltree.parser import parse_document


def _dtds():
    return [
        parse_dtd("<!ELEMENT a (x, y)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>", name="A"),
        parse_dtd("<!ELEMENT b (z+)><!ELEMENT z (#PCDATA)>", name="B"),
    ]


class TestRanking:
    def test_rank_orders_by_similarity(self):
        classifier = Classifier(_dtds(), threshold=0.0)
        ranking = classifier.rank(parse_document("<a><x>1</x><y>2</y></a>"))
        assert ranking[0] == ("A", 1.0)
        assert ranking[1][0] == "B"
        assert ranking[1][1] < 1.0

    def test_rank_tie_breaks_on_name(self):
        twins = [
            parse_dtd("<!ELEMENT a (x)><!ELEMENT x (#PCDATA)>", name="N2"),
            parse_dtd("<!ELEMENT a (x)><!ELEMENT x (#PCDATA)>", name="N1"),
        ]
        classifier = Classifier(twins, threshold=0.0)
        ranking = classifier.rank(parse_document("<a><x>1</x></a>"))
        assert [name for name, _score in ranking] == ["N1", "N2"]

    def test_empty_classifier_rejected(self):
        with pytest.raises(ClassificationError):
            Classifier([], threshold=0.5).rank(parse_document("<a/>"))


class TestThreshold:
    def test_below_threshold_is_unclassified(self):
        classifier = Classifier(_dtds(), threshold=0.99)
        result = classifier.classify(parse_document("<a><x>1</x></a>"))  # y missing
        assert not result.accepted
        assert result.dtd_name is None
        assert result.similarity < 0.99
        assert result.evaluation is None
        assert result.ranking

    def test_above_threshold_carries_evaluation(self):
        classifier = Classifier(_dtds(), threshold=0.5)
        result = classifier.classify(parse_document("<a><x>1</x><y>2</y></a>"))
        assert result.accepted
        assert result.dtd_name == "A"
        assert result.evaluation is not None
        assert result.evaluation.is_valid

    def test_threshold_validation(self):
        with pytest.raises(ClassificationError):
            Classifier(_dtds(), threshold=1.5)


class TestDTDManagement:
    def test_duplicate_names_rejected(self):
        dtds = _dtds()
        with pytest.raises(ClassificationError):
            Classifier(dtds + [dtds[0]], threshold=0.5)

    def test_replace_dtd(self):
        classifier = Classifier(_dtds(), threshold=0.5)
        evolved = parse_dtd(
            "<!ELEMENT a (x, y, w?)><!ELEMENT x (#PCDATA)>"
            "<!ELEMENT y (#PCDATA)><!ELEMENT w (#PCDATA)>",
            name="A",
        )
        classifier.replace_dtd(evolved)
        result = classifier.classify(
            parse_document("<a><x>1</x><y>2</y><w>3</w></a>")
        )
        assert result.similarity == 1.0

    def test_replace_unknown_name(self):
        classifier = Classifier(_dtds(), threshold=0.5)
        with pytest.raises(ClassificationError):
            classifier.replace_dtd(parse_dtd("<!ELEMENT q (#PCDATA)>", name="Q"))


class TestRepository:
    def test_add_iterate_len(self):
        repository = Repository()
        documents = [parse_document("<a/>"), parse_document("<b/>")]
        for document in documents:
            repository.add(document)
        assert len(repository) == 2
        assert list(repository) == documents

    def test_drain_without_predicate_takes_all(self):
        """With no query every held document is a candidate; a drain
        that recovers them all fetches and removes every one."""
        repository = Repository()
        documents = [parse_document("<a/>"), parse_document("<b/>")]
        for document in documents:
            repository.add(document)
        ids = [doc_id for doc_id, _ in repository.candidates(None)]
        assert repository.fetch(ids) == documents
        repository.remove(ids)
        assert len(repository) == 0

    def test_clear(self):
        repository = Repository()
        repository.add(parse_document("<a/>"))
        repository.remove([doc_id for doc_id, _ in repository.candidates(None)])
        assert len(repository) == 0
        assert list(repository) == []
