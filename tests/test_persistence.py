"""Unit tests for JSON persistence of the source state."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig, evolve_dtd
from repro.core.extended_dtd import ExtendedDTD
from repro.core.persistence import (
    config_from_json,
    config_to_json,
    dtd_from_json,
    dtd_to_json,
    extended_from_json,
    extended_to_json,
    load_source,
    record_from_json,
    record_to_json,
    save_source,
    source_from_json,
    source_to_json,
    tree_from_json,
    tree_to_json,
)
from repro.core.recorder import Recorder
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.xmltree.parser import parse_document
from repro.xmltree.tree import Tree


class TestTreeAndDTD:
    def test_tree_round_trip(self):
        tree = Tree.from_tuple(("AND", ["a", ("*", [("OR", ["b", "c"])])]))
        assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree

    def test_dtd_round_trip_with_attlists(self):
        dtd = parse_dtd(
            """
            <!ELEMENT a ((b, c)*, d?)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c EMPTY>
            <!ELEMENT d ANY>
            <!ATTLIST a id ID #REQUIRED>
            """,
            name="x",
        )
        dtd.root = "a"
        again = dtd_from_json(json.loads(json.dumps(dtd_to_json(dtd))))
        assert again == dtd
        assert again.attlists["a"][0].name == "id"
        assert serialize_dtd(again) == serialize_dtd(dtd)


class TestRecords:
    def _recorded_extended(self):
        extended = ExtendedDTD(figure3_dtd())
        recorder = Recorder(extended)
        for document in figure3_workload(8, 8, seed=3):
            recorder.record(document)
        return extended

    def test_record_round_trip(self):
        extended = self._recorded_extended()
        record = extended.records["a"]
        again = record_from_json(json.loads(json.dumps(record_to_json(record))))
        assert again.labels == record.labels
        assert again.sequences == record.sequences
        assert again.groups == record.groups
        assert again.invalid_count == record.invalid_count
        assert set(again.plus_records) == set(record.plus_records)
        for label in record.label_stats:
            assert (
                again.label_stats[label].max_occurrences
                == record.label_stats[label].max_occurrences
            )

    def test_extended_round_trip_preserves_activation(self):
        extended = self._recorded_extended()
        again = extended_from_json(
            json.loads(json.dumps(extended_to_json(extended)))
        )
        assert again.activation_score == extended.activation_score
        assert again.document_count == extended.document_count

    def test_restored_state_evolves_identically(self):
        extended = self._recorded_extended()
        again = extended_from_json(extended_to_json(extended))
        config = EvolutionConfig(psi=0.2)
        assert (
            evolve_dtd(again, config).new_dtd == evolve_dtd(extended, config).new_dtd
        )


class TestConfig:
    def test_round_trip(self):
        config = EvolutionConfig(sigma=0.4, tau=0.2, psi=0.1, mu=0.3, min_documents=7)
        assert config_from_json(config_to_json(config)) == config


class TestSource:
    def _running_source(self):
        source = XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.8, tau=0.1, psi=0.2, min_documents=100),
        )
        for document in figure3_workload(6, 6, seed=9):
            source.process(document)
        return source

    def test_source_round_trip(self, tmp_path):
        source = self._running_source()
        path = str(tmp_path / "snapshot.json")
        save_source(source, path)
        restored = load_source(path)
        assert restored.dtd_names() == source.dtd_names()
        assert restored.documents_processed == source.documents_processed
        assert len(restored.repository) == len(source.repository)
        assert (
            restored.extended_dtd("figure3").activation_score
            == source.extended_dtd("figure3").activation_score
        )

    def test_restored_source_continues_identically(self, tmp_path):
        source = self._running_source()
        restored = source_from_json(source_to_json(source))
        event_a = source.evolve_now("figure3")
        event_b = restored.evolve_now("figure3")
        assert event_a.result.new_dtd == event_b.result.new_dtd

    def test_restored_source_keeps_recording(self):
        source = self._running_source()
        restored = source_from_json(source_to_json(source))
        before = restored.extended_dtd("figure3").document_count
        restored.process(parse_document("<a><b>x</b><c>y</c></a>"))
        assert restored.extended_dtd("figure3").document_count == before + 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            source_from_json({"format": 999})


#: processes one stream — valid documents of four scenarios, then a
#: drifting Figure-3 workload that evolves — and saves the state to argv[1]
_SAVE_ONE_STREAM = """
import sys
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.persistence import save_source
from repro.generators.scenarios import (
    auction_scenario, bibliography_scenario, catalog_scenario,
    figure3_dtd, figure3_workload, newsfeed_scenario,
)
dtds, documents = [figure3_dtd()], []
for offset, scenario in enumerate(
    (catalog_scenario, bibliography_scenario, newsfeed_scenario, auction_scenario)
):
    dtd, make = scenario()
    dtds.append(dtd)
    documents.extend(make(3, 5 + offset))
documents.extend(figure3_workload(6, 6, seed=5))
source = XMLSource(dtds, EvolutionConfig(sigma=0.55, tau=0.1, min_documents=5))
source.process_many(documents)
assert source.evolution_count > 0
save_source(source, sys.argv[1])
"""


def test_saved_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Python randomizes string hashes per process, and with them the
    iteration order of sets of tags; the same stream saved by two
    processes with different ``PYTHONHASHSEED`` must give the same
    bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    python_path = os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part
    )
    saved = []
    for seed in ("1", "2"):
        path = tmp_path / f"state-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=python_path)
        subprocess.run(
            [sys.executable, "-c", _SAVE_ONE_STREAM, str(path)],
            env=env,
            check=True,
            timeout=120,
        )
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
