"""CLI coverage for the pipeline-era ``run`` flags — ``--store``,
``--checkpoint-every``, ``--report-perf``,
``--trace``/``--trace-jsonl``/``--metrics`` — the ``report``
subcommand, and the clean ``error:`` exits on bad state files and bad
``serve`` options."""

import functools
import json

import pytest

from repro.cli import main

_DTD = """
<!ELEMENT a (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
"""


@pytest.fixture
def workspace(tmp_path):
    dtd_path = tmp_path / "schema.dtd"
    dtd_path.write_text(_DTD)
    documents = []
    for index in range(12):
        path = tmp_path / f"doc{index}.xml"
        if index < 6:
            path.write_text("<a><b>x</b><c>y</c><d>z</d></a>")
        else:
            path.write_text("<a><b>x</b><c>y</c><e>w</e></a>")
        documents.append(str(path))
    return str(dtd_path), documents


@pytest.fixture
def reference_path(monkeypatch):
    """Fresh sources built by the CLI take the reference path
    (``fastpath=False``) for the rest of the test."""
    from repro.core import engine

    monkeypatch.setattr(
        engine, "XMLSource", functools.partial(engine.XMLSource, fastpath=False)
    )


class TestReportPerf:
    def test_prints_grouped_sorted_report(self, workspace, tmp_path, capsys):
        from repro.perf.counters import TIMER_NAMES

        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        assert (
            main(
                ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3",
                 "--report-perf"]
                + documents[:3]
            )
            == 0
        )
        output = capsys.readouterr().out
        report = json.loads(output[output.index("{"):])
        assert list(report) == ["counters", "timers", "derived"]
        assert report["counters"]["documents_classified"] == 3
        assert "dp_runs" in report["counters"]
        # every group is key-sorted; timers list every TIMER_NAMES entry,
        # zero-valued ones included (nothing evolved in a 3-document run)
        for group in ("counters", "timers", "derived"):
            assert list(report[group]) == sorted(report[group])
        assert set(report["timers"]) == set(TIMER_NAMES)
        assert report["timers"]["evolve_ns"] == 0
        assert 0.0 <= report["derived"]["validity_short_circuit_rate"] <= 1.0

    def test_no_fastpath_disables_the_counters(
        self, workspace, tmp_path, capsys, reference_path
    ):
        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        assert (
            main(
                ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3",
                 "--report-perf"]
                + documents[:3]
            )
            == 0
        )
        output = capsys.readouterr().out
        report = json.loads(output[output.index("{"):])
        assert report["counters"]["validity_short_circuits"] == 0
        assert report["counters"]["bound_skips"] == 0
        assert report["derived"]["validity_short_circuit_rate"] == 0.0


class TestTraceFlags:
    def test_trace_exports_and_report_round_trip(
        self, workspace, tmp_path, capsys
    ):
        from repro.obs.export import load_trace

        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        trace_path = str(tmp_path / "trace.json")
        jsonl_path = str(tmp_path / "trace.jsonl")
        metrics_path = str(tmp_path / "metrics.prom")
        assert (
            main(
                ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3",
                 "--trace", trace_path, "--trace-jsonl", jsonl_path,
                 "--metrics", metrics_path]
                + documents
            )
            == 0
        )
        capsys.readouterr()
        trace_id, chrome_records = load_trace(trace_path)
        jsonl_id, jsonl_records = load_trace(jsonl_path)
        assert trace_id and trace_id == jsonl_id
        assert len(chrome_records) == len(jsonl_records) > len(documents)
        metrics_text = (tmp_path / "metrics.prom").read_text()
        assert "repro_perf_documents_classified" in metrics_text
        assert 'repro_span_seconds_bucket{name="doc"' in metrics_text
        assert "repro_event_dead_letters 0" in metrics_text
        assert main(["report", trace_path, "--top", "3"]) == 0
        report_out = capsys.readouterr().out
        assert trace_id in report_out
        assert "stage.classify" in report_out

    def test_report_rejects_bad_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1
        assert main(["report", str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()

    def test_untraced_run_writes_no_trace_files(self, workspace, tmp_path, capsys):
        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        assert (
            main(["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3"]
                 + documents[:2])
            == 0
        )
        capsys.readouterr()
        assert not list(tmp_path.glob("*.prom"))
        assert not list(tmp_path.glob("trace*"))


class TestNoFastpathOutcomes:
    def test_same_classification_lines_as_default(
        self, workspace, tmp_path, capsys, request
    ):
        dtd_path, documents = workspace

        def run_lines(state_name):
            state = str(tmp_path / state_name)
            assert (
                main(
                    ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3"]
                    + documents
                )
                == 0
            )
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "similarity" in line]

        default = run_lines("a.json")
        request.getfixturevalue("reference_path")
        assert run_lines("b.json") == default


class TestBadInput:
    """Bad state files and bad ``serve`` options end in one ``error:``
    line and a non-zero exit, never a traceback."""

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{}", "unsupported snapshot format None"),
            ('{"format": 3}', "snapshot lacks section(s): config"),
            ("[1, 2]", "a snapshot is a JSON object, not list"),
            ("not json", "is not a JSON snapshot"),
        ],
        ids=["empty-object", "format-only", "list", "not-json"],
    )
    def test_bad_state_file(self, workspace, tmp_path, capsys, content, message):
        dtd_path, documents = workspace
        state = tmp_path / "state.json"
        state.write_text(content)
        assert main(
            ["run", "--state", str(state), "--dtd", dtd_path] + documents[:1]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", ["2", "-0.5", "nan"])
    def test_trace_sample_outside_the_unit_interval(
        self, workspace, tmp_path, capsys, monkeypatch, rate
    ):
        import logging

        monkeypatch.setattr(
            logging.getLogger("repro.serve"), "handlers", [logging.NullHandler()]
        )
        dtd_path, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--state", str(tmp_path / "state.json"),
                  "--dtd", dtd_path, "--port", "0", "--duration", "0.2",
                  "--trace-sample", rate])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --trace-sample: expected a number in [0, 1]" in err
        assert "Traceback" not in err


class TestStoreFlag:
    def test_sqlite_runs_and_serve_leave_no_temporary_file(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """``--store sqlite`` keeps the repository in a temporary
        database; the state file holds the repository, so ``run`` and
        ``serve`` delete that database when they exit."""
        import logging
        import tempfile

        spill = tmp_path / "tmp"
        spill.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill))
        # serve attaches a stderr handler unless its logger has one
        monkeypatch.setattr(
            logging.getLogger("repro.serve"), "handlers", [logging.NullHandler()]
        )
        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        assert (
            main(
                ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3",
                 "--store", "sqlite", "--min-documents", "12"]
                + documents[:6]
            )
            == 0
        )
        capsys.readouterr()
        with open(state) as handle:
            assert json.load(handle)["repository"]["store"] == "sqlite"
        # the resumed run respects the snapshot's backend and evolves
        assert main(["run", "--state", state] + documents[6:]) == 0
        assert "evolved" in capsys.readouterr().out
        assert main(
            ["serve", "--state", state, "--port", "0", "--duration", "0.2"]
        ) == 0
        assert list(spill.iterdir()) == []

    def test_jsonl_store_is_rejected(self, workspace, tmp_path, capsys):
        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        with pytest.raises(SystemExit):
            main(["run", "--state", state, "--dtd", dtd_path,
                  "--store", "jsonl"] + documents[:1])
        assert "invalid choice: 'jsonl'" in capsys.readouterr().err


class TestCheckpointEvery:
    def test_state_file_appears_before_the_run_ends(self, workspace, tmp_path, capsys):
        dtd_path, documents = workspace
        state = str(tmp_path / "state.json")
        assert (
            main(
                ["run", "--state", state, "--dtd", dtd_path, "--sigma", "0.3",
                 "--checkpoint-every", "2"]
                + documents[:5]
            )
            == 0
        )
        capsys.readouterr()
        with open(state) as handle:
            data = json.load(handle)
        # the final save covers all 5; a checkpointed run is loadable
        assert data["documents_processed"] == 5
        assert main(["run", "--state", state] + documents[5:6]) == 0
