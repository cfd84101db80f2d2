"""The observability layer (``repro.obs``): span trees, exports,
metrics, reports, and — most importantly — the guarantees the engine
makes about them: tracing never changes outputs, the no-op default
stays out of the way, and a traced batch produces a single rooted span
tree.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SpanCollector,
    Tracer,
    chrome_trace,
    load_trace,
    render_report,
    span_dict,
    stage_latencies,
    write_chrome_trace,
    write_jsonl,
)
from repro.perf.counters import TIMER_NAMES


def _source(**config_overrides):
    defaults = dict(sigma=0.3, tau=0.05, min_documents=3)
    defaults.update(config_overrides)
    return XMLSource([figure3_dtd()], EvolutionConfig(**defaults))


def _outcome_view(outcomes):
    return [
        (o.dtd_name, o.similarity, tuple(o.evolved), o.recovered)
        for o in outcomes
    ]


def _assert_single_rooted_tree(spans):
    """Exactly one root, every parent id resolves, children nest inside
    their parents' intervals."""
    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans), "span ids must be unique"
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1, f"expected one root, got {[s.name for s in roots]}"
    for span in spans:
        assert span.end_ns >= span.start_ns
        if span.parent_id is not None:
            assert span.parent_id in by_id, (span.name, span.parent_id)


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------


class TestTracer:
    def test_stack_discipline_builds_the_tree(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    pass
            with tracer.span("d") as d:
                pass
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id
        assert d.parent_id == a.span_id
        # finish order: innermost first
        assert [span.name for span in tracer.spans] == ["c", "b", "d", "a"]
        assert tracer.current is None

    def test_attributes_at_open_and_after(self):
        tracer = Tracer()
        with tracer.span("x", static=1) as span:
            span.set("late", "two")
        assert tracer.spans[0].attrs == {"static": 1, "late": "two"}

    def test_trace_id_defaults_to_a_fresh_uuid(self):
        assert Tracer().trace_id != Tracer().trace_id
        assert Tracer(trace_id="fixed").trace_id == "fixed"

    def test_finish_closes_dangling_children(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("leaked")  # never finished explicitly
        tracer.finish(outer)
        names = [span.name for span in tracer.spans]
        assert names == ["leaked", "outer"]
        assert tracer.current is None
        assert tracer.spans[0].end_ns == tracer.spans[1].end_ns

    def test_monotone_and_nested_intervals(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_splice_remaps_rebases_and_stamps(self):
        """Grafted records get fresh ids, their roots are rebased onto
        ``parent_id``, and the splice attributes land on every span."""
        collector = SpanCollector()
        with collector.span("w.outer", k="v"):
            with collector.span("w.inner"):
                pass
        records = collector.take_records()
        assert collector.take_records() == []  # drained

        tracer = Tracer()
        root = tracer.start("root")
        tracer.start("local")  # ids 1 and 2 taken: the graft must remap
        grafted = tracer.splice(records, parent_id=root.span_id, op=7)
        tracer.finish(root)
        assert grafted == 2
        _assert_single_rooted_tree(tracer.spans)
        outer = next(s for s in tracer.spans if s.name == "w.outer")
        inner = next(s for s in tracer.spans if s.name == "w.inner")
        assert outer.parent_id == root.span_id
        assert inner.parent_id == outer.span_id  # internal link preserved
        assert outer.attrs == {"k": "v", "op": 7}
        # same-process clock: the grafted spans keep their timestamps
        original = {r[2]: (r[3], r[4]) for r in records}
        assert (outer.start_ns, outer.end_ns) == original["w.outer"]
        assert (inner.start_ns, inner.end_ns) == original["w.inner"]

    def test_splice_empty_is_a_noop(self):
        tracer = Tracer()
        assert tracer.splice([]) == 0
        assert tracer.spans == []


class TestNullTracer:
    def test_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True
        span = NULL_TRACER.span("anything", attr=1)
        assert NULL_TRACER.start("other") is span  # the shared no-op
        with span as entered:
            entered.set("ignored", True)
        NULL_TRACER.finish(span)
        assert NULL_TRACER.spans == []
        assert NullTracer().trace_id == ""

    def test_engine_default_records_nothing(self):
        source = _source()
        assert source.tracer is NULL_TRACER
        source.process_many(figure3_workload())
        assert NULL_TRACER.spans == []


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


class TestExport:
    def _traced_tracer(self):
        tracer = Tracer(trace_id="t1")
        with tracer.span("root", doc_id=3):
            with tracer.span("leaf"):
                pass
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._traced_tracer()
        payload = chrome_trace(tracer.spans, trace_id=tracer.trace_id)
        assert payload["otherData"]["trace_id"] == "t1"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert event["ts"] >= 0  # rebased to zero
            assert event["dur"] >= 0
        root_event = next(e for e in complete if e["name"] == "root")
        assert root_event["tid"] == 0  # one timeline row
        assert root_event["args"]["doc_id"] == 3  # attrs ride the args
        assert any(e["ph"] == "M" for e in events)  # process_name metadata

    def test_round_trip_both_formats(self, tmp_path):
        tracer = self._traced_tracer()
        chrome_path = str(tmp_path / "trace.json")
        jsonl_path = str(tmp_path / "trace.jsonl")
        write_chrome_trace(chrome_path, tracer.spans, trace_id="t1")
        write_jsonl(jsonl_path, tracer.spans, trace_id="t1")
        for path in (chrome_path, jsonl_path):
            trace_id, records = load_trace(path)
            assert trace_id == "t1"
            assert [r["name"] for r in records] == ["leaf", "root"]
            assert records == [span_dict(s) for s in tracer.spans]

    def test_load_trace_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_trace(str(empty))
        not_a_trace = tmp_path / "other.json"
        not_a_trace.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_trace(str(not_a_trace))

    def test_load_trace_diagnoses_mixed_and_unknown_formats(self, tmp_path):
        """Malformed inputs fail with a message that names the problem
        (and line), never a KeyError from deep inside the parser."""
        header = json.dumps({"trace_id": "t1", "spans": 0})
        span = json.dumps(
            {"span_id": 1, "parent_id": None, "name": "doc",
             "start_ns": 0, "end_ns": 5, "attrs": {}}
        )
        cases = {
            "mixed.jsonl": (
                header + "\n" + json.dumps({"ph": "X", "name": "doc", "ts": 0}),
                "mixed formats",
            ),
            "concat.jsonl": (
                header + "\n" + span + "\n"
                + json.dumps({"trace_id": "t2", "spans": 0}),
                "different trace_id",
            ),
            "unknown.jsonl": (
                header + "\n" + json.dumps({"wat": 1, "nope": 2}),
                "neither span nor header",
            ),
            "array.json": (json.dumps([1, 2, 3]), "not a trace"),
            "badevents.json": (
                json.dumps({"traceEvents": "nope"}), "non-array traceEvents",
            ),
            "badline.jsonl": (header + "\n{broken", "bad JSONL line"),
        }
        for filename, (content, needle) in cases.items():
            target = tmp_path / filename
            target.write_text(content)
            with pytest.raises(ValueError) as excinfo:
                load_trace(str(target))
            assert needle in str(excinfo.value), filename
            assert filename in str(excinfo.value), filename


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.set_to(10)
        counter.set_to(4)  # refuses to go backwards
        assert counter.value == 10

    def test_gauge_goes_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4

    def test_histogram_percentiles_interpolated_and_clamped(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.5
        assert summary["max"] == 3.0
        assert 0.5 <= summary["p50"] <= 2.0
        assert summary["p99"] <= 3.0  # clamped to the observed max
        empty = Histogram("e")
        assert empty.percentile(0.5) == 0.0
        assert empty.summary()["count"] == 0

    def test_registry_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", a="1") is not registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        assert len(registry) == 2

    def test_update_from_perf_is_idempotent(self):
        source = _source()
        source.process_many(figure3_workload())
        snapshot = source.perf_snapshot()
        registry = MetricsRegistry()
        registry.update_from_perf(snapshot)
        registry.update_from_perf(snapshot)  # same totals, applied once
        mirrored = registry.counter("repro_perf_documents_classified")
        assert mirrored.value == snapshot["documents_classified"]
        # the wrapped snapshot's own semantics are untouched
        assert source.perf_snapshot() == snapshot

    def test_observe_spans_accepts_all_three_shapes(self):
        tracer = Tracer()
        with tracer.span("doc"):
            pass
        span = tracer.spans[0]
        registry = MetricsRegistry()
        registry.observe_spans([span])                  # Span object
        registry.observe_spans([span.to_record()])      # wire tuple
        registry.observe_spans([span_dict(span)])       # load_trace dict
        text = registry.expose()
        assert 'repro_span_seconds_count{name="doc"} 3' in text

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs seen").inc(2)
        registry.histogram("lat", buckets=(0.1, 1.0), name="x\"y").observe(0.05)
        text = registry.expose()
        assert text.endswith("\n")
        assert "# HELP jobs_total jobs seen" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 2" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{name="x\\"y",le="0.1"} 1' in text
        assert 'lat_bucket{name="x\\"y",le="+Inf"} 1' in text
        assert 'lat_count{name="x\\"y"} 1' in text
        assert len(DEFAULT_BUCKETS) == len(sorted(DEFAULT_BUCKETS))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class TestReport:
    def test_stage_latencies_digest(self):
        records = [
            {"name": "doc", "start_ns": 0, "end_ns": 100, "attrs": {}},
            {"name": "doc", "start_ns": 0, "end_ns": 300, "attrs": {}},
            {"name": "stage.classify", "start_ns": 0, "end_ns": 50, "attrs": {}},
        ]
        digests = stage_latencies(records)
        assert digests["doc"]["count"] == 2
        assert digests["doc"]["total_ns"] == 400
        assert digests["doc"]["p50_ns"] == 100
        assert digests["doc"]["max_ns"] == 300

    def test_render_report_over_a_real_run(self):
        source = _source()
        tracer = Tracer()
        source.process_many(figure3_workload(), trace=tracer)
        text = render_report(
            [span_dict(s) for s in tracer.spans], trace_id=tracer.trace_id
        )
        assert tracer.trace_id in text
        assert "stage.classify" in text
        assert "Slowest documents" in text
        assert "phase.evolve" in text


# ----------------------------------------------------------------------
# Engine integration: tracing observes, never changes
# ----------------------------------------------------------------------


class TestEngineTracing:
    def test_serial_traced_run_matches_untraced(self):
        untraced = _source().process_many(figure3_workload())
        tracer = Tracer()
        traced = _source().process_many(figure3_workload(), trace=tracer)
        assert _outcome_view(traced) == _outcome_view(untraced)
        _assert_single_rooted_tree(tracer.spans)
        names = {span.name for span in tracer.spans}
        assert {"batch", "doc", "stage.classify", "stage.record",
                "stage.check", "stage.evolve", "stage.drain",
                "phase.evolve", "phase.evolve_mine", "phase.evolve_build",
                "phase.drain"} <= names

    def test_trace_kwarg_restores_the_previous_tracer(self):
        source = _source()
        assert source.tracer is NULL_TRACER
        source.process_many(figure3_workload(), trace=Tracer())
        assert source.tracer is NULL_TRACER
        assert source.perf._span_sink is None

    def test_doc_spans_carry_provenance(self):
        tracer = Tracer()
        _source().process_many(figure3_workload(), trace=tracer)
        docs = [span for span in tracer.spans if span.name == "doc"]
        assert [span.attrs["doc_id"] for span in docs] == list(
            range(1, len(docs) + 1)
        )
        assert all(span.attrs["root"] == "a" for span in docs)
        assert all("dtd" in span.attrs for span in docs)
        evolved = [span for span in docs if "evolved" in span.attrs]
        assert evolved and evolved[0].attrs["evolved"] == ["figure3"]

    def test_classify_spans_carry_fastpath_attrs(self):
        tracer = Tracer()
        _source().process_many(figure3_workload(), trace=tracer)
        classify = [s for s in tracer.spans if s.name == "stage.classify"]
        assert any("validations" in span.attrs for span in classify)
        assert any(
            "validity_short_circuits" in span.attrs
            or "structural_cache_hits" in span.attrs
            for span in classify
        )

    def test_phase_spans_mirror_the_perf_timers(self):
        tracer = Tracer()
        source = _source()
        source.process_many(figure3_workload(), trace=tracer)
        snapshot = source.perf_snapshot()
        for timer in TIMER_NAMES:
            phase = f"phase.{timer[:-3]}"
            spans = [s for s in tracer.spans if s.name == phase]
            if snapshot[timer]:
                assert spans, f"{timer} accumulated but no {phase} span"
                total = sum(s.duration_ns for s in spans)
                # the span brackets the timer interval from outside
                assert total >= snapshot[timer]

    def test_evolve_now_and_standalone_drain_spans(self):
        source = _source(min_documents=100)  # never auto-evolves
        tracer = Tracer()
        source.set_tracer(tracer)
        source.process_many(figure3_workload())
        source.evolve_now("figure3")
        source.drain()
        source.set_tracer(None)
        names = [span.name for span in tracer.spans]
        assert "evolve_now" in names
        assert names.count("stage.drain") == 2
        standalone = [
            s for s in tracer.spans
            if s.name == "stage.drain" and s.attrs.get("standalone")
        ]
        assert len(standalone) == 1


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

# a random span-tree program: each node is (child_count at each level)
_tree_shapes = st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=0, max_size=3),
    max_leaves=12,
)


def _execute(tracer, shape, name="s"):
    with tracer.span(name):
        for index, child in enumerate(shape):
            _execute(tracer, child, f"{name}.{index}")


class TestSpanProperties:
    @given(shape=_tree_shapes)
    @settings(max_examples=60, deadline=None)
    def test_every_program_yields_a_well_formed_tree(self, shape):
        tracer = Tracer()
        _execute(tracer, shape)
        _assert_single_rooted_tree(tracer.spans)
        by_id = {span.span_id: span for span in tracer.spans}
        finished_at = {span.span_id: i for i, span in enumerate(tracer.spans)}
        for span in tracer.spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            # the parent was live when the child was emitted: it opened
            # before and finished after
            assert parent.start_ns <= span.start_ns
            assert span.end_ns <= parent.end_ns
            assert finished_at[span.span_id] < finished_at[parent.span_id]

    @given(shapes=st.lists(_tree_shapes, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_spliced_worker_batches_form_one_rooted_tree(self, shapes):
        # the serve shape: one collector per sampled op, each drained
        # and grafted under the open root
        tracer = Tracer()
        root = tracer.start("root")
        for index, shape in enumerate(shapes):
            collector = SpanCollector()
            _execute(collector, shape, name="w")
            tracer.splice(
                collector.take_records(), parent_id=root.span_id, op=index
            )
        tracer.finish(root)
        _assert_single_rooted_tree(tracer.spans)
        for span in tracer.spans:
            if span.name.startswith("w"):
                assert root.start_ns <= span.start_ns
                assert span.end_ns <= root.end_ns
