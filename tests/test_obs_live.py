"""Continuous-telemetry primitives: sampling, rings, sinks, drift.

Covers :mod:`repro.obs.live` and :mod:`repro.obs.logging` in isolation
(the serve-integration behaviour — correlation ids over HTTP, debug
endpoints under load — lives in ``test_serve_concurrency.py``):

- the head sampler is deterministic per seed and the tail keeps
  (slow / error) override a losing head coin;
- ``build_request_spans`` assembles one rooted, resolvable tree with
  the request id stamped on every span;
- the span ring is bounded and ``slowest`` really sorts;
- the rotating sink writes ``--trace-jsonl``-schema files that
  ``load_trace`` round-trips, and rotation keeps disk bounded;
- JSON log lines carry the ambient correlation id;
- the drift monitor turns bus events into the health gauges/counters
  and its summary classifies drift states;
- ``MetricsRegistry.expose()`` emits TYPE/HELP once per family with
  escaped labels, and ``scripts/check_metrics.py`` accepts it.
"""

from __future__ import annotations

import io
import json
import logging
import sys

import pytest

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.obs import (
    DriftMonitor,
    MetricsRegistry,
    RequestSample,
    RotatingJsonlSink,
    Sampler,
    SpanRing,
    build_request_spans,
    configure_json_logging,
    current_request_id,
    load_trace,
    request_context,
)
from repro.xmltree.parser import parse_document


def _source(auto_evolve=True, **config_overrides):
    defaults = dict(sigma=0.3, tau=0.05, min_documents=3)
    defaults.update(config_overrides)
    return XMLSource(
        [figure3_dtd()], EvolutionConfig(**defaults), auto_evolve=auto_evolve
    )


def _sample(request_id="r-1", duration_ns=5_000_000, reason="head",
            status=200, endpoint="/deposit"):
    spans = build_request_spans(
        request_id, "POST", endpoint, status, 1_000, 1_000 + duration_ns
    )
    return RequestSample(
        request_id, "POST", endpoint, status, 1_000, 1_000 + duration_ns,
        reason, spans,
    )


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------


class TestSampler:
    def test_head_decision_is_deterministic_per_seed(self):
        ids = [f"req-{i}" for i in range(1000)]
        first = {i for i in ids if Sampler(rate=0.2, seed=42).sample(i)}
        second = {i for i in ids if Sampler(rate=0.2, seed=42).sample(i)}
        assert first == second
        assert 0 < len(first) < len(ids)  # an actual subset
        other_seed = {i for i in ids if Sampler(rate=0.2, seed=43).sample(i)}
        assert other_seed != first
        # the kept fraction tracks the rate (loose band: 1000 coin flips)
        assert 0.1 < len(first) / len(ids) < 0.3

    def test_rate_edges(self):
        ids = [f"req-{i}" for i in range(50)]
        assert not any(Sampler(rate=0.0).sample(i) for i in ids)
        assert all(Sampler(rate=1.0).sample(i) for i in ids)
        with pytest.raises(ValueError):
            Sampler(rate=1.5)
        with pytest.raises(ValueError):
            Sampler(rate=-0.1)

    def test_tail_keeps_override_a_losing_head_coin(self):
        sampler = Sampler(rate=0.0, slow_ns=10_000_000)
        assert sampler.keep_reason(False, 200, 1_000) is None
        assert sampler.keep_reason(False, 200, 10_000_000) == "slow"
        assert sampler.keep_reason(False, 500, 1_000) == "error"
        # error beats slow beats head in the recorded reason
        assert sampler.keep_reason(True, 503, 99_000_000) == "error"
        assert sampler.keep_reason(True, 200, 99_000_000) == "slow"
        assert sampler.keep_reason(True, 200, 1_000) == "head"
        stats = sampler.stats()
        assert stats["offered"] == 6
        assert stats["dropped"] == 1
        assert stats["kept_error"] == 2
        assert stats["kept_slow"] == 2
        assert stats["kept_head"] == 1


# ----------------------------------------------------------------------
# Request span trees
# ----------------------------------------------------------------------


class TestBuildRequestSpans:
    def test_tree_is_rooted_resolvable_and_stamped(self):
        phases = [
            ("queue.wait", 100, 200, {}),
            ("write.apply", 200, 900, {"kind": "deposit"}),
        ]
        engine = [
            (1, None, "doc", 210, 880, {"doc_id": 7}),
            (2, 1, "stage.classify", 220, 500, {}),
        ]
        spans = build_request_spans(
            "abc-1", "POST", "/deposit", 200, 0, 1_000,
            phases=phases, engine_records=engine,
        )
        by_id = {record[0]: record for record in spans}
        assert len(by_id) == len(spans) == 5  # ids unique after remap
        roots = [r for r in spans if r[1] is None]
        assert [r[2] for r in roots] == ["request./deposit"]
        for record in spans:
            if record[1] is not None:
                assert record[1] in by_id
            assert record[5]["request_id"] == "abc-1"
        # phases hang off the root; the engine tree grafts under the
        # last phase (write.apply), preserving its internal structure
        names = {record[2]: record for record in spans}
        root_id = roots[0][0]
        assert names["queue.wait"][1] == root_id
        assert names["write.apply"][1] == root_id
        assert names["doc"][1] == names["write.apply"][0]
        assert names["stage.classify"][1] == names["doc"][0]
        assert names["doc"][5]["doc_id"] == 7  # original attrs survive

    def test_envelope_only_tree(self):
        spans = build_request_spans("abc-2", "GET", "/healthz", 200, 5, 9)
        assert len(spans) == 1
        assert spans[0][2] == "request./healthz"
        assert spans[0][5] == {
            "request_id": "abc-2", "method": "GET", "status": 200,
        }


# ----------------------------------------------------------------------
# SpanRing
# ----------------------------------------------------------------------


class TestSpanRing:
    def test_bounded_and_evicts_oldest(self):
        ring = SpanRing(capacity=3)
        for i in range(5):
            ring.append(_sample(request_id=f"r-{i}"))
        assert len(ring) == 3
        assert ring.appended == 5
        assert [s.request_id for s in ring.snapshot()] == ["r-2", "r-3", "r-4"]

    def test_slowest_sorts_by_duration(self):
        ring = SpanRing(capacity=10)
        for request_id, duration in (("a", 5), ("b", 50), ("c", 20)):
            ring.append(_sample(request_id=request_id, duration_ns=duration))
        slowest = ring.slowest(2)
        assert [s.request_id for s in slowest] == ["b", "c"]
        assert ring.slowest(99)[-1].request_id == "a"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanRing(capacity=0)


# ----------------------------------------------------------------------
# RotatingJsonlSink
# ----------------------------------------------------------------------


class TestRotatingJsonlSink:
    def test_sink_file_round_trips_through_load_trace(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        sink = RotatingJsonlSink(path, trace_id="live-1")
        sample = _sample(duration_ns=3_000_000)
        sink.write(sample)
        sink.close()
        trace_id, records = load_trace(path)
        assert trace_id == "live-1"
        assert len(records) == len(sample.spans) == 1
        assert records[0]["name"] == "request./deposit"
        assert records[0]["attrs"]["request_id"] == "r-1"

    def test_rotation_keeps_generations_bounded_and_loadable(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        sink = RotatingJsonlSink(path, trace_id="live-2",
                                 max_bytes=400, backups=2)
        for i in range(12):
            sink.write(_sample(request_id=f"rot-{i}"))
        sink.close()
        assert sink.rotations >= 3  # enough writes to cycle the chain
        generations = [path, f"{path}.1", f"{path}.2"]
        import os
        assert all(os.path.exists(g) for g in generations[1:])
        assert not os.path.exists(f"{path}.3")  # oldest was deleted
        for generation in generations[1:]:
            trace_id, records = load_trace(generation)
            assert trace_id == "live-2"
            assert records  # every rotated file is independently valid
        assert sink.spans_written == 12


# ----------------------------------------------------------------------
# Structured logging + correlation
# ----------------------------------------------------------------------


class TestJsonLogging:
    def _logger(self, name="test.obs.live.logjson"):
        stream = io.StringIO()
        handler = configure_json_logging(stream=stream, logger=name)
        logger = logging.getLogger(name)
        logger.propagate = False
        return logger, handler, stream

    def test_lines_are_json_with_ambient_request_id(self):
        logger, handler, stream = self._logger()
        try:
            logger.info("outside")
            with request_context("req-77"):
                assert current_request_id() == "req-77"
                logger.warning("inside", extra={"shard": 3})
            assert current_request_id() is None
            lines = [json.loads(l) for l in stream.getvalue().splitlines()]
            assert lines[0]["message"] == "outside"
            assert "request_id" not in lines[0]  # omitted out of scope
            assert lines[1]["level"] == "WARNING"
            assert lines[1]["request_id"] == "req-77"
            assert lines[1]["shard"] == 3
        finally:
            logger.removeHandler(handler)

    def test_request_context_nesting_restores_outer_id(self):
        with request_context("outer"):
            with request_context("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"

    def test_exceptions_serialize(self):
        logger, handler, stream = self._logger("test.obs.live.logexc")
        try:
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                logger.exception("failed")
            line = json.loads(stream.getvalue())
            assert line["level"] == "ERROR"
            assert "RuntimeError: boom" in line["exc"]
        finally:
            logger.removeHandler(handler)


# ----------------------------------------------------------------------
# DriftMonitor
# ----------------------------------------------------------------------


class TestDriftMonitor:
    def test_bus_events_feed_the_drift_instruments(self):
        source = _source()
        registry = MetricsRegistry()
        monitor = DriftMonitor(registry, source).attach()
        try:
            source.process_many(figure3_workload())
            monitor.refresh()
            classified = registry.counter(
                "repro_dtd_classified_total", dtd="figure3"
            ).value
            accepted = registry.counter(
                "repro_dtd_accepted_total", dtd="figure3"
            ).value
            assert classified > 0
            assert 0 < accepted <= classified
            assert registry.counter(
                "repro_dtd_evolutions_total", dtd="figure3"
            ).value == source.evolution_count > 0
            assert registry.gauge("repro_repository_misfits").value == len(
                source.repository
            )
            assert (
                registry.gauge("repro_docs_since_evolution").value
                == monitor.docs_since_evolution()
            )
            # the exposition carries the whole drift family
            exposition = registry.expose()
            for family in (
                "repro_dtd_activation_score",
                "repro_deposit_similarity_bucket",
                "repro_repository_sigma_margin",
            ):
                assert family in exposition, family
        finally:
            monitor.detach()
            source.close()

    def test_summary_classifies_drift_states(self):
        # auto_evolve off, so the pending condition stays observable
        source = _source(auto_evolve=False)
        registry = MetricsRegistry()
        monitor = DriftMonitor(registry, source).attach()
        try:
            summary = monitor.summary()
            assert summary["status"] == "ok"
            assert summary["dtds"]["figure3"]["status"] == "ok"
            assert summary["repository"]["misfits"] == 0
            assert summary["evolution"]["total"] == 0

            for doc in figure3_workload(count_d1=0, count_d2=6, seed=5):
                source.process(doc)
            summary = monitor.summary()
            assert summary["status"] == "evolution-pending"
            assert summary["dtds"]["figure3"]["status"] == "evolution-pending"
            assert summary["dtds"]["figure3"]["documents_recorded"] >= 3

            event = source.evolve_now("figure3")
            assert event is not None
            summary = monitor.summary()
            assert summary["evolution"]["total"] == 1
            assert summary["evolution"]["last_dtd"] == "figure3"
            assert summary["evolution"]["docs_since_last"] == 0
        finally:
            monitor.detach()
            source.close()

    def test_attach_is_idempotent_and_detach_unsubscribes(self):
        source = _source()
        registry = MetricsRegistry()
        monitor = DriftMonitor(registry, source)
        monitor.attach()
        monitor.attach()  # no double subscription
        try:
            source.process(parse_document("<a><b>x</b><c>y</c><d>z</d></a>"))
            counted = registry.counter(
                "repro_dtd_classified_total", dtd="figure3"
            ).value
            assert counted == 1
        finally:
            monitor.detach()
        source.process(parse_document("<a><b>x</b><c>y</c><d>z</d></a>"))
        assert registry.counter(
            "repro_dtd_classified_total", dtd="figure3"
        ).value == 1  # detached: no longer counting
        source.close()


# ----------------------------------------------------------------------
# Exposition format + the round-trip lint
# ----------------------------------------------------------------------


def _check_metrics_module():
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "check_metrics.py",
    )
    spec = importlib.util.spec_from_file_location("check_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExpositionFormat:
    def _weird_registry(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs\nseen \\ counted", kind="a").inc(2)
        registry.counter("jobs_total", kind='we"ird\\va\nl').inc(1)
        registry.gauge("depth", "queue depth").set(3)
        histogram = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_type_and_help_once_per_family_with_contiguous_samples(self):
        text = self._weird_registry().expose()
        lines = text.splitlines()
        assert lines.count("# TYPE jobs_total counter") == 1
        assert sum(1 for l in lines if l.startswith("# HELP jobs_total")) == 1
        # the multi-member family stays contiguous behind one header
        member_indexes = [
            i for i, l in enumerate(lines) if l.startswith("jobs_total{")
        ]
        assert len(member_indexes) == 2
        assert member_indexes[1] == member_indexes[0] + 1
        # escaping: newline and backslash in HELP, all three in labels
        assert "# HELP jobs_total jobs\\nseen \\\\ counted" in lines
        assert 'kind="we\\"ird\\\\va\\nl"' in text

    def test_expose_passes_the_round_trip_lint(self, tmp_path):
        check = _check_metrics_module()
        path = tmp_path / "metrics.prom"
        path.write_text(self._weird_registry().expose(), encoding="utf-8")
        assert check.check_metrics(str(path)) == []

    def test_lint_rejects_broken_expositions(self, tmp_path):
        check = _check_metrics_module()
        cases = {
            "unescaped quote": 'a{l="x"y"} 1\n',
            "type after samples": "b 1\n# TYPE b counter\n",
            "duplicate sample": "c 1\nc 1\n",
            "interleaved families": "d 1\ne 2\nd 3\n",
            "bad value": "f notanumber\n",
            "no terminal inf": (
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\nh_sum 0.5\nh_count 1\n'
            ),
            "non-cumulative buckets": (
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 0.5\nh_count 3\n"
            ),
        }
        for label, content in cases.items():
            path = tmp_path / "broken.prom"
            path.write_text(content, encoding="utf-8")
            assert check.check_metrics(str(path)) != [], label
        assert check.check_metrics(str(tmp_path / "missing.prom"))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"] + sys.argv[1:]))
