"""``dtdevolve`` — a small command-line front end.

Subcommands::

    dtdevolve classify --dtd schema.dtd doc1.xml doc2.xml ...
        Rank each document against the DTD (similarity + validity).

    dtdevolve evolve --dtd schema.dtd [--tau T --psi P --mu M] docs...
        Record the documents against the DTD, run one evolution, and
        print the evolved DTD.

    dtdevolve infer docs...
        Infer a DTD from scratch (the XTRACT-style baseline).

    dtdevolve run --state state.json [--dtd schema.dtd] [--triggers rules.txt]
                  [--store {memory,sqlite}]
                  [--checkpoint-every N] [--report-perf]
                  [--trace out.json] [--trace-jsonl out.jsonl]
                  [--metrics out.prom] docs...
        Drive the full pipeline statefully: load (or initialise) a
        source snapshot, process the documents — classifying, recording
        and auto-evolving — and write the snapshot back.  Prints the
        outcome per document and any evolutions.  ``--store`` picks the
        repository backend, ``--checkpoint-every`` snapshots mid-run,
        and ``--report-perf`` prints the fast-path hit counters, the
        evolution/drain phase timers (the ``*_ns`` entries, wall-clock
        nanoseconds) and derived hit rates, grouped and sorted.
        ``--trace`` writes a Chrome trace-event JSON of the run
        (``about:tracing`` / Perfetto), ``--trace-jsonl`` the compact
        one-span-per-line stream, ``--metrics`` a Prometheus text
        exposition of counters and span-latency histograms.

    dtdevolve serve --state state.json [--dtd schema.dtd] [--host H --port P]
                    [--store {memory,sqlite}]
                    [--queue-limit N] [--max-inflight N]
                    [--checkpoint-every N] [--duration S]
                    [--trace-sample RATE] [--trace-slow-ms MS]
                    [--trace-seed N] [--trace-sink PATH] [--log-json]
        Run the async MVCC service (repro.serve): /classify, /deposit,
        /evolve, /drain, /healthz, /metrics and /debug/{vars,slow,health}
        over JSON.  Readers classify against an immutable snapshot
        version; writes apply serially and publish the next snapshot
        atomically.  Graceful shutdown (SIGINT/SIGTERM, or after
        --duration seconds) drains accepted writes and checkpoints to
        --state.  --trace-sample keeps that fraction of requests as span
        trees (slow/error requests always kept), streamed to the
        --trace-sink rotating JSONL; --log-json switches the process to
        structured log lines carrying each request's X-Request-Id.

    dtdevolve report trace.json [--top N] [--metrics]
        Render the latency tables of a trace dump (either export
        format): per-stage percentiles, the slowest documents and the
        evolution phase breakdown.

    dtdevolve adapt --dtd schema.dtd docs...
        Adapt each document to the DTD (Section 6); writes the adapted
        XML next to the input as ``<name>.adapted.xml`` and prints the
        edit operations.

All input is read from files; DTD output goes to stdout (redirect to
persist).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines.xtract import infer_dtd
from repro.classification.stores import STORE_KINDS
from repro.core.evolution import EvolutionConfig, evolve_dtd
from repro.core.extended_dtd import ExtendedDTD
from repro.core.recorder import Recorder
from repro.dtd.automaton import Validator
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.dtd.serializer import serialize_dtd
from repro.similarity.evaluation import evaluate_document
from repro.xmltree.document import Document
from repro.xmltree.parser import parse_document


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_documents(paths: List[str]) -> List[Document]:
    return [parse_document(_read(path)) for path in paths]


def _cmd_classify(args: argparse.Namespace) -> int:
    dtd = parse_dtd(_read(args.dtd))
    validator = Validator(dtd)
    print(f"{'document':<32} {'similarity':>10} {'valid':>6}")
    for path in args.documents:
        document = parse_document(_read(path))
        evaluation = evaluate_document(document, dtd)
        print(
            f"{path:<32} {evaluation.similarity:>10.4f} "
            f"{str(validator.is_valid(document)):>6}"
        )
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    dtd = parse_dtd(_read(args.dtd))
    config = EvolutionConfig(tau=args.tau, psi=args.psi, mu=args.mu)
    extended = ExtendedDTD(dtd)
    recorder = Recorder(extended)
    for document in _load_documents(args.documents):
        recorder.record(document)
    result = evolve_dtd(extended, config)
    for action in result.actions:
        if action.action != "kept":
            window = action.window.value if action.window else "-"
            print(f"-- {action.name}: {action.action} ({window} window)", file=sys.stderr)
    sys.stdout.write(serialize_dtd(result.new_dtd))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    documents = _load_documents(args.documents)
    sys.stdout.write(serialize_dtd(infer_dtd(documents)))
    return 0


def _grouped_perf_report(snapshot) -> dict:
    """``--report-perf``'s stable shape: counters, timers (every
    ``TIMER_NAMES`` entry, zeros included), and derived hit rates —
    each group sorted by key."""
    from repro.perf.counters import TIMER_NAMES

    counters = {
        name: value
        for name, value in sorted(snapshot.items())
        if name not in TIMER_NAMES
    }
    timers = {name: snapshot.get(name, 0) for name in sorted(TIMER_NAMES)}

    def rate(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    derived = {
        "structural_cache_hit_rate": rate(
            snapshot.get("structural_cache_hits", 0),
            snapshot.get("structural_cache_hits", 0)
            + snapshot.get("structural_cache_misses", 0),
        ),
        "validity_short_circuit_rate": rate(
            snapshot.get("validity_short_circuits", 0),
            snapshot.get("validations", 0),
        ),
    }
    return {"counters": counters, "timers": timers, "derived": derived}


def _cmd_run(args: argparse.Namespace) -> int:
    source = _load_or_init_source(args)
    if source is None:
        return 2
    try:
        _run_source(source, args)
    finally:
        source.close()
    return 0


def _run_source(source, args: argparse.Namespace) -> None:
    import json

    from repro.core.persistence import save_source

    if args.log_json:
        from repro.obs.logging import configure_json_logging

        configure_json_logging()
    tracer = None
    if args.trace or args.trace_jsonl or args.metrics:
        from repro.obs.tracing import Tracer

        tracer = Tracer()
    outcomes = source.process_many(
        [parse_document(_read(path)) for path in args.documents],
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.state,
        trace=tracer,
    )
    for path, outcome in zip(args.documents, outcomes):
        target = outcome.dtd_name or "<repository>"
        line = f"{path}: {target} (similarity {outcome.similarity:.3f})"
        if outcome.evolved:
            line += f"  ** evolved: {', '.join(outcome.evolved)}"
        print(line)
    for name in source.dtd_names():
        sys.stdout.write(serialize_dtd(source.dtd(name)))
    save_source(source, args.state)
    print(f"state saved to {args.state}", file=sys.stderr)
    if tracer is not None:
        if args.trace:
            tracer.write_chrome(args.trace)
            print(
                f"trace {tracer.trace_id} ({len(tracer.spans)} spans) "
                f"written to {args.trace}",
                file=sys.stderr,
            )
        if args.trace_jsonl:
            tracer.write_jsonl(args.trace_jsonl)
            print(f"span stream written to {args.trace_jsonl}", file=sys.stderr)
        if args.metrics:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.update_from_perf(source.perf_snapshot())
            registry.observe_spans(tracer.spans)
            registry.gauge(
                "repro_event_dead_letters",
                "Subscriber exceptions swallowed by the event bus",
            ).set(source.events.dead_letters)
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(registry.expose())
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    if args.report_perf:
        print(json.dumps(_grouped_perf_report(source.perf_snapshot()), indent=1))


def _load_or_init_source(args: argparse.Namespace):
    """The shared ``run``/``serve`` bootstrap: load the state snapshot
    if it exists, otherwise initialise a fresh source from ``--dtd``.
    Returns ``None`` (after printing the error) when neither is
    possible."""
    import os

    from repro.core.engine import XMLSource
    from repro.core.persistence import load_source
    from repro.triggers.trigger import TriggerSet

    triggers = None
    if getattr(args, "triggers", None):
        triggers = TriggerSet.parse(_read(args.triggers))
    if os.path.exists(args.state):
        return load_source(args.state, triggers=triggers, store=args.store)
    if not args.dtd:
        print(
            "error: --dtd is required when the state file does not exist",
            file=sys.stderr,
        )
        return None
    config = EvolutionConfig(
        sigma=args.sigma, tau=args.tau, psi=args.psi, mu=args.mu,
        min_documents=args.min_documents,
    )
    return XMLSource(
        [parse_dtd(_read(args.dtd))],
        config,
        triggers=triggers,
        store=args.store,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    # the service announces the *bound* port (essential with --port 0)
    # and surfaced store warnings on its logger — give it a stderr
    # handler unless the embedding application configured one already
    if args.log_json:
        # one JSON formatter on the root "repro" logger: serve and obs
        # correlate by request_id through the same handler
        from repro.obs.logging import configure_json_logging

        configure_json_logging()
    serve_logger = logging.getLogger("repro.serve")
    if not serve_logger.handlers and not logging.getLogger("repro").handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        serve_logger.addHandler(handler)
        serve_logger.setLevel(logging.INFO)

    source = _load_or_init_source(args)
    if source is None:
        return 2
    try:
        _serve_source(source, args)
    finally:
        source.close()
    return 0


def _serve_source(source, args: argparse.Namespace) -> None:
    from repro.core.persistence import save_source
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_inflight=args.max_inflight,
        checkpoint_path=args.state,
        checkpoint_every=args.checkpoint_every,
        trace_sample=args.trace_sample,
        trace_slow_ms=args.trace_slow_ms,
        trace_seed=args.trace_seed,
        trace_sink=args.trace_sink,
    )
    print(
        f"serving {', '.join(source.dtd_names())} "
        f"(queue limit {config.queue_limit}, "
        f"checkpointing to {args.state})",
        file=sys.stderr,
    )
    service = serve_forever(source, config, duration=args.duration)
    save_source(source, args.state)
    print(
        f"served {service.applied_writes} writes, "
        f"{service.checkpoints} checkpoints; state saved to {args.state}",
        file=sys.stderr,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace
    from repro.obs.report import render_report

    try:
        trace_id, records = load_trace(args.trace)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_report(records, trace_id=trace_id, top=args.top))
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.observe_spans(records)
        print()
        sys.stdout.write(registry.expose())
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.core.adaptation import DocumentAdapter
    from repro.xmltree.serializer import serialize_document

    adapter = DocumentAdapter(parse_dtd(_read(args.dtd)))
    for path in args.documents:
        report = adapter.adapt(parse_document(_read(path)))
        output_path = path.rsplit(".", 1)[0] + ".adapted.xml"
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(serialize_document(report.document, indent="  "))
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.by_kind().items())
        )
        print(f"{path} -> {output_path} ({summary or 'unchanged'})")
    return 0


def _unit_interval(text: str) -> float:
    """An argparse type: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")  # rejected below, with the same message
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtdevolve",
        description="Evolve a DTD according to a set of XML documents "
        "(Bertino et al., EDBT 2002 Workshops).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify = commands.add_parser("classify", help="rank documents against a DTD")
    classify.add_argument("--dtd", required=True, help="path to the DTD file")
    classify.add_argument("documents", nargs="+", help="XML document files")
    classify.set_defaults(handler=_cmd_classify)

    evolve = commands.add_parser("evolve", help="record documents and evolve the DTD")
    evolve.add_argument("--dtd", required=True, help="path to the DTD file")
    evolve.add_argument("--tau", type=float, default=0.1, help="activation threshold")
    evolve.add_argument("--psi", type=float, default=0.2, help="window threshold")
    evolve.add_argument("--mu", type=float, default=0.0, help="sequence min support")
    evolve.add_argument("documents", nargs="+", help="XML document files")
    evolve.set_defaults(handler=_cmd_evolve)

    infer = commands.add_parser("infer", help="infer a DTD from scratch (baseline)")
    infer.add_argument("documents", nargs="+", help="XML document files")
    infer.set_defaults(handler=_cmd_infer)

    run = commands.add_parser(
        "run", help="stateful pipeline: classify, record, auto-evolve"
    )
    run.add_argument("--state", required=True, help="snapshot file (created if absent)")
    run.add_argument("--dtd", help="initial DTD (required for a fresh state)")
    run.add_argument("--triggers", help="trigger rule file (one rule per line)")
    run.add_argument("--sigma", type=float, default=0.5)
    run.add_argument("--tau", type=float, default=0.1)
    run.add_argument("--psi", type=float, default=0.2)
    run.add_argument("--mu", type=float, default=0.0)
    run.add_argument("--min-documents", type=int, default=10, dest="min_documents")
    run.add_argument(
        "--store",
        choices=STORE_KINDS,
        default=None,
        help="repository backend (default: what the snapshot used, or "
        "memory); sqlite keeps an inverted tag index so post-evolution "
        "drains query instead of scan",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        dest="checkpoint_every",
        metavar="N",
        help="snapshot the state file after every N documents (0 = only at the end)",
    )
    run.add_argument(
        "--report-perf",
        action="store_true",
        dest="report_perf",
        help="print the fast-path hit counters, phase timers and derived "
        "rates (grouped, sorted) after the run",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run "
        "(load in about:tracing or Perfetto)",
    )
    run.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        dest="trace_jsonl",
        help="write the compact one-span-per-line trace stream",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a Prometheus text exposition (perf counters, span "
        "latency histograms, dead-letter count)",
    )
    run.add_argument(
        "--log-json",
        action="store_true",
        dest="log_json",
        help="emit structured JSON log lines (one object per line) on stderr",
    )
    run.add_argument("documents", nargs="+", help="XML document files")
    run.set_defaults(handler=_cmd_run)

    serve = commands.add_parser(
        "serve",
        help="run the async MVCC service (classify/deposit/evolve/drain over JSON)",
    )
    serve.add_argument("--state", required=True, help="snapshot file (created if absent)")
    serve.add_argument("--dtd", help="initial DTD (required for a fresh state)")
    serve.add_argument("--triggers", help="trigger rule file (one rule per line)")
    serve.add_argument("--sigma", type=float, default=0.5)
    serve.add_argument("--tau", type=float, default=0.1)
    serve.add_argument("--psi", type=float, default=0.2)
    serve.add_argument("--mu", type=float, default=0.0)
    serve.add_argument("--min-documents", type=int, default=10, dest="min_documents")
    serve.add_argument(
        "--store", choices=STORE_KINDS, default=None,
        help="repository backend (default: what the snapshot used, or memory)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750,
        help="listen port (0 = ephemeral; default 8750)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit", metavar="N",
        help="max queued write ops before 429 backpressure (default 64)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, dest="max_inflight", metavar="N",
        help="max concurrently admitted requests (default 64)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, dest="checkpoint_every", metavar="N",
        help="checkpoint the state file after every N deposits "
        "(0 = only at shutdown)",
    )
    serve.add_argument(
        "--duration", type=float, default=0.0, metavar="S",
        help="serve for S seconds then shut down gracefully (0 = until signalled)",
    )
    serve.add_argument(
        "--trace-sample", type=_unit_interval, default=0.0, dest="trace_sample",
        metavar="RATE",
        help="head-sampling rate in [0,1] for always-on request tracing "
        "(slow/error requests are kept regardless; default 0.0)",
    )
    serve.add_argument(
        "--trace-slow-ms", type=float, default=250.0, dest="trace_slow_ms",
        metavar="MS",
        help="tail-keep threshold: requests at/above MS milliseconds are "
        "always sampled (default 250)",
    )
    serve.add_argument(
        "--trace-seed", type=int, default=0, dest="trace_seed",
        help="seed of the deterministic head-sampling hash (default 0)",
    )
    serve.add_argument(
        "--trace-sink", dest="trace_sink", metavar="PATH",
        help="rotating JSONL file kept span trees stream to "
        "(readable with 'dtdevolve report PATH')",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        dest="log_json",
        help="emit structured JSON log lines with request_id correlation "
        "on stderr",
    )
    serve.set_defaults(handler=_cmd_serve)

    report = commands.add_parser(
        "report", help="latency tables from a trace dump (either format)"
    )
    report.add_argument("trace", help="trace file (--trace or --trace-jsonl output)")
    report.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest documents to list (default 5)",
    )
    report.add_argument(
        "--metrics",
        action="store_true",
        help="also print span-latency histograms as Prometheus text",
    )
    report.set_defaults(handler=_cmd_report)

    adapt = commands.add_parser(
        "adapt", help="adapt documents to a DTD (writes *.adapted.xml)"
    )
    adapt.add_argument("--dtd", required=True, help="path to the DTD file")
    adapt.add_argument("documents", nargs="+", help="XML document files")
    adapt.set_defaults(handler=_cmd_adapt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
