"""Per-layer benchmark ledger.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1|PATH] [--repeat K] [--smoke]

Each workload runs in its own fresh child process, one at a time.  An
untraced run prints one ``workload metric value unit`` line per
end-to-end metric of ``BENCHMARK.json``; ``--trace`` (``1`` for the
default path under ``results/``, or a path) runs the separate traced
run instead, prints the per-layer metrics and writes the span trace as
Chrome trace JSON (``dtdevolve report`` and ``scripts/check_trace.py``
read it).  ``--repeat K`` runs each workload K times on seeds N..N+K-1
and prints median, IQR, min and max per metric.  Every run also
writes ``results/latest.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed correctness
check makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("ingest_valid", "ingest_drift", "resume_checkpointed", "serve_mixed")
DEFAULT_SEED = 1
SMOKE_SECONDS = 1.0
#: setups per run whose median is ``setup_s``
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env(work: str) -> dict:
    """Children import the program from ``src/`` and keep every
    temporary file (sqlite repositories) inside the run's directory."""
    return dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(work, "tmp"))


def _spawn(args, work: str) -> dict:
    """Run ``run.py --child ...`` and return the JSON it prints last."""
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        env=child_env(work), stdout=subprocess.PIPE, text=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"child {args[1]} timed out")
    if process.returncode != 0:
        raise RuntimeError(f"child {args[1]} exited with status {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _setup_sample(name: str, work: str, smoke: bool) -> float:
    if name == "serve_mixed":
        import served

        process, _, seconds = served.start_server(work, "probe", child_env(work))
        served.stop_server(process)
        return seconds
    started = time.monotonic()
    ready = _spawn(
        ["--child", name, "--work", work, "--probe"] + (["--smoke"] if smoke else []),
        work,
    )["ready"]
    return ready - started


def _committed_digest(name: str, seed: int, seconds: float, smoke: bool):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    key = name + ("/smoke" if smoke else "")
    if seed != committed["seed"]:
        return None
    if name == "serve_mixed" and not smoke and seconds != committed["seconds"]:
        return None  # the served schedule's length follows --seconds
    return committed["digests"].get(key)


def run_workload(name: str, seed: int, seconds: float, trace, smoke: bool) -> dict:
    """One run of one workload: prepare inputs, sample set-up, run the
    measuring child, check its outcomes."""
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    try:
        if name == "serve_mixed":
            import served

            served.prepare(seed, smoke, seconds, work)
        else:
            import batch

            batch.prepare(name, seed, smoke, work)
        args = ["--child", name, "--work", work, "--seconds", str(seconds)]
        args += ["--smoke"] if smoke else []
        if trace:
            result = _spawn(args + ["--trace", trace], work)
        else:
            samples = [_setup_sample(name, work, smoke) for _ in range(SETUP_SAMPLES - 1)]
            started = time.monotonic()
            result = _spawn(args, work)
            if name == "serve_mixed":  # the child timed its own server
                samples.append(result.pop("setup"))
            else:
                samples.append(result.pop("ready") - started)
            result["metrics"]["setup_s"] = statistics.median(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = _committed_digest(name, seed, seconds, smoke)
    if expected is not None and result["digest"] != expected:
        result["problems"].append(
            f"outcome digest {result['digest']} differs from the committed {expected}"
        )
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return result


def _child(args, trace) -> dict:
    if args.child == "serve_mixed":
        import served

        if trace:
            return served.traced_run(args.work, trace)
        return served.measure_run(args.work)
    import batch

    if args.probe:
        return {"ready": batch.probe(args.child, args.work, args.smoke)}
    if trace:
        return batch.traced_run(args.child, args.work, args.smoke, trace)
    return batch.measure_run(args.child, args.work, args.seconds, args.smoke)


def _trace_path(value: str, name: str, many: bool):
    if value == "0":
        return None
    if value == "1":
        return os.path.join(RESULTS, f"trace-{name}.json")
    if many:
        stem, extension = os.path.splitext(value)
        return f"{stem}-{name}{extension or '.json'}"
    return os.path.abspath(value)


def _report(runs, spec, traced: bool) -> dict:
    """Print the per-metric lines and build the final JSON object."""
    import measure

    kind = "per_layer" if traced else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
        for problem in run["problems"]:
            print(f"{run['workload']} CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {}
    for name, group in by_workload.items():
        for metric, unit in units.items():
            values = [run["metrics"][metric] for run in group]
            if len(group) == 1:
                print(f"{name} {metric} {values[0]!r} {unit}")
                value = values[0]
            else:
                stats = measure.summary(values)
                print(
                    f"{name} {metric} median {stats['median']!r} iqr {stats['iqr']!r} "
                    f"min {stats['min']!r} max {stats['max']!r} {unit}"
                )
                value = stats["median"]
            key = metric if len(by_workload) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for run in group:
            for metric, value in run.get("diagnostics", {}).items():
                print(f"{name} {metric} {value!r} (diagnostic)")
            samples = run.get("diagnostics", {}).get("latency_samples")
            if samples and measure.samples_beyond(samples, 0.99) < 10:
                print(
                    f"{name}: p99 has fewer than 10 of {samples} samples beyond "
                    f"it; the highest supported percentile is "
                    f"p{100 * measure.tail_percentile(samples):g}",
                    file=sys.stderr,
                )
    return {
        "correct": all(not run["problems"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument(
        "--trace", default="0",
        help="0 = untraced, 1 = traced run with the trace under results/, "
        "or the trace file path",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    traced = args.trace != "0"
    if args.child:
        print(json.dumps(_child(args, args.trace if traced else None)))
        return 0

    spec = _spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for name in names:
        for index in range(args.repeat):
            trace = _trace_path(args.trace, name, len(names) > 1)
            if trace:
                os.makedirs(os.path.dirname(trace), exist_ok=True)
            runs.append(run_workload(name, args.seed + index, seconds, trace, args.smoke))
    result = _report(runs, spec, traced)
    metadata = None
    if args.repeat > 1:
        sys.path.insert(0, os.path.dirname(HERE))
        from _harness import run_metadata

        metadata = run_metadata()
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "latest.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"run_metadata": metadata, "summary": result, "runs": runs}, handle, indent=1
        )
        handle.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
