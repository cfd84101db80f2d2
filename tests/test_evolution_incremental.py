"""Differential harness for evolution runs and the pruned drain.

Every scenario runs twice through freshly built engines — once with the
full fast-path config (the classification tiers and the pruned drain),
once with ``FastPathConfig.disabled()`` (the seed reference path) — and
the two runs must be **bit-identical** in everything observable:
per-document outcomes, full exact rankings, evaluation triples,
repository contents, the evolution log, the final DTD serializations,
and the lifecycle event sequence (the run fingerprinting of
``tests/differential_utils.py``).  Scenarios include E12-style long runs
with several evolutions and a run whose evolutions trigger mid-batch.

Also here: the drain determinism regression (insertion order and
recovered counts identical across ``MemoryStore`` and ``JsonlStore``,
with and without pruning) and unit tests for the phase timers and the
pruned drain.
"""

from __future__ import annotations

import pytest

from tests.differential_utils import COMPARED, multi_dtd_corpus, run_batch

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.dtd.serializer import serialize_dtd
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.perf import TIMER_NAMES, FastPathConfig, PerfCounters
from repro.xmltree.serializer import serialize_document

FAST = FastPathConfig()
REFERENCE = FastPathConfig.disabled()


def assert_fast_slow_identical(build_source, documents):
    """All fast paths vs. the reference path: every artefact equal."""
    fast = run_batch(lambda: build_source(FAST), documents)
    slow = run_batch(lambda: build_source(REFERENCE), documents)
    for key in COMPARED:
        assert fast[key] == slow[key], f"fast/reference diverge on {key}"
    return fast, slow


# ----------------------------------------------------------------------
# Engine-level differential scenarios
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 7])
def test_differential_long_run_multiple_evolutions(seed):
    """An E12-style long drift: two drift phases force several
    evolutions (each followed by a pruned drain) on one DTD."""
    documents = (
        figure3_workload(25, 0, seed=seed) + figure3_workload(0, 25, seed=seed + 1)
    )

    def build(fastpath):
        return XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.4, tau=0.05, min_documents=6),
            fastpath=fastpath,
        )

    fast, _slow = assert_fast_slow_identical(build, documents)
    assert fast["source"].evolution_count >= 2
    # the repository held documents across the evolutions, so the
    # pruned drain had real candidates to rule on
    assert any(name is None for name, *_ in fast["outcomes"])


def test_differential_multi_dtd_corpus():
    """Mixed corpus over three scenario DTDs with evolution armed:
    pruning must stay sound when only one DTD of several evolved."""
    dtds, documents = multi_dtd_corpus(per_scenario=8, seed=19)

    def build(fastpath):
        return XMLSource(
            [dtd.copy() for dtd in dtds],
            EvolutionConfig(sigma=0.45, tau=0.05, min_documents=7),
            fastpath=fastpath,
        )

    fast, _slow = assert_fast_slow_identical(build, documents)
    assert fast["source"].evolution_count >= 1


def test_differential_mid_batch_evolution():
    """The acceptance scenario: the fast paths with evolutions
    triggering mid-batch, against the reference path — bit-identical
    artefacts end to end."""
    documents = figure3_workload(30, 30, seed=7)

    def build(fastpath):
        return XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.4, tau=0.05, min_documents=8),
            fastpath=fastpath,
        )

    fast, _slow = assert_fast_slow_identical(build, documents)
    assert fast["source"].evolution_count >= 1


def test_differential_repeated_eras():
    """Repeated identical evidence across recording periods: both
    evolutions stay bit-identical to the reference."""
    documents = figure3_workload(12, 12, seed=5)

    def build(fastpath):
        return XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.2, min_documents=10 ** 9),
            fastpath=fastpath,
        )

    def era_run(fastpath):
        source = build(fastpath)
        for document in documents:
            source.process(document.copy())
        source.evolve_now("figure3")
        for document in documents:
            source.process(document.copy())
        source.evolve_now("figure3")
        return source

    fast = era_run(FAST)
    slow = era_run(REFERENCE)
    assert serialize_dtd(fast.dtd("figure3")) == serialize_dtd(slow.dtd("figure3"))
    assert [
        serialize_dtd(entry.result.new_dtd) for entry in fast.evolution_log
    ] == [serialize_dtd(entry.result.new_dtd) for entry in slow.evolution_log]


# ----------------------------------------------------------------------
# Drain determinism across stores, with and without pruning
# ----------------------------------------------------------------------


@pytest.mark.parametrize("store_kind", ["memory", "jsonl"])
@pytest.mark.parametrize("fastpath", [FAST, REFERENCE], ids=["pruned", "unpruned"])
def test_drain_order_and_counts_across_stores(store_kind, fastpath):
    """``drain()`` recovers documents in deterministic insertion order
    and identical counts across MemoryStore and JsonlStore, pruned or
    not — the surviving repository order is the insertion order."""
    documents = (
        figure3_workload(20, 0, seed=11) + figure3_workload(0, 20, seed=12)
    )

    source = XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.4, tau=0.05, min_documents=6),
        fastpath=fastpath,
        store=store_kind,
    )
    outcomes = source.process_many([document.copy() for document in documents])
    recovered = sum(outcome.recovered for outcome in outcomes)
    survivors = [serialize_document(document) for document in source.repository]

    # the memory/unpruned run of the same stream is the reference
    reference = XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.4, tau=0.05, min_documents=6),
        fastpath=REFERENCE,
    )
    ref_outcomes = reference.process_many(
        [document.copy() for document in documents]
    )
    assert recovered == sum(outcome.recovered for outcome in ref_outcomes)
    assert survivors == [
        serialize_document(document) for document in reference.repository
    ]
    assert source.evolution_count == reference.evolution_count
    assert source.evolution_count >= 1


# ----------------------------------------------------------------------
# The machinery itself
# ----------------------------------------------------------------------


def test_timers_accumulate_nest_and_reset():
    counters = PerfCounters()
    with counters.timer("evolve_ns"):
        with counters.timer("evolve_mine_ns"):
            pass
        # same-name nesting counts once (outermost span owns it)
        with counters.timer("evolve_ns"):
            pass
    assert counters.evolve_ns > 0
    assert counters.evolve_mine_ns > 0
    assert counters.evolve_ns >= counters.evolve_mine_ns
    snapshot = counters.snapshot()
    for name in TIMER_NAMES:
        assert name in snapshot
    # timers ride the delta merge like any counter
    other = PerfCounters()
    other.merge(snapshot)
    assert other.evolve_ns == counters.evolve_ns
    counters.reset()
    assert all(value == 0 for value in counters.snapshot().values())


def test_engine_reports_phase_timers():
    """A run with an evolution populates the evolve/drain timers, and
    the event mirror still reconstructs the snapshot exactly."""
    from repro.pipeline.events import subscribe_counters

    source = XMLSource(
        [figure3_dtd()], EvolutionConfig(sigma=0.4, tau=0.05, min_documents=6)
    )
    mirror = PerfCounters()
    subscribe_counters(source.events, mirror)
    for document in figure3_workload(10, 10, seed=31):
        source.process(document)
    assert source.evolution_count >= 1
    snapshot = source.perf_snapshot()
    assert snapshot["evolve_ns"] > 0
    assert snapshot["drain_ns"] > 0
    assert mirror.snapshot() == snapshot


def test_pruned_drain_skips_and_stays_sound():
    """With pruning on, hopeless repository documents are skipped (the
    counter proves it) while recovered counts match the reference."""
    documents = figure3_workload(20, 0, seed=33) + figure3_workload(0, 20, seed=34)

    def run(fastpath):
        source = XMLSource(
            [figure3_dtd()],
            EvolutionConfig(sigma=0.45, tau=0.05, min_documents=6),
            fastpath=fastpath,
        )
        outcomes = source.process_many([d.copy() for d in documents])
        return source, sum(outcome.recovered for outcome in outcomes)

    pruned_source, pruned_recovered = run(FAST)
    reference_source, reference_recovered = run(REFERENCE)
    assert pruned_recovered == reference_recovered
    assert len(pruned_source.repository) == len(reference_source.repository)
    assert pruned_source.evolution_count == reference_source.evolution_count
    if len(pruned_source.repository) > 0 and pruned_source.evolution_count > 0:
        assert pruned_source.perf.drain_prune_skips > 0
    assert reference_source.perf.drain_prune_skips == 0


def test_standalone_drain_never_prunes():
    """``mine_repository``-style standalone drains must re-evaluate
    everything — the pruning invariant does not cover brand-new DTDs."""
    source = XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.99, min_documents=10 ** 9),
    )
    for document in figure3_workload(0, 8, seed=35):
        source.process(document)
    assert len(source.repository) > 0
    before = source.perf.drain_prune_skips
    source._reclassify_repository()
    assert source.perf.drain_prune_skips == before
