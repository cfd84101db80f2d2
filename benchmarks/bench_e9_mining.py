"""E9 — association-rule mining cost (Section 4.2 substrate).

The evolution phase's mining step: augment sequences with absent
elements, filter by mu, extract confidence-1 rules.  Sweep the number
of recorded sequences and the label-universe size; report Apriori
frequent-itemset counts for context.

Expected shape: the pipeline is linear-ish in the number of sequences
for a fixed universe (transactions are total over the universe, so the
distinct-shape count — not the raw count — drives the RuleSet work);
Apriori's lattice grows with the universe, which is why the evolution
pipeline queries pairwise implications instead of the full lattice.

The benchmark times one full mining pass at the middle workload.
"""

import random
import time

from benchmarks._harness import emit, fmt
from repro.metrics.report import Table
from repro.mining.itemsets import apriori
from repro.mining.rules import mine_evolution_rules
from repro.mining.transactions import augment_with_absent

SEQUENCE_COUNTS = [100, 500, 2000]
UNIVERSES = [4, 8, 12]


def _sequences(count, universe_size, seed=0):
    rng = random.Random(seed)
    labels = [f"t{i}" for i in range(universe_size)]
    shapes = []
    for _ in range(max(3, universe_size)):
        size = rng.randint(1, universe_size)
        shapes.append(frozenset(rng.sample(labels, size)))
    return [rng.choice(shapes) for _ in range(count)], labels


def test_e9_mining(benchmark):
    table = Table(
        "E9: mining pipeline cost (augment + filter + confidence-1 rules)",
        [
            "sequences", "universe",
            "pipeline ms", "implications",
            "apriori itemsets (mu=0.2)", "apriori ms",
        ],
    )
    for count in SEQUENCE_COUNTS:
        for universe_size in UNIVERSES:
            sequences, labels = _sequences(count, universe_size, seed=count)
            start = time.perf_counter()
            rules = mine_evolution_rules(sequences, labels, min_support=0.05)
            pipeline_ms = (time.perf_counter() - start) * 1000

            transactions = augment_with_absent(sequences, labels)
            start = time.perf_counter()
            frequent = apriori(transactions, min_support=0.2, max_size=3)
            apriori_ms = (time.perf_counter() - start) * 1000

            implication_count = len(rules.to_rules())
            table.add_row(
                [
                    count, universe_size,
                    fmt(pipeline_ms, 1), implication_count,
                    len(frequent), fmt(apriori_ms, 1),
                ]
            )
    emit(table, "e9_mining")

    sequences, labels = _sequences(500, 8, seed=500)
    benchmark(mine_evolution_rules, sequences, labels, 0.05)

    rules = mine_evolution_rules(sequences, labels, 0.05)
    assert rules.transactions  # sanity: something survived the filter
