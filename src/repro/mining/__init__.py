"""Association-rule mining (Section 4.2 substrate).

The evolution phase "is based on the use of data mining association
rules [4] to find out frequent structural patterns in documents".  This
package implements that substrate from scratch:

- :mod:`repro.mining.transactions` — presence/absence literals and the
  paper's *absent element* augmentation (Example 4);
- :mod:`repro.mining.itemsets` — Apriori frequent-itemset mining;
- :mod:`repro.mining.rules` — association rules with support and
  confidence (Example 3), rule generation, the :class:`RuleSet` the
  heuristic policies query, and the end-to-end
  :func:`mine_evolution_rules` pipeline (steps 1–4 of Section 4.2).
"""

from repro.mining.transactions import (
    Literal,
    present,
    absent,
    augment_with_absent,
    filter_frequent_sequences,
)
from repro.mining.itemsets import apriori, itemset_support
from repro.mining.rules import (
    AssociationRule,
    RuleSet,
    generate_rules,
    mine_evolution_rules,
)

__all__ = [
    "Literal",
    "present",
    "absent",
    "augment_with_absent",
    "filter_frequent_sequences",
    "apriori",
    "itemset_support",
    "AssociationRule",
    "RuleSet",
    "generate_rules",
    "mine_evolution_rules",
]
