"""The extended DTD (Section 3.2, Figure 3).

"The DTD is extended with auxiliary data structures for containing the
relevant information for the evolution phase.  Such data structures are
associated with each node of the DTD."

The information stored is deliberately *aggregate* — counters, label
sets, sequence multisets, co-repetition groups — never documents
themselves: "these information are structural rather than content
information, and they are aggregate over the whole set of analyzed
documents, thus they do not require much storage space".  Experiment E8
verifies exactly this property (storage grows with structural diversity,
not with document count).

Per declared element ``e``, an :class:`ElementRecord` keeps:

- the number of valid instances / of documents containing valid
  instances (local similarity full);
- the number of non-valid instances;
- the set of labels found in non-valid instances (``Label``), in
  first-seen order — order is later used to lay out rebuilt sequences;
- the multiset of *sequences* (tag sets of non-valid instances,
  disregarding order and repetitions);
- per-label stats: instances containing the label, instances where it
  is repeated more than once (:class:`PlusLabelStats`);
- nested records for *plus* labels not declared anywhere in the DTD,
  from which the evolution phase infers brand-new declarations;
- the *groups*: subsets of a sequence repeated the same number of
  times, with an occurrence counter (Figure 3's ``({b, c}, m)``);
- occurrence statistics over *valid* instances
  (:class:`ValidLabelStats`) feeding the restriction of operators.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.dtd.dtd import DTD


#: cap on distinct ordered-sequence shapes kept per element record
MAX_ORDERED_SEQUENCES = 64


class PlusLabelStats:
    """Stats about one label seen in non-valid instances of an element."""

    __slots__ = ("instances_with", "instances_repeated", "total_occurrences", "max_occurrences")

    def __init__(self):
        #: non-valid instances of ``e`` containing the label
        self.instances_with = 0
        #: non-valid instances where the label occurs more than once
        self.instances_repeated = 0
        self.total_occurrences = 0
        self.max_occurrences = 0

    def observe(self, occurrences: int) -> None:
        if occurrences <= 0:
            return
        self.instances_with += 1
        if occurrences > 1:
            self.instances_repeated += 1
        self.total_occurrences += occurrences
        self.max_occurrences = max(self.max_occurrences, occurrences)

    @property
    def is_ever_repeated(self) -> bool:
        return self.instances_repeated > 0

    def __repr__(self) -> str:
        return (
            f"PlusLabelStats(with={self.instances_with}, "
            f"repeated={self.instances_repeated}, max={self.max_occurrences})"
        )


class ValidLabelStats:
    """Occurrence stats of one label over *valid* instances of an element.

    Feeds the restriction of operators: e.g. a ``*`` may be tightened to
    ``+`` only when every valid instance contained the label at least
    once (``min_occurrences >= 1`` and full presence).
    """

    __slots__ = ("instances_with", "min_occurrences", "max_occurrences")

    def __init__(self):
        self.instances_with = 0
        self.min_occurrences: Optional[int] = None  # over instances *with* data
        self.max_occurrences = 0

    def observe(self, occurrences: int) -> None:
        """Record the label's occurrence count in one valid instance
        (call for every valid instance, with 0 when absent)."""
        if occurrences > 0:
            self.instances_with += 1
        if self.min_occurrences is None:
            self.min_occurrences = occurrences
        else:
            self.min_occurrences = min(self.min_occurrences, occurrences)
        self.max_occurrences = max(self.max_occurrences, occurrences)

    def __repr__(self) -> str:
        return (
            f"ValidLabelStats(with={self.instances_with}, "
            f"min={self.min_occurrences}, max={self.max_occurrences})"
        )


class ElementRecord:
    """Recorded structural information for one element tag.

    Used both for declared elements (hanging off the extended DTD) and,
    recursively, for *plus* elements unknown to the DTD (hanging off the
    parent's record) — the latter carry no valid-instance data because
    there is no declaration to be valid against.
    """

    def __init__(self, name: str):
        self.name = name
        # -- valid side ------------------------------------------------
        self.valid_count = 0
        self.documents_with_valid = 0
        self.valid_label_stats: Dict[str, ValidLabelStats] = {}
        # -- non-valid side ---------------------------------------------
        self.invalid_count = 0
        #: label -> first-seen rank (dict preserves insertion order)
        self.labels: Dict[str, int] = {}
        #: multiset of tag-set sequences of non-valid instances
        self.sequences: Counter = Counter()
        self.label_stats: Dict[str, PlusLabelStats] = {}
        #: co-repetition groups: frozenset of tags -> observation count
        self.groups: Counter = Counter()
        #: nested records for labels declared nowhere in the DTD
        self.plus_records: Dict[str, "ElementRecord"] = {}
        #: non-valid instances carrying (non-whitespace) text content
        self.text_count = 0
        #: non-valid instances with neither element children nor text
        self.empty_count = 0
        # -- attributes (recorded over *all* instances; orthogonal to
        # element-structure validity, which the paper's algorithms and
        # the similarity measure do not consider) ----------------------
        #: attribute name -> instances carrying it
        self.attribute_counts: Counter = Counter()
        # -- ordered sequences (extension) ------------------------------
        #: a bounded sample of *ordered* child-tag sequences of non-valid
        #: instances; the paper's sequences are sets, which loses the
        #: layout order — this sample lets the structure builder verify
        #: and refine the order of its rebuilt AND (at most
        #: MAX_ORDERED_SEQUENCES distinct shapes are kept)
        self.ordered_sequences: Counter = Counter()

    # ------------------------------------------------------------------

    @property
    def instance_count(self) -> int:
        return self.valid_count + self.invalid_count

    @property
    def invalidity_ratio(self) -> float:
        """The paper's ``I(e) = m / n`` (0 when nothing was recorded)."""
        total = self.instance_count
        if total == 0:
            return 0.0
        return self.invalid_count / total

    def ordered_labels(self) -> List[str]:
        """Labels in first-seen order (layout order for rebuilt models)."""
        return sorted(self.labels, key=self.labels.get)

    def sequence_list(self) -> List[FrozenSet[str]]:
        """The sequence multiset expanded to a list (mining input)."""
        expanded: List[FrozenSet[str]] = []
        for sequence, count in self.sequences.items():
            expanded.extend([sequence] * count)
        return expanded

    def stats_for(self, label: str) -> PlusLabelStats:
        if label not in self.label_stats:
            self.label_stats[label] = PlusLabelStats()
        return self.label_stats[label]

    def valid_stats_for(self, label: str) -> ValidLabelStats:
        if label not in self.valid_label_stats:
            self.valid_label_stats[label] = ValidLabelStats()
        return self.valid_label_stats[label]

    def observe_ordered_sequence(self, tags: Tuple[str, ...]) -> None:
        """Add one ordered child-tag sequence to the bounded sample."""
        if (
            tags in self.ordered_sequences
            or len(self.ordered_sequences) < MAX_ORDERED_SEQUENCES
        ):
            self.ordered_sequences[tags] += 1

    def plus_record_for(self, label: str) -> "ElementRecord":
        if label not in self.plus_records:
            self.plus_records[label] = ElementRecord(label)
        return self.plus_records[label]

    def co_repetition_count(self, group: FrozenSet[str]) -> int:
        """Instances in which the whole ``group`` co-repeated.

        A recorded group is the *maximal* set of tags sharing one
        occurrence count in an instance, so any subset of it co-repeated
        there as well — observations are summed over supersets.
        """
        return sum(
            count for recorded, count in self.groups.items() if group <= recorded
        )

    def always_co_repeated(self, group: FrozenSet[str]) -> bool:
        """True if, whenever any member of ``group`` was repeated, the
        whole group was observed co-repeating (same occurrence count)."""
        observed = self.co_repetition_count(group)
        if observed == 0:
            return False
        return all(
            self.stats_for(label).instances_repeated <= observed for label in group
        )

    def reset(self) -> None:
        """Forget everything (called after an evolution consumed it)."""
        self.__init__(self.name)

    def storage_cells(self) -> int:
        """Rough count of stored aggregate cells (experiment E8)."""
        cells = 6 + len(self.labels) + len(self.sequences) + len(self.groups)
        cells += 4 * len(self.label_stats) + 3 * len(self.valid_label_stats)
        cells += len(self.attribute_counts)
        for nested in self.plus_records.values():
            cells += nested.storage_cells()
        return cells

    def __repr__(self) -> str:
        return (
            f"ElementRecord({self.name!r}, valid={self.valid_count}, "
            f"invalid={self.invalid_count}, labels={self.ordered_labels()!r})"
        )


class ExtendedDTD:
    """A DTD plus its recording structures and document-level counters."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self.records: Dict[str, ElementRecord] = {}
        #: documents classified into this DTD since the last evolution
        self.document_count = 0
        #: documents among those that were fully valid
        self.valid_document_count = 0
        #: sum over documents of (non-valid elements / elements)
        self.sum_invalid_fraction = 0.0
        #: total evolutions this extended DTD has gone through
        self.evolution_count = 0

    @property
    def name(self) -> str:
        return self.dtd.name

    def record_for(self, name: str) -> ElementRecord:
        if name not in self.records:
            self.records[name] = ElementRecord(name)
        return self.records[name]

    @property
    def activation_score(self) -> float:
        """The left-hand side of the paper's activation condition:

        ``sum_D (#non-valid elements of D / #elements of D) / #Doc_T``
        """
        if self.document_count == 0:
            return 0.0
        return self.sum_invalid_fraction / self.document_count

    def should_evolve(self, tau: float) -> bool:
        """The check phase: trigger when the score exceeds ``tau``."""
        return self.activation_score > tau

    def reset_recording(self) -> None:
        """Clear all recorded information (after an evolution)."""
        self.records.clear()
        self.document_count = 0
        self.valid_document_count = 0
        self.sum_invalid_fraction = 0.0

    def storage_cells(self) -> int:
        """Aggregate storage footprint in cells (experiment E8)."""
        return 4 + sum(record.storage_cells() for record in self.records.values())

    def __repr__(self) -> str:
        return (
            f"ExtendedDTD({self.name!r}, documents={self.document_count}, "
            f"score={self.activation_score:.3f})"
        )
