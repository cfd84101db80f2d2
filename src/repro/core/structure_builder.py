"""Determining the new structure of an element (Section 4.2).

Given the recorded information for an element in the *new* window —
its label set, sequence multiset, per-label statistics and groups —
and the association rules mined from them, rebuild the element's
content model:

1. start from ``C`` = one leaf per recorded label, in first-seen order;
2. if ``C`` is a singleton, apply the three basic policies;
3. otherwise apply the 13 policies in turn, each exhaustively, until
   ``C`` is a singleton;
4. simplify the result with the re-writing rules.

Termination guarantee: every policy firing either shrinks ``C`` or
turns an element leaf into an operator tree (Policy 9, at most once per
leaf), and Policy 13 binds any all-operator remainder.  The one
remaining corner — leaves that never became operator trees mixed with
operator trees, with no mined relations at all — is closed by the
:func:`_force_bind` fallback, which wraps and AND-binds what is left
(this is the deterministic completion the paper's "applied in turn till
C becomes a singleton" presumes).

Two content kinds short-circuit the cascade:

- elements recorded with text content get XML 1.0 *mixed* content
  (``(#PCDATA | l1 | ...)*`` — the only legal DTD form for text plus
  elements);
- elements recorded with neither children nor text become ``EMPTY`` /
  ``(#PCDATA)`` according to what instances showed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from repro.core.extended_dtd import ElementRecord
from repro.core.policies import (
    EvolutionContext,
    Policy,
    basic_policies,
    default_policies,
)
from repro.dtd import content_model as cm
from repro.dtd.rewriting import simplify
from repro.errors import EvolutionError
from repro.mining.rules import RuleSet, mine_evolution_rules
from repro.mining.transactions import present
from repro.xmltree.tree import Tree


@contextmanager
def _timed(counters, name: str):
    """``counters.timer(name)`` when counters are present, else a no-op
    (the builder runs in plenty of untimed contexts — tests, benches)."""
    if counters is None:
        yield
    else:
        with counters.timer(name):
            yield


def build_structure(
    record: ElementRecord,
    min_support: float = 0.0,
    rules: Optional[RuleSet] = None,
    policies: Optional[List[Policy]] = None,
    apply_rewriting: bool = True,
    counters=None,
) -> Tree:
    """Rebuild a content model from recorded evidence.

    Parameters
    ----------
    record:
        The element's recorded information (non-valid side).
    min_support:
        The paper's ``mu``: sequences at or below this support are
        discarded before mining.
    rules:
        Pre-mined rules (the engine mines once and shares); mined here
        when omitted.
    policies:
        Policy list override (used by the ablation benchmarks).
    apply_rewriting:
        Run the simplification rules on the result (Section 4.1).
    counters:
        A :class:`repro.perf.PerfCounters`; phase wall-clock lands in
        the ``evolve_mine_ns`` / ``evolve_build_ns`` /
        ``evolve_rewrite_ns`` timers.
    """
    labels = record.ordered_labels()
    if not labels:
        if record.text_count > 0:
            return cm.pcdata()
        return cm.empty()
    if record.text_count > 0:
        return cm.mixed(*labels)

    if rules is None:
        with _timed(counters, "evolve_mine_ns"):
            rules = mine_evolution_rules(record.sequence_list(), labels, min_support)
    context = EvolutionContext(record, rules)

    with _timed(counters, "evolve_build_ns"):
        # labels only seen in discarded (non-representative) sequences
        # carry no surviving evidence: drop them, as the paper drops the
        # sequences
        representative = [
            label for label in labels if rules.support_of(present(label)) > 0
        ]
        if representative:
            labels = representative

        working_set: List[Tree] = [Tree.leaf(label) for label in labels]
        if len(working_set) == 1:
            result = basic_policies(working_set[0], context)
        else:
            result = _run_cascade(
                working_set, context, policies or default_policies()
            )
        # an element observed with no children at all makes the whole
        # model optional
        if record.empty_count > 0 and not cm.nullable(result):
            result = Tree(cm.OPT, [result])
    with _timed(counters, "evolve_rewrite_ns"):
        if apply_rewriting:
            result = simplify(result)
        result = refine_order(result, record)
    cm.check_well_formed(result)
    return result


#: do not permute AND layouts wider than this (k! candidate orders)
_MAX_REFINE_WIDTH = 6


def refine_order(model: Tree, record: ElementRecord) -> Tree:
    """Reorder a top-level AND to fit the recorded *ordered* sequences.

    The paper's sequences disregard order, so the cascade lays out its
    AND children by first-seen label rank — which can contradict the
    actual child order (e.g. an optional element sitting *between* two
    required ones).  This extension scores every permutation of the
    top-level AND children against the bounded ordered-sequence sample
    kept by the recorder and takes the best (ties keep the original
    order; non-AND models and wide ANDs are returned untouched).
    """
    if (
        model.label != cm.AND
        or not record.ordered_sequences
        or len(model.children) > _MAX_REFINE_WIDTH
    ):
        return model
    from itertools import permutations

    from repro.dtd.automaton import ContentAutomaton

    def score(candidate: Tree) -> int:
        automaton = ContentAutomaton(candidate)
        return sum(
            count
            for tags, count in record.ordered_sequences.items()
            if automaton.accepts(tags)
        )

    best_model = model
    best_score = score(model)
    total = sum(record.ordered_sequences.values())
    if best_score == total:
        return model
    for order in permutations(range(len(model.children))):
        candidate = Tree(cm.AND, [model.children[index] for index in order])
        candidate_score = score(candidate)
        if candidate_score > best_score:
            best_model = candidate
            best_score = candidate_score
            if best_score == total:
                break
    return best_model


def _run_cascade(
    working_set: List[Tree],
    context: EvolutionContext,
    policies: List[Policy],
) -> Tree:
    """Apply each policy exhaustively, in order (Section 4.2)."""
    for policy in policies:
        while len(working_set) > 1 and policy.apply(working_set, context):
            pass
        if len(working_set) == 1:
            break
    if len(working_set) > 1:
        _force_bind(working_set, context)
    if len(working_set) != 1:
        raise EvolutionError(
            "the policy cascade did not converge to a singleton "
            f"(|C| = {len(working_set)})"
        )
    return working_set[0]


def _force_bind(working_set: List[Tree], context: EvolutionContext) -> None:
    """Deterministic completion: wrap remaining leaves by their own
    evidence, then AND-bind everything in first-seen order."""
    wrapped: List[Tree] = []
    for tree in context.ordered(working_set):
        if EvolutionContext.is_element_tree(tree):
            wrapped.append(basic_policies(tree, context))
        elif not cm.nullable(tree) and context.tree_sometimes_absent(tree):
            # a non-nullable structure some instances lack is optional
            wrapped.append(Tree(cm.OPT, [tree]))
        else:
            wrapped.append(tree)
    working_set.clear()
    if len(wrapped) == 1:
        working_set.append(wrapped[0])
    else:
        working_set.append(Tree(cm.AND, wrapped))


def build_plus_declarations(
    record: ElementRecord,
    min_support: float = 0.0,
    known_names: Optional[set] = None,
    counters=None,
) -> List["DeclSpec"]:
    """Infer declarations for the *plus* labels nested under a record.

    "By recursively applying the evolution algorithm for each of them,
    considering as DTD an empty DTD, their actual structure can be
    extracted" (Example 5, tree (4)).  Returns one spec per plus label,
    depth-first, deduplicated against ``known_names``.
    """
    known = known_names if known_names is not None else set()
    specs: List[DeclSpec] = []
    for label, nested in record.plus_records.items():
        if label in known:
            continue
        known.add(label)
        specs.append(
            DeclSpec(label, build_structure(nested, min_support, counters=counters))
        )
        specs.extend(
            build_plus_declarations(nested, min_support, known, counters=counters)
        )
    return specs


class DeclSpec:
    """A (name, content model) pair produced by recursive inference."""

    __slots__ = ("name", "content")

    def __init__(self, name: str, content: Tree):
        self.name = name
        self.content = content

    def __repr__(self) -> str:
        return f"DeclSpec({self.name!r}, {self.content.to_tuple()!r})"
