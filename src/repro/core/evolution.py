"""The evolution phase over one DTD (Section 4).

For each declared element with recorded evidence, the invalidity ratio
places it in a window (Section 4.1) and the window decides the action:

- **old** — keep the declaration; optionally apply the restriction of
  operators to what valid instances actually used;
- **new** — rebuild the declaration from the recorded information via
  association rules and the heuristic policies;
- **misc** — "documents in DOC_cur are used for obtaining the new
  structure of the DTD declaration of the element.  Then, such
  definition is bound, by means of the OR operator, with the previous
  declaration of the DTD.  A better formulation of the DTD is then
  obtained by means of DTD re-writing rules";

and in the new/misc cases, declarations are *added* for plus labels the
DTD never knew (recursively inferred — Example 5's tree (4)) and, when
enabled, declarations no content model references any more are removed
("some elements can be removed from the DTD", Section 2).

The evolution phase reads only the extended DTD's aggregates — never
the documents — which is the paper's central storage/time trade-off
(verified by experiment E8).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set

from repro.core.extended_dtd import ElementRecord, ExtendedDTD
from repro.core.restriction import restrict_operators
from repro.core.structure_builder import (
    _timed,
    build_plus_declarations,
    build_structure,
)
from repro.core.windows import Window, classify_window
from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD, ElementDecl
from repro.dtd.rewriting import normalize_mixed, simplify
from repro.xmltree.tree import Tree


class EvolutionConfig(NamedTuple):
    """All tunables of the evolution process, named as in the paper.

    Parameters
    ----------
    sigma:
        Classification similarity threshold (Section 2).
    tau:
        Activation threshold of the check phase (Section 2).
    psi:
        Window threshold, in ``[0, 0.5]`` (Section 4.1).
    mu:
        Minimum support for a sequence of element tags (Section 4.2).
    alpha / beta:
        Plus/minus weights of the similarity measure.
    restrict_in_old_window:
        Apply the restriction of operators in the old window.
    min_valid_for_restriction:
        Valid instances required before restricting (no single lucky
        document may tighten a schema).
    min_instances:
        Recorded instances required before an element is touched at all.
    prune_unreferenced:
        Remove declarations nothing references after evolution.
    min_documents:
        Documents that must be recorded before the check phase may
        trigger ("the evolution [...] should thus be performed whenever
        the source contains a certain amount of documents", Section 2).
    evolve_attributes:
        Also add ``ATTLIST`` declarations for observed attributes (an
        extension — the paper's algorithms cover element structure
        only).
    attribute_min_fraction / attribute_required_fraction:
        An attribute observed in at least ``attribute_min_fraction`` of
        an element's instances is declared ``CDATA #IMPLIED``; at or
        above ``attribute_required_fraction`` it becomes ``#REQUIRED``.
    """

    sigma: float = 0.5
    tau: float = 0.1
    psi: float = 0.2
    mu: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    restrict_in_old_window: bool = True
    min_valid_for_restriction: int = 3
    min_instances: int = 1
    prune_unreferenced: bool = False
    min_documents: int = 10
    evolve_attributes: bool = True
    attribute_min_fraction: float = 0.1
    attribute_required_fraction: float = 0.95


class ElementAction(NamedTuple):
    """What the evolution phase did to one element declaration."""

    name: str
    window: Optional[Window]
    #: one of "kept", "restricted", "rebuilt", "merged", "added", "removed"
    action: str
    old_model: Optional[Tree]
    new_model: Optional[Tree]

    def __repr__(self) -> str:
        window = self.window.value if self.window else "-"
        return f"ElementAction({self.name!r}, {window}, {self.action!r})"


class EvolutionResult:
    """The outcome of evolving one DTD."""

    def __init__(
        self,
        old_dtd: DTD,
        new_dtd: DTD,
        actions: List[ElementAction],
    ):
        self.old_dtd = old_dtd
        self.new_dtd = new_dtd
        self.actions = actions

    @property
    def changed(self) -> bool:
        return any(action.action != "kept" for action in self.actions)

    def changed_declarations(self) -> Set[str]:
        """Element names whose declaration differs between the old and
        the new DTD — added, removed, or content model changed — plus
        both roots when the root moved.

        Attribute-list-only changes are deliberately excluded: the
        similarity measure and the validator read element structure
        only, so an ATTLIST change can never affect classification.
        The pruned post-evolution drain keys off this set (an empty set
        means no repository document can have changed its standing
        against this DTD).
        """
        old_names = set(self.old_dtd.element_names())
        new_names = set(self.new_dtd.element_names())
        changed = old_names ^ new_names
        for name in old_names & new_names:
            if self.old_dtd[name].content != self.new_dtd[name].content:
                changed.add(name)
        if self.old_dtd.root != self.new_dtd.root:
            changed.add(self.old_dtd.root)
            changed.add(self.new_dtd.root)
        return changed

    def actions_by_kind(self) -> Dict[str, List[ElementAction]]:
        grouped: Dict[str, List[ElementAction]] = {}
        for action in self.actions:
            grouped.setdefault(action.action, []).append(action)
        return grouped

    def __repr__(self) -> str:
        kinds = {kind: len(items) for kind, items in self.actions_by_kind().items()}
        return f"EvolutionResult({self.new_dtd.name!r}, {kinds})"


def evolve_dtd(
    extended: ExtendedDTD,
    config: EvolutionConfig = EvolutionConfig(),
    tag_matcher=None,
    rename_min_fraction: float = 0.5,
    counters=None,
) -> EvolutionResult:
    """Run the evolution phase on one extended DTD.

    The input extended DTD is not modified; callers decide whether to
    adopt ``result.new_dtd`` (the engine does, and then resets the
    recording structures).

    With a (thesaurus) ``tag_matcher``, tag *renames* are detected and
    applied as well — the Section 6 tag-evolution extension (see
    :mod:`repro.core.tag_evolution`); with the default exact matcher the
    feature is inert.

    ``counters`` (a :class:`repro.perf.PerfCounters`) collects the
    mine / build / rewrite / restrict phase timers; standalone calls
    leave it off.
    """
    from repro.core.tag_evolution import (
        merge_renamed_evidence,
        plan_tag_evolution,
        rename_in_dtd,
    )

    old_dtd = extended.dtd
    new_dtd = old_dtd.copy()
    actions: List[ElementAction] = []
    known_names = set(old_dtd.element_names())
    renames = plan_tag_evolution(extended, tag_matcher, rename_min_fraction)

    for decl in old_dtd:
        record = extended.records.get(decl.name)
        if record is not None and renames:
            record = merge_renamed_evidence(record, renames)
        if record is None or record.instance_count < config.min_instances:
            actions.append(
                ElementAction(decl.name, None, "kept", decl.content, decl.content)
            )
            continue
        window = classify_window(record.invalidity_ratio, config.psi)
        if window is Window.OLD:
            action = _handle_old(decl, record, config, new_dtd, counters)
        elif window is Window.NEW:
            action = _handle_new(decl, record, config, new_dtd, known_names, counters)
        else:
            action = _handle_misc(decl, record, config, new_dtd, known_names, counters)
        actions.append(action)

    for old_name, new_name in rename_in_dtd(new_dtd, renames):
        actions.append(
            ElementAction(old_name, None, "renamed", None, Tree(new_name))
        )

    if config.evolve_attributes:
        # after the renames, so attributes recorded under either name of
        # a renamed element land on the surviving declaration
        actions.extend(_evolve_attributes(extended, config, new_dtd, renames))

    if config.prune_unreferenced:
        actions.extend(_prune_unreferenced(new_dtd))

    return EvolutionResult(old_dtd, new_dtd, actions)


# ----------------------------------------------------------------------
# Window handlers
# ----------------------------------------------------------------------


def _handle_old(
    decl: ElementDecl,
    record: ElementRecord,
    config: EvolutionConfig,
    new_dtd: DTD,
    counters=None,
) -> ElementAction:
    """Old window: keep, optionally restricting operators."""
    if not config.restrict_in_old_window:
        return ElementAction(decl.name, Window.OLD, "kept", decl.content, decl.content)
    with _timed(counters, "evolve_restrict_ns"):
        restricted = restrict_operators(
            decl.content, record, config.min_valid_for_restriction
        )
        if restricted == decl.content:
            return ElementAction(
                decl.name, Window.OLD, "kept", decl.content, decl.content
            )
        restricted = simplify(restricted)
    new_dtd.add(ElementDecl(decl.name, restricted), replace=True)
    return ElementAction(decl.name, Window.OLD, "restricted", decl.content, restricted)


def _handle_new(
    decl: ElementDecl,
    record: ElementRecord,
    config: EvolutionConfig,
    new_dtd: DTD,
    known_names: set,
    counters=None,
) -> ElementAction:
    """New window: rebuild the declaration from recorded evidence."""
    if record.invalid_count == 0:
        # a new window with no non-valid instance cannot arise (ratio 1
        # needs invalid instances) unless nothing was recorded; keep.
        return ElementAction(decl.name, Window.NEW, "kept", decl.content, decl.content)
    rebuilt = build_structure(record, min_support=config.mu, counters=counters)
    new_dtd.add(ElementDecl(decl.name, rebuilt), replace=True)
    _add_plus_declarations(record, config, new_dtd, known_names, counters)
    return ElementAction(decl.name, Window.NEW, "rebuilt", decl.content, rebuilt)


def _handle_misc(
    decl: ElementDecl,
    record: ElementRecord,
    config: EvolutionConfig,
    new_dtd: DTD,
    known_names: set,
    counters=None,
) -> ElementAction:
    """Misc window: OR the old and the rebuilt declarations, simplify."""
    if record.invalid_count == 0:
        return ElementAction(decl.name, Window.MISC, "kept", decl.content, decl.content)
    rebuilt = build_structure(record, min_support=config.mu, counters=counters)
    if rebuilt == decl.content:
        return ElementAction(decl.name, Window.MISC, "kept", decl.content, decl.content)
    with _timed(counters, "evolve_rewrite_ns"):
        merged = normalize_mixed(
            simplify(Tree(cm.OR, [decl.content.copy(), rebuilt]))
        )
    new_dtd.add(ElementDecl(decl.name, merged), replace=True)
    _add_plus_declarations(record, config, new_dtd, known_names, counters)
    return ElementAction(decl.name, Window.MISC, "merged", decl.content, merged)


def _add_plus_declarations(
    record: ElementRecord,
    config: EvolutionConfig,
    new_dtd: DTD,
    known_names: set,
    counters=None,
) -> None:
    """Add recursively inferred declarations for plus labels."""
    for spec in build_plus_declarations(
        record, config.mu, known_names, counters=counters
    ):
        if spec.name not in new_dtd:
            new_dtd.add(ElementDecl(spec.name, spec.content))


def _evolve_attributes(
    extended: ExtendedDTD,
    config: EvolutionConfig,
    new_dtd: DTD,
    renames: Optional[Dict[str, str]] = None,
) -> List[ElementAction]:
    """Declare observed attributes as ``ATTLIST`` entries (extension).

    Every recorded element (nested plus records included — brand-new
    declarations may carry attributes too) gets a ``CDATA`` declaration
    for each attribute seen often enough; existing ATTLIST entries are
    never touched.  ``renames`` maps record names through any tag
    evolution applied this round.
    """
    from repro.dtd.dtd import AttributeDecl

    actions: List[ElementAction] = []
    translate = renames or {}

    def handle(record: ElementRecord, element_name: str) -> None:
        element_name = translate.get(element_name, element_name)
        total = record.instance_count
        if total == 0 or element_name not in new_dtd:
            return
        existing = {attr.name for attr in new_dtd.attlists.get(element_name, [])}
        for attribute, count in sorted(record.attribute_counts.items()):
            if attribute in existing:
                continue
            fraction = count / total
            if fraction < config.attribute_min_fraction:
                continue
            default = (
                "#REQUIRED"
                if fraction >= config.attribute_required_fraction
                else "#IMPLIED"
            )
            new_dtd.attlists.setdefault(element_name, []).append(
                AttributeDecl(attribute, "CDATA", default)
            )
            actions.append(
                ElementAction(element_name, None, "attlist", None, Tree(attribute))
            )

    def walk(record: ElementRecord) -> None:
        for label, nested in record.plus_records.items():
            handle(nested, label)
            walk(nested)

    for name, record in extended.records.items():
        handle(record, name)
        walk(record)
    return actions


def _prune_unreferenced(new_dtd: DTD) -> List[ElementAction]:
    """Drop declarations no content model references (root excluded)."""
    actions: List[ElementAction] = []
    while True:
        referenced = {new_dtd.root}
        for decl in new_dtd:
            referenced |= decl.declared_labels()
        doomed = [name for name in new_dtd.element_names() if name not in referenced]
        if not doomed:
            return actions
        for name in doomed:
            actions.append(
                ElementAction(name, None, "removed", new_dtd[name].content, None)
            )
            new_dtd.remove(name)
