"""Glushkov-automaton validation of content models.

This module supplies the *boolean* notion of validity that the paper
contrasts with its numeric similarity: "classification based on
validators is very rigid, with a boolean answer" (Section 1).  We need it
for three jobs:

1. the rigid baseline classifier (experiment E4);
2. ground-truth validity in the quality metrics (E5, E7);
3. equivalence testing of the rewriting rules (language sampling).

The construction is the standard Glushkov (position) automaton: every
element-tag leaf of the content model becomes a position; ``nullable``,
``first``, ``last`` and ``follow`` are computed compositionally; a child
tag sequence is accepted iff it drives the position NFA from the start
state into a final state.  The automaton also exposes the XML 1.0
*determinism* (1-unambiguity) check: a model is deterministic iff no two
positions with the same tag compete in ``first`` or in any ``follow``
set.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD
from repro.xmltree.document import Document, Element
from repro.xmltree.tree import Tree


class ContentAutomaton:
    """Position NFA for one content model.

    Parameters
    ----------
    model:
        A content model over element-tag leaves.  ``EMPTY`` accepts only
        the empty sequence; ``ANY`` accepts everything; ``#PCDATA``
        leaves are ignored (text is checked separately by the
        :class:`Validator`).
    """

    def __init__(self, model: Tree):
        cm.check_well_formed(model)
        self.model = model
        self._is_any = cm.is_any_model(model)
        # positions: one per element-tag leaf, numbered left to right
        self._symbols: List[str] = []
        self._nullable: bool = False
        self._first: Set[int] = set()
        self._last: Set[int] = set()
        self._follow: Dict[int, Set[int]] = {}
        if not self._is_any:
            self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        nullable, first, last = self._walk(self.model)
        self._nullable = nullable
        self._first = first
        self._last = last

    def _new_position(self, symbol: str) -> int:
        position = len(self._symbols)
        self._symbols.append(symbol)
        self._follow[position] = set()
        return position

    def _walk(self, node: Tree) -> Tuple[bool, Set[int], Set[int]]:
        """Return (nullable, first, last) for ``node``, filling follow."""
        label = node.label
        if label in (cm.EMPTY, cm.PCDATA):
            return True, set(), set()
        if label == cm.ANY:  # ANY nested in a model: treat as nullable wildcard
            return True, set(), set()
        if cm.is_element_label(label):
            position = self._new_position(label)
            return False, {position}, {position}
        if label == cm.AND:
            nullable = True
            first: Set[int] = set()
            last: Set[int] = set()
            for child in node.children:
                child_nullable, child_first, child_last = self._walk(child)
                for position in last:
                    self._follow[position].update(child_first)
                if nullable:
                    first.update(child_first)
                if child_nullable:
                    last |= child_last
                else:
                    last = set(child_last)
                nullable = nullable and child_nullable
            return nullable, first, last
        if label == cm.OR:
            nullable_any = False
            first = set()
            last = set()
            for child in node.children:
                child_nullable, child_first, child_last = self._walk(child)
                nullable_any = nullable_any or child_nullable
                first |= child_first
                last |= child_last
            return nullable_any, first, last
        # unary operators
        child_nullable, child_first, child_last = self._walk(node.children[0])
        if label == cm.OPT:
            return True, child_first, child_last
        if label == cm.STAR or label == cm.PLUS:
            for position in child_last:
                self._follow[position].update(child_first)
            nullable_result = True if label == cm.STAR else child_nullable
            return nullable_result, child_first, child_last
        raise ValueError(f"unknown content-model label {label!r}")

    # ------------------------------------------------------------------
    # Acceptance
    # ------------------------------------------------------------------

    def accepts(self, tags: Sequence[str]) -> bool:
        """True iff the tag sequence is a word of the content model.

        >>> from repro.dtd.content_model import seq, star
        >>> ContentAutomaton(seq("b", star("c"))).accepts(["b", "c", "c"])
        True
        """
        if self._is_any:
            return True
        if not tags:
            return self._nullable
        current = {
            position for position in self._first if self._symbols[position] == tags[0]
        }
        if not current:
            return False
        for tag in tags[1:]:
            following: Set[int] = set()
            for position in current:
                for successor in self._follow[position]:
                    if self._symbols[successor] == tag:
                        following.add(successor)
            if not following:
                return False
            current = following
        return bool(current & self._last)

    def residual_accepts_prefix(self, tags: Sequence[str]) -> int:
        """Length of the longest prefix of ``tags`` that is a prefix of
        some word of the model (useful diagnostics for error messages)."""
        if self._is_any:
            return len(tags)
        current = set(self._first)
        matched = 0
        for tag in tags:
            following = {
                position
                for position in current
                if self._symbols[position] == tag
            }
            if not following:
                return matched
            matched += 1
            current = set()
            for position in following:
                current |= self._follow[position]
        return matched

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def edit_alignment(
        self,
        tags: Sequence[str],
        delete_costs: Optional[Sequence[float]] = None,
        insert_costs: Optional[Dict[str, float]] = None,
    ) -> Tuple[float, List[Tuple[str, object]]]:
        """Cheapest edit script turning ``tags`` into a word of the model.

        Operations (returned in order):

        - ``("keep", index)``    — the child at ``index`` stays;
        - ``("delete", index)``  — the child at ``index`` is removed
          (cost ``delete_costs[index]``, default 1);
        - ``("insert", symbol)`` — a new ``symbol`` element is inserted
          at this point (cost ``insert_costs[symbol]``, default 1).

        Computed as a shortest path over (input position, NFA state)
        nodes with Dijkstra; insertions move along the position
        automaton without consuming input, so cycles are handled by the
        non-negative costs.  ``ANY`` models keep everything at cost 0.

        This powers document adaptation (Section 6 of the paper: "how
        to adapt documents, already stored in the source, to the new
        structure prescribed by the evolved set of DTDs").
        """
        if self._is_any:
            return 0.0, [("keep", index) for index in range(len(tags))]
        deletes = (
            list(delete_costs) if delete_costs is not None else [1.0] * len(tags)
        )
        inserts = insert_costs or {}

        import heapq

        START = -1
        length = len(tags)

        def successors(state: int):
            """(next state, consumed symbol) pairs."""
            if state == START:
                for position in self._first:
                    yield position, self._symbols[position]
            else:
                for position in self._follow[state]:
                    yield position, self._symbols[position]

        def accepting(state: int) -> bool:
            if state == START:
                return self._nullable
            return state in self._last

        # Dijkstra over nodes (index, state); parents for reconstruction
        heap: List[Tuple[float, int, int]] = [(0.0, 0, START)]
        best: Dict[Tuple[int, int], float] = {(0, START): 0.0}
        parents: Dict[Tuple[int, int], Tuple[Tuple[int, int], Tuple[str, object]]] = {}
        goal: Optional[Tuple[int, int]] = None
        while heap:
            cost, index, state = heapq.heappop(heap)
            if cost > best.get((index, state), float("inf")):
                continue
            if index == length and accepting(state):
                goal = (index, state)
                break
            moves: List[Tuple[float, Tuple[int, int], Tuple[str, object]]] = []
            if index < length:
                tag = tags[index]
                for next_state, symbol in successors(state):
                    if symbol == tag:
                        moves.append((0.0, (index + 1, next_state), ("keep", index)))
                moves.append(
                    (max(0.0, deletes[index]), (index + 1, state), ("delete", index))
                )
            for next_state, symbol in successors(state):
                moves.append(
                    (
                        max(0.0, inserts.get(symbol, 1.0)),
                        (index, next_state),
                        ("insert", symbol),
                    )
                )
            for step_cost, node, operation in moves:
                candidate = cost + step_cost
                if candidate < best.get(node, float("inf")):
                    best[node] = candidate
                    parents[node] = ((index, state), operation)
                    heapq.heappush(heap, (candidate, node[0], node[1]))
        if goal is None:  # pragma: no cover - reachable only on empty models
            return float("inf"), [("delete", index) for index in range(length)]
        operations: List[Tuple[str, object]] = []
        node = goal
        while node != (0, START):
            node, operation = parents[node]
            operations.append(operation)
        operations.reverse()
        return best[goal], operations

    def is_deterministic(self) -> bool:
        """XML 1.0 determinism (1-unambiguity) of the content model."""
        if self._is_any:
            return True

        def competing(positions: Set[int]) -> bool:
            seen: Set[str] = set()
            for position in positions:
                symbol = self._symbols[position]
                if symbol in seen:
                    return True
                seen.add(symbol)
            return False

        if competing(self._first):
            return False
        return not any(competing(follows) for follows in self._follow.values())

    @property
    def nullable(self) -> bool:
        return self._is_any or self._nullable

    @property
    def alphabet(self) -> FrozenSet[str]:
        return frozenset(self._symbols)


# ----------------------------------------------------------------------
# Document validation
# ----------------------------------------------------------------------


class Violation:
    """One validity violation found while checking a document element."""

    __slots__ = ("path", "tag", "kind", "detail")

    def __init__(self, path: str, tag: str, kind: str, detail: str):
        self.path = path
        self.tag = tag
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"Violation({self.path!r}, {self.kind!r}: {self.detail!r})"


class ValidationReport:
    """The outcome of validating a document against a DTD."""

    def __init__(self, violations: List[Violation], elements_checked: int):
        self.violations = violations
        self.elements_checked = elements_checked

    @property
    def is_valid(self) -> bool:
        return not self.violations

    @property
    def invalid_element_count(self) -> int:
        return len({violation.path for violation in self.violations})

    def __bool__(self) -> bool:
        return self.is_valid

    def __repr__(self) -> str:
        status = "valid" if self.is_valid else f"{len(self.violations)} violations"
        return f"ValidationReport({status}, {self.elements_checked} elements)"


class Validator:
    """Boolean DTD validator (automata are built lazily and cached)."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._automata: Dict[str, ContentAutomaton] = {}
        # per-declaration facts consulted on every element check:
        # (is_any, is_empty, allows_pcdata, is_mixed, declared_labels)
        self._decl_facts: Dict[str, Tuple[bool, bool, bool, bool, FrozenSet[str]]] = {}

    def _automaton(self, name: str) -> Optional[ContentAutomaton]:
        if name not in self._automata:
            decl = self.dtd.get(name)
            if decl is None:
                return None
            self._automata[name] = ContentAutomaton(decl.content)
        return self._automata[name]

    def _facts(self, name: str) -> Optional[Tuple[bool, bool, bool, bool, FrozenSet[str]]]:
        facts = self._decl_facts.get(name)
        if facts is None:
            decl = self.dtd.get(name)
            if decl is None:
                return None
            facts = (
                decl.is_any,
                decl.is_empty,
                cm.contains_pcdata(decl.content),
                decl.is_mixed,
                decl.declared_labels(),
            )
            self._decl_facts[name] = facts
        return facts

    def validate(self, document: Document, check_root: bool = True) -> ValidationReport:
        """Validate a whole document.

        Checks, per element: the tag is declared; the child-tag sequence
        is a word of its content model; text only appears where the
        model allows ``#PCDATA`` (or ``ANY``).  With ``check_root`` the
        root tag must equal the DTD root.
        """
        violations: List[Violation] = []
        checked = 0
        if check_root and document.root.tag != self.dtd.root:
            violations.append(
                Violation(
                    "/",
                    document.root.tag,
                    "root",
                    f"root is {document.root.tag!r}, DTD expects {self.dtd.root!r}",
                )
            )

        stack: List[Tuple[Element, str]] = [(document.root, f"/{document.root.tag}")]
        while stack:
            element, path = stack.pop()
            checked += 1
            violations.extend(self._check_element(element, path))
            for index, child in enumerate(element.element_children()):
                stack.append((child, f"{path}/{child.tag}[{index}]"))
        return ValidationReport(violations, checked)

    def is_valid(self, document: Document, check_root: bool = True) -> bool:
        """Boolean equivalent of :meth:`validate`, but fail-fast.

        Stops at the first violation instead of collecting a full
        report, and skips path-string construction entirely — this is
        the hot pre-pass of the classification fast path (tier 1), so
        the invalid case must stay as cheap as the valid one.  Each
        element's ``children`` are read once, collecting the child tags
        and the text flag while pushing the element children; the
        checks then mirror :meth:`_check_element` in its order.
        """
        if check_root and document.root.tag != self.dtd.root:
            return False
        stack: List[Element] = [document.root]
        while stack:
            element = stack.pop()
            facts = self._facts(element.tag)
            if facts is None:
                return False
            tags: List[str] = []
            has_text = False
            for child in element.children:
                if isinstance(child, Element):
                    tags.append(child.tag)
                    stack.append(child)
                elif not has_text and child.value.strip():
                    has_text = True
            is_any, is_empty, allows_pcdata, is_mixed, allowed = facts
            if is_any:
                continue
            if is_empty:
                if element.children:
                    return False
                continue
            if not allows_pcdata and has_text:
                return False
            if is_mixed:
                if not all(tag in allowed for tag in tags):
                    return False
                continue
            automaton = self._automaton(element.tag)
            assert automaton is not None  # decl exists
            if not automaton.accepts(tags):
                return False
        return True

    def _check_element(self, element: Element, path: str) -> List[Violation]:
        decl = self.dtd.get(element.tag)
        if decl is None:
            return [
                Violation(path, element.tag, "undeclared", "element is not declared")
            ]
        if decl.is_any:
            return []
        violations: List[Violation] = []
        if decl.is_empty:
            if element.children:
                violations.append(
                    Violation(path, element.tag, "content", "declared EMPTY but has content")
                )
            return violations
        if element.has_text() and not cm.contains_pcdata(decl.content):
            violations.append(
                Violation(path, element.tag, "text", "text content is not allowed")
            )
        if decl.is_mixed:
            allowed = decl.declared_labels()
            for child in element.element_children():
                if child.tag not in allowed:
                    violations.append(
                        Violation(
                            path,
                            element.tag,
                            "mixed",
                            f"tag {child.tag!r} not allowed in mixed content",
                        )
                    )
            return violations
        tags = element.child_tags()
        automaton = self._automaton(element.tag)
        assert automaton is not None  # decl exists
        if not automaton.accepts(tags):
            matched = automaton.residual_accepts_prefix(tags)
            violations.append(
                Violation(
                    path,
                    element.tag,
                    "model",
                    f"children {tags!r} do not match "
                    f"{decl.content.to_tuple()!r} (diverges at index {matched})",
                )
            )
        return violations


def determinism_report(dtd: DTD) -> Dict[str, bool]:
    """Per-declaration XML 1.0 determinism (1-unambiguity) verdicts.

    Evolved DTDs are language-correct but a misc-window OR-merge can
    produce content models real XML parsers reject as nondeterministic
    (e.g. ``((b, c) | (b, d))``).  This report lets callers decide
    whether to ship such a DTD or re-run the evolution with a larger
    psi; ``all(report.values())`` means every declaration is fine.

    >>> from repro.dtd.parser import parse_dtd
    >>> determinism_report(parse_dtd("<!ELEMENT a (b, c)>"))
    {'a': True}
    """
    return {
        decl.name: ContentAutomaton(decl.content).is_deterministic()
        for decl in dtd
    }


# ----------------------------------------------------------------------
# Language sampling (for rewriting-equivalence tests)
# ----------------------------------------------------------------------


def enumerate_language(
    model: Tree, max_length: int = 6, max_words: int = 2000
) -> List[Tuple[str, ...]]:
    """Enumerate words of the content model up to ``max_length``.

    Deterministic (sorted) and truncated at ``max_words``; used by the
    property tests to check that :mod:`repro.dtd.rewriting` preserves the
    language and by the metrics layer for generality estimates.
    """
    alphabet = sorted(cm.declared_labels(model))
    automaton = ContentAutomaton(model)
    words: List[Tuple[str, ...]] = []
    for length in range(max_length + 1):
        for word in itertools.product(alphabet, repeat=length):
            if automaton.accepts(word):
                words.append(word)
                if len(words) >= max_words:
                    return words
    return words


def language_equal(
    left: Tree, right: Tree, max_length: int = 6, max_words: int = 2000
) -> bool:
    """Bounded language-equality check used in tests."""
    return enumerate_language(left, max_length, max_words) == enumerate_language(
        right, max_length, max_words
    )
