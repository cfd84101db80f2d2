"""The structural matcher: documents against DTD content models.

This is the re-derivation of the algorithm of [2] the paper builds on
(Section 3.1): "the function visits at the same time the tree
representations of a document and a DTD associating with each node an
evaluation of plus, common and minus components between the two
structures at that level".

Formulation
-----------
For a document element ``e_d`` with tag ``t`` and a DTD declaring ``t``
with content model ``M``, the matcher computes the best *alignment* of
``e_d``'s child sequence against ``M`` — an assignment of children to
content-model positions maximising the linear score of the resulting
``(p, m, c)`` triple:

- a child matched to a model leaf of its tag contributes *common*
  (plus, recursively, the triple of its own content in *global* mode);
- a child no model position wants contributes *plus* (weighted by its
  subtree size in global mode, 1 in local mode);
- a required model part no child satisfies contributes *minus* (the
  size of its minimal instantiation).

The alignment is computed by dynamic programming over (model vertex,
child-span) pairs, with memoisation:

====================  ====================================================
model vertex          best triple over span ``items[lo:hi]``
====================  ====================================================
tag leaf ``x``        match one ``x`` child (others plus) or skip (minus)
``#PCDATA``           text children common, element children plus
``ANY``               everything common
``EMPTY``             everything plus
``AND``               partition the span among the parts (interval DP)
``OR``                best alternative on the whole span
``?``                 skip (span all plus, no minus) or match once
``*``/``+``           segment DP; ``+`` owes a minus if no segment matches
====================  ====================================================

Global vs local (Section 3.1): *global* recurses into matched children
(its fullness coincides with validity); *local* scores direct children
only, each worth 1 — this is the measure that drives per-element
recording and evolution granularity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD
from repro.perf import PerfCounters
from repro.similarity.tags import ExactTagMatcher, TagMatcher
from repro.similarity.triple import EvalTriple, SimilarityConfig, best
from repro.xmltree.document import Element, Text
from repro.xmltree.tree import Tree

_TEXT_TAG = cm.PCDATA


class _Item:
    """One direct child of the document element being matched."""

    __slots__ = ("tag", "element", "weight")

    def __init__(self, tag: str, element: Optional[Element], weight: float):
        self.tag = tag
        self.element = element  # None for text items
        self.weight = weight

    @property
    def is_text(self) -> bool:
        return self.element is None


def subtree_weight(element: Element) -> float:
    """Size of an element subtree: element vertices + non-empty text leaves.

    This is the *plus* weight of an unmatched subtree in global mode —
    bigger unexpected structures hurt similarity more.
    """
    weight = 1.0
    for child in element.children:
        if isinstance(child, Element):
            weight += subtree_weight(child)
        elif isinstance(child, Text) and child.value.strip():
            weight += 1.0
    return weight


class StructureMatcher:
    """Matches document elements against the declarations of one DTD.

    A matcher instance caches per-element global evaluations and
    per-declaration minimal weights, so evaluating many documents
    against the same DTD amortises well (this is what the
    classification phase does).

    Parameters
    ----------
    dtd:
        The DTD to match against.
    config:
        Similarity weights (see :class:`SimilarityConfig`).
    tag_matcher:
        Tag equality policy; defaults to exact matching.  A thesaurus
        matcher (Section 6 extension) discounts synonym matches.
    fastpath:
        The fast-path switch (see :mod:`repro.perf`).  At this layer it
        turns on tier 2: DP results are interned by ``(declaration,
        mode, fingerprint)`` in an LRU of :attr:`STRUCTURAL_CACHE_SIZE`
        entries that survives :meth:`clear_cache`, so identical
        subtrees across a document stream cost one DP run total.
    counters:
        Optional shared :class:`repro.perf.PerfCounters`; the matcher
        bumps cache-hit and DP counters into it.
    """

    #: tier-2 LRU bound: ``(declaration, mode, fingerprint)`` entries
    #: kept per matcher before the least recently used is evicted
    STRUCTURAL_CACHE_SIZE = 4096

    def __init__(
        self,
        dtd: DTD,
        config: SimilarityConfig = SimilarityConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        fastpath: bool = True,
        counters: Optional[PerfCounters] = None,
    ):
        self.dtd = dtd
        self.config = config
        self.tags = tag_matcher or ExactTagMatcher()
        self.fastpath = fastpath
        self.counters = counters
        self._min_weight_cache: Dict[str, float] = {}
        # keyed by id(element); the element itself is kept as a strong
        # reference so a recycled id can never alias a freed element
        self._global_cache: Dict[int, Tuple[Element, EvalTriple]] = {}
        # tier 2: (decl name, mode, structural fingerprint) -> triple,
        # LRU-bounded; structural keys are value-based, so entries stay
        # correct across documents and across repository drains
        self._structural_cache: "OrderedDict[Tuple[str, str, bytes], EvalTriple]" = (
            OrderedDict()
        )
        # segment caps are a pure function of the model subtree; the
        # body tree is pinned alongside the cap so a GC'd-and-recycled
        # id can never alias (mirrors _global_cache's pinning)
        self._segment_cap_cache: Dict[int, Tuple[Tree, int]] = {}

    def clear_cache(self) -> None:
        """Drop per-element (identity-keyed) memoisation — call between
        unrelated documents when the structural cache is off.

        The fingerprint-keyed structural cache is *not* dropped: its
        keys are value-based and LRU-bounded, so it is both correct and
        memory-safe across documents (that persistence is the point of
        tier 2).  Use :meth:`clear_structural_cache` for a full reset.
        """
        self._global_cache.clear()

    def clear_structural_cache(self) -> None:
        """Drop the fingerprint-keyed LRU as well (tests, memory audits)."""
        self._structural_cache.clear()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def content_triple(self, element: Element, mode: str = "global") -> EvalTriple:
        """Triple for ``element``'s content against its tag's declaration.

        The element's own tag vertex is *not* included (callers add the
        common/plus/minus contribution of the tag itself); only the
        children alignment is scored.  ``mode`` is ``"global"`` or
        ``"local"``.

        Undeclared tags score as all-plus (the DTD captures nothing of
        the content).
        """
        decl_name = self._declared_name(element.tag)
        if decl_name is None:
            items = self._items(element, mode)
            return EvalTriple(plus=sum(item.weight for item in items))
        return self.triple_against(element, decl_name, mode)

    def triple_against(
        self, element: Element, decl_name: str, mode: str = "global", depth: int = 0
    ) -> EvalTriple:
        """Triple for ``element``'s content against declaration ``decl_name``.

        Lets callers match an element against a declaration other than
        its own tag's (the classifier uses it to anchor a document root
        onto the DTD root even when tags differ).
        """
        counters = self.counters
        # the id-keyed per-document cache is consulted *first* even with
        # the structural cache on: beyond max_depth the DP truncates, so
        # an element's triple depends on the depth of the first call for
        # it in this session (document_triple populates these at actual
        # tree depths; evaluate_document's depth-0 re-reads must see the
        # same values the legacy path serves)
        use_id_cache = mode == "global" and decl_name == element.tag
        if use_id_cache:
            cached = self._global_cache.get(id(element))
            if cached is not None and cached[0] is element:
                return cached[1]
        structural_key: Optional[Tuple[str, str, bytes]] = None
        if self.fastpath:
            info = element.structure_info()
            # local triples never recurse, so they are depth-free; global
            # triples are depth-free only while the max_depth recursion
            # guard cannot fire anywhere below this element — outside
            # that window the result depends on the depth it was
            # computed at and must not be shared
            if mode == "local" or depth + info.height < self.config.max_depth:
                structural_key = (decl_name, mode, info.fingerprint)
                cached_triple = self._structural_cache.get(structural_key)
                if cached_triple is not None:
                    self._structural_cache.move_to_end(structural_key)
                    if counters is not None:
                        counters.structural_cache_hits += 1
                    if use_id_cache:
                        self._global_cache[id(element)] = (element, cached_triple)
                    return cached_triple
                if counters is not None:
                    counters.structural_cache_misses += 1
        decl = self.dtd.get(decl_name)
        if decl is None:
            items = self._items(element, mode)
            return EvalTriple(plus=sum(item.weight for item in items))
        items = self._items(element, mode)
        if counters is not None:
            counters.dp_runs += 1
        triple = _SpanMatcher(self, items, mode, depth).match(
            decl.content, 0, len(items)
        )
        if structural_key is not None:
            self._structural_cache[structural_key] = triple
            if len(self._structural_cache) > self.STRUCTURAL_CACHE_SIZE:
                self._structural_cache.popitem(last=False)
                if counters is not None:
                    counters.structural_cache_evictions += 1
        if use_id_cache:
            self._global_cache[id(element)] = (element, triple)
        return triple

    def local_similarity(self, element: Element) -> float:
        """Local similarity of one document element (Section 3.1)."""
        return self.content_triple(element, "local").evaluate(self.config)

    def global_similarity(self, element: Element) -> float:
        """Global similarity of one document element's content."""
        return self.content_triple(element, "global").evaluate(self.config)

    def document_triple(self, root: Element) -> EvalTriple:
        """Triple for a whole document anchored at the DTD root.

        The root tag contributes common 1 when it matches the DTD root
        (possibly discounted by the tag matcher), otherwise plus 1 and
        minus 1; the root's content is matched against the DTD root's
        declaration either way, so structurally identical documents
        with a renamed root still rank high.
        """
        factor = self.tags.match(root.tag, self.dtd.root)
        content = self.triple_against(root, self.dtd.root, "global")
        if factor > 0:
            return content.add_common(factor)
        return content.add_plus(1.0).add_minus(1.0)

    def document_similarity(self, root: Element) -> float:
        """Similarity rank in [0, 1] of a document against the DTD."""
        return self.document_triple(root).evaluate(self.config)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _declared_name(self, tag: str) -> Optional[str]:
        """The declaration a tag matches, honouring the tag matcher."""
        if tag in self.dtd:
            return tag
        if isinstance(self.tags, ExactTagMatcher):
            return None
        candidates = [
            name for name in self.dtd.element_names() if self.tags.matches(tag, name)
        ]
        return candidates[0] if candidates else None

    def _items(self, element: Element, mode: str) -> List[_Item]:
        # structure_info().weight equals subtree_weight() exactly (both
        # sum the same integers); the cached form is O(1) amortised
        use_cached_weight = self.fastpath
        items: List[_Item] = []
        for child in element.children:
            if isinstance(child, Element):
                if mode != "global":
                    weight = 1.0
                elif use_cached_weight:
                    weight = child.structure_info().weight
                else:
                    weight = subtree_weight(child)
                items.append(_Item(child.tag, child, weight))
            elif child.value.strip():
                items.append(_Item(_TEXT_TAG, None, 1.0))
        return items

    def _min_weight(self, tag: str, open_tags: Tuple[str, ...] = ()) -> float:
        """Minus cost of a missing required element: its minimal instance size."""
        if tag in self._min_weight_cache:
            return self._min_weight_cache[tag]
        decl = self.dtd.get(tag)
        if decl is None or tag in open_tags:
            return 1.0
        weight = 1.0 + self._min_model_weight(decl.content, open_tags + (tag,))
        if not open_tags:
            # only cache context-free values: inside a recursion the
            # cycle guard can truncate the weight, and caching that
            # would make results depend on evaluation order
            self._min_weight_cache[tag] = weight
        return weight

    def _min_model_weight(self, model: Tree, open_tags: Tuple[str, ...]) -> float:
        label = model.label
        if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
            return 0.0
        if cm.is_element_label(label):
            return self._min_weight(label, open_tags)
        if label == cm.AND:
            return sum(
                self._min_model_weight(child, open_tags) for child in model.children
            )
        if label == cm.OR:
            return min(
                self._min_model_weight(child, open_tags) for child in model.children
            )
        if label in (cm.OPT, cm.STAR):
            return 0.0
        if label == cm.PLUS:
            return self._min_model_weight(model.children[0], open_tags)
        raise ValueError(f"unknown content-model label {label!r}")

    def _child_match_triple(self, item: _Item, mode: str, depth: int) -> EvalTriple:
        """Triple for matching an element item to a leaf of its tag."""
        if mode == "local" or depth >= self.config.max_depth:
            return EvalTriple(common=1.0)
        assert item.element is not None
        decl_name = self._declared_name(item.element.tag)
        if decl_name is None:
            sub = EvalTriple(
                plus=sum(i.weight for i in self._items(item.element, "global"))
            )
        else:
            sub = self.triple_against(item.element, decl_name, "global", depth + 1)
        return sub.add_common(1.0)


class _SpanMatcher:
    """One DP run: a fixed item list, mode, and memo table."""

    def __init__(self, owner: StructureMatcher, items: List[_Item], mode: str, depth: int):
        self.owner = owner
        self.items = items
        self.mode = mode
        self.depth = depth
        self.config = owner.config
        # memo values pin the model vertex they were computed for, so a
        # recycled id can never alias a collected tree (mirrors the
        # owner's _global_cache pinning)
        self._memo: Dict[Tuple[int, int, int], Tuple[Tree, EvalTriple]] = {}
        # prefix sums of item weights for O(1) span-plus costs
        self._prefix = [0.0]
        for item in items:
            self._prefix.append(self._prefix[-1] + item.weight)

    # -- helpers -------------------------------------------------------

    def _span_plus(self, lo: int, hi: int) -> EvalTriple:
        return EvalTriple(plus=self._prefix[hi] - self._prefix[lo])

    def _min_minus(self, model: Tree) -> float:
        if self.mode == "local":
            # each missing required direct element costs exactly 1
            return _local_min_weight(model)
        return self.owner._min_model_weight(model, ())

    def _segment_cap(self, body: Tree) -> int:
        """Longest segment one body repetition may be offered.

        A repetition of a *bounded* body (no ``*``/``+`` inside) can
        match at most ``maxlen(body)`` items; extras interleaved within
        a repetition cost the same as extras between repetitions unless
        they sit strictly between matched items, so a window of
        ``3 * maxlen + 4`` preserves optimality except for adversarial
        runs of > 2·maxlen foreign items *inside* one repetition — in
        which case the computed similarity is a (slightly low) valid
        alignment score.  Unbounded bodies get no cap.  This turns the
        repetition DP from O(n^2) segments into O(n·cap) on the wide,
        flat elements real documents have.

        The cap is a pure function of the model subtree, so it is
        cached on the owner (shared across DP runs) with the body tree
        pinned against id recycling.
        """
        cache = self.owner._segment_cap_cache
        cached = cache.get(id(body))
        if cached is not None and cached[0] is body:
            return cached[1]
        max_length = _max_word_length(body)
        cap = (1 << 30) if max_length is None else 3 * max_length + 4
        cache[id(body)] = (body, cap)
        return cap

    # -- the DP --------------------------------------------------------

    def match(self, model: Tree, lo: int, hi: int) -> EvalTriple:
        key = (id(model), lo, hi)
        cached = self._memo.get(key)
        if cached is not None and cached[0] is model:
            return cached[1]
        result = self._compute(model, lo, hi)
        self._memo[key] = (model, result)
        counters = self.owner.counters
        if counters is not None:
            counters.dp_cells += 1
        return result

    def _compute(self, model: Tree, lo: int, hi: int) -> EvalTriple:
        label = model.label

        if label == cm.ANY:
            return EvalTriple(common=self._prefix[hi] - self._prefix[lo])
        if label == cm.EMPTY:
            return self._span_plus(lo, hi)
        if label == cm.PCDATA:
            triple = EvalTriple()
            for index in range(lo, hi):
                item = self.items[index]
                if item.is_text:
                    triple = triple.add_common(1.0)
                else:
                    triple = triple.add_plus(item.weight)
            return triple
        if cm.is_element_label(label):
            return self._match_leaf(label, lo, hi)
        if label == cm.AND:
            return self._match_sequence(model.children, lo, hi)
        if label == cm.OR:
            return best(
                (self.match(child, lo, hi) for child in model.children), self.config
            )
        if label == cm.OPT:
            skip = self._span_plus(lo, hi)
            taken = self.match(model.children[0], lo, hi)
            return best((skip, taken), self.config)
        if label in (cm.STAR, cm.PLUS):
            return self._match_repetition(model.children[0], lo, hi, label == cm.PLUS)
        raise ValueError(f"unknown content-model label {label!r}")

    def _match_leaf(self, tag: str, lo: int, hi: int) -> EvalTriple:
        candidates = [
            self._span_plus(lo, hi).add_minus(
                self.owner._min_weight(tag) if self.mode == "global" else 1.0
            )
        ]
        for index in range(lo, hi):
            item = self.items[index]
            if item.is_text:
                continue
            factor = self.owner.tags.match(item.tag, tag)
            if factor <= 0:
                continue
            matched = self.owner._child_match_triple(item, self.mode, self.depth)
            if factor < 1.0:
                matched = EvalTriple(
                    matched.plus, matched.minus, matched.common * factor
                )
            candidates.append(
                matched
                + self._span_plus(lo, index)
                + self._span_plus(index + 1, hi)
            )
        return best(candidates, self.config)

    def _match_sequence(self, parts: Sequence[Tree], lo: int, hi: int) -> EvalTriple:
        """Interval DP: partition items[lo:hi] among the sequence parts."""
        # dp[p] = best triple matching the parts seen so far to items[lo:p]
        dp: List[Optional[EvalTriple]] = [None] * (hi + 1)
        dp[lo] = EvalTriple()
        for part in parts:
            next_dp: List[Optional[EvalTriple]] = [None] * (hi + 1)
            for split in range(lo, hi + 1):
                base = dp[split]
                if base is None:
                    continue
                for end in range(split, hi + 1):
                    candidate = base + self.match(part, split, end)
                    current = next_dp[end]
                    if current is None or candidate.score(self.config) > current.score(
                        self.config
                    ):
                        next_dp[end] = candidate
            dp = next_dp
        result = dp[hi]
        assert result is not None  # every part can match an empty span
        return result

    def _match_repetition(
        self, body: Tree, lo: int, hi: int, require_one: bool
    ) -> EvalTriple:
        """Segment DP for ``*`` and ``+``.

        ``none[p]``/``some[p]`` are the best triples covering
        ``items[lo:p]`` with zero / at least one body repetition;
        between repetitions, individual items may be skipped as plus.
        """
        none: List[EvalTriple] = [EvalTriple()] * (hi - lo + 1)
        some: List[Optional[EvalTriple]] = [None] * (hi - lo + 1)
        cap = self._segment_cap(body)
        for offset in range(1, hi - lo + 1):
            position = lo + offset
            item_plus = EvalTriple(plus=self.items[position - 1].weight)
            none[offset] = none[offset - 1] + item_plus
            candidates: List[EvalTriple] = []
            if some[offset - 1] is not None:
                candidates.append(some[offset - 1] + item_plus)
            for start_offset in range(max(0, offset - cap), offset):
                segment = self.match(body, lo + start_offset, position)
                candidates.append(none[start_offset] + segment)
                if some[start_offset] is not None:
                    candidates.append(some[start_offset] + segment)
            some[offset] = best(candidates, self.config) if candidates else None
        # the empty span can also host one (empty) repetition
        empty_repetition = self.match(body, lo, lo) if hi == lo else None
        final_candidates: List[EvalTriple] = []
        if some[hi - lo] is not None:
            final_candidates.append(some[hi - lo])  # type: ignore[arg-type]
        if require_one:
            penalty = EvalTriple(minus=self._min_minus(body))
            final_candidates.append(none[hi - lo] + penalty)
            if empty_repetition is not None:
                final_candidates.append(empty_repetition)
        else:
            final_candidates.append(none[hi - lo])
        return best(final_candidates, self.config)


def _max_word_length(model: Tree) -> Optional[int]:
    """Longest word of a content model, or ``None`` when unbounded."""
    label = model.label
    if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
        return 0
    if cm.is_element_label(label):
        return 1
    if label in (cm.STAR, cm.PLUS):
        inner = _max_word_length(model.children[0])
        return 0 if inner == 0 else None
    if label == cm.OPT:
        return _max_word_length(model.children[0])
    lengths = [_max_word_length(child) for child in model.children]
    if any(length is None for length in lengths):
        return None
    if label == cm.AND:
        return sum(lengths)  # type: ignore[arg-type]
    return max(lengths)  # type: ignore[arg-type,type-var]


def _local_min_weight(model: Tree) -> float:
    """Minimal number of required direct children of a model (local mode)."""
    label = model.label
    if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
        return 0.0
    if cm.is_element_label(label):
        return 1.0
    if label == cm.AND:
        return sum(_local_min_weight(child) for child in model.children)
    if label == cm.OR:
        return min(_local_min_weight(child) for child in model.children)
    if label in (cm.OPT, cm.STAR):
        return 0.0
    if label == cm.PLUS:
        return _local_min_weight(model.children[0])
    raise ValueError(f"unknown content-model label {label!r}")
