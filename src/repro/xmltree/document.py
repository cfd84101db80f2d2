"""XML document object model.

A document is a tree of :class:`Element` nodes with interleaved
:class:`Text` nodes.  The paper models documents as labeled trees over
``EN ∪ V`` — element tags and ``#PCDATA`` values (Section 3, Figure 2):
an element becomes a vertex labeled with its tag, a text node becomes a
leaf labeled with its value.  :meth:`Element.to_tree` produces exactly
that representation, which is what the similarity matcher consumes.

Attributes are parsed and preserved for round-tripping, but — like the
paper — the structural algorithms operate on the element hierarchy only.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.xmltree.tree import Tree

#: Label that marks a text leaf in the labeled-tree view of a *DTD*.
#: In the *document* view, text leaves are labeled with their value,
#: matching Figure 2(b) of the paper where ``<b>5</b>`` yields leaf "5".
PCDATA_LABEL = "#PCDATA"


class StructureInfo(NamedTuple):
    """Merkle-style summary of an element subtree.

    ``fingerprint`` hashes exactly the structure the similarity matcher
    sees: the tag, plus the ordered sequence of element-child
    fingerprints and non-whitespace text markers (text *values* are
    deliberately excluded — the matcher scores every text item as one
    ``#PCDATA`` unit regardless of content).  Two subtrees with equal
    fingerprints therefore receive identical evaluation triples against
    any declaration, which is what lets matcher caches key on
    fingerprints instead of object identity.

    ``height`` is the element-edge height (a childless element has
    height 0) and ``weight`` the subtree weight — element vertices plus
    non-whitespace text leaves, the same value as
    :func:`repro.similarity.matcher.subtree_weight`.
    """

    fingerprint: bytes
    height: int
    weight: float


_TEXT_MARK = b"\x00T"


class Text:
    """A text node (``#PCDATA`` content)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def copy(self) -> "Text":
        return Text(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Text):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("Text", self.value))

    def __repr__(self) -> str:
        return f"Text({self.value!r})"


Child = Union["Element", Text]


class Element:
    """An XML element: a tag, attributes, and an ordered list of children.

    >>> e = Element("a", children=[Element("b", children=[Text("5")])])
    >>> e.child_tags()
    ['b']
    """

    __slots__ = ("tag", "attributes", "children", "_structure")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[Sequence[Child]] = None,
    ):
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes) if attributes else {}
        self.children: List[Child] = list(children) if children else []
        self._structure: Optional[StructureInfo] = None

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def element_children(self) -> List["Element"]:
        """Direct subelements, in document order (text nodes skipped)."""
        return [child for child in self.children if isinstance(child, Element)]

    def text_children(self) -> List[Text]:
        """Direct text nodes, in document order."""
        return [child for child in self.children if isinstance(child, Text)]

    def has_text(self) -> bool:
        """True if any direct text child contains non-whitespace content."""
        return any(text.value.strip() for text in self.text_children())

    def child_tags(self) -> List[str]:
        """Tags of the direct subelements, in order (repetitions kept)."""
        return [child.tag for child in self.element_children()]

    def alpha_beta(self) -> "frozenset[str]":
        """The paper's ``alphabeta``: the *set* of direct-subelement tags."""
        return frozenset(self.child_tags())

    def text(self) -> str:
        """Concatenated text of the direct text children."""
        return "".join(text.value for text in self.text_children())

    def iter_elements(self) -> Iterator["Element"]:
        """Yield this element and every descendant element, preorder.

        Walks with an explicit stack, so each element costs O(1) at any
        depth and no depth exhausts the interpreter stack.
        """
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.element_children()))

    def find(self, tag: str) -> Optional["Element"]:
        """First direct subelement with the given tag, or ``None``."""
        for child in self.element_children():
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All direct subelements with the given tag, in order."""
        return [child for child in self.element_children() if child.tag == tag]

    def element_count(self) -> int:
        """Number of element vertices in this subtree (this one included)."""
        return sum(1 for _ in self.iter_elements())

    # ------------------------------------------------------------------
    # Structural fingerprinting
    # ------------------------------------------------------------------

    def structure_info(self) -> StructureInfo:
        """The cached :class:`StructureInfo` of this subtree.

        Computed once per element (Merkle-style, bottom-up: each
        element hashes its tag with its children's fingerprints) and
        cached on the instance; subtrees shared across a stream of
        documents are recognised in O(1) after the first pass.

        The cache assumes the subtree is no longer mutated — the
        pipeline treats parsed documents as immutable.  Code that *does*
        rewrite a document in place (the adapters mutate fresh copies,
        which is always safe) must call
        :meth:`invalidate_structure_info` afterwards.
        """
        info = self._structure
        if info is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self.tag.encode("utf-8"))
            digest.update(b"\x00(")
            height = 0
            weight = 1.0
            for child in self.children:
                if isinstance(child, Element):
                    child_info = child.structure_info()
                    digest.update(b"E")
                    digest.update(child_info.fingerprint)
                    if child_info.height >= height:
                        height = child_info.height + 1
                    weight += child_info.weight
                elif child.value.strip():
                    digest.update(_TEXT_MARK)
                    weight += 1.0
            info = StructureInfo(digest.digest(), height, weight)
            self._structure = info
        return info

    def structural_fingerprint(self) -> bytes:
        """Shortcut for ``structure_info().fingerprint``."""
        return self.structure_info().fingerprint

    def invalidate_structure_info(self) -> None:
        """Drop cached structure info for this subtree (recursive).

        Call after mutating an element whose info may already have been
        computed; ancestors must be invalidated by the caller (elements
        hold no parent links).
        """
        self._structure = None
        for child in self.children:
            if isinstance(child, Element):
                child.invalidate_structure_info()

    # ------------------------------------------------------------------
    # Construction / transformation
    # ------------------------------------------------------------------

    def append(self, child: Child) -> "Element":
        """Append a child and return ``self`` (chainable)."""
        self.children.append(child)
        self._structure = None
        return self

    def copy(self) -> "Element":
        return Element(
            self.tag,
            dict(self.attributes),
            [child.copy() for child in self.children],
        )

    def to_tree(self, include_text: bool = True) -> Tree:
        """Labeled-tree view (paper Figure 2(b)).

        Element vertices are labeled with their tag; text leaves with
        their (stripped) value.  Whitespace-only text nodes are dropped —
        they are formatting, not content.  With ``include_text=False``
        the result is the pure element skeleton used by structure-only
        algorithms.
        """
        children: List[Tree] = []
        for child in self.children:
            if isinstance(child, Element):
                children.append(child.to_tree(include_text))
            elif include_text and child.value.strip():
                children.append(Tree.leaf(child.value.strip()))
        return Tree(self.tag, children)

    # ------------------------------------------------------------------
    # Equality / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attributes == other.attributes
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.tag,
                tuple(sorted(self.attributes.items())),
                tuple(hash(child) for child in self.children),
            )
        )

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, children={len(self.children)})"


class Document:
    """A parsed XML document: a root element plus optional prolog info."""

    __slots__ = ("root", "doctype_name", "doctype_system", "encoding")

    def __init__(
        self,
        root: Element,
        doctype_name: Optional[str] = None,
        doctype_system: Optional[str] = None,
        encoding: str = "UTF-8",
    ):
        self.root = root
        self.doctype_name = doctype_name
        self.doctype_system = doctype_system
        self.encoding = encoding

    def to_tree(self, include_text: bool = True) -> Tree:
        """Labeled-tree view of the whole document (delegates to the root)."""
        return self.root.to_tree(include_text)

    def element_count(self) -> int:
        return self.root.element_count()

    def copy(self) -> "Document":
        return Document(
            self.root.copy(), self.doctype_name, self.doctype_system, self.encoding
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.root == other.root

    def __repr__(self) -> str:
        return f"Document(root={self.root.tag!r})"


def element(tag: str, *children: Union[Element, Text, str], **attributes: str) -> Element:
    """Terse element builder used pervasively in tests and examples.

    String arguments become text nodes; keyword arguments become
    attributes.

    >>> doc = element("a", element("b", "5"), element("c", "7"))
    >>> doc.child_tags()
    ['b', 'c']
    """
    converted: List[Child] = [
        Text(child) if isinstance(child, str) else child for child in children
    ]
    return Element(tag, attributes=attributes, children=converted)
