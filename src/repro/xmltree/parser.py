"""A from-scratch XML parser.

This is a hand-written, iterative parser for the subset of XML 1.0
needed by the reproduction (and then some): elements, attributes, text,
character and predefined entity references, CDATA sections, comments,
processing instructions, the XML declaration, and an (optionally
internal-subset-bearing) DOCTYPE declaration.  The internal subset, when
present, is handed verbatim to the DTD parser by higher layers.

It is deliberately strict about well-formedness — mismatched tags,
duplicate attributes and stray ``<`` are all reported with line/column —
because the classifier must be able to trust that a parsed document is a
tree.  Every failure, hostile input included, is an
:class:`~repro.errors.XMLSyntaxError`: elements nested deeper than
:data:`MAX_DEPTH` are rejected, and open elements live on an explicit
stack, so no input exhausts the interpreter stack.

Element content is read by one compiled regular expression that matches
the three tokens nearly all input is made of: a run of text, a start tag
without attributes and an end tag.  Everything else (references,
comments, CDATA sections, processing instructions, attributes,
whitespace inside tags, and every malformed construct) is read by
per-construct code at the offset where that regular expression stopped,
so trees and error positions are those of a character-at-a-time reader.

No external dependencies and no ``xml.*`` stdlib modules are used: the
paper's substrate is rebuilt from scratch per the reproduction brief.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import XMLSyntaxError
from repro.xmltree.document import Document, Element, Text

#: Deepest element nesting a document may have; the root is at depth 1.
MAX_DEPTH = 500

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


# ``\w`` admits exactly the characters ``str.isalnum()`` admits, plus
# ``_``, so ``[\w:.\-]`` is the name-character test.  A name's first
# character is checked separately with :func:`_is_name_start`.
_NAME_TAIL = re.compile(r"[\w:.\-]*")
_WHITESPACE = re.compile(r"[ \t\r\n]*")
_DECIMAL_DIGITS = re.compile(r"[0-9]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_ATTRIBUTE_RUN = {'"': re.compile(r'[^<&"]*'), "'": re.compile(r"[^<&']*")}
_BRACKETS = re.compile(r"[\[\]]")

#: The fast path through element content.  Group 1 is a text run, groups
#: 2 and 3 a start tag without attributes (name, then ``/`` if it
#: self-closes), group 4 an end tag.  Only ASCII name-start characters
#: open a start tag here; any other name takes the careful path.
_TOKEN = re.compile(
    r"([^<&]+)"
    r"|<([A-Za-z_:][\w:.\-]*)(/?)>"
    r"|</([\w:.\-]+)>"
)
#: ``match.lastindex`` of each token (and the end tag's name group)
_TEXT_RUN = 1
_START_TAG = 3
_END_TAG = 4

#: A reference with more significant digits than this is past U+10FFFF
#: (1114111, seven decimal digits) in either base, so it is rejected
#: without converting it; leading zeros do not count.
_MAX_REFERENCE_DIGITS = 7


class XMLParser:
    """Single-use iterative parser over an in-memory string.

    Use the module-level helpers :func:`parse_document` /
    :func:`parse_fragment` unless you need access to the captured
    DOCTYPE internal subset (:attr:`internal_subset`).
    """

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._length = len(source)
        #: Raw text of the DOCTYPE internal subset, if the document had one.
        self.internal_subset: Optional[str] = None
        #: DOCTYPE root name, if declared.
        self.doctype_name: Optional[str] = None
        #: SYSTEM identifier of the DOCTYPE, if declared.
        self.doctype_system: Optional[str] = None

    # ------------------------------------------------------------------
    # Low-level cursor
    # ------------------------------------------------------------------

    def _location(self, pos: Optional[int] = None) -> Tuple[int, int]:
        pos = self._pos if pos is None else pos
        line = self._source.count("\n", 0, pos) + 1
        last_newline = self._source.rfind("\n", 0, pos)
        column = pos - last_newline
        return line, column

    def _error(self, message: str) -> XMLSyntaxError:
        line, column = self._location()
        return XMLSyntaxError(message, line, column)

    def _peek(self) -> str:
        pos = self._pos
        return self._source[pos] if pos < self._length else ""

    def _at_end(self) -> bool:
        return self._pos >= self._length

    def _starts_with(self, token: str) -> bool:
        return self._source.startswith(token, self._pos)

    def _expect(self, token: str) -> None:
        if not self._starts_with(token):
            raise self._error(f"expected {token!r}")
        self._pos += len(token)

    def _skip_whitespace(self) -> None:
        self._pos = _WHITESPACE.match(self._source, self._pos).end()

    def _read_name(self) -> str:
        start = self._pos
        if start >= self._length or not _is_name_start(self._source[start]):
            raise self._error("expected an XML name")
        self._pos = _NAME_TAIL.match(self._source, start + 1).end()
        return self._source[start : self._pos]

    def _read_run(self, pattern: "re.Pattern[str]") -> str:
        match = pattern.match(self._source, self._pos)
        self._pos = match.end()
        return match.group()

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------

    def _read_reference(self) -> str:
        """Read an entity/char reference; the cursor sits on ``&``.

        Character references follow XML 1.0 production [66]: ``&#`` and
        ASCII decimal digits, or ``&#x`` and hexadecimal digits.
        """
        self._pos += 1
        if self._peek() == "#":
            self._pos += 1
            if self._peek() in ("x", "X"):
                self._pos += 1
                digits = self._read_run(_HEX_DIGITS)
                if not digits:
                    raise self._error("empty hexadecimal character reference")
                base = 16
            else:
                digits = self._read_run(_DECIMAL_DIGITS)
                if not digits:
                    raise self._error("empty character reference")
                base = 10
            self._expect(";")
            significant = digits.lstrip("0")
            if len(significant) <= _MAX_REFERENCE_DIGITS:
                code = int(significant or "0", base)
                if code <= 0x10FFFF:
                    return chr(code)
            raise self._error(f"invalid character reference &#{digits};")
        name = self._read_name()
        self._expect(";")
        if name not in _PREDEFINED_ENTITIES:
            raise self._error(f"unknown entity &{name};")
        return _PREDEFINED_ENTITIES[name]

    # ------------------------------------------------------------------
    # Prolog
    # ------------------------------------------------------------------

    def _skip_misc(self) -> None:
        """Skip whitespace, comments and processing instructions."""
        while True:
            self._skip_whitespace()
            if self._starts_with("<!--"):
                self._skip_comment()
            elif self._starts_with("<?"):
                self._skip_processing_instruction()
            else:
                return

    def _skip_comment(self) -> None:
        self._expect("<!--")
        end = self._source.find("-->", self._pos)
        if end < 0:
            raise self._error("unterminated comment")
        if "--" in self._source[self._pos : end]:
            raise self._error("'--' is not allowed inside a comment")
        self._pos = end + 3

    def _skip_processing_instruction(self) -> None:
        self._expect("<?")
        end = self._source.find("?>", self._pos)
        if end < 0:
            raise self._error("unterminated processing instruction")
        self._pos = end + 2

    def _parse_doctype(self) -> None:
        self._expect("<!DOCTYPE")
        self._skip_whitespace()
        self.doctype_name = self._read_name()
        self._skip_whitespace()
        if self._starts_with("SYSTEM"):
            self._pos += len("SYSTEM")
            self._skip_whitespace()
            self.doctype_system = self._read_quoted()
            self._skip_whitespace()
        elif self._starts_with("PUBLIC"):
            self._pos += len("PUBLIC")
            self._skip_whitespace()
            self._read_quoted()  # public id — recorded nowhere, skipped
            self._skip_whitespace()
            self.doctype_system = self._read_quoted()
            self._skip_whitespace()
        if self._peek() == "[":
            self._pos += 1
            start = self._pos
            depth = 1
            while depth:
                bracket = _BRACKETS.search(self._source, self._pos)
                if bracket is None:
                    self._pos = self._length
                    raise self._error("unterminated DOCTYPE internal subset")
                self._pos = bracket.start() + 1
                depth += 1 if bracket.group() == "[" else -1
            self.internal_subset = self._source[start : self._pos - 1]
            self._skip_whitespace()
        self._expect(">")

    def _read_quoted(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            raise self._error("expected a quoted literal")
        self._pos += 1
        end = self._source.find(quote, self._pos)
        if end < 0:
            raise self._error("unterminated literal")
        value = self._source[self._pos : end]
        self._pos = end + 1
        return value

    # ------------------------------------------------------------------
    # Elements: the careful path, one construct at the cursor
    # ------------------------------------------------------------------

    def _parse_attributes(self) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._at_end() or self._source[self._pos] in ">/":
                return attributes
            name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error(f"attribute {name!r} value must be quoted")
            self._pos += 1
            run = _ATTRIBUTE_RUN[quote]
            pieces: List[str] = []
            while True:
                pieces.append(self._read_run(run))
                if self._at_end():
                    raise self._error(f"unterminated value for attribute {name!r}")
                char = self._source[self._pos]
                if char == quote:
                    self._pos += 1
                    break
                if char == "&":
                    pieces.append(self._read_reference())
                else:
                    raise self._error("'<' is not allowed in attribute values")
            if name in attributes:
                raise self._error(f"duplicate attribute {name!r}")
            attributes[name] = "".join(pieces)

    def _parse_start_tag(self) -> Tuple[Element, bool]:
        """Read a start tag; return its element and whether it self-closed."""
        self._expect("<")
        tag = self._read_name()
        attributes = self._parse_attributes()
        if self._starts_with("/>"):
            self._pos += 2
            return Element(tag, attributes), True
        self._expect(">")
        return Element(tag, attributes), False

    def _parse_end_tag(self, tag: str) -> None:
        """Read the end tag of the open element ``tag``."""
        self._pos += 2  # '</'
        closing = self._read_name()
        if closing != tag:
            raise self._error(
                f"mismatched closing tag: expected </{tag}>, found </{closing}>"
            )
        self._skip_whitespace()
        self._expect(">")

    def _read_cdata(self) -> str:
        self._pos += len("<![CDATA[")
        end = self._source.find("]]>", self._pos)
        if end < 0:
            raise self._error("unterminated CDATA section")
        content = self._source[self._pos : end]
        self._pos = end + 3
        return content

    def _depth_error(self, pos: int) -> XMLSyntaxError:
        self._pos = pos
        return self._error(f"elements nested deeper than {MAX_DEPTH}")

    # ------------------------------------------------------------------
    # Elements: the loop
    # ------------------------------------------------------------------

    def _parse_element(self) -> Element:
        """Parse the element at the cursor, its content and its end tag.

        Open elements live on ``stack``.  Text read since the last tag
        collects in ``pieces``: comments and processing instructions do
        not end a text node, so text on both sides of them (and CDATA
        content, even empty) joins one :class:`Text`.
        """
        source = self._source
        token = _TOKEN.match
        pos = self._pos
        match = token(source, pos)
        if match is not None and match.lastindex == _START_TAG:
            root = Element(match.group(2))
            closed = bool(match.group(3))
            pos = match.end()
        else:
            root, closed = self._parse_start_tag()
            pos = self._pos
        if closed:
            self._pos = pos
            return root
        stack = [root]
        pieces: List[str] = []
        while True:
            match = token(source, pos)
            if match is not None:
                kind = match.lastindex
                if kind == _TEXT_RUN:
                    pieces.append(match.group(1))
                    pos = match.end()
                    continue
                if kind == _START_TAG:
                    if len(stack) >= MAX_DEPTH:
                        raise self._depth_error(pos)
                    element = Element(match.group(2))
                    children = stack[-1].children
                    if pieces:
                        children.append(Text("".join(pieces)))
                        pieces.clear()
                    children.append(element)
                    if not match.group(3):
                        stack.append(element)
                    pos = match.end()
                    continue
                element = stack[-1]
                if match.group(_END_TAG) == element.tag:
                    if pieces:
                        element.children.append(Text("".join(pieces)))
                        pieces.clear()
                    stack.pop()
                    pos = match.end()
                    if not stack:
                        self._pos = pos
                        return element
                    continue
            # the careful path: whatever the token pattern did not match
            self._pos = pos
            if pos >= self._length:
                raise self._error(f"unexpected end of input inside <{stack[-1].tag}>")
            if source[pos] == "&":
                pieces.append(self._read_reference())
            elif source.startswith("</", pos):
                element = stack[-1]
                self._parse_end_tag(element.tag)
                if pieces:
                    element.children.append(Text("".join(pieces)))
                    pieces.clear()
                stack.pop()
                if not stack:
                    return element
            elif source.startswith("<!--", pos):
                self._skip_comment()
            elif source.startswith("<![CDATA[", pos):
                pieces.append(self._read_cdata())
            elif source.startswith("<?", pos):
                self._skip_processing_instruction()
            else:
                if len(stack) >= MAX_DEPTH:
                    raise self._depth_error(pos)
                element, closed = self._parse_start_tag()
                children = stack[-1].children
                if pieces:
                    children.append(Text("".join(pieces)))
                    pieces.clear()
                children.append(element)
                if not closed:
                    stack.append(element)
            pos = self._pos

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self) -> Document:
        """Parse a complete document (prolog + root element + trailer)."""
        encoding = "UTF-8"
        if not self._source.startswith("<") or self._source.startswith(("<?", "<!")):
            encoding = self._parse_prolog()
        root = self._parse_element()
        if not self._at_end():
            self._skip_misc()
            if not self._at_end():
                raise self._error("content after the root element")
        return Document(
            root,
            doctype_name=self.doctype_name,
            doctype_system=self.doctype_system,
            encoding=encoding,
        )

    def _parse_prolog(self) -> str:
        """Read up to the root's start tag; return the declared encoding."""
        if self._starts_with("\ufeff"):
            self._pos += 1
        encoding = "UTF-8"
        self._skip_whitespace()
        if self._starts_with("<?xml"):
            end = self._source.find("?>", self._pos)
            if end < 0:
                raise self._error("unterminated XML declaration")
            declaration = self._source[self._pos : end]
            if "encoding=" in declaration:
                tail = declaration.split("encoding=", 1)[1]
                if tail and tail[0] in "'\"":
                    encoding = tail[1:].split(tail[0], 1)[0]
            self._pos = end + 2
        self._skip_misc()
        if self._starts_with("<!DOCTYPE"):
            self._parse_doctype()
            self._skip_misc()
        if not self._starts_with("<") or self._starts_with("<!"):
            raise self._error("expected the root element")
        return encoding


def parse_document(source: str) -> Document:
    """Parse an XML document string into a :class:`Document`.

    >>> doc = parse_document("<a><b>5</b><c>7</c></a>")
    >>> doc.root.child_tags()
    ['b', 'c']
    """
    return XMLParser(source).parse()


def parse_fragment(source: str) -> Element:
    """Parse a single element (no prolog allowed) into an :class:`Element`."""
    parser = XMLParser(source.strip())
    element = parser._parse_element()
    parser._skip_whitespace()
    if not parser._at_end():
        raise parser._error("content after the fragment element")
    return element
