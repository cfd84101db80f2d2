"""A from-scratch DTD parser.

Parses the subset of XML 1.0 DTD syntax the reproduction needs —
``<!ELEMENT>`` with full content-model syntax (``EMPTY``, ``ANY``, mixed
content, sequences, choices, ``?``/``*``/``+`` suffixes), ``<!ATTLIST>``
(captured verbatim per attribute), comments, and processing
instructions.  ``<!ENTITY>`` and ``<!NOTATION>`` declarations are
recognised and skipped; parameter-entity *references* are rejected with
a clear error (resolving them requires external storage the paper's
setting does not assume).

Content models are produced as operator trees
(:mod:`repro.dtd.content_model`), i.e. directly in the paper's
labeled-tree vocabulary: ``,`` becomes ``AND``, ``|`` becomes ``OR`` and
the suffixes become unary operator vertices.  Groups nested deeper than
:data:`MAX_DEPTH` are a :class:`~repro.errors.DTDSyntaxError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import DTDSyntaxError
from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD, AttributeDecl, ElementDecl
from repro.xmltree.tree import Tree

_NAME_EXTRA = set("_:-.")

#: content-model groups nest at most this deep.  The parser and the
#: similarity matcher recurse once or more per level; at this depth a
#: model with a starred sequence at every level still parses,
#: serializes, validates, classifies and evolves under the default
#: recursion limit (170 such levels overflow the matcher)
MAX_DEPTH = 128


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in "_:"


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


class _DTDScanner:
    """Cursor over DTD source text with location-aware errors."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.length = len(source)

    def error(self, message: str) -> DTDSyntaxError:
        line = self.source.count("\n", 0, self.pos) + 1
        column = self.pos - self.source.rfind("\n", 0, self.pos)
        return DTDSyntaxError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.source[self.pos] if self.pos < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def starts_with(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.starts_with(token):
            raise self.error(f"expected {token!r}")
        self.advance(len(token))

    def skip_whitespace(self) -> None:
        while not self.at_end() and self.peek() in " \t\r\n":
            self.advance()

    def require_whitespace(self) -> None:
        if self.at_end() or self.peek() not in " \t\r\n":
            raise self.error("expected whitespace")
        self.skip_whitespace()

    def read_name(self) -> str:
        if self.at_end() or not _is_name_start(self.peek()):
            raise self.error("expected a name")
        start = self.pos
        self.advance()
        while not self.at_end() and _is_name_char(self.peek()):
            self.advance()
        return self.source[start : self.pos]

    def read_quoted(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a quoted literal")
        self.advance()
        end = self.source.find(quote, self.pos)
        if end < 0:
            raise self.error("unterminated literal")
        value = self.source[self.pos : end]
        self.pos = end + 1
        return value


# ----------------------------------------------------------------------
# Content models
# ----------------------------------------------------------------------


def _read_suffix(scanner: _DTDScanner, model: Tree) -> Tree:
    char = scanner.peek()
    if char == cm.OPT:
        scanner.advance()
        return Tree(cm.OPT, [model])
    if char == cm.STAR:
        scanner.advance()
        return Tree(cm.STAR, [model])
    if char == cm.PLUS:
        scanner.advance()
        return Tree(cm.PLUS, [model])
    return model


def _parse_cp(scanner: _DTDScanner, depth: int) -> Tree:
    """Parse a content particle of a group nested ``depth`` deep: name
    or parenthesised group, plus suffix."""
    scanner.skip_whitespace()
    if scanner.peek() == "(":
        group = _parse_group(scanner, depth + 1)
        return _read_suffix(scanner, group)
    if scanner.peek() == "%":
        raise scanner.error("parameter-entity references are not supported")
    name = scanner.read_name()
    return _read_suffix(scanner, Tree.leaf(name))


def _parse_group(scanner: _DTDScanner, depth: int) -> Tree:
    """Parse ``( ... )`` — a choice, a sequence, or mixed content — as
    the ``depth``-th nested group."""
    if depth > MAX_DEPTH:
        raise scanner.error(f"content model groups nested deeper than {MAX_DEPTH}")
    scanner.expect("(")
    scanner.skip_whitespace()
    if scanner.starts_with(cm.PCDATA):
        return _parse_mixed_tail(scanner)
    first = _parse_cp(scanner, depth)
    scanner.skip_whitespace()
    separator = scanner.peek()
    if separator == ")":
        scanner.advance()
        return first
    if separator not in (",", "|"):
        raise scanner.error("expected ',', '|' or ')' in a content group")
    particles = [first]
    while scanner.peek() == separator:
        scanner.advance()
        particles.append(_parse_cp(scanner, depth))
        scanner.skip_whitespace()
        if scanner.peek() not in (separator, ")"):
            raise scanner.error(
                "cannot mix ',' and '|' at the same nesting level"
            )
    scanner.expect(")")
    operator = cm.AND if separator == "," else cm.OR
    return Tree(operator, particles)


def _parse_mixed_tail(scanner: _DTDScanner) -> Tree:
    """Parse the remainder of ``(#PCDATA ...`` after the open paren."""
    scanner.expect(cm.PCDATA)
    scanner.skip_whitespace()
    names: List[str] = []
    while scanner.peek() == "|":
        scanner.advance()
        scanner.skip_whitespace()
        names.append(scanner.read_name())
        scanner.skip_whitespace()
    scanner.expect(")")
    if names:
        scanner.expect(cm.STAR)  # XML 1.0 requires the trailing *
        return cm.mixed(*names)
    if scanner.peek() == cm.STAR:  # (#PCDATA)* is legal and equivalent
        scanner.advance()
    return cm.pcdata()


def parse_content_model(source: str) -> Tree:
    """Parse a standalone content-model string.

    >>> parse_content_model("(b, c)").to_tuple()
    ('AND', ['b', 'c'])
    >>> parse_content_model("(b | c)*").to_tuple()
    ('*', [('OR', ['b', 'c'])])
    """
    scanner = _DTDScanner(source.strip())
    model = _parse_content(scanner)
    scanner.skip_whitespace()
    if not scanner.at_end():
        raise scanner.error("trailing characters after the content model")
    cm.check_well_formed(model)
    return model


def _parse_content(scanner: _DTDScanner) -> Tree:
    scanner.skip_whitespace()
    if scanner.starts_with("EMPTY"):
        scanner.advance(len("EMPTY"))
        return cm.empty()
    if scanner.starts_with("ANY"):
        scanner.advance(len("ANY"))
        return cm.any_content()
    if scanner.peek() != "(":
        raise scanner.error("expected '(', 'EMPTY' or 'ANY'")
    group = _parse_group(scanner, 1)
    return _read_suffix(scanner, group)


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------


def _parse_element_decl(scanner: _DTDScanner) -> ElementDecl:
    scanner.expect("<!ELEMENT")
    scanner.require_whitespace()
    name = scanner.read_name()
    scanner.require_whitespace()
    content = _parse_content(scanner)
    scanner.skip_whitespace()
    scanner.expect(">")
    return ElementDecl(name, content)


def _parse_attlist(scanner: _DTDScanner) -> Tuple[str, List[AttributeDecl]]:
    scanner.expect("<!ATTLIST")
    scanner.require_whitespace()
    element_name = scanner.read_name()
    attributes: List[AttributeDecl] = []
    while True:
        scanner.skip_whitespace()
        if scanner.peek() == ">":
            scanner.advance()
            return element_name, attributes
        attr_name = scanner.read_name()
        scanner.require_whitespace()
        type_spec = _read_attribute_type(scanner)
        scanner.require_whitespace()
        default_spec = _read_default_spec(scanner)
        attributes.append(AttributeDecl(attr_name, type_spec, default_spec))


def _read_attribute_type(scanner: _DTDScanner) -> str:
    if scanner.peek() == "(":  # enumerated type
        depth = 0
        start = scanner.pos
        while not scanner.at_end():
            char = scanner.peek()
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    scanner.advance()
                    return scanner.source[start : scanner.pos]
            scanner.advance()
        raise scanner.error("unterminated enumerated attribute type")
    type_name = scanner.read_name()
    if type_name == "NOTATION":
        scanner.skip_whitespace()
        if scanner.peek() == "(":
            rest_start = scanner.pos
            _read_attribute_type(scanner)  # consume the group
            return "NOTATION " + scanner.source[rest_start : scanner.pos]
    return type_name


def _read_default_spec(scanner: _DTDScanner) -> str:
    if scanner.peek() == "#":
        start = scanner.pos
        scanner.advance()
        keyword = scanner.read_name()
        if keyword == "FIXED":
            scanner.require_whitespace()
            value = scanner.read_quoted()
            return f'#FIXED "{value}"'
        return scanner.source[start : scanner.pos]
    value = scanner.read_quoted()
    return f'"{value}"'


def _skip_bang_declaration(scanner: _DTDScanner) -> None:
    """Skip <!ENTITY ...> / <!NOTATION ...>, minding quoted literals."""
    while not scanner.at_end():
        char = scanner.peek()
        if char in ("'", '"'):
            scanner.read_quoted()
        elif char == ">":
            scanner.advance()
            return
        else:
            scanner.advance()
    raise scanner.error("unterminated declaration")


def parse_dtd(source: str, name: str = "dtd", root: Optional[str] = None) -> DTD:
    """Parse DTD source text into a :class:`DTD`.

    >>> dtd = parse_dtd('''
    ...   <!ELEMENT a (b, c)>
    ...   <!ELEMENT b (#PCDATA)>
    ...   <!ELEMENT c (d)>
    ...   <!ELEMENT d (#PCDATA)>
    ... ''')
    >>> dtd.root
    'a'
    """
    scanner = _DTDScanner(source)
    dtd = DTD(name=name)
    while True:
        scanner.skip_whitespace()
        if scanner.at_end():
            break
        if scanner.starts_with("<!--"):
            end = scanner.source.find("-->", scanner.pos)
            if end < 0:
                raise scanner.error("unterminated comment")
            scanner.pos = end + 3
        elif scanner.starts_with("<?"):
            end = scanner.source.find("?>", scanner.pos)
            if end < 0:
                raise scanner.error("unterminated processing instruction")
            scanner.pos = end + 2
        elif scanner.starts_with("<!ELEMENT"):
            dtd.add(_parse_element_decl(scanner))
        elif scanner.starts_with("<!ATTLIST"):
            element_name, attributes = _parse_attlist(scanner)
            dtd.attlists.setdefault(element_name, []).extend(attributes)
        elif scanner.starts_with("<!ENTITY") or scanner.starts_with("<!NOTATION"):
            _skip_bang_declaration(scanner)
        else:
            raise scanner.error("expected a declaration")
    if root is not None:
        dtd.root = root
    return dtd
