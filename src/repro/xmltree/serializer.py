"""XML serialization.

The inverse of :mod:`repro.xmltree.parser`.  Two styles are offered:
compact (no inter-element whitespace — safe for round-tripping, since the
parser keeps all text) and pretty (indented, for human consumption in the
examples and docs; whitespace-only layout is only inserted around
element-only content so the document's labeled-tree view is unchanged).
"""

from __future__ import annotations

from typing import List

from repro.xmltree.document import Document, Element, Text

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape a string for use as element content."""
    for raw, escaped in _TEXT_ESCAPES:
        value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape a string for use inside a double-quoted attribute value."""
    for raw, escaped in _ATTR_ESCAPES:
        value = value.replace(raw, escaped)
    return value


def _open_tag(element: Element, self_closing: bool) -> str:
    parts = [element.tag]
    for name, value in element.attributes.items():
        parts.append(f'{name}="{escape_attribute(value)}"')
    inner = " ".join(parts)
    return f"<{inner}/>" if self_closing else f"<{inner}>"


def serialize_element(element: Element, indent: str = "", depth: int = 0) -> str:
    """Serialize one element.

    With ``indent=""`` (the default) the output is compact and
    round-trips exactly through the parser.  With a non-empty ``indent``,
    element-only content is pretty-printed; mixed content is kept inline
    so no text is perturbed.

    An element whose children are all empty text nodes self-closes just
    like a childless one: the parser reads ``<a></a>`` back as a
    childless element, so writing anything else would make the output
    differ from its own re-serialization.
    """
    if all(isinstance(child, Text) and not child.value for child in element.children):
        return _open_tag(element, self_closing=True)

    has_text = any(
        isinstance(child, Text) and child.value.strip() for child in element.children
    )
    pieces: List[str] = [_open_tag(element, self_closing=False)]
    if indent and not has_text:
        pad = indent * (depth + 1)
        for child in element.children:
            if isinstance(child, Text):
                continue  # layout whitespace is regenerated, not copied
            pieces.append("\n" + pad + serialize_element(child, indent, depth + 1))
        pieces.append("\n" + indent * depth)
    else:
        for child in element.children:
            if isinstance(child, Text):
                pieces.append(escape_text(child.value))
            else:
                pieces.append(serialize_element(child, "", 0))
    pieces.append(f"</{element.tag}>")
    return "".join(pieces)


def serialize_document(
    document: Document, indent: str = "", xml_declaration: bool = True
) -> str:
    """Serialize a whole document, optionally with prolog and DOCTYPE."""
    pieces: List[str] = []
    if xml_declaration:
        pieces.append(f'<?xml version="1.0" encoding="{document.encoding}"?>')
    if document.doctype_name:
        if document.doctype_system:
            pieces.append(
                f'<!DOCTYPE {document.doctype_name} SYSTEM "{document.doctype_system}">'
            )
        else:
            pieces.append(f"<!DOCTYPE {document.doctype_name}>")
    pieces.append(serialize_element(document.root, indent))
    return "\n".join(pieces) + ("\n" if indent else "")
