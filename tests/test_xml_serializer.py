"""Unit tests for XML serialization."""

from hypothesis import given, settings, strategies as st

from repro.xmltree.document import Document, Element, Text, element
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import (
    escape_attribute,
    escape_text,
    serialize_document,
    serialize_element,
)


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attribute_escapes_quotes_too(self):
        assert escape_attribute('say "hi" & <go>') == "say &quot;hi&quot; &amp; &lt;go&gt;"


class TestElementSerialization:
    def test_empty_element_self_closes(self):
        assert serialize_element(element("a")) == "<a/>"
        # so does one whose children are all empty text: the parser
        # reads <a></a> back as a childless <a/>
        for children in ([Text("")], [Text(""), Text("")]):
            root = Element("a", {"x": "1"}, children)
            assert serialize_element(root) == '<a x="1"/>'
            assert serialize_element(root, indent="  ") == '<a x="1"/>'
        nested = Element("a", children=[Text(""), Element("b", children=[Text("")])])
        assert serialize_element(nested) == "<a><b/></a>"

    def test_attributes_rendered(self):
        assert serialize_element(element("a", x="1")) == '<a x="1"/>'

    def test_compact_output(self):
        root = element("a", element("b", "5"), element("c"))
        assert serialize_element(root) == "<a><b>5</b><c/></a>"

    def test_pretty_output_indents_element_content(self):
        root = element("a", element("b", "5"), element("c"))
        rendered = serialize_element(root, indent="  ")
        assert rendered == "<a>\n  <b>5</b>\n  <c/>\n</a>"

    def test_pretty_output_keeps_mixed_content_inline(self):
        root = element("p", "hello ", element("b", "bold"))
        assert serialize_element(root, indent="  ") == "<p>hello <b>bold</b></p>"


class TestRoundTrip:
    def test_compact_round_trip(self):
        source = '<a x="1"><b>5 &amp; 6</b><c><d/></c>tail</a>'
        doc = parse_document(source)
        again = parse_document(serialize_element(doc.root))
        assert doc.root == again.root

    def test_document_round_trip_with_doctype(self):
        source = '<!DOCTYPE a SYSTEM "a.dtd"><a><b>x</b></a>'
        doc = parse_document(source)
        rendered = serialize_document(doc)
        again = parse_document(rendered)
        assert again.doctype_name == "a"
        assert again.doctype_system == "a.dtd"
        assert again.root == doc.root

    def test_pretty_round_trip_preserves_element_structure(self):
        doc = parse_document("<a><b>x</b><c><d>y</d></c></a>")
        rendered = serialize_document(doc, indent="  ")
        again = parse_document(rendered)
        assert again.root.to_tree() == doc.root.to_tree()


class TestDocumentSerialization:
    def test_xml_declaration_toggle(self):
        doc = Document(element("a"))
        assert serialize_document(doc).startswith("<?xml")
        assert serialize_document(doc, xml_declaration=False) == "<a/>"

    def test_doctype_without_system(self):
        doc = Document(element("a"), doctype_name="a")
        assert "<!DOCTYPE a>" in serialize_document(doc)


# ----------------------------------------------------------------------
# The fixed point: serialize(parse(serialize(t))) == serialize(t)
# ----------------------------------------------------------------------

#: the parser's name rule: a letter, ``_`` or ``:``, then letters,
#: digits and ``_:-.``
_name_start = st.characters(categories=("Lu", "Ll", "Lo")) | st.sampled_from("_:")
_name_char = _name_start | st.characters(categories=("Nd",)) | st.sampled_from("-.")
names = st.builds(
    lambda first, rest: first + "".join(rest),
    _name_start,
    st.lists(_name_char, max_size=4),
)
#: markup characters and every whitespace the parser keeps verbatim
_tricky = st.sampled_from(list("&<>\"' \t\n\r;#x"))
values = st.text(alphabet=_tricky | st.characters(), max_size=8)
texts = st.one_of(
    st.just(""),
    st.text(alphabet=" \t\n\r", min_size=1, max_size=3),
    values,
)


@st.composite
def trees(draw, depth=0):
    """API-built elements, including what the parser never produces:
    empty text nodes, adjacent text nodes and whitespace-only text."""
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                children.append(draw(trees(depth=depth + 1)))
            else:
                children.append(Text(draw(texts)))
    attributes = draw(st.dictionaries(names, values, max_size=3))
    return Element(draw(names), attributes, children)


class TestSerializerFixedPoint:
    """Stores keep ``serialize_document(d, xml_declaration=False)`` and
    snapshots copy that text instead of re-serializing a re-parsed
    tree, which is only the same thing when this property holds."""

    @given(trees())
    @settings(max_examples=300, deadline=None)
    def test_reserializing_a_parse_is_the_identity(self, root):
        once = serialize_document(Document(root), xml_declaration=False)
        again = serialize_document(parse_document(once), xml_declaration=False)
        assert again == once

    # the SYSTEM literal is written in double quotes, so it may hold
    # anything but one
    @given(trees(), names, st.none() | st.text(alphabet="&<>' \t\n\r;#x./"))
    @settings(max_examples=100, deadline=None)
    def test_doctype_survives_the_fixed_point(self, root, name, system):
        document = Document(root, doctype_name=name, doctype_system=system)
        once = serialize_document(document, xml_declaration=False)
        again = serialize_document(parse_document(once), xml_declaration=False)
        assert again == once
