"""Unit tests for the from-scratch XML parser."""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import XMLSyntaxError
from repro.xmltree.document import Document, Element, Text
from repro.xmltree.parser import MAX_DEPTH, XMLParser, parse_document, parse_fragment


class TestBasicParsing:
    def test_elements_and_text(self):
        doc = parse_document("<a><b>5</b><c>7</c></a>")
        assert doc.root.tag == "a"
        assert doc.root.child_tags() == ["b", "c"]
        assert doc.root.find("b").text() == "5"

    def test_self_closing_element(self):
        doc = parse_document("<a><b/><c/></a>")
        assert doc.root.child_tags() == ["b", "c"]
        assert not doc.root.find("b").children

    def test_attributes(self):
        doc = parse_document('<a x="1" y=\'two\'><b/></a>')
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_nested_structure(self):
        doc = parse_document("<a><b><c><d>deep</d></c></b></a>")
        assert doc.root.to_tree().paths() == [("a", "b", "c", "d", "deep")]

    def test_whitespace_between_elements_is_kept_as_text_nodes(self):
        doc = parse_document("<a>\n  <b/>\n</a>")
        assert doc.root.child_tags() == ["b"]
        assert not doc.root.has_text()

    def test_mixed_content(self):
        doc = parse_document("<p>hello <b>bold</b> world</p>")
        assert doc.root.text() == "hello  world"
        assert doc.root.find("b").text() == "bold"


class TestEntitiesAndCData:
    def test_predefined_entities(self):
        doc = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text() == "<>&'\""

    def test_character_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root.text() == "AB"

    def test_entities_in_attributes(self):
        doc = parse_document('<a x="&lt;1&gt;"/>')
        assert doc.root.attributes["x"] == "<1>"

    def test_unknown_entity_is_an_error(self):
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            parse_document("<a>&nope;</a>")

    def test_cdata_section(self):
        doc = parse_document("<a><![CDATA[<not> & parsed]]></a>")
        assert doc.root.text() == "<not> & parsed"

    def test_comments_are_skipped(self):
        doc = parse_document("<a><!-- note --><b/></a>")
        assert doc.root.child_tags() == ["b"]

    def test_processing_instructions_are_skipped(self):
        doc = parse_document("<a><?php echo ?><b/></a>")
        assert doc.root.child_tags() == ["b"]


class TestProlog:
    def test_xml_declaration_and_encoding(self):
        doc = parse_document('<?xml version="1.0" encoding="ISO-8859-1"?><a/>')
        assert doc.encoding == "ISO-8859-1"

    def test_doctype_with_system_id(self):
        doc = parse_document('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.doctype_name == "a"
        assert doc.doctype_system == "a.dtd"

    def test_doctype_internal_subset_is_captured(self):
        source = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>"
        parser = XMLParser(source)
        parser.parse()
        assert "<!ELEMENT a (#PCDATA)>" in parser.internal_subset

    def test_leading_comment_before_root(self):
        doc = parse_document("<!-- prologue --><a/>")
        assert doc.root.tag == "a"


class TestWellFormednessErrors:
    @pytest.mark.parametrize(
        "source, message",
        [
            ("<a><b></a>", "mismatched closing tag"),
            ("<a>", "unexpected end of input"),
            ("<a/><b/>", "content after the root element"),
            ('<a x="1" x="2"/>', "duplicate attribute"),
            ("<a x=1/>", "must be quoted"),
            ('<a x="<"/>', "not allowed in attribute"),
            ("plain text", "expected the root element"),
            ("<a><!-- -- --></a>", "not allowed inside a comment"),
            ("<a>&#xZZ;</a>", "empty hexadecimal"),
        ],
    )
    def test_error_cases(self, source, message):
        with pytest.raises(XMLSyntaxError, match=message):
            parse_document(source)

    def test_errors_carry_line_and_column(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_document("<a>\n<b></c>\n</a>")
        assert info.value.line == 2


class TestFragment:
    def test_parse_fragment(self):
        root = parse_fragment("  <a><b>1</b></a>  ")
        assert root.tag == "a"

    def test_fragment_rejects_trailing_content(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a/><b/>")


class TestTextNodeBoundaries:
    """Comments and processing instructions do not end a text node;
    element tags do.  CDATA content joins the text around it, even
    when empty."""

    @pytest.mark.parametrize(
        "source, children",
        [
            ("<a>x<!--c-->y</a>", [Text("xy")]),
            ("<a>x<?pi?>y</a>", [Text("xy")]),
            ("<a>x<![CDATA[<y>]]>z</a>", [Text("x<y>z")]),
            ("<a><![CDATA[]]></a>", [Text("")]),
            ("<a>&lt;&#65;b</a>", [Text("<Ab")]),
            ("<a>x<b/>y</a>", [Text("x"), Element("b"), Text("y")]),
            ("<a><b>1</b>\n<c/></a>", [Element("b", children=[Text("1")]), Text("\n"), Element("c")]),
            ("<a><!--c--></a>", []),
            ("<a></a>", []),
        ],
    )
    def test_children(self, source, children):
        assert parse_document(source).root.children == children

    def test_names_and_tags_off_the_fast_path(self):
        # a non-ASCII first name character, attributes and whitespace
        # inside tags are read one construct at a time
        doc = parse_document('<é><b x="1">t</b ><c\n/><d-e.f:g>u</d-e.f:g\n></é>')
        assert doc.root.tag == "é"
        assert doc.root.child_tags() == ["b", "c", "d-e.f:g"]
        assert doc.root.find("b").attributes == {"x": "1"}
        assert doc.root.find("d-e.f:g").text() == "u"

    def test_attributes_need_no_separating_whitespace(self):
        doc = parse_document("<a x=\"1\"y='2'/>")
        assert doc.root.attributes == {"x": "1", "y": "2"}


def _parse_in_child(source: str):
    """Parse ``source`` in a child process and return ``None`` or the
    error's ``(message, line, column)``.  A parser that hangs fails the
    calling test by timeout instead of stalling the suite."""
    code = (
        "import json, sys\n"
        "from repro.errors import XMLSyntaxError\n"
        "from repro.xmltree.parser import parse_document\n"
        "try:\n"
        "    parse_document(json.loads(sys.argv[1]))\n"
        "    print(json.dumps(None))\n"
        "except XMLSyntaxError as error:\n"
        "    print(json.dumps([str(error), error.line, error.column]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", code, json.dumps(source)],
        capture_output=True,
        text=True,
        timeout=20,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    result = json.loads(completed.stdout)
    return None if result is None else tuple(result)


class TestCharacterReferences:
    """XML 1.0 production [66]: ``&#`` then ASCII ``[0-9]+``, or ``&#x``
    then ``[0-9a-fA-F]+``, and at most U+10FFFF."""

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("<a>&#x", "empty hexadecimal character reference", 1, 7),
            ('<a x="&#x', "empty hexadecimal character reference", 1, 10),
            ("<a>\n&#x4", "expected ';'", 2, 5),
        ],
    )
    def test_reference_cut_off_by_end_of_input(self, source, message, line, column):
        error = _parse_in_child(source)
        assert error == (f"{message} at line {line}, column {column}", line, column)

    @pytest.mark.parametrize("digit", ["²", "٣", "１"])
    def test_non_ascii_digits_are_rejected(self, digit):
        for source in (f"<a>&#{digit};</a>", f'<a x="&#{digit};"/>'):
            with pytest.raises(XMLSyntaxError, match="empty character reference") as info:
                parse_document(source)
            assert info.value.column == source.index("&") + 3

    @pytest.mark.parametrize(
        "reference",
        [
            "&#" + "9" * 5000 + ";",
            "&#" + "1" * 8 + ";",
            "&#x" + "F" * 5000 + ";",
            "&#1114112;",
            "&#x110000;",
            "&#x0110000;",
        ],
        ids=["decimal-5000-digits", "decimal-8-digits", "hex-5000-digits",
             "decimal-past-max", "hex-past-max", "hex-past-max-zero-padded"],
    )
    def test_out_of_range_references_are_rejected(self, reference):
        source = f"<a>{reference}</a>"
        with pytest.raises(XMLSyntaxError, match="invalid character reference") as info:
            parse_document(source)
        assert (info.value.line, info.value.column) == (1, 4 + len(reference))

    @pytest.mark.parametrize(
        "reference, char",
        [
            ("&#00000065;", "A"),
            ("&#x00000041;", "A"),
            ("&#" + "0" * 5000 + "66;", "B"),
            ("&#1114111;", "\U0010ffff"),
            ("&#x10FFFF;", "\U0010ffff"),
            ("&#0;", "\x00"),
        ],
        ids=["decimal", "hex", "5000-zeros", "decimal-max", "hex-max", "zero"],
    )
    def test_leading_zeros_and_the_last_code_point_are_legal(self, reference, char):
        assert parse_document(f"<a>{reference}</a>").root.text() == char
        assert parse_document(f'<a x="{reference}"/>').root.attributes["x"] == char


class TestDepthLimit:
    def test_max_depth_parses(self):
        doc = parse_document("<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH)
        assert doc.element_count() == MAX_DEPTH

    @pytest.mark.parametrize("deepest", ["<a>", "<a/>", '<a x="1">', "<é>"])
    def test_one_level_deeper_is_rejected_at_its_start_tag(self, deepest):
        source = "<a>" * MAX_DEPTH + deepest + "</a>" * (MAX_DEPTH + 1)
        with pytest.raises(XMLSyntaxError, match=f"nested deeper than {MAX_DEPTH}") as info:
            parse_document(source)
        assert (info.value.line, info.value.column) == (1, 3 * MAX_DEPTH + 1)

    def test_comments_do_not_count_as_nesting(self):
        source = "<a>" * MAX_DEPTH + "<!-- c --><?pi?>" + "</a>" * MAX_DEPTH
        assert parse_document(source).root.tag == "a"

    def test_very_deep_document_is_rejected_quickly(self):
        depth = 100_000
        started = time.perf_counter()
        with pytest.raises(XMLSyntaxError, match="nested deeper"):
            parse_document("<a>" * depth + "</a>" * depth)
        assert time.perf_counter() - started < 1.0
        with pytest.raises(XMLSyntaxError, match="nested deeper"):
            parse_fragment("<a>" * depth)


#: One malformed input per error site, with the message, line and column
#: a character-at-a-time reader reports.  Every message that can fall on
#: a later line has a row that puts it there (``expected '<'`` cannot:
#: ``parse_fragment`` strips the text, so it always reports 1:1).
ERROR_TABLE = [
    (parse_document, "<a>&amp</a>", "expected ';'", 1, 8),
    (parse_document, "<a>\n&amp</a>", "expected ';'", 2, 5),
    (parse_document, '<a x="&lt"/>', "expected ';'", 1, 10),
    (parse_document, "<a></a x>", "expected '>'", 1, 8),
    (parse_document, "<a>\n</a x>", "expected '>'", 2, 5),
    (parse_document, "<a/ >", "expected '>'", 1, 3),
    (parse_document, "<a", "expected '>'", 1, 3),
    (parse_document, "<a x></a>", "expected '='", 1, 5),
    (parse_document, "<a\nx></a>", "expected '='", 2, 2),
    (parse_fragment, "a", "expected '<'", 1, 1),
    (parse_fragment, "  x<a/>", "expected '<'", 1, 1),
    (parse_document, "<a><1/></a>", "expected an XML name", 1, 5),
    (parse_document, "<a>\n<1/></a>", "expected an XML name", 2, 2),
    (parse_document, "<a>&1;</a>", "expected an XML name", 1, 5),
    (parse_document, "<a></1></a>", "expected an XML name", 1, 6),
    (parse_document, "<a>\n</ a>", "expected an XML name", 2, 3),
    (parse_document, "<a>&#x;</a>", "empty hexadecimal character reference", 1, 7),
    (parse_document, "<a>\n&#x;</a>", "empty hexadecimal character reference", 2, 4),
    (parse_document, "<a>&#;</a>", "empty character reference", 1, 6),
    (parse_document, "<a>\n&#;</a>", "empty character reference", 2, 3),
    (parse_document, "<a>&#x110000;</a>", "invalid character reference &#110000;", 1, 14),
    (parse_document, "<a>\n&#1114112;</a>", "invalid character reference &#1114112;", 2, 11),
    (parse_document, "<a>&nope;</a>", "unknown entity &nope;", 1, 10),
    (parse_document, "<a>\n&nope;</a>", "unknown entity &nope;", 2, 7),
    (parse_document, "<a><!-- x</a>", "unterminated comment", 1, 8),
    (parse_document, "<a>\n<!-- x</a>", "unterminated comment", 2, 5),
    (parse_document, "<a><!-- -- --></a>", "'--' is not allowed inside a comment", 1, 8),
    (parse_document, "<a>\n<!-- -- --></a>", "'--' is not allowed inside a comment", 2, 5),
    (parse_document, "<a><?pi </a>", "unterminated processing instruction", 1, 6),
    (parse_document, "<a>\n<?pi </a>", "unterminated processing instruction", 2, 3),
    (parse_document, "<!DOCTYPE a [<!ELEMENT a ANY>", "unterminated DOCTYPE internal subset", 1, 30),
    (parse_document, "<!DOCTYPE a [\n<!ELEMENT a ANY>", "unterminated DOCTYPE internal subset", 2, 17),
    (parse_document, "<!DOCTYPE a SYSTEM a.dtd><a/>", "expected a quoted literal", 1, 20),
    (parse_document, "<!DOCTYPE a\nSYSTEM a.dtd><a/>", "expected a quoted literal", 2, 8),
    (parse_document, '<!DOCTYPE a SYSTEM "a.dtd><a/>', "unterminated literal", 1, 21),
    (parse_document, '<!DOCTYPE a\nSYSTEM "a.dtd><a/>', "unterminated literal", 2, 9),
    (parse_document, "<a x=1/>", "attribute 'x' value must be quoted", 1, 6),
    (parse_document, "<a\nx=1/>", "attribute 'x' value must be quoted", 2, 3),
    (parse_document, '<a x="1/>', "unterminated value for attribute 'x'", 1, 10),
    (parse_document, '<a x="1\n/>', "unterminated value for attribute 'x'", 2, 3),
    (parse_document, '<a x="<"/>', "'<' is not allowed in attribute values", 1, 7),
    (parse_document, '<a\nx="<"/>', "'<' is not allowed in attribute values", 2, 4),
    (parse_document, '<a x="1" x="2"/>', "duplicate attribute 'x'", 1, 15),
    (parse_document, '<a x="1"\nx="2"/>', "duplicate attribute 'x'", 2, 6),
    (parse_document, "<a><b></a>", "mismatched closing tag: expected </b>, found </a>", 1, 10),
    (parse_document, "<a>\n<b></a>", "mismatched closing tag: expected </b>, found </a>", 2, 7),
    (parse_document, "<a><b></a >", "mismatched closing tag: expected </b>, found </a>", 1, 10),
    (parse_document, "<a><b>", "unexpected end of input inside <b>", 1, 7),
    (parse_document, "<a>\n<b>", "unexpected end of input inside <b>", 2, 4),
    (parse_document, "<a><![CDATA[x</a>", "unterminated CDATA section", 1, 13),
    (parse_document, "<a>\n<![CDATA[x</a>", "unterminated CDATA section", 2, 10),
    (parse_document, '<?xml version="1.0"<a/>', "unterminated XML declaration", 1, 1),
    (parse_document, '\n<?xml version="1.0"<a/>', "unterminated XML declaration", 2, 1),
    (parse_document, "plain", "expected the root element", 1, 1),
    (parse_document, "\nplain", "expected the root element", 2, 1),
    (parse_document, "", "expected the root element", 1, 1),
    (parse_document, "<!foo>", "expected the root element", 1, 1),
    (parse_document, "<a/><b/>", "content after the root element", 1, 5),
    (parse_document, "<a/>\n<b/>", "content after the root element", 2, 1),
    (parse_document, "<a/>x", "content after the root element", 1, 5),
    (parse_fragment, "<a/><b/>", "content after the fragment element", 1, 5),
    (parse_fragment, "<a/>\n<b/>", "content after the fragment element", 2, 1),
    (
        parse_document,
        "<a>" * MAX_DEPTH + "<a/>",
        f"elements nested deeper than {MAX_DEPTH}",
        1,
        3 * MAX_DEPTH + 1,
    ),
    (
        parse_document,
        "<a>" * MAX_DEPTH + "\n<a/>",
        f"elements nested deeper than {MAX_DEPTH}",
        2,
        1,
    ),
]


@pytest.mark.parametrize(
    "parse, source, message, line, column",
    ERROR_TABLE,
    ids=[f"{row[0].__name__}-{row[1][:24]!r}" for row in ERROR_TABLE],
)
def test_error_table(parse, source, message, line, column):
    with pytest.raises(XMLSyntaxError) as info:
        parse(source)
    assert str(info.value) == f"{message} at line {line}, column {column}"
    assert (info.value.line, info.value.column) == (line, column)


# ----------------------------------------------------------------------
# Fuzzing: every input is a Document or an XMLSyntaxError
# ----------------------------------------------------------------------

_TOKEN_ALPHABET = (
    list("<>&;#xX/=\"' !-[]?") + list("abAZ_:.09") + ["²", "٣", "é", "\ufeff", "\n", "\r\n"]
)
_SNIPPETS = ["<!--", "-->", "<![CDATA[", "]]>", "<?xml", "?>", "<!DOCTYPE a", "&#x", "&#", "&amp;", "</"]

_RICH_DOCUMENTS = [
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<!DOCTYPE a SYSTEM "a.dtd" [<!ELEMENT a ANY> [x]]>\n'
    "<!-- head --><?pi data?>\n"
    "<a x=\"1 &amp; 2\" y='&#x41;&#66;'>\n"
    "  <b>t&lt;&gt;&apos;&quot;</b><![CDATA[<raw> & ]]]><?pi?>\n"
    "  <c/><é z='\"'>u<!-- mid -->v</é\n>\n"
    "</a>\n<!-- tail -->",
    "\ufeff<!DOCTYPE r PUBLIC 'p' \"r.dtd\"><r><s\tk = 'v'/><![CDATA[]]>&#10;</r >",
]


def _check_outcome(parse, source):
    try:
        result = parse(source)
    except XMLSyntaxError as error:
        assert error.line >= 1 and error.column >= 1
        return
    assert isinstance(result, (Document, Element))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_TOKEN_ALPHABET + _SNIPPETS), max_size=40).map("".join)
)
def test_fuzz_token_alphabet(source):
    _check_outcome(parse_document, source)
    _check_outcome(parse_fragment, source)
    _check_outcome(parse_document, "<a>" + source)


@st.composite
def _edited_documents(draw):
    source = draw(st.sampled_from(_RICH_DOCUMENTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(["delete", "insert", "truncate", "duplicate"]))
        if edit == "delete":
            source = source[:at] + source[at + draw(st.integers(1, 6)) :]
        elif edit == "insert":
            piece = draw(st.sampled_from(_TOKEN_ALPHABET + _SNIPPETS))
            source = source[:at] + piece + source[at:]
        elif edit == "truncate":
            source = source[:at]
        else:
            source = source[:at] + source[at : at + draw(st.integers(1, 12))] + source[at:]
    return source


@settings(max_examples=300, deadline=None)
@given(_edited_documents())
def test_fuzz_edited_documents(source):
    _check_outcome(parse_document, source)
    _check_outcome(parse_fragment, source)
