"""Unit tests for the from-scratch DTD parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.dtd import content_model as cm
from repro.dtd.automaton import Validator
from repro.dtd.dtd import DTD
from repro.dtd.parser import MAX_DEPTH, parse_content_model, parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.errors import DTDSyntaxError, ReproError
from repro.xmltree.parser import parse_document
from repro.xmltree.tree import Tree


class TestContentModelSyntax:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("EMPTY", "EMPTY"),
            ("ANY", "ANY"),
            ("(#PCDATA)", "#PCDATA"),
            ("(b)", "b"),
            ("(b, c)", ("AND", ["b", "c"])),
            ("(b | c)", ("OR", ["b", "c"])),
            ("(b, c, d)", ("AND", ["b", "c", "d"])),
            ("(b?)", ("?", ["b"])),
            ("(b*)", ("*", ["b"])),
            ("(b+)", ("+", ["b"])),
            ("(b, c)*", ("*", [("AND", ["b", "c"])])),
            ("((b | c)+, d)", ("AND", [("+", [("OR", ["b", "c"])]), "d"])),
            ("((b, c)*, (d | e))", ("AND", [("*", [("AND", ["b", "c"])]), ("OR", ["d", "e"])])),
        ],
    )
    def test_parses(self, source, expected):
        assert parse_content_model(source).to_tuple() == expected

    def test_mixed_content(self):
        model = parse_content_model("(#PCDATA | a | b)*")
        assert cm.is_mixed_model(model)
        assert cm.declared_labels(model) == frozenset({"a", "b"})

    def test_pcdata_star_degenerates(self):
        assert parse_content_model("(#PCDATA)*") == cm.pcdata()

    def test_whitespace_tolerance(self):
        assert parse_content_model("( b ,\n c )").to_tuple() == ("AND", ["b", "c"])

    @pytest.mark.parametrize(
        "source, message",
        [
            ("(b, c | d)", "cannot mix"),
            ("(b,, c)", "expected a name"),
            ("(b", "expected"),
            ("b", "expected '\\('"),
            ("(#PCDATA | a)", "expected '\\*'"),
            ("(%ent;)", "parameter-entity"),
            ("(b) trailing", "trailing characters"),
        ],
    )
    def test_syntax_errors(self, source, message):
        with pytest.raises(DTDSyntaxError, match=message):
            parse_content_model(source)


class TestDTDParsing:
    def test_figure2_dtd(self):
        dtd = parse_dtd(
            """
            <!ELEMENT a (b, c)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c (d)>
            <!ELEMENT d (#PCDATA)>
            """
        )
        assert dtd.element_names() == ["a", "b", "c", "d"]
        assert dtd.root == "a"
        assert dtd["a"].content.to_tuple() == ("AND", ["b", "c"])

    def test_comments_and_pis_are_skipped(self):
        dtd = parse_dtd("<!-- x --><?pi data?><!ELEMENT a (#PCDATA)>")
        assert "a" in dtd

    def test_entity_and_notation_are_skipped(self):
        dtd = parse_dtd(
            """
            <!ENTITY copy "&#169;">
            <!NOTATION gif SYSTEM "image/gif">
            <!ELEMENT a (#PCDATA)>
            """
        )
        assert dtd.element_names() == ["a"]

    def test_attlist_is_captured(self):
        dtd = parse_dtd(
            """
            <!ELEMENT a (#PCDATA)>
            <!ATTLIST a
              id ID #REQUIRED
              lang CDATA "en"
              kind (big | small) #IMPLIED
            >
            """
        )
        attrs = {attr.name: attr for attr in dtd.attlists["a"]}
        assert attrs["id"].type_spec == "ID"
        assert attrs["id"].default_spec == "#REQUIRED"
        assert attrs["lang"].default_spec == '"en"'
        assert attrs["kind"].type_spec == "(big | small)"

    def test_fixed_default(self):
        dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA)><!ATTLIST a v CDATA #FIXED 'x'>"
        )
        assert dtd.attlists["a"][0].default_spec == '#FIXED "x"'

    def test_explicit_root_override(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", root="b"
        )
        assert dtd.root == "b"

    def test_duplicate_element_rejected(self):
        with pytest.raises(Exception, match="duplicate"):
            parse_dtd("<!ELEMENT a (#PCDATA)><!ELEMENT a (#PCDATA)>")

    def test_garbage_rejected(self):
        with pytest.raises(DTDSyntaxError, match="expected a declaration"):
            parse_dtd("<!ELEMENT a (#PCDATA)> bogus")

    def test_errors_carry_location(self):
        with pytest.raises(DTDSyntaxError) as info:
            parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (,)>")
        assert info.value.line == 2


def _starred_sequences(depth):
    """``(a,(a,(…)*)*)*``: a starred sequence at every one of ``depth``
    nested groups, the deepest operator tree a group depth allows."""
    return "(a" + ",(a" * (depth - 1) + ")*" * depth


def _column_of_group(source, nth):
    """The 1-based column of the ``nth`` open parenthesis on one line."""
    return [index for index, char in enumerate(source) if char == "("][nth - 1] + 1


class TestDepthLimit:
    def test_max_depth_runs_through_the_engine(self):
        """At the limit the deepest tree still serializes, validates,
        classifies and evolves under the default recursion limit."""
        dtd = parse_dtd(
            f"<!ELEMENT r {_starred_sequences(MAX_DEPTH)}>\n<!ELEMENT a (#PCDATA)>",
            name="deep",
        )
        text = serialize_dtd(dtd)
        assert serialize_dtd(parse_dtd(text, name="deep")) == text
        assert Validator(dtd).is_valid(parse_document("<r><a>x</a><a>y</a></r>"))
        source = XMLSource(
            [dtd], EvolutionConfig(sigma=0.1, tau=0.01, min_documents=3)
        )
        for count in range(1, 7):
            source.process(parse_document("<r>" + "<a>x</a>" * count + "<c>y</c></r>"))
        source.evolve_now("deep")
        assert source.evolution_count >= 1
        assert source.drain() == 0

    @pytest.mark.parametrize(
        "source, height",
        [
            (_starred_sequences(MAX_DEPTH), 2 * MAX_DEPTH - 1),
            ("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, 0),  # groups of one collapse
        ],
        ids=["starred-sequences", "bare-groups"],
    )
    def test_max_depth_parses(self, source, height):
        assert parse_content_model(source).height() == height

    @pytest.mark.parametrize(
        "source",
        [
            _starred_sequences(MAX_DEPTH + 1),
            "(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1),
            "(" * 5000 + "a" + ")" * 5000,
        ],
        ids=["starred-sequences", "bare-groups", "5000-groups"],
    )
    def test_one_level_deeper_is_rejected_at_its_group(self, source):
        with pytest.raises(
            DTDSyntaxError, match=f"nested deeper than {MAX_DEPTH}"
        ) as info:
            parse_content_model(source)
        assert (info.value.line, info.value.column) == (
            1, _column_of_group(source, MAX_DEPTH + 1)
        )
        declaration = "<!ELEMENT r " + source + ">"
        with pytest.raises(DTDSyntaxError, match="nested deeper") as info:
            parse_dtd("<!ELEMENT a (#PCDATA)>\n" + declaration)
        assert (info.value.line, info.value.column) == (
            2, _column_of_group(declaration, MAX_DEPTH + 1)
        )


# ----------------------------------------------------------------------
# Fuzzing: a DTD or a ReproError, never anything else
# ----------------------------------------------------------------------

_TOKEN_ALPHABET = [
    "<!ELEMENT", "<!ATTLIST", "<!ENTITY", "<!NOTATION", "<!--", "-->", "<?",
    "?>", "<", ">", "(", ")", ",", "|", "?", "*", "+", "#PCDATA", "EMPTY",
    "ANY", "CDATA", "ID", "NOTATION", "#REQUIRED", "#IMPLIED", "#FIXED",
    "%", ";", "'", '"', " ", "\t", "\n", "a", "b", "x1", "é", "-", "\x00",
]


@st.composite
def _nested_models(draw):
    """A content model nested up to 1,000 groups deep, every level
    opened as ``(``, ``(a,`` or ``(a|`` and closed with a random
    suffix; the closers may be cut short or the tail garbled."""
    depth = draw(st.integers(1, 1000))
    opener = draw(st.sampled_from(["(", "(a,", "(a|"]))
    closer = draw(st.sampled_from([")", ")*", ")?", ")+", ",b)", "|b)*"]))
    closed = draw(st.integers(max(0, depth - 2), depth))
    tail = draw(st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=4).map("".join))
    return opener * depth + "a" + closer * closed + tail


def _check_outcome(parse, source, expected):
    try:
        result = parse(source)
    except ReproError:
        return
    assert isinstance(result, expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=40).map("".join))
def test_fuzz_token_alphabet(source):
    _check_outcome(parse_dtd, source, DTD)
    _check_outcome(parse_dtd, "<!ELEMENT a " + source, DTD)
    _check_outcome(parse_content_model, source, Tree)


@settings(max_examples=200, deadline=None)
@given(_nested_models())
def test_fuzz_deep_nesting(model):
    _check_outcome(parse_dtd, f"<!ELEMENT r {model}>", DTD)
    _check_outcome(parse_content_model, model, Tree)
