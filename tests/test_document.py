"""Unit tests for the XML document object model."""

from repro.xmltree.document import Document, Element, Text, element
from repro.xmltree.parser import MAX_DEPTH, parse_document


class TestElementNavigation:
    def test_element_children_skip_text(self):
        root = element("a", "hello", element("b"), element("c"))
        assert [child.tag for child in root.element_children()] == ["b", "c"]

    def test_text_children(self):
        root = element("a", "x", element("b"), "y")
        assert [text.value for text in root.text_children()] == ["x", "y"]

    def test_has_text_ignores_whitespace(self):
        assert not element("a", "  \n\t ").has_text()
        assert element("a", " x ").has_text()

    def test_child_tags_keeps_repetitions(self):
        root = element("a", element("b"), element("c"), element("b"))
        assert root.child_tags() == ["b", "c", "b"]

    def test_alpha_beta(self):
        root = element("a", element("b"), element("c"), element("b"))
        assert root.alpha_beta() == frozenset({"b", "c"})

    def test_text_concatenates(self):
        assert element("a", "x", element("b"), "y").text() == "xy"

    def test_find_and_find_all(self):
        root = element("a", element("b", "1"), element("b", "2"), element("c"))
        assert root.find("b").text() == "1"
        assert root.find("missing") is None
        assert len(root.find_all("b")) == 2

    def test_iter_elements_preorder(self):
        root = element("a", element("b", element("d")), element("c"))
        assert [e.tag for e in root.iter_elements()] == ["a", "b", "d", "c"]

        def preorder(node):  # the recursive definition
            yield node
            for child in node.element_children():
                yield from preorder(child)

        wide = element(
            "r",
            "text",
            element("x", element("y", "1"), element("z")),
            element("y", element("x", element("z"), "t", element("z"))),
            element("z"),
        )
        assert [id(e) for e in wide.iter_elements()] == [
            id(e) for e in preorder(wide)
        ]

        # far deeper than the interpreter's recursion limit
        chain = Element("e0")
        for depth in range(1, 5000):
            chain = Element(f"e{depth}", children=[chain])
        tags = [e.tag for e in chain.iter_elements()]
        assert tags == [f"e{depth}" for depth in range(4999, -1, -1)]

    def test_element_count(self):
        root = element("a", element("b", element("d")), element("c"))
        assert root.element_count() == 4

    def test_element_count_at_the_parser_depth_limit(self):
        depth = MAX_DEPTH
        document = parse_document("<a>" * depth + "</a>" * depth)
        assert document.element_count() == depth

        chain = Element("e0")
        for level in range(1, depth):
            chain = Element(f"e{level}", children=[chain, Text("t")])
        assert chain.element_count() == depth


class TestTreeView:
    def test_to_tree_matches_paper_figure2(self):
        root = element("a", element("b", "5"), element("c", "7"))
        assert root.to_tree().to_tuple() == ("a", [("b", ["5"]), ("c", ["7"])])

    def test_to_tree_strips_whitespace_text(self):
        root = element("a", "  ", element("b"))
        assert root.to_tree().to_tuple() == ("a", ["b"])

    def test_to_tree_without_text(self):
        root = element("a", element("b", "5"))
        assert root.to_tree(include_text=False).to_tuple() == ("a", ["b"])


class TestEqualityAndCopy:
    def test_equality_covers_attributes_and_children(self):
        left = Element("a", {"k": "v"}, [Text("x")])
        right = Element("a", {"k": "v"}, [Text("x")])
        assert left == right
        assert left != Element("a", {"k": "w"}, [Text("x")])
        assert left != Element("a", {"k": "v"}, [Text("y")])

    def test_copy_is_deep(self):
        original = element("a", element("b", "x"))
        clone = original.copy()
        clone.element_children()[0].children.clear()
        assert original.find("b").text() == "x"

    def test_append_is_chainable(self):
        root = Element("a").append(Element("b")).append(Text("x"))
        assert root.child_tags() == ["b"]
        assert root.text() == "x"


class TestDocument:
    def test_document_delegates_to_root(self):
        doc = Document(element("a", element("b")))
        assert doc.to_tree().to_tuple() == ("a", ["b"])
        assert doc.element_count() == 2

    def test_document_equality_is_root_equality(self):
        assert Document(element("a")) == Document(element("a"))
        assert Document(element("a")) != Document(element("b"))

    def test_copy_preserves_doctype(self):
        doc = Document(element("a"), doctype_name="a", doctype_system="a.dtd")
        clone = doc.copy()
        assert clone.doctype_name == "a"
        assert clone.doctype_system == "a.dtd"
        assert clone.root is not doc.root


class TestBuilder:
    def test_element_builder_promotes_strings(self):
        root = element("a", "text", element("b"), key="value")
        assert root.attributes == {"key": "value"}
        assert root.text() == "text"
        assert root.child_tags() == ["b"]
