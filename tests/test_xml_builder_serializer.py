"""Tests for the programmatic builders and the serializer round-trip."""

import pytest

from repro.engine import XPathEngine
from repro.errors import ReproError
from repro.xml.builder import DocumentBuilder, comment, element, processing_instruction, text
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize, serialize_node


def test_builder_basic_tree():
    builder = DocumentBuilder()
    builder.start("a", id="1")
    builder.leaf("b", "hello", attributes={"id": "2"})
    builder.comment("note")
    builder.processing_instruction("pi", "data")
    builder.end()
    doc = builder.build()
    a = doc.root_element
    assert a.name == "a"
    assert a.xml_id == "1"
    b = a.children[0]
    assert b.string_value == "hello"
    assert a.children[1].is_comment
    assert a.children[2].is_processing_instruction


def test_builder_depth_tracking():
    builder = DocumentBuilder()
    assert builder.depth == 0
    builder.start("a")
    builder.start("b")
    assert builder.depth == 2
    builder.end()
    assert builder.depth == 1


def test_builder_rejects_unbalanced_build():
    builder = DocumentBuilder()
    builder.start("a")
    with pytest.raises(ReproError):
        builder.build()


def test_builder_rejects_extra_end():
    builder = DocumentBuilder()
    builder.leaf("a")
    with pytest.raises(ReproError):
        builder.end()


def test_builder_rejects_top_level_text():
    builder = DocumentBuilder()
    with pytest.raises(ReproError):
        builder.text("loose")


def test_builder_rejects_empty_document():
    with pytest.raises(ReproError):
        DocumentBuilder().build()


def test_builder_rejects_double_build():
    builder = DocumentBuilder()
    builder.leaf("a")
    builder.build()
    with pytest.raises(ReproError):
        builder.build()


# --- the builder builds only what the parser could read back ----------------


def _round_trips(doc):
    again = parse_document(serialize(doc))
    assert list(again.columns.kinds) == list(doc.columns.kinds)
    assert list(again.columns.values) == list(doc.columns.values)


def test_builder_merges_adjacent_text():
    builder = DocumentBuilder()
    builder.start("a").text("x").text("y").end()
    doc = builder.build()
    assert XPathEngine(doc).evaluate("count(/a/text())") == 1.0
    assert doc.root_element.children[0].value == "xy"
    _round_trips(doc)


def test_builder_drops_empty_text():
    doc = element("a", {}, "").build()
    assert doc.root_element.children == []
    assert len(doc) == 2
    _round_trips(doc)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DocumentBuilder().leaf("a").leaf("b"), "multiple root elements"),
        (lambda: element("a", {}, comment("x--y")).build(), "'--'"),
        (lambda: element("a", {}, processing_instruction("t", "x?>y")).build(), r"'\?>'"),
        (lambda: element("a", {}, processing_instruction("xml", "v")).build(), "target"),
        (lambda: element("a", {}, processing_instruction("XmL", "v")).build(), "target"),
    ],
    ids=["second root", "-- in comment", "?> in PI data", "PI target xml", "PI target XmL"],
)
def test_builder_refuses_what_the_parser_would_refuse(build, message):
    with pytest.raises(ReproError, match=message):
        build()


def test_declarative_builder():
    doc = element(
        "a",
        {"id": "1"},
        element("b", {}, text("hi")),
        comment("c"),
        processing_instruction("p", "d"),
        "bare string becomes text",
    ).build()
    a = doc.root_element
    assert a.children[0].children[0].value == "hi"
    assert a.children[1].is_comment
    assert a.children[2].is_processing_instruction
    assert a.children[3].is_text


def test_serialize_simple():
    doc = parse_document('<a x="1"><b/>text</a>')
    assert serialize(doc) == '<a x="1"><b/>text</a>'


def test_serialize_escapes_text_and_attributes():
    doc = element("a", {"x": 'va"l<'}, text("a<b&c>d")).build()
    out = serialize(doc)
    assert out == '<a x="va&quot;l&lt;">a&lt;b&amp;c&gt;d</a>'


def test_serialize_comment_and_pi():
    doc = parse_document("<a><!--n--><?p d?></a>")
    assert serialize(doc) == "<a><!--n--><?p d?></a>"


def test_serialize_with_declaration():
    doc = parse_document("<a/>")
    assert serialize(doc, xml_declaration=True) == '<?xml version="1.0"?><a/>'


def test_serialize_single_node():
    doc = parse_document("<a><b>x</b></a>")
    assert serialize_node(doc.root_element.children[0]) == "<b>x</b>"


def test_round_trip_preserves_structure():
    source = '<a id="1"><b k="v&amp;w">one<c/>two</b><!--n--><?pi data?></a>'
    doc = parse_document(source)
    again = parse_document(serialize(doc))
    assert serialize(again) == serialize(doc)
    assert len(again) == len(doc)
