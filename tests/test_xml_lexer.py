"""Lexical cases of the XML front end, stated on ``parse_document``'s
outcome: node kinds, names, values, attribute order, error lines. (The
cursor tokenizer these cases were first written against is gone; the
one-pass parser accepts the same language.)"""

import pytest

from repro.errors import XMLSyntaxError
from repro.stats import axis_kernel_stats
from repro.workloads.documents import book_catalog
from repro.xml import parser as front_end
from repro.xml.document import NodeKind
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.store import DocumentStore

ELEMENT, ATTRIBUTE, TEXT = NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.TEXT
COMMENT, PI = NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION


def rows(source):
    """(kind, name, value) of every node below the document node."""
    return [(n.kind, n.name, n.value) for n in parse_document(source).nodes[1:]]


def test_simple_element_pair():
    assert rows("<a>hello</a>") == [(ELEMENT, "a", None), (TEXT, None, "hello")]


def test_empty_tag():
    document = parse_document("<br/>")
    assert rows("<br/>") == [(ELEMENT, "br", None)]
    assert document.root_element.size == 1


def test_attributes_in_source_order():
    assert rows('<a x="1" y="2"/>')[1:] == [(ATTRIBUTE, "x", "1"), (ATTRIBUTE, "y", "2")]


def test_single_quoted_attribute():
    assert rows("<a x='v a l'/>")[1:] == [(ATTRIBUTE, "x", "v a l")]


def test_attribute_whitespace_around_equals():
    assert rows('<a x = "1"/>')[1:] == [(ATTRIBUTE, "x", "1")]


def test_duplicate_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document('<a x="1" x="2"/>')


def test_unquoted_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a x=1/>")


def test_predefined_entities_expanded():
    assert rows("<a>&lt;&amp;&gt;&quot;&apos;</a>")[1] == (TEXT, None, "<&>\"'")


def test_character_references():
    assert rows("<a>&#65;&#x42;</a>")[1] == (TEXT, None, "AB")


def test_entities_in_attribute_values():
    assert rows('<a x="&amp;&#33;"/>')[1:] == [(ATTRIBUTE, "x", "&!")]


def test_unknown_entity_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a>&nosuch;</a>")


def test_unterminated_entity_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a>&amp</a>")


def test_comment_token():
    assert rows("<a><!-- note --></a>")[1] == (COMMENT, None, " note ")


def test_double_hyphen_in_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a><!-- a -- b --></a>")


def test_cdata_is_literal_text():
    assert rows("<a><![CDATA[<not&parsed;>]]></a>")[1] == (TEXT, None, "<not&parsed;>")


def test_processing_instruction():
    assert rows("<a><?target some data?></a>")[1] == (PI, "target", "some data")


def test_xml_declaration_recognized():
    assert rows('<?xml version="1.0"?><a/>') == [(ELEMENT, "a", None)]
    with pytest.raises(XMLSyntaxError, match="must precede the root"):
        parse_document('<a/><?xml version="1.0"?>')


def test_doctype_skipped_as_token():
    assert rows("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>") == [(ELEMENT, "a", None)]


def test_unterminated_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a><!-- oops</a>")


def test_unterminated_start_tag_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a")


def test_cdata_end_in_text_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a>]]></a>")


def test_lt_in_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document('<a x="<"/>')


def test_error_carries_line_and_column():
    with pytest.raises(XMLSyntaxError) as info:
        parse_document("<a>\n<b x=1/></a>")
    assert (info.value.line, info.value.column) == (2, 6)


def test_names_with_colons_dots_dashes():
    assert rows("<ns:tag-name.x/>") == [(ELEMENT, "ns:tag-name.x", None)]


def _multiline(books):
    return serialize(book_catalog(books=books)).replace("><", ">\n  <")


def test_token_locations_cost_no_full_prefix_scans(monkeypatch):
    """Regression: a newline count over the whole prefix once ran per
    token, making the front end quadratic. A line and column are now
    computed only to raise: a well-formed ~30k-node catalog never asks
    for one, and an error on its last line still reports it exactly."""
    locate = front_end._error
    calls = []

    def spy(source, message, pos):
        calls.append(pos)
        return locate(source, message, pos)

    monkeypatch.setattr(front_end, "_error", spy)
    assert len(parse_document(_multiline(850)).nodes) > 30_000
    assert calls == []

    broken = _multiline(40).replace("</catalog>", "</catalogue>")
    with pytest.raises(XMLSyntaxError) as info:
        parse_document(broken)
    assert len(calls) == 1
    assert info.value.line == broken.count("\n") + 1 > 500
    assert info.value.column == broken.rindex("</catalogue>") - broken.rindex("\n")


def test_parse_then_save_boxes_no_node_and_builds_no_index(tmp_path):
    """A put is parse -> columns -> snapshot: the index is adopted from
    the columns the parser wrote, and nothing is ever boxed."""
    store = DocumentStore(tmp_path / "store.json")
    source = _multiline(12)
    before = axis_kernel_stats.snapshot()
    document = parse_document(source)
    store.save_snapshot("catalog", document)
    after = axis_kernel_stats.snapshot()
    assert after["nodes_materialized"] == before["nodes_materialized"]
    assert document.materialized_count() == 0
    assert after["index_builds"] == before["index_builds"]
    assert after["index_adoptions"] == before["index_adoptions"] + 1
