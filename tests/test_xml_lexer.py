"""Tests for the XML tokenizer."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xml.lexer import XMLTokenType, tokenize


def types(source):
    return [t.type for t in tokenize(source)]


def test_simple_element_pair():
    tokens = tokenize("<a>hello</a>")
    assert [t.type for t in tokens] == [
        XMLTokenType.START_TAG,
        XMLTokenType.TEXT,
        XMLTokenType.END_TAG,
    ]
    assert tokens[0].value == "a"
    assert tokens[1].value == "hello"
    assert tokens[2].value == "a"


def test_empty_tag():
    (token,) = tokenize("<br/>")
    assert token.type is XMLTokenType.EMPTY_TAG
    assert token.value == "br"


def test_attributes_in_source_order():
    (token,) = tokenize('<a x="1" y="2"/>')
    assert token.attributes == [("x", "1"), ("y", "2")]


def test_single_quoted_attribute():
    (token,) = tokenize("<a x='v a l'/>")
    assert token.attributes == [("x", "v a l")]


def test_attribute_whitespace_around_equals():
    (token,) = tokenize('<a x = "1"/>')
    assert token.attributes == [("x", "1")]


def test_duplicate_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize('<a x="1" x="2"/>')


def test_unquoted_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a x=1/>")


def test_predefined_entities_expanded():
    tokens = tokenize("<a>&lt;&amp;&gt;&quot;&apos;</a>")
    assert tokens[1].value == "<&>\"'"


def test_character_references():
    tokens = tokenize("<a>&#65;&#x42;</a>")
    assert tokens[1].value == "AB"


def test_entities_in_attribute_values():
    (token,) = tokenize('<a x="&amp;&#33;"/>')
    assert token.attributes == [("x", "&!")]


def test_unknown_entity_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a>&nosuch;</a>")


def test_unterminated_entity_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a>&amp</a>")


def test_comment_token():
    tokens = tokenize("<a><!-- note --></a>")
    assert tokens[1].type is XMLTokenType.COMMENT
    assert tokens[1].value == " note "


def test_double_hyphen_in_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a><!-- a -- b --></a>")


def test_cdata_is_literal_text():
    tokens = tokenize("<a><![CDATA[<not&parsed;>]]></a>")
    assert tokens[1].type is XMLTokenType.TEXT
    assert tokens[1].value == "<not&parsed;>"


def test_processing_instruction():
    tokens = tokenize('<a><?target some data?></a>')
    pi = tokens[1]
    assert pi.type is XMLTokenType.PROCESSING_INSTRUCTION
    assert pi.value == "target"
    assert pi.attributes == [("data", "some data")]


def test_xml_declaration_recognized():
    tokens = tokenize('<?xml version="1.0"?><a/>')
    assert tokens[0].type is XMLTokenType.DECLARATION


def test_doctype_skipped_as_token():
    tokens = tokenize("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>")
    assert tokens[0].type is XMLTokenType.DOCTYPE
    assert tokens[1].type is XMLTokenType.EMPTY_TAG


def test_unterminated_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a><!-- oops</a>")


def test_unterminated_start_tag_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a")


def test_cdata_end_in_text_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize("<a>]]></a>")


def test_lt_in_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        tokenize('<a x="<"/>')


def test_error_carries_line_and_column():
    with pytest.raises(XMLSyntaxError) as info:
        tokenize("<a>\n<b x=1/></a>")
    assert info.value.line == 2


def test_names_with_colons_dots_dashes():
    (token,) = tokenize("<ns:tag-name.x/>")
    assert token.value == "ns:tag-name.x"


def test_token_locations_cost_no_full_prefix_scans(monkeypatch):
    """Regression: ``_location`` (a newline count over the whole prefix)
    ran once per token, making lexing quadratic. Token starts are now
    located incrementally: on a well-formed ~30k-node catalog the
    full-prefix scan never runs, and every token carries exactly the
    line/column the full scan reports."""
    from repro.workloads.documents import book_catalog
    from repro.xml.lexer import XMLLexer
    from repro.xml.serializer import serialize

    def multiline(books):
        return serialize(book_catalog(books=books)).replace("><", ">\n  <")

    full_scan = XMLLexer._location
    calls = []

    def spy(self, pos=None):
        calls.append(pos)
        return full_scan(self, pos)

    monkeypatch.setattr(XMLLexer, "_location", spy)
    assert len(XMLLexer(multiline(850)).tokens()) > 30_000
    assert calls == []

    incremental = XMLLexer(multiline(40)).tokens()
    monkeypatch.setattr(XMLLexer, "_token_location", full_scan)
    assert incremental == XMLLexer(multiline(40)).tokens()
    assert incremental[-1].line > 500
