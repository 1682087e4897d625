"""Tests for the XML tree parser (structural well-formedness, node kinds)."""

import pytest
from conftest import walked_path
from test_xml_frontend_golden import GROUPS

from repro.errors import XMLSyntaxError
from repro.xml import snapshot
from repro.xml.document import Document, NodeKind
from repro.xml.index import node_index
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.snapshot import decode_snapshot, encode_snapshot


def test_root_element_and_document_node():
    doc = parse_document("<a/>")
    assert doc.root.is_document
    assert doc.root_element is not None
    assert doc.root_element.name == "a"
    assert doc.root_element.parent is doc.root


def test_nested_structure():
    doc = parse_document("<a><b><c/></b><d/></a>")
    a = doc.root_element
    assert [child.name for child in a.children] == ["b", "d"]
    b = a.children[0]
    assert [child.name for child in b.children] == ["c"]
    assert b.children[0].parent is b


def test_text_nodes():
    doc = parse_document("<a>hi <b>there</b> end</a>")
    a = doc.root_element
    kinds = [child.kind for child in a.children]
    assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]
    assert a.children[0].value == "hi "
    assert a.children[2].value == " end"


def test_adjacent_text_and_cdata_merge_into_one_node():
    doc = parse_document("<a>one<![CDATA[ two ]]>three</a>")
    (text,) = doc.root_element.children
    assert text.kind is NodeKind.TEXT
    assert text.value == "one two three"


def test_attributes_become_attribute_nodes():
    doc = parse_document('<a x="1" y="2"/>')
    a = doc.root_element
    assert [(attr.name, attr.value) for attr in a.attributes] == [("x", "1"), ("y", "2")]
    assert all(attr.parent is a for attr in a.attributes)
    assert all(attr.is_attribute for attr in a.attributes)


def test_comment_and_pi_nodes():
    doc = parse_document("<a><!--note--><?pi data?></a>")
    comment, pi = doc.root_element.children
    assert comment.kind is NodeKind.COMMENT
    assert comment.value == "note"
    assert pi.kind is NodeKind.PROCESSING_INSTRUCTION
    assert pi.name == "pi"
    assert pi.value == "data"


def test_comments_outside_root_allowed():
    doc = parse_document("<!--before--><a/><!--after-->")
    kinds = [child.kind for child in doc.root.children]
    assert kinds == [NodeKind.COMMENT, NodeKind.ELEMENT, NodeKind.COMMENT]


def test_whitespace_stripping_mode():
    source = "<a>\n  <b/>\n  <c>kept</c>\n</a>"
    kept = parse_document(source)
    stripped = parse_document(source, keep_whitespace_text=False)
    assert any(child.is_text for child in kept.root_element.children)
    assert not any(child.is_text for child in stripped.root_element.children)
    # Non-whitespace text survives stripping.
    c = stripped.root_element.children[-1]
    assert c.children[0].value == "kept"


def test_mismatched_end_tag_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a><b></a></b>")


def test_unclosed_element_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a><b>")


def test_stray_end_tag_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a/></a>")


def test_two_root_elements_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a/><b/>")


def test_text_outside_root_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a/>junk")


def test_empty_document_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_document("   ")


def test_declaration_must_precede_root():
    with pytest.raises(XMLSyntaxError):
        parse_document('<a/><?xml version="1.0"?>')


def test_parse_fragment_wraps():
    doc = parse_fragment("<x/><y/>")
    assert doc.root_element.name == "fragment"
    assert [child.name for child in doc.root_element.children] == ["x", "y"]


def test_custom_id_attribute():
    doc = parse_document('<a key="k1"><b key="k2"/></a>', id_attribute="key")
    assert doc.element_by_id("k2").name == "b"


def test_document_is_finalized():
    """Born complete: numbered, sized and indexed when the parser returns."""
    doc = parse_document("<a/>")
    assert len(doc) == 2  # document node + element
    assert list(doc.columns.size) == [2, 1]
    assert node_index(doc) is doc._index


# ----------------------------------------------------------------------
# The parsed form is its columns: no node until one is touched
# ----------------------------------------------------------------------


def _accepted_golden_sources():
    """Every source of the golden corpus the front end accepts (those
    whose strings cannot be encoded are of no use here)."""
    for build in GROUPS.values():
        for source in build().values():
            try:
                encode_snapshot(parse_document(source))
            except (XMLSyntaxError, UnicodeEncodeError, OverflowError):
                continue
            yield source


def test_parsed_documents_are_columns_with_no_boxed_node():
    document = parse_document('<a x="1">t<b/><!--c--><?p d?></a>')
    assert type(document) is Document
    assert document.materialized_count() == 0
    assert document.root_element.name == "a"
    assert document.materialized_count() == 1


def test_column_paths_match_the_boxed_tree_on_the_golden_corpus():
    """``path_of_pre`` numbers siblings by kind and name exactly as a
    walk that recounts each node's earlier siblings does — comment, PI
    and text siblings and attributes included — in any order of asking,
    without creating a node."""
    sources = list(_accepted_golden_sources())
    assert len(sources) > 150
    kinds = set()
    for source in sources:
        document = parse_document(source)
        expected = [walked_path(node) for node in parse_document(source).nodes]
        pres = range(len(expected))
        assert [document.path_of_pre(pre) for pre in pres] == expected
        backwards = parse_document(source)
        assert [backwards.path_of_pre(pre) for pre in reversed(pres)] == expected[::-1]
        assert document.materialized_count() == backwards.materialized_count() == 0
        assert [node.path() for node in document.nodes] == expected
        kinds.update(document.columns.kinds)
    assert kinds == set(b"DEATCP")


def test_parser_columns_pass_the_snapshot_validator_on_the_golden_corpus(monkeypatch):
    """The parser's own columns skip ``_validate_columns``; a decode of
    what it encoded does not, and finds nothing to object to."""
    validated = []
    validate = snapshot._validate_columns

    def spy(*columns):
        validated.append(len(columns[0]))
        validate(*columns)

    monkeypatch.setattr(snapshot, "_validate_columns", spy)
    documents = [parse_document(source) for source in _accepted_golden_sources()]
    assert validated == []
    for document in documents:
        twin = decode_snapshot(encode_snapshot(document))
        assert encode_snapshot(twin) == encode_snapshot(document)
    assert validated == [len(document.nodes) for document in documents]
