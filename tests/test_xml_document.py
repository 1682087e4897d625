"""Tests for the document data model: numbering, string values, ids."""

import pytest

from repro.xml.parser import parse_document


def test_preorder_numbering_is_positional():
    doc = parse_document("<a><b/><c><d/></c></a>")
    for index, node in enumerate(doc.nodes):
        assert node.pre == index
    names = [n.name for n in doc.nodes if n.is_element]
    assert names == ["a", "b", "c", "d"]


def test_attributes_numbered_after_element_before_children():
    doc = parse_document('<a x="1"><b y="2"/></a>')
    a = doc.root_element
    x = a.attributes[0]
    b = a.children[0]
    assert a.pre < x.pre < b.pre < b.attributes[0].pre


def test_subtree_size_counts_self_attributes_descendants():
    doc = parse_document('<a x="1"><b/><c y="2">t</c></a>')
    a = doc.root_element
    # a + @x + b + c + @y + text = 6
    assert a.size == 6
    assert doc.root.size == 7


def test_interval_ancestor_test():
    doc = parse_document("<a><b><c/></b><d/></a>")
    a = doc.root_element
    b, d = a.children
    c = b.children[0]
    assert a.is_ancestor_of(c)
    assert b.is_ancestor_of(c)
    assert not d.is_ancestor_of(c)
    assert not c.is_ancestor_of(c)
    assert doc.root.is_ancestor_of(d)
    # Pre numbers are per document: another document's node is no descendant.
    other = parse_document("<x><y/><z/></x>")
    assert not a.is_ancestor_of(other.nodes[3])
    assert not doc.root.is_ancestor_of(other.root_element)


def test_string_value_of_element_concatenates_descendant_text():
    doc = parse_document("<a>x<b>y<!--no--><c>z</c></b>w</a>")
    assert doc.root_element.string_value == "xyzw"
    assert doc.root.string_value == "xyzw"


def test_string_value_of_leaf_kinds():
    doc = parse_document('<a k="v">t<!--c--><?p d?></a>')
    a = doc.root_element
    assert a.attributes[0].string_value == "v"
    text, comment, pi = a.children
    assert text.string_value == "t"
    assert comment.string_value == "c"
    assert pi.string_value == "d"


def test_id_map_and_deref():
    doc = parse_document('<a id="r"><b id="x"/><b id="y"/></a>')
    assert doc.element_by_id("x").pre < doc.element_by_id("y").pre
    assert doc.deref_id_pres("y r missing") == {doc.root_element.pre, doc.element_by_id("y").pre}


def test_duplicate_ids_first_wins():
    doc = parse_document('<a><b id="k">first</b><c id="k">second</c></a>')
    assert doc.element_by_id("k").name == "b"


def test_document_order_helpers():
    doc = parse_document("<a><b/><c/></a>")
    a = doc.root_element
    b, c = a.children
    assert doc.in_document_order({c, b, a}) == [a, b, c]


def test_ancestors_iteration_order():
    doc = parse_document("<a><b><c/></b></a>")
    c = doc.root_element.children[0].children[0]
    assert [n.name for n in c.ancestors()] == ["b", "a", None]


def test_path_rendering():
    doc = parse_document("<a><b/><b><c x='1'/></b></a>")
    second_b = doc.root_element.children[1]
    c = second_b.children[0]
    assert second_b.path() == "/a[1]/b[2]"
    assert c.path() == "/a[1]/b[2]/c[1]"
    assert c.attributes[0].path() == "/a[1]/b[2]/c[1]/@x"


def test_frozen_document_rejects_mutation():
    doc = parse_document("<a><b/></a>")
    b = doc.root_element.children[0]
    with pytest.raises(TypeError):
        doc.nodes[1] = b  # the node list is a read-only view of the columns
    with pytest.raises(TypeError):
        doc.columns.kinds[2] = ord("T")
    with pytest.raises(AttributeError):
        b.parent = doc.root  # links are cut from the columns, never set


def test_elements_listing():
    doc = parse_document("<a>t<b/><!--c--><d/></a>")
    assert [e.name for e in doc.elements()] == ["a", "b", "d"]


def test_xml_id_property():
    doc = parse_document('<a id="1"><b/></a>')
    assert doc.root_element.xml_id == "1"
    assert doc.root_element.children[0].xml_id is None
    assert doc.root.xml_id is None


def test_attribute_lookup():
    doc = parse_document('<a x="1" y="2"/>')
    a = doc.root_element
    assert a.attribute("y").value == "2"
    assert a.attribute("z") is None
    assert a.attribute_value("z", "dflt") == "dflt"
