"""Tests for the id pseudo-axis and the document-order utilities."""

import pytest

from repro.axes.axes import axis_nodes, axis_set, inverse_axis_set
from repro.axes.order import (
    axis_order_key,
    index_in_axis_order,
    is_forward_axis,
    sort_in_axis_order,
)
from repro.xml.parser import parse_document


@pytest.fixture(scope="module")
def doc():
    # b/c hold whitespace-separated id references in their text.
    return parse_document(
        '<a id="r">'
        '<b id="1">2 3</b>'
        '<b id="2">r</b>'
        '<c id="3">2 missing</c>'
        '<c id="4"></c>'
        "</a>"
    )


def by_id(doc, key):
    return doc.element_by_id(key)


def pre_of(doc, key):
    return doc.id_pre_map()[key]


def test_id_axis_single_node(doc):
    got = axis_nodes(doc, "id", pre_of(doc, "1"))
    assert [doc.nodes[p].xml_id for p in got] == ["2", "3"]


def test_id_axis_empty_for_no_tokens(doc):
    assert axis_nodes(doc, "id", pre_of(doc, "4")) == []


def test_id_axis_set(doc):
    X = {pre_of(doc, "1"), pre_of(doc, "2")}
    assert {doc.nodes[p].xml_id for p in axis_set(doc, "id", X)} == {"2", "3", "r"}


def test_id_inverse(doc):
    """id⁻¹(Y): nodes whose string value mentions an id of Y."""
    got = inverse_axis_set(doc, "id", {pre_of(doc, "2")})
    # '2' appears in strval of b[1], c[3] — and also of the root/document
    # (their string values concatenate all text) — all qualify.
    assert pre_of(doc, "1") in got
    assert pre_of(doc, "3") in got
    assert pre_of(doc, "4") not in got


def test_id_inverse_of_unidentified_nodes_is_empty(doc):
    text_node = by_id(doc, "1").children[0]
    assert inverse_axis_set(doc, "id", {text_node.pre}) == set()


def test_id_inverse_matches_definition(doc):
    Y = {pre_of(doc, "3"), pre_of(doc, "r")}
    expected = {
        x for x in range(len(doc)) if not set(axis_nodes(doc, "id", x)).isdisjoint(Y)
    }
    assert inverse_axis_set(doc, "id", Y) == expected


def test_forward_reverse_classification():
    assert is_forward_axis("child")
    assert is_forward_axis("following")
    assert is_forward_axis("id")
    assert not is_forward_axis("ancestor")
    assert not is_forward_axis("preceding-sibling")
    with pytest.raises(ValueError):
        is_forward_axis("nope")


def test_sort_in_axis_order(doc):
    nodes = [by_id(doc, k) for k in ("3", "1", "2")]
    forward = sort_in_axis_order(nodes, "child")
    assert [n.xml_id for n in forward] == ["1", "2", "3"]
    backward = sort_in_axis_order(nodes, "preceding")
    assert [n.xml_id for n in backward] == ["3", "2", "1"]


def test_index_in_axis_order(doc):
    nodes = [by_id(doc, k) for k in ("1", "2", "3")]
    assert index_in_axis_order(by_id(doc, "2"), nodes, "child") == 2
    assert index_in_axis_order(by_id(doc, "2"), nodes, "ancestor") == 2
    assert index_in_axis_order(by_id(doc, "1"), nodes, "preceding") == 3
    with pytest.raises(ValueError):
        index_in_axis_order(by_id(doc, "r"), nodes, "child")


def test_axis_order_key_values(doc):
    key = axis_order_key("child")
    assert key(by_id(doc, "1")) < key(by_id(doc, "2"))
    reverse_key = axis_order_key("preceding")
    assert reverse_key(by_id(doc, "1")) > reverse_key(by_id(doc, "2"))
