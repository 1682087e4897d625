"""Tests for axis semantics: per-node enumeration and set functions,
over pre numbers.

Fixture tree (ids in brackets):

    a[1]
    ├── b[2]
    │   ├── c[3]
    │   └── c[4]  @x
    ├── b[5]
    │   └── d[6]
    └── e[7]
"""

import pytest

from repro.axes.axes import ALL_AXES, axis_nodes, axis_set, inverse_axis_set
from repro.xml.parser import parse_document


@pytest.fixture(scope="module")
def doc():
    return parse_document(
        '<a id="1">'
        '<b id="2"><c id="3"/><c id="4" x="attr"/></b>'
        '<b id="5"><d id="6"/></b>'
        '<e id="7"/>'
        "</a>"
    )


def by_id(doc, key):
    """The pre number of the element with id ``key``."""
    return doc.id_pre_map()[key]


def ids(doc, pres):
    return sorted(doc.nodes[p].xml_id for p in pres)


def in_order(doc, pres):
    return [doc.nodes[p].xml_id for p in pres]


def test_self(doc):
    pre = by_id(doc, "3")
    assert axis_nodes(doc, "self", pre) == [pre]


def test_child(doc):
    assert ids(doc, axis_nodes(doc, "child", by_id(doc, "1"))) == ["2", "5", "7"]
    assert axis_nodes(doc, "child", by_id(doc, "3")) == []


def test_parent(doc):
    assert axis_nodes(doc, "parent", by_id(doc, "3")) == [by_id(doc, "2")]
    assert axis_nodes(doc, "parent", 0) == []


def test_descendant_proximity_order(doc):
    assert in_order(doc, axis_nodes(doc, "descendant", by_id(doc, "1"))) == [
        "2", "3", "4", "5", "6", "7",
    ]


def test_descendant_excludes_attributes(doc):
    pres = axis_nodes(doc, "descendant", by_id(doc, "2"))
    assert ids(doc, pres) == ["3", "4"]
    assert not any(doc.nodes[p].is_attribute for p in pres)


def test_ancestor_proximity_order(doc):
    chain = axis_nodes(doc, "ancestor", by_id(doc, "3"))
    assert in_order(doc, chain[:2]) == ["2", "1"]
    assert chain[-1] == 0


def test_or_self_variants(doc):
    pre = by_id(doc, "2")
    assert axis_nodes(doc, "descendant-or-self", pre)[0] == pre
    assert axis_nodes(doc, "ancestor-or-self", pre)[0] == pre


def test_siblings(doc):
    assert ids(doc, axis_nodes(doc, "following-sibling", by_id(doc, "2"))) == ["5", "7"]
    preceding = axis_nodes(doc, "preceding-sibling", by_id(doc, "7"))
    # Proximity order: nearest sibling first.
    assert in_order(doc, preceding) == ["5", "2"]


def test_attribute_has_no_siblings(doc):
    attr = doc.element_by_id("4").attributes[0].pre
    assert axis_nodes(doc, "following-sibling", attr) == []
    assert axis_nodes(doc, "preceding-sibling", attr) == []


def test_following(doc):
    assert ids(doc, axis_nodes(doc, "following", by_id(doc, "2"))) == ["5", "6", "7"]
    assert ids(doc, axis_nodes(doc, "following", by_id(doc, "4"))) == ["5", "6", "7"]
    assert axis_nodes(doc, "following", by_id(doc, "7")) == []


def test_preceding(doc):
    assert ids(doc, axis_nodes(doc, "preceding", by_id(doc, "7"))) == ["2", "3", "4", "5", "6"]
    # Ancestors are not preceding.
    assert axis_nodes(doc, "preceding", by_id(doc, "3")) == []
    # Proximity order is reverse document order.
    assert in_order(doc, axis_nodes(doc, "preceding", by_id(doc, "6"))) == ["4", "3", "2"]


def test_attribute_axis(doc):
    def names(pre):
        return [doc.nodes[p].name for p in axis_nodes(doc, "attribute", pre)]

    assert names(by_id(doc, "4")) == ["id", "x"]
    assert names(by_id(doc, "3")) == ["id"]
    assert names(0) == []


def test_axis_set_matches_per_node_union(doc):
    X = {by_id(doc, "2"), by_id(doc, "5")}
    for axis in sorted(ALL_AXES - {"id"}):
        expected = set()
        for x in X:
            expected.update(axis_nodes(doc, axis, x))
        assert axis_set(doc, axis, X) == expected, axis


def test_axis_set_empty_input(doc):
    for axis in sorted(ALL_AXES - {"id"}):
        assert axis_set(doc, axis, set()) == set(), axis


def test_inverse_axis_definition(doc):
    """χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅} — checked literally for every axis."""
    Y = {by_id(doc, "3"), by_id(doc, "6")}
    for axis in sorted(ALL_AXES - {"id"}):
        expected = {
            x for x in range(len(doc)) if not set(axis_nodes(doc, axis, x)).isdisjoint(Y)
        }
        assert inverse_axis_set(doc, axis, Y) == expected, axis


def test_unknown_axis_rejected(doc):
    with pytest.raises(ValueError):
        axis_nodes(doc, "sideways", 0)
    with pytest.raises(ValueError):
        axis_set(doc, "sideways", set())
