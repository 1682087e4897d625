"""Property-based tests (hypothesis) for axis algebra invariants.

The key laws the paper's machinery relies on:

* Definition 1: ``χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}`` for every axis;
* the self/ancestor/descendant/preceding/following partition of dom;
* converse symmetry (``y ∈ following(x) ⟺ x ∈ preceding(y)``, etc.);
* set functions = union of per-node enumerations.

All of them over pre numbers, the axis functions' currency.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.axes.axes import ALL_AXES, axis_nodes, axis_set, inverse_axis_set
from repro.workloads.documents import random_document

_TREE_AXES = sorted(ALL_AXES - {"id"})


@st.composite
def documents(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=1, max_value=25))
    return random_document(random.Random(seed), max_nodes=size)


@st.composite
def document_and_subset(draw):
    doc = draw(documents())
    picks = draw(st.lists(st.integers(min_value=0, max_value=10_000), max_size=5))
    return doc, {p % len(doc) for p in picks}


@settings(max_examples=60, deadline=None)
@given(document_and_subset())
def test_inverse_axis_matches_definition(data):
    doc, Y = data
    for axis in _TREE_AXES:
        expected = {
            x for x in range(len(doc)) if not set(axis_nodes(doc, axis, x)).isdisjoint(Y)
        }
        assert inverse_axis_set(doc, axis, Y) == expected, axis


@settings(max_examples=60, deadline=None)
@given(document_and_subset())
def test_axis_set_is_union_of_singletons(data):
    doc, X = data
    for axis in _TREE_AXES:
        expected = set()
        for x in X:
            expected.update(axis_nodes(doc, axis, x))
        assert axis_set(doc, axis, X) == expected, axis


@settings(max_examples=60, deadline=None)
@given(documents())
def test_partition_of_dom(doc):
    """self ∪ ancestor ∪ descendant ∪ preceding ∪ following covers every
    non-attribute node exactly once (for non-attribute context nodes)."""
    tree_nodes = [n.pre for n in doc.nodes if not n.is_attribute]
    for x in tree_nodes:
        parts = {
            "self": {x},
            "ancestor": set(axis_nodes(doc, "ancestor", x)),
            "descendant": set(axis_nodes(doc, "descendant", x)),
            "preceding": set(axis_nodes(doc, "preceding", x)),
            "following": set(axis_nodes(doc, "following", x)),
        }
        union = set()
        total = 0
        for nodes in parts.values():
            union |= nodes
            total += len(nodes)
        assert union == set(tree_nodes)
        assert total == len(tree_nodes), f"overlap at {doc.path_of_pre(x)}"


@settings(max_examples=60, deadline=None)
@given(documents())
def test_converse_symmetry(doc):
    pairs = [
        ("child", "parent"),
        ("descendant", "ancestor"),
        ("following", "preceding"),
        ("following-sibling", "preceding-sibling"),
    ]
    # Attribute context nodes break perfect symmetry by design: the
    # following/preceding/sibling axes never *return* attribute nodes, so
    # the laws are stated over tree nodes (inverse_axis_set handles the
    # attribute corners, tested separately above).
    pres = [n.pre for n in doc.nodes if not n.is_attribute]
    for forward, backward in pairs:
        for x in pres:
            for y in axis_nodes(doc, forward, x):
                assert x in axis_nodes(doc, backward, y), (forward, x, y)


@settings(max_examples=40, deadline=None)
@given(documents())
def test_descendant_matches_interval(doc):
    for x in doc.nodes:
        via_axis = set(axis_nodes(doc, "descendant", x.pre))
        via_interval = {
            y.pre
            for y in doc.nodes
            if x.pre < y.pre < x.pre + x.size and not y.is_attribute
        }
        assert via_axis == via_interval


@settings(max_examples=40, deadline=None)
@given(documents())
def test_proximity_order_directions(doc):
    for x in range(len(doc)):
        following = axis_nodes(doc, "following", x)
        assert following == sorted(following)
        preceding = axis_nodes(doc, "preceding", x)
        assert preceding == sorted(preceding, reverse=True)
        ancestors = axis_nodes(doc, "ancestor", x)
        assert ancestors == sorted(ancestors, reverse=True)
