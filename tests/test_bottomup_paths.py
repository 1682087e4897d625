"""Tests for bottom-up path evaluation (Section 4 / Section 6 pseudo-code),
including regressions for the two documented soundness fixes."""

import pytest

from repro.core.bottomup_paths import eval_bottomup_path, propagate_path_backwards
from repro.core.common import box_value
from repro.core.context import Context
from repro.core.mincontext import MinContextEvaluator
from repro.engine import XPathEngine
from repro.xml.parser import parse_document
from repro.xpath.fragments import find_bottomup_paths
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance


def analyzed(query):
    expr = normalize(parse_xpath(query))
    compute_relevance(expr)
    return expr


def propagate(doc, path_query, targets):
    """Backward propagation with boxed nodes in and out (the evaluator
    itself works on sorted pre lists)."""
    path = analyzed(path_query)
    mc = MinContextEvaluator(doc)
    result = propagate_path_backwards(mc, path, sorted(node.pre for node in targets))
    return set(box_value(doc, result, "nset"))


def ids(nodes):
    return sorted(n.xml_id for n in nodes if n.xml_id)


# --- plain propagation ---------------------------------------------------------

@pytest.fixture()
def doc():
    return parse_document(
        '<r id="r"><a id="a1"><b id="b1">v</b><b id="b2">w</b></a>'
        '<a id="a2"><b id="b3">v</b></a><c id="c1"/></r>'
    )


def test_backward_child_step(doc):
    targets = {doc.element_by_id("b1"), doc.element_by_id("b3")}
    got = propagate(doc, "child::b", targets)
    assert ids(got) == ["a1", "a2"]


def test_backward_two_steps(doc):
    targets = set(doc.nodes)
    got = propagate(doc, "child::a/child::b", targets)
    assert ids(got) == ["r"]


def test_backward_with_node_test_filter(doc):
    # Only c-children: b targets never match the test.
    got = propagate(doc, "child::c", {doc.element_by_id("b1"), doc.element_by_id("c1")})
    assert ids(got) == ["r"]


def test_backward_empty_short_circuits(doc):
    assert propagate(doc, "child::b/child::b", set()) == set()


def test_absolute_path_requires_root_membership(doc):
    """Soundness fix #2: the printed pseudo-code returns dom whenever the
    propagated set is nonempty; the root must actually be in it."""
    # /child::b never succeeds (root's only element child is r).
    got = propagate(doc, "/child::b", set(doc.nodes))
    assert got == set()
    # /child::r/child::a does.
    got = propagate(doc, "/child::r/child::a", set(doc.nodes))
    assert got == set(doc.nodes)


def test_absolute_bare_root(doc):
    got = propagate(doc, "/", {doc.root})
    assert got == set(doc.nodes)
    got = propagate(doc, "/", {doc.element_by_id("a1")})
    assert got == set()


# --- the position-ranking soundness fix -------------------------------------------

def test_positions_ranked_over_all_candidates_not_propagated_subset():
    """Soundness fix #1. For //a[child::b[1] = 'v'] the *first* b child
    must equal 'v'; ranking within the propagated subset (nodes whose
    string value is 'v') would wrongly accept a2 (whose first b is 'w'
    but second is 'v')."""
    doc = parse_document(
        '<r id="r">'
        '<a id="a1"><b id="b1">v</b><b id="b2">w</b></a>'
        '<a id="a2"><b id="b3">w</b><b id="b4">v</b></a>'
        "</r>"
    )
    engine = XPathEngine(doc)
    for algorithm in ("naive", "topdown", "mincontext", "optmincontext"):
        got = engine.evaluate("//a[child::b[1] = 'v']", algorithm=algorithm)
        assert [n.xml_id for n in got] == ["a1"], algorithm


def test_position_predicates_in_bottomup_path_agree_with_forward():
    doc = parse_document(
        "<r>"
        '<s id="s1"><t id="t1">5</t><t id="t2">9</t><t id="t3">5</t></s>'
        '<s id="s2"><t id="t4">9</t></s>'
        "</r>"
    )
    engine = XPathEngine(doc)
    query = "//s[t[position() != last()] = 9]"
    expected = engine.evaluate(query, algorithm="topdown")
    got = engine.evaluate(query, algorithm="optmincontext")
    assert got == expected
    assert [n.xml_id for n in got] == ["s1"]


# --- eval_bottomup_path table construction -------------------------------------------

def test_boolean_path_table(doc):
    ast = analyzed("//r[boolean(child::a)]")
    mc = MinContextEvaluator(doc)
    (node,) = find_bottomup_paths(ast)
    eval_bottomup_path(mc, node)
    assert node.uid in mc.precomputed
    rows = mc.boxed_table(node)
    true_ids = {k[0].xml_id for k, v in rows.items() if v and k[0].is_element}
    assert true_ids == {"r"}
    # Idempotent: re-running does not recompute (precomputed check).
    eval_bottomup_path(mc, node)


def test_comparison_with_flipped_sides(doc):
    engine = XPathEngine(doc)
    left = engine.evaluate("//a['v' = child::b]")
    right = engine.evaluate("//a[child::b = 'v']")
    assert left == right
    assert ids(left) == ["a1", "a2"]


def test_relational_comparison_table():
    doc = parse_document('<r><n id="1">5</n><n id="2">15</n><n id="3">25</n></r>')
    engine = XPathEngine(doc)
    got = engine.evaluate("//r[n > 20]", algorithm="optmincontext")
    assert len(got) == 1
    got = engine.evaluate("//r[n > 30]", algorithm="optmincontext")
    assert got == []


def test_boolean_scalar_comparison():
    # π RelOp s with s of type bool: treated like boolean(π) RelOp s.
    doc = parse_document('<r><a id="1"><b/></a><a id="2"/></r>')
    engine = XPathEngine(doc)
    got = engine.evaluate("//a[b = true()]", algorithm="optmincontext")
    assert [n.xml_id for n in got] == ["1"]
    expected = engine.evaluate("//a[b = true()]", algorithm="topdown")
    assert got == expected
    got = engine.evaluate("//a[b != true()]", algorithm="optmincontext")
    assert [n.xml_id for n in got] == ["2"]


def test_nset_scalar_with_nset_constant():
    # π RelOp s where s is a context-free *node-set* (id over a literal):
    # the Section 6 pseudo-code's "s is of type nset" branch.
    doc = parse_document(
        '<r><k id="k1">10</k><a id="a1"><b>10</b></a><a id="a2"><b>2</b></a></r>'
    )
    engine = XPathEngine(doc)
    query = "//a[b = id('k1')]"
    expected = engine.evaluate(query, algorithm="topdown")
    got = engine.evaluate(query, algorithm="optmincontext")
    assert got == expected
    assert [n.xml_id for n in got] == ["a1"]


def test_id_axis_in_backward_propagation():
    doc = parse_document(
        '<r id="r"><p id="p1">q1</p><p id="p2">nothing</p><q id="q1">100</q></r>'
    )
    engine = XPathEngine(doc)
    # p1 id-references q1 whose value is 100.
    query = "//p[boolean(id(.)[. = 100])]"
    expected = engine.evaluate(query, algorithm="topdown")
    got = engine.evaluate(query, algorithm="optmincontext")
    assert got == expected
    assert [n.xml_id for n in got] == ["p1"]


def test_nested_bottomup_paths_share_tables():
    doc = parse_document(
        '<r><a id="a1"><b id="b1"><c>1</c></b></a><a id="a2"><b id="b2"/></a></r>'
    )
    ast = analyzed("//a[b[c = 1]]")
    mc = MinContextEvaluator(doc)
    found = find_bottomup_paths(ast)
    assert len(found) == 2
    for node in found:
        eval_bottomup_path(mc, node)
    engine = XPathEngine(doc)
    got = engine.evaluate("//a[b[c = 1]]", algorithm="optmincontext")
    assert [n.xml_id for n in got] == ["a1"]
