"""Tests for the explain (plan) module and the engine's table() API."""

import pytest

from repro.engine import XPathEngine
from repro.errors import ReproError
from repro.xml.parser import parse_document
from repro.xpath.explain import explain, explain_text
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance
from repro.workloads.queries import example9_query


def analyzed(query):
    expr = normalize(parse_xpath(query))
    compute_relevance(expr)
    return expr


@pytest.fixture()
def doc():
    return parse_document(
        '<r id="r"><a id="a1"><b id="b1">10</b></a><a id="a2"><b id="b2">20</b></a></r>'
    )


# --- explain -------------------------------------------------------------------

def test_explain_outermost_path():
    lines = explain(analyzed("/a/b"))
    assert lines[0].strategy == "outermost-set"


def test_explain_bottomup_subexpressions():
    lines = explain(analyzed("//a[b = 1]"))
    strategies = {line.source: line.strategy for line in lines}
    assert any(s == "bottom-up" for s in strategies.values())


def test_explain_cpcs_loop():
    lines = explain(analyzed("//a[position() = last()]"))
    loop_lines = [l for l in lines if l.strategy == "cp/cs-loop"]
    assert loop_lines, explain_text(analyzed("//a[position() = last()]"))


def test_explain_inner_relation_for_count_argument():
    lines = explain(analyzed("//a[count(b) > 0]"))
    assert any(l.strategy == "inner-relation" for l in lines)


def test_explain_constant():
    lines = explain(analyzed("//a[b = 1]"))
    assert any(l.strategy == "constant" for l in lines)


def test_explain_example9_marks_both_paths_bottomup():
    lines = explain(analyzed(example9_query()))
    bottomup = [l for l in lines if l.strategy == "bottom-up"]
    assert len(bottomup) == 2
    # Nested paths inside a bottom-up path are backward-propagated steps,
    # not dom × 2^dom relations.
    assert not any(l.strategy == "inner-relation" for l in lines)


def test_explain_text_is_indented_plan():
    text = explain_text(analyzed("//a[b]"))
    assert "outermost-set" in text
    assert "\n    " in text  # children indented


# --- engine.table() -----------------------------------------------------------------

def test_table_scalar_query(doc):
    engine = XPathEngine(doc)
    table = engine.table("count(b)")
    a1 = doc.element_by_id("a1")
    r = doc.element_by_id("r")
    assert table[a1] == 1.0
    assert table[r] == 0.0
    assert len(table) == len(doc.nodes)


def test_table_nset_query(doc):
    engine = XPathEngine(doc)
    table = engine.table("child::b")
    a2 = doc.element_by_id("a2")
    assert [n.xml_id for n in table[a2]] == ["b2"]
    assert table[doc.element_by_id("b1")] == []


def test_table_boolean_query_matches_pointwise(doc):
    engine = XPathEngine(doc)
    table = engine.table("boolean(b[. > 15])")
    for node in doc.nodes:
        expected = engine.evaluate("boolean(b[. > 15])", context_node=node)
        assert table[node] == expected, node.path()


def test_table_restricted_nodes(doc):
    engine = XPathEngine(doc)
    targets = [doc.element_by_id("a1"), doc.element_by_id("a2")]
    table = engine.table("count(b)", nodes=targets)
    assert set(table) == set(targets)


def test_table_rejects_position_dependent_queries(doc):
    engine = XPathEngine(doc)
    with pytest.raises(ReproError):
        engine.table("position() + 1")
    with pytest.raises(ReproError):
        engine.table("last()")


def test_table_matches_per_node_evaluation_on_paths(doc):
    engine = XPathEngine(doc)
    query = "following-sibling::*"
    table = engine.table(query)
    for node in doc.nodes:
        assert table[node] == engine.evaluate(query, context_node=node), node.path()
