"""White-box tests for the Core XPath evaluator and MINCONTEXT internals."""

import pytest

from repro.core.context import WILDCARD, Context
from repro.core.corexpath import CoreXPathEvaluator
from repro.core.mincontext import MinContextEvaluator
from repro.engine import XPathEngine
from repro.errors import EvaluationError, FragmentViolationError
from repro.xml.parser import parse_document
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance


def analyzed(query):
    expr = normalize(parse_xpath(query))
    compute_relevance(expr)
    return expr


@pytest.fixture()
def doc():
    return parse_document(
        '<r id="r"><a id="a1"><b id="b1"/><c id="c1"/></a>'
        '<a id="a2"><b id="b2"><c id="c2"/></b></a></r>'
    )


def ids(nodes):
    return sorted(n.xml_id for n in nodes)


# --- Core XPath evaluator ------------------------------------------------------

def test_core_forward_path(doc):
    evaluator = CoreXPathEvaluator(doc)
    got = evaluator.evaluate(analyzed("/r/a/b"), Context(doc.root))
    assert ids(got) == ["b1", "b2"]


def test_core_predicates_as_sets(doc):
    evaluator = CoreXPathEvaluator(doc)
    got = evaluator.evaluate(analyzed("//a[b[c]]"), Context(doc.root))
    assert ids(got) == ["a2"]
    got = evaluator.evaluate(analyzed("//a[not(b[c])]"), Context(doc.root))
    assert ids(got) == ["a1"]
    got = evaluator.evaluate(analyzed("//a[b and c]"), Context(doc.root))
    assert ids(got) == ["a1"]
    got = evaluator.evaluate(analyzed("//a[c or b[c]]"), Context(doc.root))
    assert ids(got) == ["a1", "a2"]


def test_core_absolute_path_predicate(doc):
    evaluator = CoreXPathEvaluator(doc)
    got = evaluator.evaluate(analyzed("//b[/r/a]"), Context(doc.root))
    assert ids(got) == ["b1", "b2"]
    got = evaluator.evaluate(analyzed("//b[/r/missing]"), Context(doc.root))
    assert got == []


def test_core_rejects_non_core(doc):
    evaluator = CoreXPathEvaluator(doc)
    with pytest.raises(FragmentViolationError):
        evaluator.evaluate(analyzed("//a[1]"), Context(doc.root))


def test_core_relative_from_context(doc):
    evaluator = CoreXPathEvaluator(doc)
    a2 = doc.element_by_id("a2")
    got = evaluator.evaluate(analyzed("b/c"), Context(a2))
    assert ids(got) == ["c2"]


def test_core_matches_general_algorithms_on_reverse_axes(doc):
    engine = XPathEngine(doc)
    for query in ("//c/ancestor::a", "//b[preceding-sibling::*]", "//*[following::c]"):
        assert engine.evaluate(query, algorithm="corexpath") == engine.evaluate(
            query, algorithm="mincontext"
        ), query


# --- MINCONTEXT internals ------------------------------------------------------

def test_tables_project_to_relevant_context(doc):
    ast = analyzed("//a[b = 'x' or position() = 1]")
    mc = MinContextEvaluator(doc)
    mc.evaluate(ast, Context(doc.root))
    predicate = ast.steps[1].predicates[0]
    left = predicate.left  # b = 'x' — cn only
    assert left.uid in mc.tables
    for key in mc.boxed_table(left):
        assert len(key) == 1  # projected to (cn,)
    # The or-node depends on cp: no table.
    assert predicate.uid not in mc.tables


def test_wildcard_context_for_context_free_subexpressions(doc):
    ast = analyzed("count(//b) + 1")
    mc = MinContextEvaluator(doc)
    value = mc.evaluate(ast, Context(doc.root))
    assert value == 3.0
    # count(//b) is keyed by cn per the paper's Path rule; the literal by ().
    literal = ast.right
    assert mc.boxed_table(literal) == {(): 1.0}


def test_eval_single_context_requires_prepared_tables(doc):
    ast = analyzed("//a[b = 'x']")
    mc = MinContextEvaluator(doc)
    predicate = ast.steps[1].predicates[0]
    with pytest.raises(EvaluationError):
        mc.eval_single_context(predicate, (doc.root.pre, WILDCARD, WILDCARD))


def test_eval_single_context_wildcard_position_guard(doc):
    ast = analyzed("position()")
    mc = MinContextEvaluator(doc)
    with pytest.raises(EvaluationError):
        mc.eval_single_context(ast, (doc.root.pre, WILDCARD, WILDCARD))


def test_union_inner_table(doc):
    ast = analyzed("count(b | c)")
    mc = MinContextEvaluator(doc)
    a1 = doc.element_by_id("a1")
    value = mc.evaluate(ast, Context(a1))
    assert value == 2.0


def test_filter_primary_with_position_dependence(doc):
    """A path rooted at a cp-dependent primary (extension corner)."""
    engine = XPathEngine(doc)
    # id(string(position())) depends on cp — evaluated per single context.
    doc2 = parse_document('<r><k id="1"><m id="x"/></k><k id="2"/></r>')
    engine2 = XPathEngine(doc2)
    got = engine2.evaluate(
        "id(string(position()))/m", context_node=doc2.root, context_position=1,
        context_size=2, algorithm="mincontext",
    )
    assert [n.xml_id for n in got] == ["x"]
    got = engine2.evaluate(
        "id(string(position()))/m", context_node=doc2.root, context_position=2,
        context_size=2, algorithm="mincontext",
    )
    assert got == []


def test_mincontext_never_tables_position_dependent_nodes(doc):
    ast = analyzed("//a/b[position() = last()]")
    mc = MinContextEvaluator(doc)
    mc.evaluate(ast, Context(doc.root))
    predicate = ast.steps[2].predicates[0]
    assert predicate.uid not in mc.tables
    assert predicate.left.uid not in mc.tables
    assert predicate.right.uid not in mc.tables


def test_outermost_vs_inner_path_results_match(doc):
    """eval_outermost_locpath (sets) and eval_inner_locpath (relations)
    must agree on the reachable nodes."""
    ast = analyzed("//a/b")
    mc = MinContextEvaluator(doc)
    root = doc.root.pre
    outer = mc.eval_outermost_locpath(ast, [root], (root, 1, 1))
    mc2 = MinContextEvaluator(doc)
    inner = mc2.eval_inner_locpath(ast, [root])
    assert outer == inner[root]
    assert ids(doc.nodes[pre] for pre in outer) == ["b1", "b2"]
