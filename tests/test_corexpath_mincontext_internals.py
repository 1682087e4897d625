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


# The compiled form of eval_single_context keeps the interpreter's
# diagnoses, word for word (texts as of the commit before it replaced it).


@pytest.mark.parametrize(
    "query,message",
    [
        ("position()", "position() evaluated under a wildcard position"),
        ("last()", "last() evaluated under a wildcard size"),
        ("position() + 1 > last() * 2", "position() evaluated under a wildcard position"),
        ("1 = last() or 2 = 3", "last() evaluated under a wildcard size"),
    ],
)
def test_compiled_context_accessors_refuse_wildcards(doc, query, message):
    ast = analyzed(query)
    mc = MinContextEvaluator(doc)
    mc.eval_by_cnode_only(ast, [doc.root.pre])
    with pytest.raises(EvaluationError) as caught:
        mc.eval_single_context(ast, (doc.root.pre, WILDCARD, WILDCARD))
    assert str(caught.value) == message
    # Same closure, second call: a concrete context evaluates.
    mc.eval_single_context(ast, (doc.root.pre, 1, 2))


def test_compiled_table_reads_diagnose_like_lookup(doc):
    ast = analyzed("//a[b = 'x' and position() = 1]")
    predicate = ast.steps[1].predicates[0]
    comparison = predicate.left  # b = 'x' — table-backed, keyed by cn
    a1, a2 = doc.element_by_id("a1").pre, doc.element_by_id("a2").pre
    mc = MinContextEvaluator(doc)
    never = (
        f"table for parse-tree node N{comparison.uid} was never prepared "
        "(eval_by_cnode_only must run before eval_single_context)"
    )
    for node in (comparison, predicate):  # read directly, and as an operand
        with pytest.raises(EvaluationError) as caught:
            mc.eval_single_context(node, (a1, 1, 1))
        assert str(caught.value) == never
    # Prepared for a1 alone: the closures built above see the new table,
    # and a2 has no row in it.
    mc.eval_by_cnode_only(predicate, [a1])
    assert mc.eval_single_context(predicate, (a1, 1, 1)) is False
    missing = (
        f"table for parse-tree node N{comparison.uid} has no row for context node "
        f"pre={a2!r} — prepared with a different candidate set"
    )
    for node in (comparison, predicate):
        with pytest.raises(EvaluationError) as caught:
            mc.eval_single_context(node, (a2, 1, 1))
        assert str(caught.value) == missing


def test_compiled_connectives_evaluate_both_operands(doc):
    """``and`` / ``or`` do not short-circuit: a false left operand still
    reaches the right one (here: its wildcard guard), as the
    interpreter's value list did."""
    ast = analyzed("1 = 2 and position() = 1")
    mc = MinContextEvaluator(doc)
    mc.eval_by_cnode_only(ast, [doc.root.pre])
    with pytest.raises(EvaluationError, match="wildcard position"):
        mc.eval_single_context(ast, (doc.root.pre, WILDCARD, WILDCARD))
    assert mc.eval_single_context(ast, (doc.root.pre, 1, 1)) is False


def test_compiled_number_operators_keep_ieee_and_xpath_semantics(doc):
    """Operators on two static ``num`` operands run as the float operator
    itself; the values are the interpreter's (``topdown`` is the oracle)."""
    engine = XPathEngine(doc)
    nan = "number('x')"
    for query in (
        f"{nan} != {nan}",
        f"{nan} = {nan}",
        f"{nan} < 1",
        f"1 >= {nan}",
        f"position() * {nan} != last()",
        "position() div 0 > last()",
        "-1 div 0 < position()",
        "0 div 0 = 0 div 0",
        "5 mod -2 = position()",
        "-5 mod 2 = -last()",
        "position() mod 0 != position() mod 0",
        "(position() - last()) * 3 + 1 = 1",
    ):
        want = engine.evaluate(query, algorithm="topdown")
        for algorithm in ("mincontext", "optmincontext"):
            assert engine.evaluate(query, algorithm=algorithm) is want, (query, algorithm)


def test_an_evaluator_dies_with_its_last_reference(doc):
    """The compiled closures hold the evaluator; ``evaluate`` drops them
    when it is done, so the evaluator and its tables are freed by
    reference count and never wait for the cycle collector."""
    import gc
    import weakref

    from repro.core.optmincontext import OptMinContextEvaluator

    ast = analyzed("//a[b and position() = last()]/b[c]")
    context = Context(doc.root, 1, 1)
    gc.collect()
    gc.disable()
    try:
        for cls in (MinContextEvaluator, OptMinContextEvaluator):
            evaluator = cls(doc)
            assert ids(evaluator.evaluate(ast, context)) == ["b2"]
            inner = getattr(evaluator, "mincontext", evaluator)
            assert inner.tables  # something to free
            gone = weakref.ref(inner)
            del evaluator, inner
            assert gone() is None
    finally:
        gc.enable()


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
