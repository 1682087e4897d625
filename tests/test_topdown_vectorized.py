"""Unit tests for Definition 2's *vectorized* semantics: E↓ applied to a
list of contexts at once (the F⟨⟩ construction), which the engine facade
never exercises directly (it always passes singleton lists)."""

import pytest

from repro.core.topdown import TopDownEvaluator
from repro.xml.parser import parse_document
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance


@pytest.fixture(scope="module")
def doc():
    return parse_document('<r><a id="1">10</a><a id="2">20</a><a id="3">30</a></r>')


def analyzed(query):
    expr = normalize(parse_xpath(query))
    compute_relevance(expr)
    return expr


def contexts(doc):
    """``(pre, position, size)`` triples over the three a's."""
    elements = doc.elements()[1:]
    size = len(elements)
    return [(node.pre, position, size) for position, node in enumerate(elements, 1)]


def test_vectorized_position_and_last(doc):
    evaluator = TopDownEvaluator(doc)
    assert evaluator._eval(analyzed("position()"), contexts(doc)) == [1.0, 2.0, 3.0]
    assert evaluator._eval(analyzed("last()"), contexts(doc)) == [3.0, 3.0, 3.0]


def test_vectorized_operator_application(doc):
    evaluator = TopDownEvaluator(doc)
    values = evaluator._eval(analyzed("position() * 2 + last()"), contexts(doc))
    assert values == [5.0, 7.0, 9.0]


def test_vectorized_literals_broadcast(doc):
    evaluator = TopDownEvaluator(doc)
    assert evaluator._eval(analyzed("'x'"), contexts(doc)) == ["x", "x", "x"]


def test_vectorized_path_per_context(doc):
    evaluator = TopDownEvaluator(doc)
    results = evaluator._eval(analyzed("self::a"), contexts(doc))
    for context, reachable in zip(contexts(doc), results):
        assert reachable == {context[0]}


def test_vectorized_union_is_componentwise(doc):
    evaluator = TopDownEvaluator(doc)
    results = evaluator._eval(
        analyzed("self::a | following-sibling::a"), contexts(doc)
    )
    sizes = [len(r) for r in results]
    assert sizes == [3, 2, 1]


def test_vectorized_string_value_comparisons(doc):
    evaluator = TopDownEvaluator(doc)
    values = evaluator._eval(analyzed(". >= 20"), contexts(doc))
    assert values == [False, True, True]


def test_absolute_path_ignores_individual_contexts(doc):
    evaluator = TopDownEvaluator(doc)
    results = evaluator._eval(analyzed("/r/a"), contexts(doc))
    assert all(len(r) == 3 for r in results)
    assert results[0] == results[1] == results[2]


def test_shared_relation_across_equal_context_nodes(doc):
    """Two contexts with the same node share the step relation rows."""
    evaluator = TopDownEvaluator(doc)
    pre = doc.elements()[1].pre
    duplicated = [(pre, 1, 2), (pre, 2, 2)]
    results = evaluator._eval(analyzed("following-sibling::a"), duplicated)
    assert results[0] == results[1]
    assert len(results[0]) == 2
