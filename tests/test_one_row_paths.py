"""One-row path relations as node sets, ``//t`` as one descendant step.

MINCONTEXT runs a path relation with a single origin — an absolute inner
path, or any inner path prepared for one context — as the set loop of
eval_outermost_locpath, and every step loop runs a bare
``descendant-or-self::node()`` followed by a position-free ``child::t``
as the one step ``descendant::t``. OPTMINCONTEXT's bottom-up pass never
lists all of ``dom``. This suite holds the forced table evaluators to
``topdown`` on seeded random queries and on hand cases built around
those three shortcuts, checks that a one-origin row equals the same row
of a two-origin relation, and pins the counters and kernel calls the
shortcuts save on ``book_catalog(10)``.
"""

import math
import random
from unittest import mock

import pytest

from repro import stats
from repro.core import mincontext
from repro.core.mincontext import MinContextEvaluator
from repro.engine import XPathEngine
from repro.workloads.documents import book_catalog, random_document
from repro.workloads.queries import random_full_query
from repro.xml.parser import parse_document
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance

TABLE_ALGORITHMS = ("mincontext", "optmincontext")

#: Nested ``t`` elements, so ``//t[2]`` (the second ``t`` child of each
#: parent) and ``/descendant::t[2]`` (the second ``t`` in the document)
#: differ; ``ref`` texts name ids for ``id()``.
DOCUMENT = (
    '<r id="r">'
    '<t id="a1"><p>1</p><u>5</u><ref>b2</ref></t>'
    '<t id="a2"><u>6</u><t id="a3"><p/><u>7</u><ref>a1</ref></t>'
    '<t id="a4"><u>8</u></t></t>'
    '<s id="s"><t id="b1"><p>0</p><u>9</u></t><t id="b2"><u>10</u><ref>a2 b1</ref></t>'
    '<t id="b3"><p>3</p><u>11</u></t></s>'
    "</r>"
)

HAND_QUERIES = (
    "count(//t)",
    "sum(//t[p]/u)",
    "id(//t[p]/ref)",
    "id(//t[p]/ref)/u",
    "string(//t[3]/u)",
    "//t[p]",
    "//t[2]",
    "//t[last()]",
    "//t[p][2]",
    "//t[position() != last()]/u",
    "/descendant::t[2]",
    "//t//u",
    "//s//t[2]/u",
    "//*[count(.//t) > 1]",
    "//*[.//t[p = 3]]/@id",
    "//t[count(.//t[2]) = 1]",
    "//t[sum(.//u) > 12]/@id",
    "//@id",
    "//@id//node()",
    "//t[@id//u]/@id",
    "//node()",
    "count(//node())",
    "//t[/r/s]/u",
    "//t[/r/s/t/p = 3]/u",
    "//t[not(/r/q)]/@id",
    "//t[id('b1')/p]/u",
    "//t[p = true()]/@id",
)


def _canonical(value):
    if isinstance(value, list):
        return [node.pre for node in value]
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def _assert_tables_agree(engine, query, context_node=None):
    compiled = engine.compile(query)
    oracle = _canonical(
        engine.evaluate(compiled, context_node=context_node, algorithm="topdown")
    )
    for algorithm in TABLE_ALGORITHMS:
        got = _canonical(
            engine.evaluate(compiled, context_node=context_node, algorithm=algorithm)
        )
        assert got == oracle, (algorithm, query, got, oracle)


def _abbreviated(query: str) -> str:
    """Every ``/child::`` of a random query spelled ``//``: the generator
    writes few ``//t`` steps of its own."""
    return query.replace("/child::", "//")


@pytest.mark.parametrize("query", HAND_QUERIES)
def test_hand_cases_equal_topdown(query):
    engine = XPathEngine(parse_document(DOCUMENT))
    _assert_tables_agree(engine, query)
    for context in engine.document.elements()[::3]:
        _assert_tables_agree(engine, query, context_node=context)


def test_random_queries_equal_topdown():
    rng = random.Random(3737)
    for _ in range(20):
        engine = XPathEngine(random_document(rng, max_nodes=24))
        for _ in range(50):
            query = random_full_query(rng)
            _assert_tables_agree(engine, query)
            _assert_tables_agree(engine, _abbreviated(query))


def _analyzed(query):
    expr = normalize(parse_xpath(query))
    compute_relevance(expr)
    return expr


@pytest.mark.parametrize(
    "query", ["t/u", ".//t/u", ".//t[p]", ".//t[2]/u", "t[last()]//u", "..//t[1]"]
)
def test_one_origin_row_equals_its_row_of_a_two_origin_relation(query):
    document = parse_document(DOCUMENT)
    elements = [node.pre for node in document.elements()]
    for x in elements:
        alone = MinContextEvaluator(document).eval_inner_locpath(_analyzed(query), [x])
        for y in elements:
            if y == x:
                continue
            pair = MinContextEvaluator(document).eval_inner_locpath(
                _analyzed(query), sorted((x, y))
            )
            assert alone[x] == pair[x], (query, x, y)


def _counters(query, algorithm):
    engine = XPathEngine(book_catalog(10))
    compiled = engine.compile(query)
    with stats.collect() as collected:
        engine.evaluate(compiled, algorithm=algorithm)
    return collected.snapshot()


def _axes_stepped(query, algorithm):
    """The axes of every set step and per-origin cut MINCONTEXT made."""
    engine = XPathEngine(book_catalog(10))
    compiled = engine.compile(query)
    axes = []

    def spy(function):
        def recorded(document, axis, *args):
            axes.append(axis)
            return function(document, axis, *args)

        return recorded

    with mock.patch.object(
        mincontext, "step_candidate_pres", spy(mincontext.step_candidate_pres)
    ), mock.patch.object(
        mincontext, "step_relation_pres", spy(mincontext.step_relation_pres)
    ):
        engine.evaluate(compiled, algorithm=algorithm)
    return axes


@pytest.mark.parametrize("algorithm", TABLE_ALGORITHMS)
def test_an_absolute_inner_path_composes_no_relation(algorithm):
    counted = _counters("count(//chapter)", algorithm)
    assert counted.get("mincontext_relation_cells", 0) == 0
    # The fused step evaluates the 30 chapters, not the |D| contexts of
    # descendant-or-self::node(); count() is one more.
    assert counted["mincontext_contexts_evaluated"] == 31


@pytest.mark.parametrize("algorithm", TABLE_ALGORITHMS)
def test_a_position_free_double_slash_runs_one_descendant_step(algorithm):
    axes = _axes_stepped("//book[price > 50]/title", algorithm)
    assert "descendant-or-self" not in axes
    assert axes.count("descendant") == 1


@pytest.mark.parametrize("algorithm", TABLE_ALGORITHMS)
def test_a_positional_child_step_keeps_its_descendant_or_self_step(algorithm):
    axes = _axes_stepped("//chapter[2]/heading", algorithm)
    assert axes.count("descendant-or-self") == 1
    assert "descendant" not in axes
