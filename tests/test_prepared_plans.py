"""Prepared plans: the planner's template memo (``QueryPlanner.templates``).

A :class:`~repro.service.planner.QueryPlanner` keys each compiled plan
that has a literal by its template too: its tokens with every number and
value string a typed slot, plus its scalar bindings. A later query of the
same template is its stored plan's tree cloned with this query's
literals in the slots (:func:`repro.xpath.ast.clone`). Nothing may show
it: the bound plan is field for field what a cold
:func:`~repro.service.planner.compile_plan` builds, every evaluator
answers the same with it, and no node above a slot is the template's.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats
from repro.errors import ReproError
from repro.service import QueryService
from repro.service.cache import Memo
from repro.service.planner import ALGORITHMS, QueryPlanner, compile_plan
from repro.workloads import (
    book_catalog,
    core_family,
    numbered_line,
    position_heavy_query,
    wadler_family,
)
from repro.xml.parser import parse_document
from repro.xpath.ast import NumberLiteral, Path, StringLiteral
from repro.xpath.lexer import TokenType, scan
from repro.xpath.unparse import unparse

#: The thirteen templates of the end-to-end ``serve-cold`` workload, with
#: the range its literal is drawn from (copied, not imported: the
#: benchmark may change its mix without changing what is tested here).
SERVE_COLD_TEMPLATES = (
    ("//book[price > {x}]/title", 30, 70),
    ("//book[@year >= {x} and price < 60]/chapter[@num = 2]/heading", 1995, 2012),
    ("//chapter[pages > {x}][position() = 2]/heading", 15, 40),
    ("//book[position() > last() - {x}]/chapter[last()]/pages", 5, 40),
    ("/catalog/book[price <= {x} or @lang = 'de']/authors/author[1]", 20, 60),
    ("//chapter[pages < {x} and position() != last()]/pages", 20, 45),
    ("//book[position() mod 7 = 3 and price > {x}]/title", 10, 50),
    ("//book[count(chapter[pages > {x}]) >= 2]/title", 15, 40),
    ("id(//book[price > {x}]/ref)/title", 60, 95),
    ("count(//book[authors/author = 'Author 3' and price > {x}])", 10, 60),
    ("//book[count(preceding-sibling::book[@lang = 'de']) < {x}]/title", 3, 25),
    ("sum(//book[price > {x}]/price) div count(//book)", 20, 80),
    ("//book[position() > count(chapter[pages > {x}]) * 9]/@id", 15, 40),
)

#: Templates over ``n`` (a number) and ``s`` (a string), for drawn
#: literals: unary minus, a keyed path around a slot beside a shared one,
#: a union lifted out of a comparison (both copies bind one slot), string
#: functions and a main path whose step keys render the literals.
DRAWN_TEMPLATES = (
    "//n[. > -{n}]",
    "/line/n[position() = {n} or . = {s}]",
    "//book[chapter[pages > {n}]][authors]/title",
    "//book[(title | price) = {s}]/@id",
    "//book[contains(title, {s}) or price * {n} > 100]",
    "concat({s}, string(-{n}), {s})",
    "/catalog/book[@lang = {s}][{n}]/chapter[pages >= {n}]",
)


def _slots(query: str) -> list:
    """The literal tokens of ``query`` a template keys as slots, as
    ``(start, end)`` source spans."""
    tokens = scan(query)
    spans = []
    for index, (kind, value, offset) in enumerate(tokens):
        if kind is TokenType.NUMBER:
            spans.append((offset, offset + len(value)))
        elif kind is TokenType.LITERAL and tokens[index - 2][1] != "processing-instruction":
            spans.append((offset, offset + len(value) + 2))
    return spans


def rebind(query: str, literals: list) -> str:
    """``query`` with its slot literals replaced, in order, by ``literals``
    (source texts, quotes included for strings)."""
    out, last = [], 0
    for (start, end), literal in zip(_slots(query), literals, strict=True):
        out += [query[last:start], literal]
        last = end
    return "".join(out) + query[last:]


def quoted(text: str) -> str:
    return f'"{text}"' if "'" in text else f"'{text}'"


def fields(plan) -> tuple:
    """Every field of a plan, the tree as its text, each node's type and
    ``Relev`` and each path's ``key`` in walk order."""
    nodes = list(plan.ast.walk())
    return (
        plan.source,
        unparse(plan.ast),
        [(type(node).__name__, node.value_type, node.relev) for node in nodes],
        [node.key for node in nodes if type(node) is Path],
        plan.result_type,
        plan.core_violation,
        plan.wadler_violation,
        plan.bottomup_path_count,
        plan.variables,
        plan.traits,
        plan.step_summaries,
        plan.cache_key,
    )


def assert_fresh(bound, template) -> None:
    """No node sits at two positions of the bound tree, and none on the
    way from its root to a slot is the template's."""
    nodes = list(bound.ast.walk())
    assert len({id(node) for node in nodes}) == len(nodes)
    assert len({node.uid for node in nodes}) == len(nodes)
    theirs = {id(node) for node in template.ast.walk()}

    def visit(node, above: list) -> None:
        if isinstance(node, (NumberLiteral, StringLiteral)) and node.slot is not None:
            assert not theirs & {id(each) for each in (*above, node)}
        for child in node.children():
            visit(child, [*above, node])

    visit(bound.ast, [])


def bound_and_cold(first: str, second: str, variables=None):
    """``second`` compiled by a planner that compiled ``first`` (a template
    hit, asserted), and by a cold :func:`compile_plan`."""
    planner = QueryPlanner()
    template = planner.compile(first, variables)
    with stats.collect() as collected:
        bound = planner.compile(second, variables)
    assert planner.templates.stats.snapshot()["hits"] == 1
    assert collected.get("plans_compiled") == 0
    assert_fresh(bound, template)
    return bound, compile_plan(second, variables)


def _variants():
    for template, low, high in SERVE_COLD_TEMPLATES:
        yield template.format(x=low), template.format(x=high)
    for levels in (1, 2, 3):
        query = wadler_family(levels)
        yield query, rebind(query, ["0.75", "7", "1", "3"][: len(_slots(query))])
        query = f"{position_heavy_query(levels)}[position() > 0.5]"
        yield query, rebind(query, [".25", "5."][-len(_slots(query)):])


VARIANTS = list(_variants())


@pytest.mark.parametrize("first, second", VARIANTS, ids=[second for _, second in VARIANTS])
def test_a_bound_plan_is_the_cold_compile(first, second):
    bound, cold = bound_and_cold(first, second)
    assert fields(bound) == fields(cold)


_NUMBERS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 999)).map("{0[0]}.{0[1]}".format),
    st.integers(0, 99).map(".{}".format),
    st.integers(0, 99).map("{}.".format),
)
_STRINGS = st.text(max_size=6).filter(lambda text: not ("'" in text and '"' in text))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DRAWN_TEMPLATES),
    st.lists(st.tuples(_NUMBERS, _STRINGS), min_size=2, max_size=2),
)
def test_drawn_literals_bind_to_the_cold_compile(template, draws):
    first, second = (
        template.format(n=number, s=quoted(text)) for number, text in draws
    )
    if first == second:
        return
    bound, cold = bound_and_cold(first, second)
    assert fields(bound) == fields(cold)


@pytest.mark.parametrize(
    "document, first, second",
    [
        ("catalog", "//book[price > 30]/title", "//book[price > 20]/title"),
        ("catalog", "//book[authors/author = 'Author 4']/@id", "//book[authors/author = 'Author 2']/@id"),
        ("catalog", "count(//book[price > 30])", "count(//book[price > 20])"),
        ("line", "//n[. > -3 and position() mod 2 = 0]", "//n[. > -13 and position() mod 3 = 0]"),
        ("line", wadler_family(2), rebind(wadler_family(2), ["0.5", "5", "1"])),
        ("line", "//n[position() = 2.5 or . = '7']", "//n[position() = 3 or . = '5']"),
    ],
)
def test_a_bound_plan_answers_as_its_cold_compile_under_every_evaluator(document, first, second):
    """Small documents: ``bottomup`` is cubic in them."""
    document = book_catalog(2, 1) if document == "catalog" else numbered_line(8)
    service = QueryService()
    service.plan(first)
    bound = service.plan(second)
    assert service.cache_stats()["template_memo"]["hits"] == 1
    algorithms = [name for name in ALGORITHMS if name != "auto"]
    if not bound.is_core_xpath:
        algorithms.remove("corexpath")
    cold = service.evaluate(compile_plan(second), document, algorithm="topdown", cached=False)
    for name in algorithms:
        assert service.evaluate(bound, document, algorithm=name, cached=False) == cold, name
    assert cold != service.evaluate(first, document, algorithm="topdown", cached=False)


def test_what_differs_in_more_than_a_literal_is_never_one_template():
    document = parse_document(
        "<r><?a one?><?b two?><n>1</n><n>2</n><n>3</n><n>4</n><n>5</n></r>"
    )
    service = QueryService()
    assert service.evaluate("//processing-instruction('a')", document) != service.evaluate(
        "//processing-instruction('b')", document
    )
    # A position test and a string test are two templates.
    assert [node.pre for node in service.evaluate("//n[1]", document)] != [
        node.pre for node in service.evaluate("//n['1']", document)
    ]
    # The same text under two scalar bindings is two templates.
    query = "//n[. > $v + 1]"
    low = service.evaluate(service.plan(query, {"v": 1.0}), document)
    high = service.evaluate(service.plan(query, {"v": 3.0}), document)
    assert (len(low), len(high)) == (3, 1)
    memo = service.cache_stats()["template_memo"]
    assert (memo["hits"], memo["misses"]) == (0, 4)  # a target is no slot


def test_two_bindings_of_one_template_keep_two_result_memo_entries(catalog_doc):
    service = QueryService()
    low = service.evaluate("//book[price > 30]", catalog_doc)
    high = service.evaluate("//book[price > 40]", catalog_doc)
    assert len(low) > len(high)
    session = service.session(catalog_doc)
    assert len(session.results) == 2
    assert service.evaluate("//book[price > 30]", catalog_doc) == low
    assert service.evaluate("//book[price > 40]", catalog_doc) == high
    results = service.result_cache_stats()
    assert (results["hits"], results["misses"]) == (2, 2)
    assert service.cache_stats()["template_memo"]["hits"] == 1


def test_a_literal_free_batch_never_consults_the_template_memo(catalog_doc):
    queries = [core_family(depth, flag) for depth in (2, 3, 4) for flag in (True, False)]
    queries += ["//book/title", "//book[chapter]/authors/author", "/catalog/book[ref]/@id"]
    service = QueryService()
    with mock.patch.object(service.planner.templates, "get", side_effect=AssertionError):
        for _ in range(2):
            service.evaluate_many(queries, [catalog_doc, book_catalog(3)])
    memo = service.cache_stats()["template_memo"]
    assert (memo["hits"], memo["misses"], len(service.planner.templates)) == (0, 0, 0)


@pytest.mark.parametrize(
    "query",
    [
        "//n[1] | 2",
        "//n[. = 'x'",
        "//n[. = 'x]",
        "//n[$missing = 1]",
        "//n[position() = 1][count(1)]",
    ],
)
def test_a_compile_that_raises_stores_nothing(query):
    planner = QueryPlanner()
    for _ in range(2):
        with stats.collect() as collected, pytest.raises(ReproError):
            planner.compile(query)
        assert collected.get("plans_compiled") == 1
    assert len(planner.templates) == 0
    assert planner.templates.stats.snapshot()["hits"] == 0


def test_what_the_template_memo_leaves_alone():
    planner = QueryPlanner()
    nodes = list(book_catalog(2).nodes[:3])
    planner.compile("//n[$s = 1]", {"s": nodes})
    assert len(planner.templates) == 0  # a node-set binding is keyed by id()
    long = "//n[" + " + ".join(["1"] * 130) + " > 2]"
    assert 2 * len(long) > 500
    planner.compile(long)
    assert len(planner.templates) == 0  # past MAX_HEIGHT's cut-off: cold
    planner.compile("//n[1]")
    plan = planner.compile("//n[2]")
    assert len(planner.templates) == 1
    assert plan.cache_key == ("//n[2]", ())
    assert re.fullmatch(r".*\[position\(\) = 2\]", unparse(plan.ast))


def test_eight_threads_bind_the_plans_of_one_thread():
    """Literal variants of a few templates from eight threads through one
    planner whose small template memo evicts while they run: every plan
    is the cold one, and every lookup is one hit or one miss."""
    queries = [
        template.format(x=value)
        for template, low, high in SERVE_COLD_TEMPLATES[:6]
        for value in (low, (low + high) // 2, high)
    ]
    expected = {query: fields(compile_plan(query)) for query in queries}
    planner = QueryPlanner()
    planner.templates = Memo(capacity=3, name="template_memo")
    seen: list = []
    barrier = threading.Barrier(8)

    def work(seed: int) -> None:
        order = queries * 3
        random.Random(seed).shuffle(order)
        barrier.wait()
        for query in order:
            seen.append((query, fields(planner.compile(query))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 3 * len(queries)
    assert all(got == expected[query] for query, got in seen)
    memo = planner.templates.stats.snapshot()
    assert memo["hits"] + memo["misses"] == len(seen)
    assert memo["hits"] > 0 and memo["evictions"] > 0
