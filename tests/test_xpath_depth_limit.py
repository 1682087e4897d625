"""The parser's nesting-depth limit (:data:`repro.xpath.parser.MAX_DEPTH`).

A query nested exactly ``MAX_DEPTH`` levels deep — parentheses,
predicates, function calls — compiles and evaluates under every
algorithm; one level more is an :class:`XPathSyntaxError` at the
construct that opens it. Operator chains, unions and unary minus runs
are not nesting: as long as the seed front end compiled them, they still
compile, and a chain too tall for the passes after the parser is an
:class:`XPathSyntaxError` from ``compile_plan``, never a
``RecursionError``. Nothing the workload generators produce comes near
either.

Every evaluator except ``bottomup`` runs at the limit on
``book_catalog(3)``. ``bottomup`` fills a context-value table per
parse-tree node over all ``(cn, cp, cs)`` of the document, so at the
limit it takes minutes a shape on that document; what the limit is
about — the recursion through the tree — does not depend on the
document, so here it runs on a three-node one, except for parentheses
(which add no node to the tree).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import XPathEngine
from repro.errors import XPathSyntaxError
from repro.service.planner import compile_plan
from repro.workloads.documents import book_catalog
from repro.workloads.queries import random_core_query, random_full_query, random_query
from repro.xml.parser import parse_document
from repro.xpath.parser import MAX_DEPTH, parse_xpath

ALGORITHMS = ("naive", "topdown", "bottomup", "mincontext", "optmincontext", "corexpath")

#: ``shape(n)`` is a query exactly ``n`` levels deep and the offset of
#: the ``(`` / ``[`` / function name that opens level ``n`` — where
#: ``shape(MAX_DEPTH + 1)`` is refused. A predicate is a level, so the
#: ``not`` shape spends one on its ``[``.
SHAPES = {
    "parentheses": lambda n: ("(" * n + "//book" + ")" * n, n - 1),
    "not": lambda n: (
        "//book[" + "not(" * (n - 1) + "title" + ")" * (n - 1) + "]",
        7 + 4 * (n - 2),
    ),
    "predicates": lambda n: ("//book" + "[title" * n + "]" * n, 6 + 6 * (n - 1)),
    "calls": lambda n: ("string(" * n + "//title" + ")" * n, 7 * (n - 1)),
}
#: ``chain(n)``: ``n`` operators in a row, no nesting.
CHAINS = {
    "or": lambda n: "//book[" + " or ".join(["title"] * (n + 1)) + "]",
    "union": lambda n: " | ".join(["//title"] * (n + 1)),
    "plus": lambda n: "+".join(["1"] * (n + 1)),
    "minus": lambda n: "//book[" + "-" * n + "1 < 5]",
}


@pytest.fixture(scope="module")
def catalog():
    return book_catalog(3)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_limit_compiles_and_evaluates_under_every_algorithm(shape, catalog):
    query, _ = SHAPES[shape](MAX_DEPTH)
    _evaluates_alike(query, catalog, bottomup_on_catalog=shape == "parentheses")


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chains_past_the_limit_compile_and_evaluate_under_every_algorithm(chain, catalog):
    """The limit is on nesting: a chain twice as long compiles, as it
    did before the limit existed."""
    _evaluates_alike(CHAINS[chain](2 * MAX_DEPTH), catalog, bottomup_on_catalog=False)


def _evaluates_alike(query, catalog, bottomup_on_catalog):
    plan = compile_plan(query)
    tiny = parse_document("<book><title/></book>")
    answers = set()
    for algorithm in ALGORITHMS:
        if algorithm == "corexpath" and not plan.is_core_xpath:
            continue
        document = catalog if algorithm != "bottomup" or bottomup_on_catalog else tiny
        value = XPathEngine(document).evaluate(plan, algorithm=algorithm)
        if document is catalog:
            answers.add(repr([node.pre for node in value] if isinstance(value, list) else value))
    assert len(answers) == 1


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_more_is_refused_at_the_offending_construct(shape):
    query, offset = SHAPES[shape](MAX_DEPTH + 1)
    with pytest.raises(XPathSyntaxError) as excinfo:
        parse_xpath(query)
    assert excinfo.value.offset == offset
    assert str(excinfo.value) == (
        f"query nested deeper than {MAX_DEPTH} levels (at offset {offset})"
    )


def test_far_too_deep_is_refused_without_recursing():
    """Ten thousand levels: refused at the first one past the limit, on
    the way down, so the parser's own recursion never gets there."""
    with pytest.raises(XPathSyntaxError) as excinfo:
        parse_xpath("(" * 10_000 + "1" + ")" * 10_000)
    assert excinfo.value.offset == MAX_DEPTH


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_a_chain_too_tall_to_compile_is_a_syntax_error(chain):
    with pytest.raises(XPathSyntaxError, match="^query nested too deeply to compile$"):
        compile_plan(CHAINS[chain](10_000))


def test_no_generated_query_comes_near_the_limit():
    for seed in range(1500):
        for make in (random_query, random_core_query, random_full_query):
            compile_plan(make(random.Random(seed), max_steps=5, max_depth=3))
