"""Property-based tests for the XPath front end as a whole:
unparse round-trips and the analyses are stable under re-parsing."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.engine import XPathEngine
from repro.service import compile_plan
from repro.workloads.documents import random_document
from repro.workloads.queries import random_core_query, random_query
from repro.xpath.fragments import core_xpath_violation
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance
from repro.xpath.unparse import unparse


def _equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_unparse_reparse_evaluates_identically(seed):
    """unparse(parse(q)) must evaluate exactly like q."""
    rng = random.Random(seed)
    query = random_query(rng)
    doc = random_document(rng, max_nodes=12)
    engine = XPathEngine(doc)
    round_tripped = unparse(parse_xpath(query))
    original = engine.evaluate(query, algorithm="mincontext")
    again = engine.evaluate(round_tripped, algorithm="mincontext")
    assert _equal(again, original), (query, round_tripped)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_analyses_are_reparse_stable(seed):
    """Fragment classification and relevance must agree between a query
    and its unparse (the analyses are functions of syntax alone)."""
    from repro.xpath.fragments import wadler_violation

    query = random_query(random.Random(seed))
    first = normalize(parse_xpath(query))
    compute_relevance(first)
    second = normalize(parse_xpath(unparse(parse_xpath(query))))
    compute_relevance(second)
    assert first.relev == second.relev
    assert (core_xpath_violation(first) is None) == (core_xpath_violation(second) is None)
    assert (wadler_violation(first) is None) == (wadler_violation(second) is None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_core_verdict_of_the_pass_is_the_definition_12_walk(seed, core):
    """The front end's pass applies Definition 12 node by node;
    :func:`core_xpath_violation` walks the rules as stated. On whole
    queries, Core and not, they give the same verdict, reason included."""
    rng = random.Random(seed)
    query = random_core_query(rng) if core else random_query(rng)
    plan = compile_plan(query)
    assert plan.core_violation == core_xpath_violation(plan.ast), query


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_table_api_matches_pointwise_evaluation(seed):
    """engine.table(q) == {n: evaluate(q, n)} for cn-only queries."""
    rng = random.Random(seed)
    doc = random_document(rng, max_nodes=10)
    engine = XPathEngine(doc)
    query = random_query(rng, max_steps=2, max_depth=1)
    compiled = engine.compile(query)
    if compiled.ast.relev and ({"cp", "cs"} & compiled.ast.relev):
        return  # table() rejects those by design
    table = engine.table(compiled)
    for node in doc.nodes:
        assert _equal(table[node], engine.evaluate(compiled, context_node=node)), (
            query,
            node.path(),
        )
