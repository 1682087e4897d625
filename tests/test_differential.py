"""Differential testing: five independent evaluators, one answer.

The strongest correctness oracle available for this reproduction: the
naive, E↑, E↓, MINCONTEXT, and OPTMINCONTEXT evaluators share almost no
code paths for path evaluation, so agreement across a broad corpus of
(document, query) pairs pins the semantics down tightly. Core XPath
queries additionally run through the linear-time evaluator.
"""

import math
import random

import pytest

from repro.engine import XPathEngine
from repro.workloads.documents import random_document, running_example_document
from repro.workloads.queries import random_query
from repro.xml.parser import parse_document

FULL = ("naive", "topdown", "bottomup", "mincontext", "optmincontext")
FAST = ("naive", "topdown", "mincontext", "optmincontext")

#: Hand-picked queries that stress different machinery combinations.
CORPUS = [
    "//a",
    "/descendant::*[position() = last()]",
    "//b[position() > 1]/c",
    "//*[count(child::*) > 1]",
    "//a[b = c]",
    "//*[. = 100]",
    "//*[not(following::*)]",
    "//*[boolean(following-sibling::*[position() != last()])]",
    "//a[//b]",
    "//*[ancestor::*[2]]",
    "//*[preceding::*[. = '1']]",
    "sum(//a) + count(//b)",
    "string(//*[1])",
    "//*[self::a or self::b][last()]",
    "//*[position() mod 2 = 1]",
    "//a/following::b[1]",
    "id('3')/..",
    "//*[@kind]/@kind",
    "//*[string-length(concat('x', 'y')) = 2]",
    "(//a | //b)[2]",
    "//*[sum(child::*) > 2]",
    "//*[child::*[position() = last() - 1]]",
    "-(-count(//*))",
    "//*[10 >= .]",
    "//b | id('3')",
    "count(id('3') | //b)",
    "(id('3') | //b)[2]",
]


def results_equal(a, b):
    """Value equality with NaN = NaN (scalar results may be NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def check_agreement(engine, query, algorithms):
    compiled = engine.compile(query)
    outcomes = {}
    for name in algorithms:
        outcomes[name] = engine.evaluate(compiled, algorithm=name)
    if compiled.is_core_xpath:
        outcomes["corexpath"] = engine.evaluate(compiled, algorithm="corexpath")
    baseline_name = algorithms[0]
    baseline = outcomes[baseline_name]
    for name, value in outcomes.items():
        assert results_equal(value, baseline), (
            f"{name} vs {baseline_name} on {query!r}: {value!r} != {baseline!r}"
        )
    return baseline


@pytest.mark.parametrize("query", CORPUS)
def test_corpus_on_running_example(query):
    engine = XPathEngine(running_example_document())
    check_agreement(engine, query, FULL)


@pytest.mark.parametrize("query", CORPUS)
def test_corpus_on_irregular_document(query):
    doc = parse_document(
        '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
        '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b><b id="7">2</b></c>'
        '<!--comment--><d id="8"/></a>'
    )
    engine = XPathEngine(doc)
    check_agreement(engine, query, FULL)


def test_random_queries_on_random_documents():
    """The fuzz loop: 40 documents × 6 queries, fixed seed."""
    rng = random.Random(20030612)
    for round_number in range(40):
        doc = random_document(rng, max_nodes=14)
        engine = XPathEngine(doc)
        algorithms = FULL if len(doc.nodes) <= 18 else FAST
        for _ in range(6):
            query = random_query(rng)
            check_agreement(engine, query, algorithms)


def test_random_queries_with_varied_context_nodes():
    """Agreement must hold for arbitrary context nodes, not just the root."""
    rng = random.Random(7)
    doc = random_document(rng, max_nodes=16)
    engine = XPathEngine(doc)
    elements = doc.elements()
    for _ in range(25):
        query = random_query(rng, max_steps=3)
        context = rng.choice(elements)
        compiled = engine.compile(query)
        results = {
            name: engine.evaluate(compiled, context_node=context, algorithm=name)
            for name in FAST
        }
        baseline = results[FAST[0]]
        for name, value in results.items():
            assert results_equal(value, baseline), (query, context.path(), name)


def test_agreement_from_non_element_context_nodes():
    """Context nodes may be text, comment, PI, or attribute nodes; the
    algorithms must agree there too (axes behave differently at
    attributes — see repro/axes/axes.py)."""
    doc = parse_document(
        '<r k="key"><a id="1">one<!--note--><?pi data?></a><a id="2">two</a></r>'
    )
    engine = XPathEngine(doc)
    odd_contexts = [
        node for node in doc.nodes
        if node.is_text or node.is_comment or node.is_processing_instruction
        or node.is_attribute
    ]
    assert len(odd_contexts) >= 5
    queries = [
        "..", "following::*", "preceding::node()", "ancestor::*[1]",
        "self::node()", "string(.)", "count(following-sibling::node())",
        "//a[. = string(current) or position() = 1]".replace("current", "'one'"),
    ]
    for context in odd_contexts:
        for query in queries:
            compiled = engine.compile(query)
            reference = engine.evaluate(compiled, context_node=context, algorithm="topdown")
            for name in ("naive", "mincontext", "optmincontext"):
                got = engine.evaluate(compiled, context_node=context, algorithm=name)
                assert results_equal(got, reference), (query, context.path(), name)
