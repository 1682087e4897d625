"""Property tests for the XPath tokenizer and parser.

Totality: whatever text arrives — the XPath alphabet, Unicode letters
and digits, nesting of any depth — compiling it yields a
:class:`~repro.service.plan.LogicalPlan` or raises a
:class:`~repro.errors.ReproError` subclass, never another exception (a
query is untrusted input: the daemon compiles it on its event loop).
And ``unparse`` after ``parse`` reaches a fixpoint in one round.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.engine import XPathEngine
from repro.errors import ReproError
from repro.service.plan import LogicalPlan
from repro.service.planner import compile_plan
from repro.workloads.queries import random_core_query, random_full_query, random_query
from repro.xml.parser import parse_document
from repro.xpath.parser import MAX_DEPTH, parse_xpath
from repro.xpath.unparse import unparse

#: Single characters: the XPath alphabet, whitespace, and non-ASCII
#: letters and digits (superscripts, Arabic-Indic, Devanagari, fullwidth).
ALPHABET = "abdinotvx_/.:@*[](),|=!<>+-$'\" \t\n0123456789éα²١१１"

#: Whole lexemes, so that generated text often parses.
LEXEMES = (
    "/", "//", "a", "b", "book", "title", "*", "@", "@id", "::", "child", "ancestor",
    "following-sibling", "attribute", "self", "node()", "text()", "[", "]", "(",
    ")", ",", "|", "and", "or", "not", "div", "mod", "=", "!=", "<", "<=", ">",
    ">=", "+", "-", ".", "..", "1", "2.5", ".5", "'x'", '"y"', "$v", "count",
    "position()", "last()", "concat", "id", "string", "²", "١٢", "é",
)

#: Wrappers that nest: ``prefix`` + inner + ``suffix``.
WRAPPERS = (
    ("(", ")"), ("not(", ")"), ("a[", "]"), ("-", ""), ("count(", ")"),
    ("string(", ")"), ("b[", " or c]"), ("1 + ", ""), ("//a | ", ""), ("(a)[", "]"),
)

DOCUMENT = parse_document("<a><b>1</b><c x='2'>3<a/></c></a>")


def _compile_total(text: str):
    """Compile ``text``: a plan, or ``None`` for a library error."""
    try:
        plan = compile_plan(text)
    except ReproError:
        return None
    assert isinstance(plan, LogicalPlan)
    return plan


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_any_character_string_compiles_or_raises_a_library_error(text):
    _compile_total(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), max_size=20), st.sampled_from(("", " ")))
def test_any_lexeme_sequence_compiles_or_raises_a_library_error(lexemes, glue):
    _compile_total(glue.join(lexemes))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(WRAPPERS), min_size=1, max_size=4),
    st.integers(0, 400),
    st.sampled_from(("b", "1", "//a", "last()", "", ")")),
)
def test_any_nesting_compiles_or_raises_a_library_error_and_evaluates(pattern, depth, leaf):
    """Deep nesting and long chains are refused with a typed error,
    never a ``RecursionError``. A plan of at most ``MAX_DEPTH // 2``
    wrappers (each adds at most two levels: a predicate and an ``or``)
    evaluates without one too; taller chains may exceed what the
    evaluators' recursion can walk."""
    wrappers = (pattern * depth)[:depth]
    text = "".join(prefix for prefix, _ in wrappers) + leaf
    text += "".join(suffix for _, suffix in reversed(wrappers))
    plan = _compile_total(text)
    if plan is not None and depth <= MAX_DEPTH // 2:
        try:
            XPathEngine(DOCUMENT).evaluate(plan, algorithm="topdown")
        except ReproError:
            pass


def _fixpoint(query: str) -> None:
    once = unparse(parse_xpath(query))
    assert unparse(parse_xpath(once)) == once, (query, once)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((random_query, random_core_query, random_full_query)))
def test_unparse_after_parse_is_a_fixpoint_on_generated_queries(seed, generator):
    rng = random.Random(seed)
    variables: dict = {}
    if generator is random_full_query:
        _fixpoint(generator(rng, max_depth=3, variables=variables))
    else:
        _fixpoint(generator(rng, max_depth=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), min_size=1, max_size=14))
def test_unparse_after_parse_is_a_fixpoint_on_whatever_parses(lexemes):
    query = " ".join(lexemes)
    try:
        parse_xpath(query)
    except ReproError:
        return
    _fixpoint(query)
