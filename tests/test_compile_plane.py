"""The compile plane: a planner's lexer types only what its parser reads.

A :class:`~repro.service.planner.QueryPlanner` cuts a query into lexemes
once; a location step that begins with a name and whose whole predicate
group a step memo could hold is one lexeme, a *step group*. The parser
looks it up in the step memo before any of its tokens is typed, and on a
hit takes the stored step with the group untyped. Nothing else may show
it: the memo counters read what they read before the lexer worked this
way, every error is the one a cold :func:`compile_plan` raises, and a
literal's slot is its token's index in the whole query.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats
from repro.errors import ReproError
from repro.service.planner import QueryPlanner, compile_plan
from repro.xpath.ast import NumberLiteral, StringLiteral
from repro.xpath.lexer import TokenType, tokenize_xpath
from repro.xpath.unparse import unparse

from test_step_memo import batch_queries  # noqa: F401  (a fixture)


def tokens(query: str) -> int:
    return len(tokenize_xpath(query)) - 1  # not the END token


def test_the_batch_replay_counts_what_it_counted_and_types_under_half(batch_queries):
    planner = QueryPlanner()
    with stats.collect() as collected:
        for query in batch_queries:
            planner.compile(query)
    counters = collected.snapshot()
    memo = planner.steps.stats.snapshot()
    assert counters["plans_compiled"] == len(batch_queries) == 2664
    assert (memo["hits"], memo["misses"], memo["evictions"]) == (2233, 728, 472)
    total = sum(map(tokens, batch_queries))
    assert counters["tokens_typed"] <= 0.45 * total


def test_a_cold_compile_types_every_token(batch_queries):
    sample = batch_queries[::97] + ["count(//book[@lang = 'de'])", "//a[b][1]/c[$x]"]
    for query in sample:
        with stats.collect() as collected:
            compile_plan(query, {"x": 1.0})
        assert collected.snapshot()["tokens_typed"] == tokens(query), query


def slots(plan) -> list:
    return [
        (node.value, node.slot)
        for node in plan.ast.walk()
        if isinstance(node, (NumberLiteral, StringLiteral))
    ]


@pytest.mark.parametrize(
    "query",
    [
        "//book[chapter/heading]/chapter[@num = 2]/title",
        "//book[chapter/heading]/following-sibling::book[authors][price > 30]",
        "/catalog/book[chapter/heading]/chapter[pages][position() = last() - 1]",
        "count(//book[chapter/heading]) + count(//chapter[heading][@num = 'x'])",
    ],
)
@pytest.mark.parametrize("variables", [None, {"nodes": []}], ids=["template", "no-template"])
def test_a_literal_after_a_skipped_group_keeps_its_token_index(query, variables):
    """The group ``book[chapter/heading]`` is in the memo: the lexer skips
    it, typed head and all or (a node-set binding, so no template) untyped
    from its name on, before the literals."""
    planner = QueryPlanner()
    planner.compile("//book[chapter/heading]/title")
    with stats.collect() as collected:
        warm = planner.compile(query, variables)
    counters = collected.snapshot()
    assert counters["step_memo_hits"] >= 1
    assert counters["tokens_typed"] < tokens(query)
    cold = compile_plan(query, variables)
    assert slots(warm) == slots(cold) != []
    assert unparse(warm.ast) == unparse(cold.ast)
    assert slots(cold) == [
        (float(value) if kind is TokenType.NUMBER else value, index)
        for index, (kind, value, _) in enumerate(tokenize_xpath(query))
        if kind in (TokenType.NUMBER, TokenType.LITERAL)
    ]


# ----------------------------------------------------------------------
# a warm compile refuses what a cold one refuses, with the same error
# ----------------------------------------------------------------------


def outcome(compile, query: str) -> tuple:
    try:
        plan = compile(query)
    except ReproError as error:
        return ("error", type(error).__name__, str(error), getattr(error, "offset", None))
    return ("plan", unparse(plan.ast), plan.traits)


@pytest.fixture(scope="module")
def warm(batch_queries) -> tuple:
    """A planner warmed on the batch replay, and the replay's queries
    with a predicate group."""
    planner = QueryPlanner()
    for query in batch_queries:
        planner.compile(query)
    return planner, sorted({query for query in batch_queries if "[" in query})


def group(query: str) -> tuple[int, int]:
    """The span of ``query``'s first predicate group."""
    start = query.index("[")
    depth = 0
    for end in range(start, len(query)):
        depth += {"[": 1, "]": -1}.get(query[end], 0)
        if depth == 0:
            return start, end + 1
    raise AssertionError(query)


#: Each inserted at the drawn position, but the last four: a ``]``
#: deleted there or after, the query cut there, ``#`` inserted there with
#: ``é`` appended, and ``)`` inserted there with ``#`` before the last
#: ``]`` (the first lexical error wins, over a syntax error before it too).
EDITS = ("#", "é", "²", "'", '"', "$ ", ")", "]", "delete ]", "truncate", "two", "pair")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pick=st.integers(min_value=0, max_value=10**6),
    where=st.sampled_from(("before", "inside", "after")),
    edit=st.sampled_from(EDITS),
    at=st.floats(min_value=0.0, max_value=1.0),
)
def test_an_edited_warm_query_fails_as_a_cold_compile_fails(warm, pick, where, edit, at):
    planner, queries = warm
    query = queries[pick % len(queries)]
    planner.compile(query)  # its group is in the memo
    start, end = group(query)
    spans = {"before": (0, start), "inside": (start + 1, end - 1), "after": (end, len(query))}
    low, high = spans[where]
    position = low + round(at * (high - low))
    if edit == "truncate":
        edited = query[:position]
    elif edit == "two":
        edited = query[:position] + "#" + query[position:] + "é"
    elif edit == "pair":
        last = query.rindex("]")
        edited = query[:last] + "#" + query[last:]
        edited = edited[:position] + ")" + edited[position:]
    elif edit == "delete ]":
        closing = query.find("]", position)
        closing = closing if closing >= 0 else query.rfind("]")
        edited = query[:closing] + query[closing + 1 :]
    else:
        edited = query[:position] + edit + query[position:]
    assert outcome(planner.compile, edited) == outcome(compile_plan, edited)
