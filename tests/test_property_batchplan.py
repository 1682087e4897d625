"""Property suite: a batch DAG's prefix plans are what compiling their
source gives, though nothing analyzes them.

:mod:`repro.service.batchplan` builds each materialized prefix plan from
the step summaries of a plan that consumes it (``LogicalPlan.
step_summaries``) and decides whether a residual suffix can resume the
Core XPath sweep from the same summaries. Over batches drawn from the
end-to-end ``batch`` workload's two prefix families and from
:func:`~repro.workloads.queries.random_core_query` (extended, so random
queries share prefixes too, and with non-Core tails, so some suffixes are
not Core): every prefix plan's verdicts, bottom-up path count and
``PlanTraits`` equal those of ``compile_plan(prefix.source)``, and the
Core verdict of every suffix of every plan equals the Definition-12 walk
(:func:`repro.xpath.fragments.core_xpath_violation`) on those steps.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.service import QueryService, build_batch_plan, compile_plan
from repro.service.batchplan import _steps_are_core
from repro.workloads.queries import random_core_query
from repro.xpath.ast import Path
from repro.xpath.fragments import core_xpath_violation
from repro.xpath.unparse import unparse

# The batch workload's families (benchmarks/e2e/workloads.py), as literals.
BOOK_TESTS = (
    "ref",
    "authors/author/following-sibling::author",
    "following-sibling::book/ref",
    "chapter/pages",
    "preceding-sibling::book",
    "@lang",
    "authors[author]",
    "chapter[heading]/following-sibling::chapter",
)
CHAPTER_TESTS = (
    "heading",
    "preceding-sibling::chapter",
    "following-sibling::chapter/pages",
    "parent::book/ref",
    "@num",
    "following-sibling::ref",
    "parent::book[authors/author/following-sibling::author]",
)
SHAPES = (
    "{a}",
    "not({a})",
    "{a} and {b}",
    "{a} or not({b})",
    "not({a}) and {b}",
    "{a} and ({b} or {c})",
    "not({a} or {b})",
)
FAMILIES = (
    ("//book", BOOK_TESTS,
     ("/title", "/authors/author", "/chapter/heading", "/price", "/@id", "/chapter/pages")),
    ("//chapter", CHAPTER_TESTS,
     ("/heading", "/parent::book/title", "/following-sibling::chapter/pages", "/pages",
      "/@num", "/preceding-sibling::chapter/heading")),
)
#: Tails whose predicates are outside Core XPath.
NON_CORE_TAILS = ("/chapter[2]/heading", "/title[. = 'x']", "/child::*[last()]", "/@id[1]")
CORE_TAILS = ("/child::b", "/descendant::c[child::a]", "/parent::*/child::d")


@st.composite
def family_queries(draw) -> list[str]:
    subject, tests, tails = draw(st.sampled_from(FAMILIES))
    a, b, c = draw(st.permutations(tests))[:3]
    head = f"{subject}[{draw(st.sampled_from(SHAPES)).format(a=a, b=b, c=c)}]"
    chosen = draw(
        st.lists(st.sampled_from(tails + NON_CORE_TAILS), min_size=1, max_size=6, unique=True)
    )
    return [head + tail for tail in chosen]


@st.composite
def core_queries(draw) -> list[str]:
    query = random_core_query(random.Random(draw(st.integers(0, 2**32 - 1))))
    tails = draw(st.lists(st.sampled_from(CORE_TAILS + NON_CORE_TAILS), max_size=3))
    return [query] + [query + tail for tail in tails]


batches = st.lists(st.one_of(family_queries(), core_queries()), min_size=1, max_size=4).map(
    lambda groups: [query for group in groups for query in group]
)


def _walk_says_core(steps) -> bool:
    return core_xpath_violation(Path(absolute=True, steps=list(steps))) is None


@settings(max_examples=60, deadline=None)
@given(batches)
def test_every_prefix_plan_is_the_plan_of_its_source(queries):
    plans = [QueryService().plan(query) for query in queries]
    dag = build_batch_plan(plans)
    for chain, node in dag.nodes.items():
        prefix = node.plan
        assert prefix.source == "/" + "/".join(chain) == unparse(prefix.ast)
        reference = compile_plan(prefix.source)
        assert prefix.core_violation == reference.core_violation
        assert prefix.wadler_violation == reference.wadler_violation
        assert prefix.bottomup_path_count == reference.bottomup_path_count
        assert prefix.traits == reference.traits
        assert prefix.step_summaries == reference.step_summaries
        assert node.residual_core == _walk_says_core(node.residual_steps)
    for entry in dag.entries:
        if entry.base is not None:
            assert entry.residual_core == _walk_says_core(entry.residual_steps)


@settings(max_examples=60, deadline=None)
@given(batches)
def test_steps_are_core_matches_the_walk_on_every_suffix(queries):
    for query in queries:
        plan = compile_plan(query)
        steps = plan.ast.steps
        assert len(plan.step_summaries) == len(steps)
        for start in range(len(steps) + 1):
            assert _steps_are_core(plan.step_summaries[start:]) == _walk_says_core(
                steps[start:]
            ), (query, start)
