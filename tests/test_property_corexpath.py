"""Property tests for Core XPath's candidate-set algebra.

:class:`CoreXPathEvaluator` asks a predicate only which members of a
sorted candidate block it holds at (``_within``). The oracle below is
the evaluator as it was before: a predicate denotes its whole set over
``dom`` — ``and`` / ``or`` as linear merges, ``not`` as the complement
of ``dom`` — intersected with the block afterwards. The two must give
the same set for every block, and the same answer, ``corexpath_steps``
and axis-kernel ticks for every query.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import stats
from repro.axes.axes import kernel_mode_forced, select_node_test
from repro.axes.vec import VECTOR_MIN_BLOCK, filter_step, forward_step, intersect, inverse_step
from repro.core.context import Context
from repro.core.corexpath import CoreXPathEvaluator
from repro.errors import FragmentViolationError
from repro.service.planner import compile_plan
from repro.stats import axis_kernel_stats
from repro.workloads.documents import balanced_tree, book_catalog, numbered_line
from repro.workloads.queries import random_core_query
from repro.xml.index import merge_intersection, merge_union
from repro.xml.parser import parse_document
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xpath.ast import BinaryOp, FunctionCall, NodeTest


def _merge_difference(a: list[int], b: list[int]) -> list[int]:
    """``a - b`` for sorted int arrays (linear merge)."""
    out, j = [], 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        if j == len(b) or b[j] != x:
            out.append(x)
    return out


class OracleCoreXPath(CoreXPathEvaluator):
    """Predicates as whole sets over ``dom``, the connectives as merges."""

    def _sweep(self, steps, current):
        for step in steps:
            stats.count("corexpath_steps")
            current = forward_step(self.document, step.axis, current, step.node_test)
            for predicate in step.predicates:
                if not current:
                    break
                current = intersect(current, self.predicate_pres(predicate))
        return current if isinstance(current, list) else list(current)

    def predicate_pres(self, predicate) -> list[int]:
        if isinstance(predicate, BinaryOp) and predicate.op == "and":
            return merge_intersection(
                self.predicate_pres(predicate.left), self.predicate_pres(predicate.right)
            )
        if isinstance(predicate, BinaryOp) and predicate.op == "or":
            return merge_union(
                self.predicate_pres(predicate.left), self.predicate_pres(predicate.right)
            )
        if isinstance(predicate, FunctionCall) and predicate.name == "not":
            return _merge_difference(self._all_pres(), self.predicate_pres(predicate.args[0]))
        if isinstance(predicate, FunctionCall) and predicate.name == "boolean":
            return self.exists_pres(predicate.args[0])
        raise FragmentViolationError(f"non-Core predicate: {predicate!r}")

    def exists_pres(self, path) -> list[int]:
        current = self._all_pres()
        for step in reversed(path.steps):
            stats.count("corexpath_steps")
            if not current:
                break
            tested = filter_step(self.document, step.axis, current, step.node_test)
            for predicate in step.predicates:
                tested = intersect(tested, self.predicate_pres(predicate))
            current = inverse_step(self.document, step.axis, tested)
        if path.absolute:
            return self._all_pres() if current and current[0] == 0 else []
        return current


# ----------------------------------------------------------------------
# documents and predicates
# ----------------------------------------------------------------------

_ATTRIBUTED = (
    '<a id="1" kind="k">x<b id="2"><a id="3">1</a>y<c/></b>'
    '<c id="4" kind="k"><b id="5">1</b><b id="6" kind="j"/><d/></c>'
    "<!--c--><d id=\"7\"><b/><a kind=\"k\"/></d></a>"
)

DOCUMENTS = {
    "catalog": book_catalog(2),
    "tree": balanced_tree(3, 3),
    "line": numbered_line(12),
    "lazy-catalog": decode_snapshot(encode_snapshot(book_catalog(3))),
    "lazy-attributed": decode_snapshot(encode_snapshot(parse_document(_ATTRIBUTED))),
}

#: Steps of every family the algebra meets: child and descendant,
#: siblings, ancestors, attributes, the interval axes, absolute starts.
_STEPS = (
    "child::*", "child::b", "child::book", "descendant::a", "descendant::title",
    "attribute::id", "attribute::*", "@kind", "@year", "following-sibling::*",
    "preceding-sibling::b", "following-sibling::chapter", "ancestor::*",
    "ancestor-or-self::a", "parent::*", "self::node()", "following::c",
    "preceding::*", "text()", "/descendant::b",
)


@st.composite
def _paths(draw, predicates):
    steps = draw(st.lists(st.sampled_from(_STEPS), min_size=1, max_size=3))
    text = "/".join(step.lstrip("/") if i else step for i, step in enumerate(steps))
    if draw(st.booleans()):
        text += f"[{draw(predicates)}]"
    return text


PREDICATES = st.recursive(
    st.sampled_from(_STEPS),
    lambda inner: st.one_of(
        _paths(inner),
        st.builds("{} and {}".format, inner, inner),
        st.builds("{} or {}".format, inner, inner),
        st.builds("not({})".format, inner),
        st.builds("({})".format, inner),
    ),
    max_leaves=8,
)


def _predicates_of(query: str):
    """The normalized predicates of every step of a Core query's tree."""
    plan = compile_plan(query)
    assert plan.is_core_xpath, query
    found = []
    for node in plan.ast.walk():
        found.extend(getattr(node, "predicates", ()))
    return found


def _blocks(document, rng: random.Random):
    dom = list(range(len(document.nodes)))
    elements = forward_step(document, "descendant", [0], NodeTest("wildcard"))
    return [
        [],
        dom,
        list(elements),
        sorted(rng.sample(dom, rng.randint(1, len(dom)))),
        sorted(rng.sample(dom, min(3, len(dom)))),
    ]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(DOCUMENTS)),
    st.one_of(PREDICATES, st.integers(0, 10**6)),
    st.integers(0, 10**6),
)
def test_within_is_the_oracle_set_restricted_to_the_block(name, source, seed):
    """``within(p, X) == X ∩ oracle(p)`` for every predicate of the
    query, on every block."""
    document = DOCUMENTS[name]
    if isinstance(source, int):
        query = random_core_query(random.Random(source), max_depth=3)
    else:
        query = f"//*[{source}]"
    evaluator, oracle = CoreXPathEvaluator(document), OracleCoreXPath(document)
    rng = random.Random(seed)
    for predicate in _predicates_of(query):
        expected = oracle.predicate_pres(predicate)
        for block in _blocks(document, rng):
            assert evaluator._within(predicate, block) == intersect(block, expected), (
                query,
                block,
            )


def _measured(evaluator, query: str):
    plan = compile_plan(query)
    document = evaluator.document
    before = axis_kernel_stats.snapshot()
    with stats.collect() as collector:
        value = evaluator.evaluate(plan.ast, Context(document.root, 1, 1))
    after = axis_kernel_stats.snapshot()
    ticks = {key: after[key] - before[key] for key in ("fused_hits", "vector_ops", "fallback_scans")}
    return [node.pre for node in value], collector.snapshot().get("corexpath_steps", 0), ticks


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(DOCUMENTS)),
    st.one_of(PREDICATES, st.integers(0, 10**6)),
    st.sampled_from(("auto", "scan")),
)
def test_answers_steps_and_kernel_ticks_equal_the_oracle_run(name, source, mode):
    document = DOCUMENTS[name]
    if isinstance(source, int):
        query = random_core_query(random.Random(source), max_depth=3)
    else:
        query = f"//*[{source}]/descendant-or-self::node()"
    with kernel_mode_forced(mode):
        got = _measured(CoreXPathEvaluator(document), query)
        expected = _measured(OracleCoreXPath(document), query)
    assert got == expected, query


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.sampled_from(_STEPS), st.integers(0, 10**6))
def test_filter_step_is_the_node_test_on_dom_and_on_any_other_block(name, step, seed):
    """A block of |D| members is ``dom``, and the filter hands back the
    test's partition; a block one member short is not. The same ticks
    either way: one vector op for a wide block."""
    document = DOCUMENTS[name]
    (parsed,) = compile_plan(step.lstrip("/")).ast.steps
    dom = list(range(len(document)))
    matching = select_node_test(document, dom, parsed.node_test, parsed.axis)
    rng = random.Random(seed)
    dropped = rng.choice(matching) if matching else 0
    for block in (dom, [p for p in dom if p != dropped], sorted(rng.sample(dom, len(dom) // 2))):
        before = axis_kernel_stats.snapshot()["vector_ops"]
        tested = filter_step(document, parsed.axis, block, parsed.node_test)
        ticks = axis_kernel_stats.snapshot()["vector_ops"] - before
        assert ticks == (1 if len(block) >= VECTOR_MIN_BLOCK else 0)
        assert tested == [p for p in block if p in set(matching)]
