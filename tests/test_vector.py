"""The block side of the axis kernels: byte identity and exact counters.

The contract under test: every pre-plane axis step goes through one
gate (:func:`repro.axes.vec.forward_step` and its inverse / filter
siblings), whose kernels return the *same bytes* as the Definition-1
scans on boxed and column documents alike, whatever the block's width,
and whose ``vector_ops`` / ``fused_hits`` / ``fallback_scans`` counters
move deterministically per (document, query).

The differential loops reuse the Core XPath fuzz grammar
(:func:`repro.workloads.queries.random_core_query`) with a fixed seed,
``auto`` against ``scan``, for all three pre-plane evaluators. A
hypothesis property holds each step function and each kernel — both
sides of every width branch, by moving the gate — to the scan on every
axis, node test and block shape, and a counter test shows the block
side engaging under a forced ``mincontext`` run.
"""

import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import stats
from repro.axes import (
    ALL_AXES,
    FORWARD_VECTOR_AXES,
    INVERSE_VECTOR_AXES,
    VECTOR_MIN_BLOCK,
    kernel_mode_forced,
)
from repro.axes.axes import (
    INTERVAL_AXES,
    KERNEL_MODES,
    axis_set,
    forward_pres,
    inverse_axis_set,
    inverse_pres,
    matches_node_test,
)
from repro.axes.vec import filter_step, inverse_step
from repro.core.common import step_candidate_pres
from repro.core.corexpath import CoreXPathEvaluator
from conftest import boxed_twin
from repro.engine import XPathEngine
from repro.workloads.documents import (
    book_catalog,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.workloads.queries import random_core_query
from repro.xml.index import node_index
from repro.xml.parser import parse_document
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xpath.ast import NodeTest

SEED = 20030612


def _fuzz_documents():
    rng = random.Random(SEED)
    return [
        boxed_twin(running_example_document()),
        wide_tree(width=6),
        book_catalog(books=8, chapters_per_book=3),
        boxed_twin(
            parse_document(
                '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
                '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b><b id="7">2</b></c>'
                '<!--comment--><d id="8"/></a>'
            )
        ),
        random_document(rng, max_nodes=30),
        random_document(rng, max_nodes=60),
    ]


# ----------------------------------------------------------------------
# Differential fuzz: auto == scan, every pre-plane evaluator
# ----------------------------------------------------------------------


def test_vector_matches_scalar_and_scan_on_fuzz_corpus():
    """Whole queries: ``auto`` equals ``scan`` for all three pre-plane
    evaluators, on the boxed tree and on its column twin."""
    rng = random.Random(SEED)
    cases = 0
    for document in _fuzz_documents():
        engine = XPathEngine(document)
        column_engine = XPathEngine(decode_snapshot(encode_snapshot(document)))
        for _ in range(15):
            query = random_core_query(rng)
            for algorithm in ("corexpath", "mincontext", "optmincontext"):
                with kernel_mode_forced("scan"):
                    baseline = engine.evaluate(query, algorithm=algorithm)
                wanted = [node.pre for node in baseline]
                assert engine.evaluate(query, algorithm=algorithm) == baseline, (
                    f"{algorithm} diverged on {query!r}"
                )
                got = column_engine.evaluate(query, algorithm=algorithm)
                assert [node.pre for node in got] == wanted, (
                    f"{algorithm} on columns diverged on {query!r}"
                )
            cases += 1
    assert cases == 15 * len(_fuzz_documents())


def test_vector_matches_on_lazy_documents():
    """The kernels run over lazy column documents without forcing full
    materialization semantics to differ — same bytes as eager."""
    rng = random.Random(SEED + 7)
    for eager in (boxed_twin(running_example_document()), book_catalog(books=10)):
        lazy = decode_snapshot(encode_snapshot(eager))
        eager_engine = XPathEngine(eager)
        lazy_engine = XPathEngine(lazy)
        for _ in range(10):
            query = random_core_query(rng)
            with kernel_mode_forced("scan"):
                baseline = eager_engine.evaluate(query, algorithm="corexpath")
            got = lazy_engine.evaluate(query, algorithm="corexpath")
            assert [node.pre for node in got] == [node.pre for node in baseline], (
                f"auto on lazy doc diverged on {query!r}"
            )


def test_backward_predicate_programs_match_scalar():
    """Predicate existence sweeps (the backward direction) agree with
    the scan propagation on shapes that exercise filter + inverse ops
    over blocks and the axes without a whole-column form."""
    document = book_catalog(books=12, chapters_per_book=4)
    engine = XPathEngine(document)
    queries = [
        "/descendant::*[child::*]",
        "/descendant::*[child::node()]",
        "/descendant::node()[ancestor::chapter]",
        "/descendant::book[descendant::ref]",
        "/descendant::*[not(child::*)]",
        "/descendant::chapter[following-sibling::chapter]",
        "/descendant::*[attribute::id]",
        "/descendant::*[child::*[child::node()]]",
    ]
    for query in queries:
        with kernel_mode_forced("scan"):
            baseline = engine.evaluate(query, algorithm="corexpath")
        assert engine.evaluate(query, algorithm="corexpath") == baseline


# ----------------------------------------------------------------------
# The step functions and the kernels compute the Definition-1 set
# ----------------------------------------------------------------------

#: The kernels read their width gate here; patching it drives a block
#: down either side of a width branch.
_GATE = "repro.axes.axes.VECTOR_MIN_BLOCK"

_NODE_TESTS = (
    [NodeTest("name", name) for name in ("a", "b", "c", "id", "kind")]
    + [NodeTest(kind) for kind in ("wildcard", "node", "text", "comment", "pi")]
)


@st.composite
def document_and_block(draw):
    """A random tree of at least 18 nodes (every element carries an
    ``id`` attribute, so attribute origins and origins nested in one
    another come up constantly) and a sorted block of it: empty, a
    singleton, the three widths around :data:`VECTOR_MIN_BLOCK`, or all
    of ``dom``."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    document = random_document(rng, max_nodes=40)
    while len(document.nodes) < VECTOR_MIN_BLOCK + 2:
        document = random_document(rng, max_nodes=40)
    total = len(document.nodes)
    width = draw(
        st.sampled_from(
            (0, 1, VECTOR_MIN_BLOCK - 1, VECTOR_MIN_BLOCK, VECTOR_MIN_BLOCK + 1, total)
        )
    )
    block = draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=width,
            max_size=width,
            unique=True,
        )
    )
    return document, sorted(block)


@settings(max_examples=40, deadline=None)
@given(document_and_block())
def test_step_functions_equal_the_scan_in_every_mode(data):
    """``step_candidate_pres`` — and the inverse and filter halves the
    bottom-up propagation uses — equal the Definition-1 answer for every
    axis x node test x block under both policies, and so does every
    kernel called directly with the width gate as shipped, lowered to 0
    (every block takes the block side) and raised out of reach (every
    block takes the narrow side), on boxed and on column documents. A
    kernel may decline (``None``) only where the step function then owes
    the scan."""
    eager, block = data
    column = decode_snapshot(encode_snapshot(eager))
    nodes = eager.nodes
    origins = [nodes[pre] for pre in block]
    for axis in sorted(ALL_AXES):
        inverse = sorted(y.pre for y in inverse_axis_set(eager, axis, origins))
        reached = axis_set(eager, axis, origins)
        for test in _NODE_TESTS:
            forward = sorted(
                y.pre for y in reached if matches_node_test(y, test, axis)
            )
            matching = [
                pre for pre in block if matches_node_test(nodes[pre], test, axis)
            ]
            for document in (eager, column):
                for mode in KERNEL_MODES:
                    where = f"{axis}::{test!r} from {block} in {mode}"
                    with kernel_mode_forced(mode):
                        got = step_candidate_pres(document, axis, block, test)
                        assert list(filter_step(document, axis, block, test)) == matching, where
                    assert isinstance(got, list) and got == forward, where
                for gate in (VECTOR_MIN_BLOCK, 0, sys.maxsize):
                    with mock.patch(_GATE, gate):
                        got = forward_pres(document, axis, block, test)
                    where = f"{axis}::{test!r} from {block}, gate at {gate}"
                    if got is None:  # priced out: narrow interval steps only
                        assert axis in INTERVAL_AXES and len(block) < gate, where
                    else:
                        assert list(got) == forward, where
        for document in (eager, column):
            for mode in KERNEL_MODES:
                with kernel_mode_forced(mode):
                    got = inverse_step(document, axis, block)
                assert list(got) == inverse, f"inverse {axis} from {block} in {mode}"
            got = inverse_pres(document, axis, block)
            assert got == (None if axis == "id" else inverse), f"inverse {axis} from {block}"


def test_child_kernel_takes_every_side_on_a_catalog():
    """The property's documents are too small for a block to outnumber
    its test partition eightfold; a catalog is not. ``child`` from the
    books reads child-table spans, from every element the partition
    semi-join, and with the gate out of reach the size hops — one
    answer."""
    document = book_catalog(books=20)
    nodes = document.nodes
    index = node_index(document)
    books = list(index.by_tag["book"])
    elements = list(index.elements)
    assert len(books) >= VECTOR_MIN_BLOCK and 8 * len(books) < len(elements)
    for block in (books, elements):
        reached = axis_set(document, "child", [nodes[pre] for pre in block])
        for test in (NodeTest("wildcard"), NodeTest("node"), NodeTest("name", "title")):
            wanted = sorted(
                y.pre for y in reached if matches_node_test(y, test, "child")
            )
            assert forward_pres(document, "child", block, test) == wanted
            with mock.patch(_GATE, sys.maxsize):
                assert forward_pres(document, "child", block, test) == wanted


def test_vector_axis_sets_are_the_documented_tiers():
    assert "child" in FORWARD_VECTOR_AXES
    assert "attribute" in FORWARD_VECTOR_AXES
    assert "descendant" in FORWARD_VECTOR_AXES
    assert "following-sibling" not in FORWARD_VECTOR_AXES
    assert "descendant" in INVERSE_VECTOR_AXES
    assert "ancestor" in INVERSE_VECTOR_AXES
    assert "following-sibling" not in INVERSE_VECTOR_AXES


# ----------------------------------------------------------------------
# Counters: exact and deterministic
# ----------------------------------------------------------------------

#: (query, sweeps, vector ops) for ONE Core evaluation started from all
#: of ``dom``, so that every step sees a block. Forward: one op per step
#: on an axis with a whole-column form; the sibling axes tick
#: ``fused_hits`` instead. Each predicate adds one backward sweep, one
#: step long here, whose step dispatches twice: a filter op plus an
#: inverse op.
COUNTER_CASES = (
    ("/descendant::chapter", 1, 1),
    ("/descendant::*/child::node()", 1, 2),
    ("/descendant::*/attribute::node()", 1, 2),
    ("/descendant::*[child::*]", 2, 3),
    ("/descendant::book/following-sibling::book", 1, 1),
)


def _delta(run):
    """(vector ops, every dispatch tick, corexpath steps) of ``run()``."""
    before = stats.axis_kernel_stats.snapshot()
    with stats.collect() as collected:
        run()
    after = stats.axis_kernel_stats.snapshot()
    ticks = sum(
        after[key] - before[key]
        for key in ("fused_hits", "fallback_scans", "vector_ops")
    )
    steps = collected.snapshot().get("corexpath_steps", 0)
    return after["vector_ops"] - before["vector_ops"], ticks, steps


def _evaluate_delta(engine, compiled):
    return _delta(lambda: engine.evaluate(compiled, algorithm="corexpath"))


@pytest.mark.parametrize("query,want_sweeps,want_ops", COUNTER_CASES)
def test_vector_counters_are_exact_per_evaluation(query, want_sweeps, want_ops):
    document = book_catalog(books=20)
    evaluator = CoreXPathEvaluator(document)
    steps = XPathEngine(document).compile(query).ast.steps
    dom = list(range(len(document.nodes)))
    ops, ticks, swept = _delta(lambda: evaluator.forward_from_pres(steps, dom))
    assert ops == want_ops, f"counter shape drifted on {query!r}"
    # The three counters partition the dispatches: one per forward step,
    # two (filter, inverse) per backward step.
    assert ticks == swept + (want_sweeps - 1)


def test_vector_counters_do_not_move_outside_vector_dispatch():
    engine = XPathEngine(book_catalog(books=20))
    compiled = engine.compile("/descendant::*/child::node()")
    with kernel_mode_forced("scan"):
        ops, ticks, steps = _evaluate_delta(engine, compiled)
    assert (ops, ticks) == (0, steps)  # every step a fallback scan
    # A document below the block threshold has no block to offer.
    tiny_engine = XPathEngine(parse_document("<a><b/><b/></a>"))
    tiny_compiled = tiny_engine.compile("/descendant::b")
    assert _evaluate_delta(tiny_engine, tiny_compiled) == (0, 1, 1)


def test_auto_dispatch_engages_vector_tier_on_wide_documents():
    engine = XPathEngine(book_catalog(books=20))
    compiled = engine.compile("/descendant::*/child::node()")
    # The opening step from the root is narrow; child from every element
    # is a block.
    assert _evaluate_delta(engine, compiled) == (1, 2, 2)


@pytest.mark.parametrize("algorithm", ["mincontext", "optmincontext"])
def test_table_evaluators_reach_the_vector_tier_through_the_step_gate(algorithm):
    """MINCONTEXT's set steps go through the gate a Core sweep's steps
    go through: blocks tick ``vector_ops`` in ``auto`` and nothing does
    under ``scan`` — with the same answer and the same paper counters
    under both."""
    document = book_catalog(books=20)
    assert len(document.nodes) >= VECTOR_MIN_BLOCK
    engine = XPathEngine(document)
    compiled = engine.compile("//book[price > 50]/title")
    seen = set()
    for mode in KERNEL_MODES:
        before = stats.axis_kernel_stats.snapshot()
        with kernel_mode_forced(mode), stats.collect() as collected:
            value = engine.evaluate(compiled, algorithm=algorithm)
        after = stats.axis_kernel_stats.snapshot()
        vector_ops = after["vector_ops"] - before["vector_ops"]
        assert (vector_ops == 0) == (mode == "scan"), (mode, vector_ops)
        counters = collected.snapshot()
        seen.add(
            (
                tuple(node.pre for node in value),
                counters["mincontext_contexts_evaluated"],
                counters["peak_table_cells"],
            )
        )
    assert len(seen) == 1, seen


# ----------------------------------------------------------------------
# No optional dependency
# ----------------------------------------------------------------------


def test_vector_tier_never_imports_numpy():
    """The kernels are standard library only; the memory an optional
    array package costs must not come back through an import. A fresh
    interpreter parses, evaluates a batch whose steps run over blocks,
    and must end without the module loaded."""
    script = (
        "import sys\n"
        "from repro import QueryService, parse_document\n"
        "document = parse_document('<r>' + '<a><b/><b/></a>' * 20 + '</r>')\n"
        "batch = QueryService().evaluate_many(\n"
        "    ['/descendant::a/child::b', '/descendant::a[child::b]'], [document])\n"
        "assert [len(value) for value in batch.values[0]] == [40, 20]\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    source_root = str(pathlib.Path(repro.__file__).parents[1])
    outcome = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": source_root},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert outcome.returncode == 0, outcome.stderr
