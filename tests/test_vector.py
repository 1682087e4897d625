"""The vector column-program tier (PR 9): byte identity and exact counters.

The contract under test: compiling a Core XPath sweep to a
:class:`repro.axes.vec.VectorProgram` and running it batch-at-a-time
returns the *same bytes* as the scalar kernels and the Definition-1
scans, on boxed and column documents alike, and the
``vector_program_runs``/``vector_ops`` counters move deterministically
per (document, query, mode).

The differential loop reuses the Core XPath fuzz grammar
(:func:`repro.workloads.queries.random_core_query`) with a fixed seed,
crossing every kernel mode.

Since the table evaluators' set steps go through the same per-step gate
(:func:`repro.axes.vec.forward_step` and its inverse / filter siblings),
a hypothesis property holds each step function to the Definition-1 scan
on every axis, node test and block shape, and a counter test shows the
gate engaging under a forced ``mincontext`` run.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import stats
from repro.axes import (
    ALL_AXES,
    FORWARD_VECTOR_AXES,
    INVERSE_VECTOR_AXES,
    VECTOR_MIN_BLOCK,
    compile_backward_steps,
    compile_forward_steps,
    kernel_mode_forced,
    sweep_engaged,
)
from repro.axes.axes import (
    KERNEL_MODES,
    axis_test_pres,
    inverse_axis_test_pres,
    matches_node_test,
)
from repro.axes.vec import filter_step, inverse_step
from repro.core.common import step_candidate_pres
from conftest import boxed_twin
from repro.engine import XPathEngine
from repro.workloads.documents import (
    book_catalog,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.workloads.queries import random_core_query
from repro.xml.parser import parse_document
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xpath.ast import NodeTest
from repro.xpath.parser import parse_xpath

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
# Differential fuzz: vector == scalar == scan, every mode
# ----------------------------------------------------------------------


def test_vector_matches_scalar_and_scan_on_fuzz_corpus():
    rng = random.Random(SEED)
    cases = 0
    for document in _fuzz_documents():
        engine = XPathEngine(document)
        for _ in range(15):
            query = random_core_query(rng)
            compiled = engine.compile(query)
            with kernel_mode_forced("scan"):
                baseline = engine.evaluate(compiled, algorithm="corexpath")
            for mode in ("indexed", "auto", "vector"):
                with kernel_mode_forced(mode):
                    got = engine.evaluate(compiled, algorithm="corexpath")
                assert got == baseline, f"{mode} diverged on {query!r}"
            cases += 1
    assert cases == 15 * len(_fuzz_documents())


def test_vector_matches_on_lazy_documents():
    """The programs run over lazy column documents without forcing full
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
            with kernel_mode_forced("vector"):
                got = lazy_engine.evaluate(query, algorithm="corexpath")
            assert [node.pre for node in got] == [node.pre for node in baseline], (
                f"vector on lazy doc diverged on {query!r}"
            )


def test_backward_predicate_programs_match_scalar():
    """Predicate existence sweeps (the backward direction) through the
    program executor agree with the scalar propagation on shapes that
    exercise filter + inverse ops and delegated axes."""
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
        with kernel_mode_forced("vector"):
            assert engine.evaluate(query, algorithm="corexpath") == baseline


# ----------------------------------------------------------------------
# The step functions: every tier computes the Definition-1 set
# ----------------------------------------------------------------------

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
    bottom-up propagation uses — equal the tier-0 answer for every axis x
    node test x block, whichever tier the mode and the block width pick,
    on boxed and on column documents."""
    eager, block = data
    column = decode_snapshot(encode_snapshot(eager))
    nodes = eager.nodes
    for axis in sorted(ALL_AXES):
        with kernel_mode_forced("scan"):
            inverse = inverse_axis_test_pres(eager, axis, block)
        for test in _NODE_TESTS:
            with kernel_mode_forced("scan"):
                forward = list(axis_test_pres(eager, axis, block, test))
            matching = [
                pre for pre in block if matches_node_test(nodes[pre], test, axis)
            ]
            for mode in KERNEL_MODES:
                for document in (eager, column):
                    where = f"{axis}::{test!r} from {block} in {mode}"
                    with kernel_mode_forced(mode):
                        got = step_candidate_pres(document, axis, block, test)
                        assert got == list(axis_test_pres(document, axis, block, test)), where
                        assert list(filter_step(document, axis, block, test)) == matching, where
                    assert isinstance(got, list) and got == forward, where
        for mode in KERNEL_MODES:
            for document in (eager, column):
                with kernel_mode_forced(mode):
                    got = inverse_step(document, axis, block)
                assert list(got) == inverse, f"inverse {axis} from {block} in {mode}"


# ----------------------------------------------------------------------
# Program compilation
# ----------------------------------------------------------------------


def test_forward_program_shape():
    path = parse_xpath("/descendant::a/child::b[child::c]/following-sibling::d")
    program = compile_forward_steps(path.steps)
    assert program.direction == "forward"
    axes = [step.axis for step in program.steps]
    assert axes == ["descendant", "child", "following-sibling"]
    assert [axis in FORWARD_VECTOR_AXES for axis in axes] == [True, True, False]
    assert [len(step.predicates) for step in program.steps] == [0, 1, 0]


def test_backward_program_reverses_steps():
    path = parse_xpath("/descendant::a/child::b")
    program = compile_backward_steps(path.steps)
    assert program.direction == "backward"
    # Backward propagation peels the last step first.
    assert [step.axis for step in program.steps] == ["child", "descendant"]
    # Inverse vectorizability is judged against the *inverse* axis set:
    # descendant inverts to an interval emit, child to a parent gather.
    assert all(step.axis in INVERSE_VECTOR_AXES for step in program.steps)


def test_vector_axis_sets_are_the_documented_tiers():
    assert "child" in FORWARD_VECTOR_AXES
    assert "attribute" in FORWARD_VECTOR_AXES
    assert "descendant" in FORWARD_VECTOR_AXES
    assert "following-sibling" not in FORWARD_VECTOR_AXES
    assert "descendant" in INVERSE_VECTOR_AXES
    assert "ancestor" in INVERSE_VECTOR_AXES
    assert "following-sibling" not in INVERSE_VECTOR_AXES


def test_sweep_engagement_thresholds():
    big = book_catalog(books=10)
    tiny = parse_document("<a><b/></a>")
    assert len(tiny.nodes) < VECTOR_MIN_BLOCK <= len(big.nodes)
    with kernel_mode_forced("auto"):
        assert sweep_engaged(big)
        assert not sweep_engaged(tiny)
    with kernel_mode_forced("vector"):
        assert sweep_engaged(big)
        assert sweep_engaged(tiny)  # forced mode engages regardless
    with kernel_mode_forced("indexed"):
        assert not sweep_engaged(big)
    with kernel_mode_forced("scan"):
        assert not sweep_engaged(big)


# ----------------------------------------------------------------------
# Counters: exact and deterministic
# ----------------------------------------------------------------------

#: (query, program runs, vector ops) for ONE forced-vector evaluation.
#: Forward: one op per vectorizable step; delegated steps (siblings)
#: count the run but no op. Each predicate adds one backward program
#: whose step ticks a filter op plus an inverse op.
COUNTER_CASES = (
    ("/descendant::chapter", 1, 1),
    ("/descendant::*/child::node()", 1, 2),
    ("/descendant::*/attribute::node()", 1, 2),
    ("/descendant::*[child::*]", 2, 3),
    ("/descendant::book/following-sibling::book", 1, 1),
)


def _evaluate_delta(engine, compiled):
    before = stats.axis_kernel_stats.snapshot()
    engine.evaluate(compiled, algorithm="corexpath")
    after = stats.axis_kernel_stats.snapshot()
    return (
        after["vector_program_runs"] - before["vector_program_runs"],
        after["vector_ops"] - before["vector_ops"],
    )


@pytest.mark.parametrize("query,want_runs,want_ops", COUNTER_CASES)
def test_vector_counters_are_exact_per_evaluation(query, want_runs, want_ops):
    engine = XPathEngine(book_catalog(books=20))
    compiled = engine.compile(query)
    with kernel_mode_forced("vector"):
        assert _evaluate_delta(engine, compiled) == (want_runs, want_ops), (
            f"counter shape drifted on {query!r}"
        )


def test_vector_counters_do_not_move_outside_vector_dispatch():
    engine = XPathEngine(book_catalog(books=20))
    compiled = engine.compile("/descendant::*/child::node()")
    for mode in ("indexed", "scan"):
        with kernel_mode_forced(mode):
            assert _evaluate_delta(engine, compiled) == (0, 0)
    # Auto dispatch on a sub-threshold document stays scalar too.
    tiny_engine = XPathEngine(parse_document("<a><b/><b/></a>"))
    tiny_compiled = tiny_engine.compile("/descendant::b")
    with kernel_mode_forced("auto"):
        assert _evaluate_delta(tiny_engine, tiny_compiled) == (0, 0)


def test_auto_dispatch_engages_vector_tier_on_wide_documents():
    engine = XPathEngine(book_catalog(books=20))
    compiled = engine.compile("/descendant::*/child::node()")
    with kernel_mode_forced("auto"):
        runs, ops = _evaluate_delta(engine, compiled)
    assert runs == 1
    assert ops >= 1  # per-op engagement depends on block widths, not mode


@pytest.mark.parametrize("algorithm", ["mincontext", "optmincontext"])
def test_table_evaluators_reach_the_vector_tier_through_the_step_gate(algorithm):
    """MINCONTEXT's set steps go through the gate a Core sweep's program
    steps go through: wide blocks tick ``vector_ops`` in ``auto``, no
    program is run, and ``scan`` / ``indexed`` stay on tiers 0 / 1 — with
    the same answer and the same paper counters in every mode."""
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
        assert after["vector_program_runs"] == before["vector_program_runs"]
        vector_ops = after["vector_ops"] - before["vector_ops"]
        assert (vector_ops == 0) == (mode in ("scan", "indexed")), (mode, vector_ops)
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
    """The vector tier is standard library only; the memory an optional
    array package costs must not come back through an import. A fresh
    interpreter parses, evaluates a batch under forced ``vector``
    dispatch, and must end without the module loaded."""
    script = (
        "import sys\n"
        "from repro import QueryService, parse_document\n"
        "from repro.axes import kernel_mode_forced\n"
        "document = parse_document('<r>' + '<a><b/><b/></a>' * 20 + '</r>')\n"
        "with kernel_mode_forced('vector'):\n"
        "    batch = QueryService().evaluate_many(\n"
        "        ['/descendant::a/child::b', '/descendant::a[child::b]'], [document])\n"
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
