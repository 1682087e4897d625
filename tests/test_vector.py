"""The vector column-program tier (PR 9): byte identity and exact counters.

The contract under test: compiling a Core XPath sweep to a
:class:`repro.axes.vec.VectorProgram` and running it batch-at-a-time —
on the stdlib executor or the optional numpy executor — returns the
*same bytes* as the scalar kernels and the Definition-1 scans, on eager
and lazy documents alike, and the ``vector_program_runs``/``vector_ops``
counters move deterministically per (document, query, mode), never per
backend.

The differential loop reuses the Core XPath fuzz grammar
(:func:`repro.workloads.queries.random_core_query`) with a fixed seed,
crossing every kernel mode with every available executor.
"""

import random

import pytest

from repro import stats
from repro.axes import (
    FORWARD_VECTOR_AXES,
    INVERSE_VECTOR_AXES,
    VECTOR_BACKENDS,
    VECTOR_MIN_BLOCK,
    compile_backward_steps,
    compile_forward_steps,
    kernel_mode_forced,
    numpy_available,
    set_vector_backend,
    sweep_engaged,
    vector_backend,
    vector_backend_forced,
)
from conftest import eager_tree
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
from repro.xpath.parser import parse_xpath

SEED = 20030612


def _backends():
    names = ["stdlib"]
    if numpy_available():
        names.append("numpy")
    return names


def _fuzz_documents():
    rng = random.Random(SEED)
    return [
        eager_tree(running_example_document()),
        wide_tree(width=6),
        book_catalog(books=8, chapters_per_book=3),
        eager_tree(
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
# Differential fuzz: vector == scalar == scan, every mode x executor
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
            for mode in ("indexed", "auto"):
                with kernel_mode_forced(mode):
                    got = engine.evaluate(compiled, algorithm="corexpath")
                assert got == baseline, f"{mode} diverged on {query!r}"
            for backend in _backends():
                with kernel_mode_forced("vector"), vector_backend_forced(backend):
                    got = engine.evaluate(compiled, algorithm="corexpath")
                assert got == baseline, f"vector/{backend} diverged on {query!r}"
            cases += 1
    assert cases == 15 * len(_fuzz_documents())


def test_vector_matches_on_lazy_documents():
    """The programs run over lazy column documents without forcing full
    materialization semantics to differ — same bytes as eager."""
    rng = random.Random(SEED + 7)
    for eager in (eager_tree(running_example_document()), book_catalog(books=10)):
        lazy = decode_snapshot(encode_snapshot(eager), lazy=True)
        eager_engine = XPathEngine(eager)
        lazy_engine = XPathEngine(lazy)
        for _ in range(10):
            query = random_core_query(rng)
            with kernel_mode_forced("scan"):
                baseline = eager_engine.evaluate(query, algorithm="corexpath")
            for backend in _backends():
                with kernel_mode_forced("vector"), vector_backend_forced(backend):
                    got = lazy_engine.evaluate(query, algorithm="corexpath")
                pres = [node.pre for node in got]
                assert pres == [node.pre for node in baseline], (
                    f"vector/{backend} on lazy doc diverged on {query!r}"
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
        for backend in _backends():
            with kernel_mode_forced("vector"), vector_backend_forced(backend):
                assert engine.evaluate(query, algorithm="corexpath") == baseline


# ----------------------------------------------------------------------
# Program compilation
# ----------------------------------------------------------------------


def test_forward_program_shape():
    path = parse_xpath("/descendant::a/child::b[child::c]/following-sibling::d")
    program = compile_forward_steps(path.steps)
    assert program.direction == "forward"
    axes = [step.axis for step in program.steps]
    assert axes == ["descendant", "child", "following-sibling"]
    assert [step.vector for step in program.steps] == [True, True, False]
    assert [len(step.predicates) for step in program.steps] == [0, 1, 0]


def test_backward_program_reverses_steps():
    path = parse_xpath("/descendant::a/child::b")
    program = compile_backward_steps(path.steps)
    assert program.direction == "backward"
    # Backward propagation peels the last step first.
    assert [step.axis for step in program.steps] == ["child", "descendant"]
    # Inverse vectorizability is judged against the *inverse* axis set:
    # descendant inverts to an interval emit, child to a parent gather.
    assert all(step.vector for step in program.steps)


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
# Counters: exact, deterministic, backend-independent
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
    for backend in _backends():
        with kernel_mode_forced("vector"), vector_backend_forced(backend):
            assert _evaluate_delta(engine, compiled) == (want_runs, want_ops), (
                f"counter shape drifted on {query!r} [{backend}]"
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


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_selection_api():
    assert vector_backend() in VECTOR_BACKENDS
    with pytest.raises(ValueError):
        set_vector_backend("gpu")
    previous = vector_backend()
    with vector_backend_forced("stdlib"):
        assert vector_backend() == "stdlib"
    assert vector_backend() == previous


def test_numpy_backend_requires_numpy():
    if numpy_available():
        with vector_backend_forced("numpy"):
            assert vector_backend() == "numpy"
    else:
        with pytest.raises(RuntimeError):
            set_vector_backend("numpy")


def test_stdlib_backend_is_first_class_without_numpy():
    """The stdlib executor must produce full results with numpy entirely
    out of the picture — the no-numpy CI leg runs this whole module, but
    this case also pins the guarded-import contract directly."""
    from repro.axes import vec_np

    assert vec_np.available() == numpy_available()
    if not numpy_available():
        assert vec_np.make_backend(None) is None
    document = book_catalog(books=10)
    engine = XPathEngine(document)
    with kernel_mode_forced("scan"):
        baseline = engine.evaluate("/descendant::*/child::*", algorithm="corexpath")
    with kernel_mode_forced("vector"), vector_backend_forced("stdlib"):
        assert (
            engine.evaluate("/descendant::*/child::*", algorithm="corexpath")
            == baseline
        )
