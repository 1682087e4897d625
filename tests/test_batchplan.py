"""Tests for the batch-shared step DAG (:mod:`repro.service.batchplan`).

The contract under test, end to end: sharing only ever removes work —
``evaluate_many(share=True)`` returns exactly the values of independent
evaluation (every plan shape), ``share=False`` reproduces
the independent path byte-identically *including stats*, and the
:class:`~repro.stats.BatchPlanStats` counters satisfy their
reconciliation identities exactly.
"""

import random

import pytest

from repro.axes.axes import (
    INTERVAL_AXES,
    axis_nodes,
    axis_test_pres,
    kernel_mode_forced,
    select_node_test,
)
from repro.service import QueryService, build_batch_plan
from repro.workloads.documents import (
    balanced_tree,
    book_catalog,
    deep_chain,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.xml.parser import parse_document
from repro.xpath.ast import NodeTest, clone

SEED = 20030613

#: A prefix-heavy batch: one deep shared spine, several tails, plus
#: deliberately unsharable shapes (scalar, union, relative) and a
#: duplicate (exercises the distinct-plan handling in the DAG build).
QUERIES = [
    "//book/title",
    "//book/author",
    "//book/chapter/section",
    "//book[price > 20]/title",
    "//book/title",  # duplicate
    "//chapter",
    "/descendant-or-self::node()/child::book/child::author",  # ≡ //book/author
    "count(//book)",
    "//title | //author",
    "//book[position() = 1]/chapter",
]


@pytest.fixture(scope="module")
def documents():
    return [
        book_catalog(books=4),
        book_catalog(books=2, chapters_per_book=5),
        running_example_document(),
        parse_document("<book><title>solo</title><price>30</price></book>"),
    ]


def _independent_values(queries, docs, **service_kwargs):
    """The reference: one fresh service, a plain per-cell loop."""
    service = QueryService(**service_kwargs)
    plans = [service.plan(q) for q in queries]
    values = []
    for document in docs:
        session = service.session(document)
        values.append([session.evaluate(plan, algorithm="auto") for plan in plans])
    return values


# ----------------------------------------------------------------------
# DAG construction
# ----------------------------------------------------------------------


def test_step_keys_canonicalize_syntactic_variants():
    service = QueryService()
    short = service.plan("//b").traits.step_keys
    long = service.plan("/descendant-or-self::node()/child::b").traits.step_keys
    assert short == ("descendant-or-self::node()", "child::b")
    assert short == long


def test_step_keys_empty_for_unsharable_shapes():
    service = QueryService()
    for query in ("count(//b)", "//a | //b", "b/c", "//b/text()[1] = '10'"):
        assert service.plan(query).traits.step_keys == (), query


def test_dag_unifies_common_prefixes():
    service = QueryService()
    plans = [service.plan(q) for q in QUERIES]
    batch = build_batch_plan(plans)
    assert batch.shared
    chains = set(batch.nodes)
    # The universal //-spine and the //book prefix are shared by several
    # plans each; every materialized prefix has >= 2 consumers.
    assert ("descendant-or-self::node()",) in chains
    assert ("descendant-or-self::node()", "child::book") in chains
    assert all(node.consumers >= 2 for node in batch.nodes.values())
    # Parent links point at the longest materialized proper prefix.
    book = batch.nodes[("descendant-or-self::node()", "child::book")]
    assert book.parent == ("descendant-or-self::node()",)
    assert len(book.residual_steps) == 1


def test_dag_entries_resume_from_longest_prefix():
    service = QueryService()
    plans = [service.plan(q) for q in QUERIES]
    batch = build_batch_plan(plans)
    by_source = {e.plan.source: e for e in batch.entries}
    title = by_source["//book/title"]
    assert title.base == ("descendant-or-self::node()", "child::book")
    assert len(title.residual_steps) == 1 and title.residual_core
    # The full-XPath predicate keeps the plan sharable on the spine but
    # marks its residual as non-Core (ConstantNodeSet-rooted plan).
    priced = by_source["//book[price > 20]/title"]
    assert priced.base == ("descendant-or-self::node()",)
    assert not priced.residual_core
    # Unsharable plans stay independent.
    assert by_source["count(//book)"].base is None
    assert not by_source["count(//book)"].sharable


def test_syntactic_variants_share_one_distinct_plan():
    service = QueryService()
    plans = [service.plan(q) for q in ("//b", "/descendant-or-self::node()/child::b")]
    # Distinct cache keys (different sources) but identical chains: both
    # entries resume from the same materialized prefix.
    batch = build_batch_plan(plans)
    assert ("descendant-or-self::node()", "child::b") in batch.nodes
    assert all(entry.base == ("descendant-or-self::node()", "child::b") == entry.chain
               for entry in batch.entries)
    assert all(not entry.residual_steps for entry in batch.entries)


def test_build_batch_plan_empty_and_degenerate():
    assert build_batch_plan([]) is None
    service = QueryService()
    lone = build_batch_plan([service.plan("//b")])
    assert lone is not None and not lone.shared  # no prefix shared twice


def test_clone_expr_gives_fresh_uids_and_preserves_types():
    service = QueryService()
    ast = service.plan("//b[position() = 1]/c").ast
    copy = clone(ast)
    assert copy is not ast
    assert copy.value_type == ast.value_type
    originals = set()

    def collect(expr, into):
        into.add(id(expr))
        for child in getattr(expr, "steps", []):
            collect(child, into)
            for predicate in child.predicates:
                collect(predicate, into)

    collect(ast, originals)
    copies: set = set()
    collect(copy, copies)
    assert originals.isdisjoint(copies)


def test_describe_renders_the_dag():
    service = QueryService()
    plans = [service.plan(q) for q in QUERIES]
    text = build_batch_plan(plans).describe()
    assert "materialized prefix(es)" in text
    assert "prefix[0]: /descendant-or-self::node()  <- root" in text
    assert "base=prefix[" in text
    assert "full-XPath predicates" in text
    assert "independent (not a sharable absolute location path)" in text


# ----------------------------------------------------------------------
# Value identity: share on == share off == independent loop
# ----------------------------------------------------------------------


def test_share_on_matches_independent_evaluation(documents):
    expected = _independent_values(QUERIES, documents)
    batch = QueryService().evaluate_many(QUERIES, documents)
    assert batch.values == expected
    assert batch.batch_plan  # sharing actually ran


def test_share_off_matches_independent_evaluation(documents):
    batch = QueryService().evaluate_many(QUERIES, documents, share=False)
    assert batch.values == _independent_values(QUERIES, documents)
    assert batch.batch_plan == {}


def test_no_share_reproduces_independent_stats_exactly(documents):
    """``--no-share`` must be byte-identical to the pre-sharing service:
    same values *and* same per-batch cache stats as a manual loop."""
    manual = QueryService()
    plans = [manual.plan(q) for q in QUERIES]
    for document in documents:
        session = manual.session(document)
        for plan in plans:
            session.evaluate(plan, algorithm="auto")
    batch = QueryService().evaluate_many(QUERIES, documents, share=False)
    assert batch.plan_stats["hits"] == manual.cache_stats()["plan_cache"]["hits"]
    assert batch.plan_stats["misses"] == manual.cache_stats()["plan_cache"]["misses"]
    assert (
        batch.result_stats["hits"]
        == manual.cache_stats()["result_cache"]["hits"]
    )
    assert (
        batch.result_stats["misses"]
        == manual.cache_stats()["result_cache"]["misses"]
    )


def test_forced_algorithm_never_shares(documents):
    batch = QueryService().evaluate_many(
        ["//book/title", "//book/author"], documents, algorithm="mincontext"
    )
    assert batch.batch_plan == {}
    assert batch.values == _independent_values(
        ["//book/title", "//book/author"], documents
    )


def test_shared_memo_entries_compatible_with_independent_calls(documents):
    """A shared run's memo entries serve later independent evaluations
    of the same plans (same key space), and vice versa."""
    service = QueryService()
    batch = service.evaluate_many(QUERIES, documents)
    session = service.session(documents[0])
    before = service.result_cache_stats()["hits"]
    plan = service.plan("//book/title")
    value = session.evaluate(plan, algorithm="auto")
    assert service.result_cache_stats()["hits"] == before + 1
    assert value == batch.value(0, 0)


def test_positional_predicates_survive_the_split(documents):
    """Splitting at a step boundary must preserve positions: predicates
    rank candidates per origin node, not over the unioned prefix set."""
    queries = [
        "//chapter[1]",
        "//chapter[last()]",
        "//book/chapter[position() = 2]",
        "//book/chapter",
    ]
    expected = _independent_values(queries, documents)
    batch = QueryService().evaluate_many(queries, documents)
    assert batch.values == expected
    assert batch.batch_plan["shared_plans"] >= 3


def test_fuzzed_share_identity():
    """Random full-grammar batches: share on == share off, documents
    random, every seed."""
    from repro.workloads.queries import random_full_query

    rng = random.Random(SEED)
    docs = [random_document(rng, max_nodes=24) for _ in range(3)]
    queries = [random_full_query(rng) for _ in range(12)]
    queries += ["//a/b", "//a/b/c", "//a", "/descendant-or-self::node()/child::a"]
    on = QueryService().evaluate_many(queries, docs)
    off = QueryService().evaluate_many(queries, docs, share=False)
    assert on.values == off.values


# ----------------------------------------------------------------------
# Exact counters
# ----------------------------------------------------------------------


def test_batch_plan_counters_reconcile(documents):
    batch = QueryService().evaluate_many(QUERIES, documents)
    plan = batch.batch_plan
    assert plan["cells"] == (
        plan["memo_hits"] + plan["shared_evaluations"] + plan["fallback_cells"]
    )
    assert plan["fallback_cells"] == 0
    assert plan["steps_saved"] == plan["steps_independent"] - plan["steps_shared"]
    assert plan["steps_saved"] >= 0
    # The duplicate query and the //-variant guarantee memo hits; the
    # two materialized prefixes are computed once per document.
    assert plan["memo_hits"] >= 2 * len(documents)
    assert plan["prefix_evaluations"] <= plan["prefix_nodes"] * len(documents)


def test_prefixes_materialize_lazily():
    """A prefix whose consumers are all memo hits is never computed."""
    service = QueryService()
    docs = [running_example_document()]
    first = service.evaluate_many(["//b", "//b/c"], docs)
    assert first.batch_plan["prefix_evaluations"] >= 1
    again = service.evaluate_many(["//b", "//b/c"], docs)
    assert again.batch_plan["memo_hits"] == 2
    assert again.batch_plan["prefix_evaluations"] == 0


def test_sharing_reduces_step_applications(documents):
    """The point of the DAG: strictly fewer location-step sweeps than
    independent evaluation on a prefix-heavy batch."""
    batch = QueryService().evaluate_many(QUERIES, documents)
    assert batch.batch_plan["steps_saved"] > 0


# ----------------------------------------------------------------------
# Residual dispatch
# ----------------------------------------------------------------------


def test_a_non_core_residual_runs_optmincontext():
    """A residual with full-XPath predicates is outside Core XPath, so it
    runs OPTMINCONTEXT — ``auto``'s own dispatch — past the shared
    Core prefix, which runs the Theorem 13 sweep."""
    service = QueryService()
    document = book_catalog(books=4)
    queries = [
        "//book/chapter[position() = 2]/heading",
        "//book/chapter[pages > 20]/heading",
    ]
    session = service.session(document)
    ran = []
    evaluator = session.evaluator
    session.evaluator = lambda algorithm: ran.append(algorithm) or evaluator(algorithm)
    batch = service.evaluate_many(queries, [document])
    assert batch.batch_plan["shared_evaluations"] == 2
    assert batch.batch_plan["fallback_cells"] == 0
    assert ran.count("optmincontext") == 2 and set(ran) == {"corexpath", "optmincontext"}
    assert batch.values == _independent_values(queries, [document])


# ----------------------------------------------------------------------
# Fused per-node axis kernels (axis_test_pres)
# ----------------------------------------------------------------------


def _axis_corpus():
    rng = random.Random(SEED + 1)
    return [
        running_example_document(),
        book_catalog(books=3),
        deep_chain(8),
        wide_tree(width=6),
    ] + [random_document(rng, max_nodes=20) for _ in range(3)]


@pytest.mark.parametrize("mode", ["auto", "scan"])
def test_axis_test_nodes_matches_scan_in_proximity_order(mode):
    """The per-node fused dispatch returns the *list* (order included)
    of the enumerate-then-filter reference, every axis, both modes."""
    tests = [NodeTest("node"), NodeTest("name", "b"), NodeTest("name", "title"),
             NodeTest("wildcard"), NodeTest("text")]
    axes = sorted(INTERVAL_AXES) + ["child", "parent", "ancestor", "self"]
    with kernel_mode_forced(mode):
        for document in _axis_corpus():
            for pre in range(len(document)):
                for axis in axes:
                    for test in tests:
                        expected = select_node_test(
                            document, axis_nodes(document, axis, pre), test, axis
                        )
                        got = axis_test_pres(document, axis, pre, test)
                        assert got == expected, (mode, axis, test.kind, pre)


def test_axis_test_nodes_used_by_positional_evaluation():
    """The paper's running positional example gives identical values
    under both kernel modes (the dispatch is behavior-invisible)."""
    document = book_catalog(books=4)
    query = "//book/descendant::*[position() = 2]"
    results = {}
    for mode in ("auto", "scan"):
        with kernel_mode_forced(mode):
            service = QueryService()
            results[mode] = service.evaluate_many([query], [document]).values
    assert results["auto"] == results["scan"]
