"""Tests for sharded batch execution: shard planning, both backends,
batch-order merging, and exact cross-worker statistics aggregation.

The contract under test: a sharded run is *indistinguishable* from the
sequential `evaluate_many` path in its values (same objects for the
thread backend, same parent-document nodes for the process backend), and
its merged cache statistics are the exact sums of the per-shard counters.
"""

import pytest

from repro.service import (
    EXECUTOR_BACKENDS,
    SHARD_STRATEGIES,
    QueryService,
    ShardedExecutor,
    merge_stats_snapshots,
    plan_shards,
)
from repro.service.shard import document_weight
from repro.workloads.documents import (
    book_catalog,
    numbered_line,
    running_example_document,
    wide_tree,
)
from repro.xml.parser import parse_document

QUERIES = [
    "//b",
    "count(//*)",
    "/descendant::*[position() = last()]",
    "//b",  # duplicate: exercises plan + result cache hits inside shards
    "//c[. > 15]",
]


@pytest.fixture(scope="module")
def documents():
    return [
        running_example_document(),
        book_catalog(books=4),
        wide_tree(width=12),
        parse_document('<a id="1"><b id="2">10</b><c id="3">20</c></a>'),
        numbered_line(9),
        parse_document("<a><b>99</b></a>"),
    ]


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


def test_round_robin_sharding_interleaves_documents(documents):
    shards = plan_shards(documents, workers=3, strategy="round-robin")
    assert [s.document_indices for s in shards] == [(0, 3), (1, 4), (2, 5)]
    assert [s.weight for s in shards] == [2, 2, 2]  # document counts


def test_size_balanced_sharding_balances_node_counts():
    heavy = book_catalog(books=20)
    light = [parse_document(f"<a><b>{i}</b></a>") for i in range(4)]
    shards = plan_shards([heavy] + light, workers=2, strategy="size-balanced")
    assert len(shards) == 2
    # The heavy catalog dwarfs the four 5-node documents; LPT must put it
    # alone and group the light ones, not split round-robin-style.
    by_weight = sorted(shards, key=lambda s: s.weight)
    assert by_weight[0].document_indices == (1, 2, 3, 4)
    assert by_weight[1].document_indices == (0,)
    assert by_weight[1].weight == document_weight(heavy)
    assert by_weight[0].weight == sum(document_weight(d) for d in light)


def test_sharding_never_produces_empty_shards(documents):
    for strategy in SHARD_STRATEGIES:
        shards = plan_shards(documents[:2], workers=8, strategy=strategy)
        assert len(shards) == 2
        assert all(s.document_indices for s in shards)
    assert plan_shards([], workers=4) == []


def test_sharding_covers_every_document_exactly_once(documents):
    for strategy in SHARD_STRATEGIES:
        for workers in (1, 2, 4, 7):
            shards = plan_shards(documents, workers, strategy=strategy)
            covered = sorted(
                index for shard in shards for index in shard.document_indices
            )
            assert covered == list(range(len(documents))), (strategy, workers)


def test_shard_planning_validates_arguments(documents):
    with pytest.raises(ValueError):
        plan_shards(documents, workers=0)
    with pytest.raises(ValueError):
        plan_shards(documents, workers=2, strategy="by-vibes")
    with pytest.raises(ValueError):
        ShardedExecutor(workers=0)
    with pytest.raises(ValueError):
        ShardedExecutor(backend="fiber")
    with pytest.raises(ValueError):
        ShardedExecutor(shard_by="by-vibes")


# ----------------------------------------------------------------------
# Execution: both backends match the sequential path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
def test_sharded_values_match_sequential(documents, backend, strategy):
    sequential = QueryService().evaluate_many(QUERIES, documents)
    executor = ShardedExecutor(workers=3, backend=backend, shard_by=strategy)
    sharded = executor.execute(QUERIES, documents)
    assert sharded.values == sequential.values
    assert sharded.algorithms == sequential.algorithms
    assert sharded.document_count == len(documents)
    assert sharded.workers == 3


def test_process_backend_rebinds_nodes_to_parent_documents(documents):
    """Process workers evaluate rebuilt trees, but the merged result must
    hand back nodes of the *caller's* documents (by identity)."""
    executor = ShardedExecutor(workers=2, backend="process")
    batch = executor.execute(["//b"], documents)
    for doc_index, document in enumerate(documents):
        for node in batch.value(doc_index, 0):
            assert node is document.nodes[node.pre]


def test_process_backend_ships_noncanonical_documents_without_fallback():
    """A builder document with a non-ASCII tag does not round-trip
    through serialize → parse (the parser reads ASCII names only) —
    under the old markup shipping this forced an in-parent fallback.
    Binary snapshots preserve the pre-order numbering exactly for every
    document, so the shard ships, evaluates in the worker, and rebinds
    correctly — no fallback anywhere."""
    from repro.xml.builder import element, text

    noncanonical = element("a", None, element("é", None, text("x")), text("y"), element("b")).build()
    canonical = parse_document("<a><b>1</b></a>")
    documents = [noncanonical, canonical, parse_document("<a><b>2</b></a>")]
    sequential = QueryService().evaluate_many(["//b", "//text()"], documents)
    batch = ShardedExecutor(workers=2, backend="process").execute(
        ["//b", "//text()"], documents
    )
    assert batch.values == sequential.values
    # The selected element is the parent's own <b> node, not a shifted one.
    (b_node,) = batch.value(0, 0)
    assert b_node is noncanonical.nodes[b_node.pre]
    assert b_node.is_element and b_node.name == "b"
    # Both text nodes come back, the one under the non-ASCII tag too.
    assert [n.value for n in batch.value(0, 1)] == ["x", "y"]
    # No shard fell back: snapshots make every document shippable.
    for shard in batch.shards:
        assert not shard["local_fallback"]


@pytest.mark.parametrize(
    "make_document",
    [
        # An attribute name holding a space serializes to two names,
        # the second without a value: the reparse raises.
        lambda element, text, comment, pi: element(
            "a", {"x y": "1"}, pi("t", "d"), element("b", None, text("10"))
        ).build(),
        # A non-ASCII element name is outside the parser's language: the
        # worker's reparse raises outright.
        lambda element, text, comment, pi: element(
            "a", None, comment("c"), element("ü", None, element("b", None, text("10")))
        ).build(),
    ],
)
def test_process_backend_survives_unserializable_builder_documents(make_document):
    """Builder documents whose serialize → parse round trip is not
    node-isomorphic (or not even well-formed) used to force in-parent
    fallbacks; snapshot shipping side-steps serialization entirely, so
    they evaluate in workers and rebind to the caller's exact nodes."""
    from repro.xml.builder import comment, element, processing_instruction, text

    tricky = make_document(element, text, comment, processing_instruction)
    plain = parse_document("<a><b>1</b></a>")
    documents = [tricky, plain]
    sequential = QueryService().evaluate_many(["//b"], documents)
    batch = ShardedExecutor(workers=2, backend="process").execute(["//b"], documents)
    assert batch.values == sequential.values
    (b_node,) = batch.value(0, 0)
    assert b_node.is_element and b_node.name == "b"
    assert b_node is tricky.nodes[b_node.pre]
    for shard in batch.shards:
        assert not shard["local_fallback"]


def test_evaluate_many_workers_wiring(documents):
    """QueryService.evaluate_many(workers=N) delegates to the executor
    and leaves the parent service's own caches untouched."""
    service = QueryService(plan_capacity=32)
    sequential = QueryService().evaluate_many(QUERIES, documents)
    sharded = service.evaluate_many(
        QUERIES, documents, workers=2, shard_by="size-balanced"
    )
    assert sharded.values == sequential.values
    assert sharded.workers == 2
    assert len(service.plans) == 0  # parent caches not populated


def test_more_workers_than_documents(documents):
    executor = ShardedExecutor(workers=16, backend="thread")
    batch = executor.execute(["//b"], documents[:2])
    assert batch.workers == 2  # never more shards than documents
    assert batch.values == QueryService().evaluate_many(["//b"], documents[:2]).values


def test_sharded_empty_document_list():
    batch = ShardedExecutor(workers=4).execute(QUERIES, [])
    assert batch.document_count == 0
    assert batch.values == []
    assert batch.algorithms  # queries still compiled and resolved
    assert batch.plan_stats["hits"] == 0 and batch.plan_stats["misses"] == 0


def test_sharded_single_worker_degenerates_to_one_shard(documents):
    batch = ShardedExecutor(workers=1).execute(QUERIES, documents)
    assert batch.workers == 1
    assert len(batch.shards) == 1
    assert batch.values == QueryService().evaluate_many(QUERIES, documents).values


def test_sharded_run_surfaces_query_errors_before_workers(documents):
    from repro.errors import FragmentViolationError, XPathSyntaxError

    executor = ShardedExecutor(workers=2)
    with pytest.raises(XPathSyntaxError):
        executor.execute(["//b["], documents)
    with pytest.raises(FragmentViolationError):
        executor.execute(["//b[position() = 1]"], documents, algorithm="corexpath")


def test_process_backend_rejects_node_set_variable_bindings(documents):
    """Regression: a node-set binding shipped to a process worker would
    pickle a *copy* of its tree, and the worker's pre-index results would
    silently decode against the wrong (queried) document. The constraint
    is enforced up front; thread workers share the parent's objects and
    keep working."""
    bound_node = documents[0].root_element
    with pytest.raises(ValueError, match="scalar"):
        ShardedExecutor(workers=2, backend="process", variables={"v": [bound_node]})
    service = QueryService(variables={"v": [bound_node]})
    with pytest.raises(ValueError, match="scalar"):
        service.evaluate_many(["$v"], documents, workers=2, backend="process")
    threaded = service.evaluate_many(["$v"], documents, workers=2, backend="thread")
    for doc_index in range(len(documents)):
        assert threaded.value(doc_index, 0) == [bound_node]  # the parent's node


def test_sharded_optimize_and_variables_flow_to_workers(documents):
    document = parse_document('<a><b id="1">10</b><b id="2">20</b></a>')
    service = QueryService(variables={"limit": 15}, optimize=True)
    batch = service.evaluate_many(["//b[. > $limit]"], [document], workers=2)
    assert [n.xml_id for n in batch.value(0, 0)] == ["2"]


def test_process_worker_verifies_rebuilt_node_counts():
    """The worker-side defense in depth: a payload whose decoded
    documents don't match the parent's node counts (or whose blobs don't
    decode at all) is answered with a fallback request, never an
    index-encoded result."""
    from repro.service.executor import _evaluate_shard_snapshots
    from repro.xml.snapshot import encode_snapshot

    config = QueryService().config()
    document = parse_document("<a><b>1</b></a>")
    blob = encode_snapshot(document)
    mismatched = _evaluate_shard_snapshots(
        {
            "config": config,
            "queries": ["//b"],
            "algorithm": "auto",
            "snapshots": [blob],
            "node_counts": [99],  # parent numbering disagrees
        }
    )
    assert "fallback" in mismatched and "values" not in mismatched
    corrupted = bytearray(blob)
    corrupted[len(corrupted) // 2] ^= 0x20
    undecodable = _evaluate_shard_snapshots(
        {
            "config": config,
            "queries": ["//b"],
            "algorithm": "auto",
            "snapshots": [bytes(corrupted)],
            "node_counts": [len(document)],
        }
    )
    assert "fallback" in undecodable and "decode" in undecodable["fallback"]
    # And a well-formed payload answers with index-encoded values.
    good = _evaluate_shard_snapshots(
        {
            "config": config,
            "queries": ["//b"],
            "algorithm": "auto",
            "snapshots": [blob],
            "node_counts": [len(document)],
        }
    )
    assert "fallback" not in good and good["values"]


# ----------------------------------------------------------------------
# Statistics merge: exact sums across workers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_merged_stats_equal_sum_of_per_shard_counters(documents, backend):
    executor = ShardedExecutor(workers=3, backend=backend, plan_capacity=4)
    batch = executor.execute(QUERIES, documents)
    assert len(batch.shards) == 3
    for stats_name in ("plan_stats", "result_stats"):
        merged = getattr(batch, stats_name)
        for counter in ("hits", "misses", "evictions"):
            assert merged[counter] == sum(
                shard[stats_name][counter] for shard in batch.shards
            ), (backend, stats_name, counter)
    # The duplicated query means every shard saw real cache traffic.
    assert batch.plan_stats["hits"] >= len(batch.shards)
    lookups = batch.plan_stats["hits"] + batch.plan_stats["misses"]
    assert batch.plan_stats["hit_rate"] == batch.plan_stats["hits"] / lookups


def test_merge_stats_snapshots_recomputes_hit_rate():
    merged = merge_stats_snapshots(
        [
            {"hits": 3, "misses": 1, "evictions": 0, "hit_rate": 0.75},
            {"hits": 0, "misses": 4, "evictions": 2, "hit_rate": 0.0},
        ],
        name="plan_cache",
        capacity=8,
    )
    assert merged["hits"] == 3 and merged["misses"] == 5 and merged["evictions"] == 2
    assert merged["hit_rate"] == pytest.approx(3 / 8)
    assert merged["name"] == "plan_cache" and merged["capacity"] == 8
    empty = merge_stats_snapshots([], name="result_cache")
    assert empty["hit_rate"] == 0.0


def test_shard_metadata_reports_documents_and_weights(documents):
    executor = ShardedExecutor(workers=2, shard_by="size-balanced")
    batch = executor.execute(["//b"], documents)
    covered = sorted(i for shard in batch.shards for i in shard["documents"])
    assert covered == list(range(len(documents)))
    for shard in batch.shards:
        assert shard["strategy"] == "size-balanced"
        assert shard["backend"] == "thread"
        assert shard["weight"] == sum(
            document_weight(documents[i]) for i in shard["documents"]
        )
