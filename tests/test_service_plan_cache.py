"""Tests for the service layer: plan cache exactness and batch evaluation.

Two properties matter: *correctness* — a plan served from the cache (and
a result served from a session memo) must produce exactly what a fresh
compilation produces — and *accounting* — the LRU's hit/miss/eviction
counters are exact, because the benchmark's hit-rate claims rest on them.
"""

import gc
import weakref

import pytest

from repro import stats
from repro.engine import XPathEngine
from repro.errors import XPathSyntaxError
from repro.service import Memo, QueryService, plan_key
from repro.workloads.documents import book_catalog, running_example_document
from repro.xml.parser import parse_document

QUERIES = [
    "//b",
    "/descendant::*[position() = last()]",
    "//c[. > 15]",
    "count(//d)",
    "//b[child::c]/d",
]


@pytest.fixture(scope="module")
def documents():
    return [
        running_example_document(),
        book_catalog(books=3),
        parse_document('<a id="1"><b id="2">10</b><c id="3">20</c></a>'),
    ]


# ----------------------------------------------------------------------
# Correctness: cached plans and memoized results match fresh compilation
# ----------------------------------------------------------------------


def test_plan_reuse_matches_fresh_compilation(documents):
    service = QueryService()
    for document in documents:
        fresh = XPathEngine(document)
        for query in QUERIES:
            first = service.evaluate(query, document)
            second = service.evaluate(query, document)   # plan + result hits
            expected = fresh.evaluate(query)
            assert first == expected, (query,)
            assert second == expected, (query,)


def test_evaluate_many_matches_per_query_engines(documents):
    service = QueryService()
    batch = service.evaluate_many(QUERIES, documents)
    assert batch.document_count == len(documents)
    for doc_index, document in enumerate(documents):
        fresh = XPathEngine(document)
        for query_index, query in enumerate(QUERIES):
            assert batch.value(doc_index, query_index) == fresh.evaluate(query), (
                document,
                query,
            )


def test_batch_stats_are_per_batch_deltas(documents):
    """BatchResult stats cover that batch only, not service lifetime."""
    service = QueryService()
    first = service.evaluate_many(["//b", "//b"], documents[:1])
    assert first.plan_stats["misses"] == 1
    assert first.plan_stats["hits"] == 1
    second = service.evaluate_many(["//b", "//b"], documents[:1])
    assert second.plan_stats["misses"] == 0     # already compiled
    assert second.plan_stats["hits"] == 2
    assert second.plan_stats["hit_rate"] == 1.0
    assert second.result_stats["misses"] == 0   # served from the memo
    assert second.result_stats["hits"] == 2
    # Lifetime totals still accumulate on the service.
    assert service.cache_stats()["plan_cache"]["misses"] == 1
    assert service.cache_stats()["plan_cache"]["hits"] == 3


def test_batch_algorithms_follow_fragment_dispatch(documents):
    service = QueryService()
    batch = service.evaluate_many(["//b[child::c]", "//b[position() = 1]"], documents[:1])
    assert batch.algorithms == ["corexpath", "optmincontext"]


def test_empty_batches_and_query_errors_before_any_row(documents):
    """No documents gives no rows, no queries gives empty rows, and a bad
    query fails the batch before any document is evaluated."""
    service = QueryService()
    assert service.evaluate_many(QUERIES, []).values == []
    assert service.evaluate_many([], documents).values == [[]] * len(documents)
    with pytest.raises(XPathSyntaxError):
        service.evaluate_many(["//b", "//b["], documents)
    assert service.result_cache_stats()["misses"] == 0


def test_forced_algorithm_in_batch(documents):
    service = QueryService()
    batch = service.evaluate_many(QUERIES, documents[:1], algorithm="mincontext")
    assert set(batch.algorithms) == {"mincontext"}
    fresh = XPathEngine(documents[0])
    for query_index, query in enumerate(QUERIES):
        assert batch.value(0, query_index) == fresh.evaluate(query)


def test_cached_node_set_results_are_independent_copies(documents):
    service = QueryService()
    document = documents[0]
    first = service.evaluate("//b", document)
    first.clear()  # caller mutates its copy...
    second = service.evaluate("//b", document)
    assert second == XPathEngine(document).evaluate("//b")  # ...memo unharmed


def test_plan_key_separates_variable_signatures():
    """One plan per (text, bindings): no binding, a number, a boolean and
    two node-sets each key a plan of their own, and a compiled plan
    carries the key it was cached under."""
    document = parse_document("<a><b/><b/></a>")
    first, second = document.nodes[2], document.nodes[3]
    bindings = [None, {"x": 1.0}, {"x": True}, {"x": [first]}, {"x": [second]}]
    keys = [plan_key("//b", variables) for variables in bindings]
    assert len(set(keys)) == len(bindings)
    assert keys[0] == plan_key("//b", {}) == ("//b", ())
    assert keys[3] == plan_key("//b", {"x": [first]})
    service = QueryService()
    for variables, key in zip(bindings, keys):
        assert service.plan("//b", variables=variables).cache_key == key


def test_bool_and_number_bindings_are_distinct_plans():
    """Regression: True == 1 in Python, but string($v) is 'true' vs '1' —
    the cache key must not conflate them."""
    document = parse_document("<a/>")
    service = QueryService(variables={"v": True})
    as_bool = service.evaluate("string($v)", document)
    as_number = service.evaluate(
        service.plan("string($v)", variables={"v": 1}), document
    )
    assert as_bool == "true"
    assert as_number == "1"
    assert plan_key("string($v)", {"v": True}) != plan_key("string($v)", {"v": 1})


def test_variable_bindings_flow_through_service():
    document = parse_document('<a><b id="1">10</b><b id="2">20</b></a>')
    service = QueryService(variables={"limit": 15})
    got = service.evaluate("//b[. > $limit]", document)
    assert [n.xml_id for n in got] == ["2"]
    # a different binding is a different plan, not a stale cache hit
    other = service.plan("//b[. > $limit]", variables={"limit": 5})
    assert other is not service.plan("//b[. > $limit]")


# ----------------------------------------------------------------------
# Accounting: LRU eviction and counters are exact
# ----------------------------------------------------------------------


def test_lru_eviction_order_and_counters():
    cache = Memo(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes "a" to MRU
    cache.put("c", 3)                   # evicts "b", the LRU entry
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.get("b") is None
    assert cache.stats.snapshot()["hits"] == 1
    assert cache.stats.snapshot()["misses"] == 1
    assert cache.stats.snapshot()["evictions"] == 1
    assert len(cache) == 2


def test_plan_cache_counters_are_exact():
    document = running_example_document()
    service = QueryService(plan_capacity=8)
    for _ in range(3):
        for query in QUERIES:
            service.evaluate(query, document)
    plan_stats = service.plans.stats.snapshot()
    assert plan_stats["misses"] == len(QUERIES)
    assert plan_stats["hits"] == 2 * len(QUERIES)
    assert plan_stats["evictions"] == 0
    assert plan_stats["hit_rate"] == pytest.approx(2 / 3)
    result_stats = service.cache_stats()["result_cache"]
    assert result_stats["misses"] == len(QUERIES)
    assert result_stats["hits"] == 2 * len(QUERIES)


def test_plan_cache_eviction_under_capacity_pressure():
    document = running_example_document()
    service = QueryService(plan_capacity=2)
    queries = ["//a", "//b", "//c", "//d"]
    for query in queries:
        service.evaluate(query, document)
    assert service.plans.stats.snapshot()["misses"] == 4
    assert service.plans.stats.snapshot()["evictions"] == 2
    assert len(service.plans) == 2
    # Only the two most recent survive.
    survivors = {key[0] for key in service.plans.keys()}
    assert survivors == {"//c", "//d"}
    # Re-requesting an evicted query recompiles (a miss), not a stale hit.
    before = service.plans.stats.snapshot()["misses"]
    service.evaluate("//a", document)
    assert service.plans.stats.snapshot()["misses"] == before + 1


def test_session_capacity_bounds_document_retention():
    """A long-lived service must not retain every document ever served."""
    service = QueryService(session_capacity=2)
    documents = [parse_document(f"<a><b>{i}</b></a>") for i in range(5)]
    for document in documents:
        service.evaluate("//b", document)
    assert service.cache_stats()["sessions"] == 2
    # Evicted sessions' memo traffic still shows up in the aggregate.
    assert service.cache_stats()["result_cache"]["misses"] == 5


def test_result_memo_survives_plan_eviction_and_recompile():
    """Regression: the result memo is keyed by the plan's stable cache
    key, not the AST's per-compilation uid. A plan evicted from the LRU
    and recompiled must still hit its old memo entries — under the uid
    key every eviction made them permanently unreachable (silent full
    re-evaluations plus dead entries pinning node lists until the
    wholesale flush)."""
    document = parse_document('<a id="1"><b id="2">10</b><c id="3">20</c></a>')
    service = QueryService(plan_capacity=1)
    session = service.session(document)
    first_plan = weakref.ref(service.plan("//b"))
    rounds = 3
    for _ in range(rounds):
        service.evaluate("//b", document)  # evicts //c's plan
        service.evaluate("//c", document)  # evicts //b's plan
    # The plan cache thrashes by construction...
    assert service.plans.stats.snapshot()["misses"] == 2 * rounds
    assert service.plans.stats.snapshot()["evictions"] == 2 * rounds - 1
    # ...but the result memo keeps hitting across recompilations.
    assert session.result_stats.snapshot()["misses"] == 2
    assert session.result_stats.snapshot()["hits"] == 2 * (rounds - 1)
    # No unreachable-entry growth: one memo entry per distinct request.
    assert len(session.results) == 2
    # The memo entry the first //b plan filled does not keep that plan:
    # once evicted, it is garbage, and a recompiled //b still hits.
    gc.collect()
    assert first_plan() is None
    service.evaluate("//b", document)
    assert session.result_stats.snapshot()["hits"] == 2 * rounds - 1
    assert len(session.results) == 2


def test_result_memo_evicts_at_capacity():
    document = parse_document("<a><b>1</b><c>2</c><d>3</d></a>")
    service = QueryService(result_capacity=2)
    session = service.session(document)
    for query in ("//b", "//c", "//d"):  # third insert evicts the least recent
        service.evaluate(query, document)
    assert len(session.results) == 2
    assert session.result_stats.snapshot()["evictions"] == 1
    # Evicted entries recompute correctly (a miss, not an error).
    assert service.evaluate("//b", document) == XPathEngine(document).evaluate("//b")


def test_result_memo_keeps_an_entry_just_hit_through_an_overflow():
    """Least recently used out first: //b, hit just before //d overflows
    the memo, stays; //c, untouched since its insert, goes."""
    document = parse_document("<a><b>1</b><c>2</c><d>3</d></a>")
    service = QueryService(result_capacity=2)
    for query in ("//b", "//c", "//b", "//d"):
        service.evaluate(query, document)
    before = service.result_cache_stats()
    service.evaluate("//b", document)
    after = service.result_cache_stats()
    assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])
    service.evaluate("//c", document)
    assert service.result_cache_stats()["misses"] == before["misses"] + 1


def test_cache_stats_reports_every_memo_capacity():
    """Each memo's bound in its own unit: plans, result entries per
    session, holds cells per session, steps, templates."""
    stats_of = QueryService().cache_stats()
    capacities = {
        name: stats_of[name]["capacity"]
        for name in ("plan_cache", "result_cache", "holds_memo", "step_memo", "template_memo")
    }
    assert capacities == {
        "plan_cache": 256,
        "result_cache": 1024,
        "holds_memo": 1048576,
        "step_memo": 256,
        "template_memo": 256,
    }
    assert QueryService(result_capacity=8).cache_stats()["result_cache"]["capacity"] == 8


def test_get_or_create_factory_runs_once():
    cache = Memo(capacity=4)
    calls = []
    for _ in range(3):
        value = cache.get_or_create("k", lambda: calls.append(1) or "v")
    assert value == "v"
    assert calls == [1]
    assert cache.stats.snapshot()["hits"] == 2 and cache.stats.snapshot()["misses"] == 1


def test_get_or_create_factory_with_recursive_inserts_keeps_counters_exact():
    """The unified insert path must stay exact when the factory itself
    populates the cache: 3 entries through a capacity-2 cache is exactly
    one eviction, and the outer value lands at the MRU end."""
    cache = Memo(capacity=2)

    def factory():
        cache.put("x", "inner-1")
        cache.put("y", "inner-2")
        return "outer"

    assert cache.get_or_create("k", factory) == "outer"
    assert len(cache) == 2
    assert cache.stats.snapshot()["evictions"] == 1          # "x" (LRU) and nothing else
    assert list(cache.keys()) == ["y", "k"]
    assert cache.get("k") == "outer"


def test_get_or_create_factory_inserting_the_same_key_is_not_an_eviction():
    """A factory that inserts the contested key itself: the outer insert
    overwrites in place — no spurious eviction, no duplicate entry."""
    cache = Memo(capacity=2)

    def factory():
        cache.put("k", "inner")
        return "outer"

    assert cache.get_or_create("k", factory) == "outer"
    assert len(cache) == 1
    assert cache.stats.snapshot()["evictions"] == 0
    assert cache.get("k") == "outer"


def test_put_refreshes_existing_key_to_mru():
    cache = Memo(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)            # refresh must move "a" to the MRU end
    cache.put("c", 3)             # so this evicts "b", not "a"
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.stats.snapshot()["evictions"] == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Memo(capacity=0)


def test_cache_events_mirror_into_stats_collectors():
    document = running_example_document()
    service = QueryService()
    with stats.collect() as collected:
        service.evaluate("//b", document)
        service.evaluate("//b", document)
    assert collected.get("plan_cache_misses") == 1
    assert collected.get("plan_cache_hits") == 1
    assert collected.get("result_cache_hits") == 1
    assert collected.get("plans_compiled") == 1


def test_clear_drops_entries_but_keeps_stats():
    document = running_example_document()
    service = QueryService()
    service.evaluate("//b", document)
    service.clear()
    assert len(service.plans) == 0
    assert service.plans.stats.snapshot()["misses"] == 1
    # After clearing, the same query compiles again.
    service.evaluate("//b", document)
    assert service.plans.stats.snapshot()["misses"] == 2
