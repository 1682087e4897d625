"""What the service's caches retain: compiled plans live only in the plan
cache.

A session result-memo entry outlives its plan's slot in the LRU plan
cache (an evicted-and-recompiled plan keeps hitting it), so what the
entry holds decides what a long-lived service keeps. It holds the value
and the plan's node-set / object bindings — the objects its key names by
``id()`` — and never the plan: after any number of distinct queries the
live :class:`~repro.service.plan.LogicalPlan` objects are bounded by
``plan_capacity``, through the library batch API and through the
daemon's ``QUERY`` and ``BATCH`` paths alike. (The planner's template
memo keeps one plan per literal-bearing template besides; the texts here
have no literal, so it keeps none.)
"""

import gc
import weakref

from repro.serve import ServeClient
from repro.service import QueryService
from repro.service.plan import LogicalPlan
from repro.xml.parser import parse_document

from test_serve import BOOKS, permissive, running_daemon

CAPACITY = 8


def live_plans() -> int:
    gc.collect()
    return sum(isinstance(obj, LogicalPlan) for obj in gc.get_objects())


def distinct_queries(count: int) -> list[str]:
    """``count`` texts on two shared prefixes, none repeated."""
    heads = ("//book/title", "//book/price")
    return [
        f"{heads[index % 2]}/following::n{index}" for index in range(count)
    ]


def test_identity_keyed_bindings_stay_pinned_by_the_memo_entry():
    """``$v`` bound to nodes of a second document keys the memo entry by
    the nodes' ids, so the entry keeps them (and their document) alive
    after the plan is evicted and every caller reference is gone — and
    lets them go with the memo."""
    document = parse_document(BOOKS)
    service = QueryService(plan_capacity=1)
    session = service.session(document)

    def evaluate_with_foreign_nodes():
        other = parse_document("<x><y/><y/></x>")
        plan = service.plan("$v", variables={"v": other.nodes[2:]})
        # Every evaluator takes foreign nodes only as the whole query.
        result = service.evaluate(plan, document, algorithm="topdown")
        assert [node.pre for node in result] == [2, 3]
        return weakref.ref(other)

    other = evaluate_with_foreign_nodes()
    service.evaluate("//book", document)  # evicts the $v plan
    assert len(service.plans) == 1
    gc.collect()
    assert other() is not None
    session.clear()
    gc.collect()
    assert other() is None


def test_evaluate_many_retains_at_most_plan_capacity_plans():
    documents = [parse_document(BOOKS), parse_document(BOOKS)]
    baseline = live_plans()
    service = QueryService(plan_capacity=CAPACITY)
    queries = distinct_queries(4 * CAPACITY)
    batch = service.evaluate_many(queries, documents)
    assert batch.batch_plan["prefix_nodes"] >= 2
    assert service.plans.stats.snapshot()["misses"] == len(queries)
    assert live_plans() - baseline <= CAPACITY


def test_daemon_query_path_retains_at_most_plan_capacity_plans():
    baseline = live_plans()
    service = QueryService(plan_capacity=CAPACITY)
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        with ServeClient(port=daemon.port, client="r") as client:
            client.register("books", BOOKS)
            for query in distinct_queries(4 * CAPACITY):
                assert client.query(query, "books")["kind"] == "node-set"
    assert service.plans.stats.snapshot()["misses"] == 4 * CAPACITY
    assert live_plans() - baseline <= CAPACITY


def test_daemon_batch_path_retains_at_most_plan_capacity_plans():
    baseline = live_plans()
    service = QueryService(plan_capacity=CAPACITY)
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        with ServeClient(port=daemon.port, client="r") as client:
            client.register("d1", BOOKS)
            client.register("d2", BOOKS)
            queries = distinct_queries(4 * CAPACITY)
            for start in range(0, len(queries), CAPACITY):
                reply = client.batch(queries[start : start + CAPACITY], ["d1", "d2"])
                assert reply["completed"] == reply["total"] == 2 * CAPACITY
    assert live_plans() - baseline <= CAPACITY
