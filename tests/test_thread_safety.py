"""Concurrency hammer: one shared QueryService under many threads.

PR 3's thread-safety contract: :class:`PlanCache`, :class:`CacheStats`,
and the :class:`QueryService` session/memo maps are lock-protected, so a
single service driven from many threads (the thread scheduler's seeding
path, the async front end's offload pool, or plain user threads) keeps
*exact* counters — every lookup counted exactly once, every capacity
overflow counted as an eviction, nothing lost to torn ``+=`` updates —
and returns correct values throughout.

The assertions are deliberately exact (``==``, not ``>=``): before the
locks, losing increments under an 8-thread hammer was the overwhelmingly
likely outcome, so equality is the regression signal.
"""

import threading

from repro.engine import XPathEngine
from repro.service import PlanCache, QueryService
from repro.stats import CacheStats
from repro.workloads.documents import book_catalog, running_example_document, wide_tree
from repro.xml.parser import parse_document

THREADS = 8
ROUNDS = 60


def _hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on N threads through a start barrier
    (maximizing interleaving) and re-raise the first worker error."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as error:  # pragma: no cover - only on regression
            errors.append(error)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def test_cache_stats_counters_are_exact_under_contention():
    stats = CacheStats(name="hammer")

    def worker(_):
        for _ in range(1000):
            stats.hit()
            stats.miss()
            stats.eviction()

    _hammer(worker)
    assert stats.hits == THREADS * 1000
    assert stats.misses == THREADS * 1000
    assert stats.evictions == THREADS * 1000
    assert stats.lookups == 2 * THREADS * 1000


def test_plan_cache_accounting_is_exact_under_contention():
    """Interleaved get_or_create over more keys than capacity: every
    lookup is one hit or one miss, every insert past capacity evicts,
    and the cache never exceeds capacity — all exactly."""
    cache = PlanCache(capacity=5)
    keys = [f"q{i}" for i in range(12)]

    def worker(index):
        for round_number in range(ROUNDS):
            key = keys[(index + round_number) % len(keys)]
            value = cache.get_or_create(key, lambda k=key: ("plan", k))
            assert value == ("plan", key)

    _hammer(worker)
    stats = cache.stats
    total_lookups = THREADS * ROUNDS
    assert stats.hits + stats.misses == total_lookups
    # Every miss inserted a brand-new key (the factory runs under the
    # lock, so racing callers of one key produce one miss, then hits);
    # keys only leave via counted evictions.
    assert stats.misses - stats.evictions == len(cache)
    assert len(cache) == cache.capacity


def test_shared_query_service_is_exact_and_correct_under_8_threads():
    """The satellite's headline scenario: one QueryService, 8 concurrent
    drivers, a plan cache small enough to thrash. Values stay correct and
    both cache layers' counters add up exactly."""
    documents = [
        running_example_document(),
        book_catalog(books=3),
        wide_tree(width=10),
        parse_document("<a><b>1</b><b>2</b><c>3</c></a>"),
    ]
    queries = [
        "//b",
        "count(//*)",
        "/descendant::*[position() = last()]",
        "//c",
        "/child::*/child::*",
        "//b[1]",
    ]
    expected = {
        (q, id(d)): XPathEngine(d).evaluate(q) for q in queries for d in documents
    }
    # plan_capacity=4 < 6 distinct queries: constant eviction pressure.
    service = QueryService(plan_capacity=4)

    def worker(index):
        for round_number in range(ROUNDS):
            query = queries[(index + round_number) % len(queries)]
            document = documents[(index * 3 + round_number) % len(documents)]
            assert service.evaluate(query, document) == expected[(query, id(document))]

    _hammer(worker)
    evaluations = THREADS * ROUNDS
    plan = service.plans.stats
    # Exactly one plan-cache lookup per evaluate() call, none lost.
    assert plan.hits + plan.misses == evaluations
    # Keys leave the plan cache only via counted evictions.
    assert plan.misses - plan.evictions == len(service.plans)
    assert len(service.plans) <= 4
    # Exactly one result-memo lookup per evaluate() call, aggregated
    # across live and retired sessions, none lost.
    result = service.result_cache_stats()
    assert result["hits"] + result["misses"] == evaluations
    assert service.cache_stats()["sessions"] == len(documents)


def test_specializer_memo_counters_are_exact_under_contention():
    """The two-stage split's new cache layer under the same hammer: one
    specializer lookup per ``auto`` evaluation, none lost, misses equal
    the distinct (plan, profile) pairs, and values stay correct."""
    documents = [
        running_example_document(),
        book_catalog(books=3),
        wide_tree(width=10),
        parse_document("<a><b>1</b><b>2</b><c>3</c></a>"),
    ]
    queries = ["//b", "count(//*)", "/descendant::*[position() = last()]", "//c"]
    expected = {
        (q, id(d)): XPathEngine(d).evaluate(q) for q in queries for d in documents
    }
    service = QueryService(plan_capacity=2)  # plan thrash: recompiled plans
    assert service.specializer is not None   # must hit the same memo keys

    def worker(index):
        for round_number in range(ROUNDS):
            # Stride chosen to visit every (query, document) pair.
            query = queries[round_number % len(queries)]
            document = documents[(round_number // len(queries) + index) % len(documents)]
            assert service.evaluate(query, document) == expected[(query, id(document))]

    _hammer(worker)
    evaluations = THREADS * ROUNDS
    spec = service.specializer.stats
    result = service.result_cache_stats()
    assert result["hits"] + result["misses"] == evaluations
    # Result-memo hits skip stage-2 entirely (the hot path takes no
    # specializer lock); exactly one specializer lookup per result-memo
    # miss, none torn. Racing threads that miss the same result key both
    # resolve — the equality holds whatever the race count.
    assert spec.hits + spec.misses == result["misses"]
    # Misses are the distinct (plan, profile) pairs — plan-cache eviction
    # and recompilation must not mint new memo keys (stable cache_key).
    assert spec.misses == len(queries) * len(documents)
    assert len(service.specializer) == spec.misses
    assert spec.evictions == 0


def test_shared_service_session_eviction_loses_no_counters():
    """Session-capacity thrash from many threads: retired sessions fold
    their memo counters into the aggregate, so totals stay exact even
    while sessions are evicted and rebuilt concurrently."""
    documents = [parse_document(f"<a><b>{i}</b></a>") for i in range(6)]
    service = QueryService(session_capacity=2)

    def worker(index):
        for round_number in range(ROUNDS):
            document = documents[(index + round_number) % len(documents)]
            assert isinstance(service.evaluate("//b", document), list)

    _hammer(worker)
    evaluations = THREADS * ROUNDS
    result = service.result_cache_stats()
    assert result["hits"] + result["misses"] == evaluations
    assert len(service._sessions) <= 2


def test_concurrent_drivers_through_the_async_front_end():
    """The async facade's offload pool is just another set of concurrent
    drivers; the shared service's counters must stay exact through it."""
    import asyncio

    from repro.service import AsyncQueryService

    documents = [parse_document(f"<a><b>{i}</b></a>") for i in range(4)]
    service = AsyncQueryService(QueryService(plan_capacity=2))
    queries = ["//b", "count(//*)", "//b[. > 1]"]

    async def main():
        jobs = [
            service.evaluate(queries[i % len(queries)], documents[i % len(documents)])
            for i in range(48)
        ]
        return await asyncio.gather(*jobs)

    values = asyncio.run(main())
    assert len(values) == 48
    plan = service.service.plans.stats
    assert plan.hits + plan.misses == 48
    assert plan.misses - plan.evictions == len(service.service.plans)


def test_eight_task_cancellation_hammer_leaves_a_quiet_loop():
    """PR 10's cancellation contract under contention: 8 concurrent
    batch streams, each broken out of at a different point (including
    before the first item), must leave the event loop with zero pending
    tasks and per-stream stats that reconcile exactly with the shards
    that actually completed — cancellation loses no counters and leaks
    no work."""
    import asyncio

    from repro.service import AsyncQueryService

    documents = [parse_document(f"<r><a><b>{i}</b></a><c/></r>") for i in range(6)]
    queries = ["//b", "count(//*)", "/r/c"]
    service = AsyncQueryService()

    async def drive(index):
        stream = service.stream_many(queries, documents, workers=3)
        taken = 0
        async for _ in stream:
            taken += 1
            if taken > index:  # task 0 breaks immediately, task 7 latest
                break
        await stream.aclose()
        return stream

    async def main():
        streams = await asyncio.gather(*(drive(i) for i in range(THREADS)))
        leftovers = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        return streams, leftovers

    for _ in range(3):
        streams, leftovers = asyncio.run(main())
        assert leftovers == []
        for stream in streams:
            # Exact reconciliation: cache traffic equals one lookup per
            # query for each shard whose outcome was absorbed.
            snapshot = stream.plan_stats
            assert snapshot["hits"] + snapshot["misses"] == len(queries) * len(
                stream.shards
            )
            for key in ("hits", "misses", "evictions"):
                assert snapshot[key] == sum(
                    report["plan_stats"][key] for report in stream.shards
                )


def test_node_index_is_built_exactly_once_under_contention():
    """PR 5's new process-wide cache under the hammer: 8 threads racing
    to index one shared document get the *same* instance, the build
    counter moves by exactly one (the build runs under the cache lock),
    and every fused dispatch counts exactly one outcome."""
    from repro import stats
    from repro.axes.vec import forward_step
    from repro.workloads.documents import book_catalog
    from repro.xml.index import node_index
    from repro.xpath.ast import NodeTest

    document = book_catalog(books=6)  # fresh document: not yet indexed
    before = stats.axis_kernel_stats.snapshot()
    instances = []
    calls_per_thread = 50
    test = NodeTest("name", "price")

    def worker(_):
        index = node_index(document)
        instances.append(index)
        for _ in range(calls_per_thread):
            result = forward_step(document, "descendant", [0], test)
            assert len(result) == 6  # one price element per book

    _hammer(worker)
    after = stats.axis_kernel_stats.snapshot()
    assert len(instances) == THREADS
    assert all(index is instances[0] for index in instances)
    # Exactly one build, ever — racing first callers serialized on the
    # cache lock, and the per-thread node_index() calls all hit.
    assert after["index_builds"] - before["index_builds"] == 1
    # Every dispatch counted exactly one outcome, none torn.
    dispatched = THREADS * calls_per_thread
    fused_delta = after["fused_hits"] - before["fused_hits"]
    fallback_delta = after["fallback_scans"] - before["fallback_scans"]
    assert fused_delta + fallback_delta == dispatched
    # A selective name test on an indexed axis always takes the kernel.
    assert fused_delta == dispatched


def test_lazy_document_materializes_each_pre_exactly_once_under_contention():
    """PR 8's materialization lock under the hammer: 8 threads racing to
    box every node of one shared lazy document get the *same* Node
    instance per pre, and the global counter moves by exactly |dom| —
    no pre boxed twice, none lost to torn updates — while concurrent
    query evaluation over the same document stays correct."""
    from repro import stats
    from repro.engine import XPathEngine
    from repro.xml.snapshot import decode_snapshot, encode_snapshot

    lazy = decode_snapshot(encode_snapshot(book_catalog(books=4)))
    total = len(lazy)
    expected_prices = [
        node.pre for node in XPathEngine(book_catalog(books=4)).evaluate(
            "/descendant::price"
        )
    ]
    before = stats.axis_kernel_stats.snapshot()
    boxed = [None] * THREADS

    def worker(index):
        engine = XPathEngine(lazy)
        # Interleave whole-document materialization with query
        # evaluation that materializes its own output nodes.
        got = engine.evaluate("/descendant::price")
        assert [node.pre for node in got] == expected_prices
        start = index % total  # staggered starts: maximal overlap
        boxed[index] = [lazy.nodes[(start + pre) % total] for pre in range(total)]

    _hammer(worker)
    after = stats.axis_kernel_stats.snapshot()
    assert lazy.materialized_count() == total
    # Exactly one materialization per pre across all 8 threads.
    assert after["nodes_materialized"] - before["nodes_materialized"] == total
    first = sorted(boxed[0], key=lambda node: node.pre)
    for other in boxed[1:]:
        ordered = sorted(other, key=lambda node: node.pre)
        assert all(a is b for a, b in zip(first, ordered))


def test_vector_program_counters_are_exact_under_contention():
    """The block counters under the hammer: 8 threads evaluating the
    same compiled sweep over one shared document tick ``vector_ops`` and
    ``fused_hits`` by exactly ``threads x rounds x per-evaluation
    shape`` — they ride the same locked :class:`repro.stats.KernelStats`,
    so equality is the torn-update regression signal — while every
    thread reads identical bytes."""
    from repro import stats

    document = book_catalog(books=20)
    engine = XPathEngine(document)
    compiled = engine.compile("/descendant::*[child::*]/child::node()")
    rounds = 30
    keys = ("vector_ops", "fused_hits", "fallback_scans")

    def delta(before, after):
        return tuple(after[key] - before[key] for key in keys)

    expected = engine.evaluate(compiled, algorithm="corexpath")
    probe = stats.axis_kernel_stats.snapshot()
    engine.evaluate(compiled, algorithm="corexpath")
    per_eval = delta(probe, stats.axis_kernel_stats.snapshot())
    # Blocks: the predicate's filter and inverse over dom, then child
    # from every element; the opening descendant from the root is narrow.
    assert per_eval == (3, 1, 0)

    before = stats.axis_kernel_stats.snapshot()

    def worker(_):
        for _ in range(rounds):
            assert engine.evaluate(compiled, algorithm="corexpath") == expected

    _hammer(worker)
    after = stats.axis_kernel_stats.snapshot()
    evaluations = THREADS * rounds
    assert delta(before, after) == tuple(evaluations * count for count in per_eval)


def test_plan_cache_iteration_is_safe_during_mutation():
    """keys()/values() hand out point-in-time copies, so a monitoring
    thread can walk the cache while drivers mutate it."""
    cache = PlanCache(capacity=8)
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            for _ in cache.values():
                pass
            for _ in cache.keys():
                pass

    monitor = threading.Thread(target=reader)
    monitor.start()
    try:
        for i in range(2000):
            cache.put(i, i)
    finally:
        stop.set()
        monitor.join()
    assert len(cache) == 8


def test_number_column_fills_idempotently_under_contention():
    """The per-document ``to_number`` memo the pre-plane evaluators read
    is filled without a lock: threads racing over a fresh document (eager
    and lazy) may recompute a value, never see a wrong one. 16 threads on
    a shortened switch interval all get the sequential answers, and the
    settled column equals ``to_number`` of every string value."""
    import sys

    from repro.values.numbers import to_number
    from repro.xml.columns import ColumnDocument
    from repro.xml.document import Document
    from repro.xml.snapshot import decode_snapshot, encode_snapshot

    queries = [
        "sum(//price) + sum(//pages)",
        "count(//book[price > 40]) + count(//chapter[pages < 25])",
        "sum(//book[@year >= 2000]/chapter[pages > 15]/pages)",
    ]
    reference = XPathEngine(book_catalog(books=30))
    expected = [reference.evaluate(q, algorithm="topdown") for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for fresh, representation in (
            (book_catalog(books=30), Document),
            (decode_snapshot(encode_snapshot(book_catalog(books=30))), ColumnDocument),
        ):
            assert type(fresh) is representation
            engine = XPathEngine(fresh)
            plans = [engine.compile(q) for q in queries]

            def worker(index):
                for round_ in range(6):
                    pick = (index + round_) % len(plans)
                    algorithm = ("mincontext", "optmincontext")[round_ % 2]
                    got = engine.evaluate(plans[pick], algorithm=algorithm)
                    assert got == expected[pick], (queries[pick], algorithm)

            _hammer(worker, threads=16)
            for pre in range(len(fresh.nodes)):
                memo = fresh.number_value_of_pre(pre)
                value = to_number(fresh.string_value_of_pre(pre))
                assert memo == value or (memo != memo and value != value), pre
    finally:
        sys.setswitchinterval(interval)
