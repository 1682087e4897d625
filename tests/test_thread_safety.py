"""Concurrency hammer: one shared QueryService under many threads.

The thread-safety contract: :class:`Memo`, every
:class:`repro.stats.Counters` family and the :class:`QueryService`
session/memo maps are lock-protected, so a
single service driven from many threads (the serving daemon's worker
threads, an event loop's offload pool, or plain user threads) keeps
*exact* counters — every lookup counted exactly once, every capacity
overflow counted as an eviction, nothing lost to torn ``+=`` updates —
and returns correct values throughout.

The assertions are deliberately exact (``==``, not ``>=``): before the
locks, losing increments under an 8-thread hammer was the overwhelmingly
likely outcome, so equality is the regression signal.
"""

import sys
import threading

import pytest

from repro.engine import XPathEngine
from repro.service import Memo, QueryService
from repro.stats import FAMILIES, ServeStats
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


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.name)
def test_counter_family_is_exact_under_contention(family):
    """Every declared family, ticked and added to from 8 threads, ends
    with exactly the amounts it was given."""
    counters = family()

    def worker(_):
        for _ in range(500):
            for key in counters.COUNTERS:
                counters.tick(key)
            counters.add(dict.fromkeys(counters.COUNTERS, 1))

    _hammer(worker)
    snapshot = counters.snapshot()
    assert {key: snapshot[key] for key in counters.COUNTERS} == dict.fromkeys(
        counters.COUNTERS, THREADS * 1000
    )


def test_a_reader_never_sees_half_of_a_multi_counter_event():
    """``add`` moves every counter of one event under one lock: a
    concurrent snapshot never shows a subset ahead of its superset, even
    though each event names the subset first."""
    counters = ServeStats()
    done = threading.Event()
    torn = []

    def reader():
        while not done.is_set():
            snapshot = counters.snapshot()
            if (
                snapshot["degraded"] > snapshot["admitted"]
                or snapshot["memo_hits"] > snapshot["completed"]
            ):
                torn.append(snapshot)

    def worker(_):
        for _ in range(2000):
            counters.add({"degraded": 1, "admitted": 1})
            counters.add({"memo_hits": 1, "completed": 1})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    watcher = threading.Thread(target=reader)
    try:
        watcher.start()
        _hammer(worker)
    finally:
        done.set()
        sys.setswitchinterval(interval)
        watcher.join(10)
    assert not watcher.is_alive()
    assert torn == []
    assert counters.snapshot()["admitted"] == THREADS * 2000


def _value_of(key: str) -> tuple:
    """A value one to three cost units long under ``cost=len``."""
    return (key,) * (1 + int(key[1:]) % 3)


def _get_or_create(cache: Memo, key: str) -> tuple:
    return cache.get_or_create(key, lambda: _value_of(key))


def _get_then_put(cache: Memo, key: str) -> tuple:
    value = cache.get(key)
    if value is None:
        value = _value_of(key)
        cache.put(key, value)
    return value


@pytest.mark.parametrize(
    "cost, lookup",
    [(None, _get_or_create), (len, _get_then_put)],
    ids=["unit_get_or_create", "weighted_get_then_put"],
)
def test_memo_accounting_is_exact_under_contention(cost, lookup):
    """Interleaved lookups over more keys than fit: every lookup is one
    hit or one miss and the memo never passes its bound, whether the
    factory runs under the lock (unit cost) or the value is computed
    outside it and put (cost-weighted) — all exactly."""
    cache = Memo(capacity=5, cost=cost)
    keys = [f"q{i}" for i in range(12)]

    def worker(index):
        for round_number in range(ROUNDS):
            key = keys[(index + round_number) % len(keys)]
            value = lookup(cache, key)
            assert value == _value_of(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(worker)
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats.snapshot()
    total_lookups = THREADS * ROUNDS
    assert stats["hits"] + stats["misses"] == total_lookups
    assert sum(len(value) if cost else 1 for value in cache.values()) <= cache.capacity
    if cost is None:
        # Every miss inserted a brand-new key (the factory runs under the
        # lock, so racing callers of one key produce one miss, then hits);
        # keys only leave via counted evictions.
        assert stats["misses"] - stats["evictions"] == len(cache)
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
    plan = service.plans.stats.snapshot()
    # Exactly one plan-cache lookup per evaluate() call, none lost.
    assert plan["hits"] + plan["misses"] == evaluations
    # Keys leave the plan cache only via counted evictions.
    assert plan["misses"] - plan["evictions"] == len(service.plans)
    assert len(service.plans) <= 4
    # Exactly one result-memo lookup per evaluate() call, aggregated
    # across live and retired sessions, none lost.
    result = service.result_cache_stats()
    assert result["hits"] + result["misses"] == evaluations
    assert service.cache_stats()["sessions"] == len(documents)


def test_timing_observations_are_exact_under_contention():
    """The service's timing rates under the same hammer: one result-memo
    lookup per evaluation, one timing observation per result-memo miss,
    none lost, and values stay correct."""
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

    def worker(index):
        for round_number in range(ROUNDS):
            # Stride chosen to visit every (query, document) pair.
            query = queries[round_number % len(queries)]
            document = documents[(round_number // len(queries) + index) % len(documents)]
            assert service.evaluate(query, document) == expected[(query, id(document))]

    _hammer(worker)
    evaluations = THREADS * ROUNDS
    result = service.result_cache_stats()
    assert result["hits"] + result["misses"] == evaluations
    # Result-memo hits are not timed; every miss runs exactly one timed
    # evaluation, none torn. Racing threads that miss the same result
    # key both evaluate — the equality holds whatever the race count.
    timings = service.cache_stats()["timings"]
    assert sum(entry["observations"] for entry in timings.values()) == result["misses"]
    # Plan-cache eviction and recompilation mint no new memo keys (stable
    # cache_key), and no entry is flushed: at least one miss per cell.
    assert result["misses"] >= len(queries) * len(documents)
    assert result["evictions"] == 0


def test_shared_service_session_eviction_loses_no_counters():
    """Session-capacity thrash from many threads: every session counts
    into the service's one result-memo stats, so totals stay exact even
    when a thread counts on a session another thread has just evicted."""
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
    """An event loop's offload pool (how the serving daemon reaches the
    service) is just another set of concurrent drivers; the shared
    service's counters must stay exact through it."""
    import asyncio

    documents = [parse_document(f"<a><b>{i}</b></a>") for i in range(4)]
    service = QueryService(plan_capacity=2)
    queries = ["//b", "count(//*)", "//b[. > 1]"]

    async def main():
        jobs = [
            asyncio.to_thread(
                service.evaluate,
                queries[i % len(queries)],
                documents[i % len(documents)],
            )
            for i in range(48)
        ]
        return await asyncio.gather(*jobs)

    values = asyncio.run(main())
    assert len(values) == 48
    plan = service.plans.stats.snapshot()
    assert plan["hits"] + plan["misses"] == 48
    assert plan["misses"] - plan["evictions"] == len(service.plans)


def test_node_index_is_built_exactly_once_under_contention():
    """8 threads reading one shared document's index get the *same*
    instance — the one the document was born with — and every fused
    dispatch counts exactly one outcome."""
    from repro import stats
    from repro.axes.vec import forward_step
    from repro.workloads.documents import book_catalog
    from repro.xml.document import Document
    from repro.xml.index import node_index
    from repro.xpath.ast import NodeTest

    document = Document(book_catalog(books=6).columns)
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
    assert all(index is document.index for index in instances)
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
    shape`` — they ride the same locked :data:`repro.stats.axis_kernel_stats`,
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
    cache = Memo(capacity=8)
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
    is filled without a lock: threads racing over a fresh document (built,
    and as a store loads it) may recompute a value, never see a wrong one. 16 threads on
    a shortened switch interval all get the sequential answers, and the
    settled column equals ``to_number`` of every string value."""
    import sys

    from repro.values.numbers import to_number
    from repro.xml.columns import StringTable
    from repro.xml.snapshot import decode_stored, encode_snapshot

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
            (book_catalog(books=30), list),
            (decode_stored(encode_snapshot(book_catalog(books=30), "c"), "c"), StringTable),
        ):
            assert type(fresh.columns.values) is representation
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


def test_racing_readers_of_one_fresh_document_agree():
    """Sibling hops and per-interval string values tally their work
    without a lock, and the child table and the text join are built by
    whichever reader crosses the |D| line: 16 threads on a shortened
    switch interval, each racing sibling steps and element string values
    over one freshly loaded document, all get the answers of a document
    whose table and join were built before the race — and the race does
    build both."""
    import sys

    from repro.axes.vec import forward_step, inverse_step
    from repro.xml.index import node_index
    from repro.xml.snapshot import decode_stored, encode_snapshot
    from repro.xpath.ast import NodeTest

    blob = encode_snapshot(book_catalog(books=30), "c")
    reference = decode_stored(blob, "c")
    node_index(reference).child_table()
    reference.string_value_of_pre(0)
    fresh = decode_stored(blob, "c")
    index = node_index(fresh)
    steps = [
        (axis, tag)
        for axis in ("following-sibling", "preceding-sibling")
        for tag in ("chapter", "author", "title")
    ]
    origins = {tag: list(index.by_tag[tag]) for tag in ("chapter", "author", "title")}

    def answers(document, axis, tag):
        pres = origins[tag]
        return (
            forward_step(document, axis, pres, NodeTest("wildcard")),
            inverse_step(document, axis, pres),
        )

    expected = {step: answers(reference, *step) for step in steps}
    elements = list(index.elements)
    values = [reference.string_value_of_pre(pre) for pre in elements]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def worker(thread):
            for round_ in range(8):
                step = steps[(thread + round_) % len(steps)]
                assert answers(fresh, *step) == expected[step], step
                for at in range(thread, len(elements), 16):
                    assert fresh.string_value_of_pre(elements[at]) == values[at]

        _hammer(worker, threads=16)
    finally:
        sys.setswitchinterval(interval)
    assert index.child_table_ready and fresh.text_join_ready
