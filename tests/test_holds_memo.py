"""The session memo of Core XPath's backward propagations.

Theorem 13's evaluator answers ``boolean(π)`` with one backward
propagation from all of ``dom``; the set where π holds depends on the
document and π alone. A :class:`DocumentSession` keeps those sets in a
memo (a :class:`~repro.service.cache.Memo`) keyed by π's canonical text
(``Path.key``), so every query, batch and request on a document
propagates each π once while the memo keeps its set. These tests hold
the memo to the bare evaluators' answers, to its key (one entry per
canonical path, never one for two paths), to exact counters, to its
lifetime, and to concurrent threads.
"""

from __future__ import annotations

import random
import sys
import threading
from unittest import mock

import pytest

from repro import stats
from repro.cli import main as cli_main
from repro.core.context import Context
from repro.core.corexpath import CoreXPathEvaluator
from repro.engine import XPathEngine
from repro.service.planner import compile_plan
from repro.service.service import DocumentSession, QueryService
from repro.workloads.documents import book_catalog
from repro.workloads.queries import random_core_query
from repro.xml.parser import parse_document
from repro.xpath.ast import FunctionCall, NodeTest, Path, Step

from test_property_corexpath import DOCUMENTS

#: Random Core XPath texts evaluated per document.
QUERIES_PER_DOCUMENT = 200

SMALL = parse_document(
    "<r><a><b><c/></b><d/></a><a><c/><b/></a><b><a><b/></a></b><c><a/><b/></c></r>"
)


def _pres(value) -> list[int]:
    return [node.pre for node in value]


def _keys(query: str) -> list[str]:
    """The keys of every ``boolean(π)`` operand in a compiled query."""
    return [
        node.args[0].key
        for node in compile_plan(query).ast.walk()
        if isinstance(node, FunctionCall) and node.name == "boolean"
    ]


def _holds(service: QueryService) -> dict:
    return service.cache_stats()["holds_memo"]


class _CountingLookups:
    """Counts the ``boolean(π)`` evaluations that may consult a memo —
    a keyed path on an evaluator that has one — across threads."""

    def __init__(self):
        self.keyed = 0
        self._lock = threading.Lock()

    def patch(self):
        real = CoreXPathEvaluator._exists_within

        def counting(evaluator, path, block):
            if evaluator.holds is not None and path.key is not None:
                with self._lock:
                    self.keyed += 1
            return real(evaluator, path, block)

        return mock.patch.object(CoreXPathEvaluator, "_exists_within", counting)


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_session_answers_equal_the_bare_evaluators(name):
    """One session answers 200 random Core XPath queries, its memo
    filling and hitting across them, exactly as a memo-less
    ``corexpath`` and ``topdown`` do."""
    document = DOCUMENTS[name]
    engine = XPathEngine(document)
    service = QueryService()
    rng = random.Random(f"holds:{name}")
    for _ in range(QUERIES_PER_DOCUMENT):
        query = random_core_query(rng, max_depth=3)
        got = _pres(service.evaluate(query, document))
        assert got == _pres(engine.evaluate(query, algorithm="corexpath")), query
        assert got == _pres(engine.evaluate(query, algorithm="topdown")), query
    counters = _holds(service)
    assert counters["hits"] > 0 and counters["misses"] > 0


# ----------------------------------------------------------------------
# the key
# ----------------------------------------------------------------------


def test_one_path_in_two_spellings_shares_one_entry():
    abbreviated = "//a[b]"
    spelled = "/descendant-or-self::node()/child::a[boolean(child::b)]"
    assert _keys(abbreviated) == _keys(spelled) == ["child::b"]
    service = QueryService()
    first = service.evaluate(abbreviated, SMALL)
    second = service.evaluate(spelled, SMALL)
    assert _pres(first) == _pres(second) == _pres(XPathEngine(SMALL).evaluate(abbreviated))
    assert len(service.session(SMALL).holds) == 1
    assert _holds(service)["misses"] == 1 and _holds(service)["hits"] == 1


@pytest.mark.parametrize(
    "left, right",
    [
        ("//a[child::b]", "//a[child::c]"),
        ("//b[following-sibling::c]", "//b[preceding-sibling::c]"),
        ("//a[b]", "//a[/b]"),
        ("//a[b/c]", "//a[c/b]"),
        ("//a[b[c]]", "//a[b[d]]"),
    ],
)
def test_distinct_paths_never_share_an_entry(left, right):
    assert set(_keys(left)).isdisjoint(_keys(right))
    engine = XPathEngine(SMALL)
    service = QueryService()
    for query in (left, right):
        assert _pres(service.evaluate(query, SMALL)) == _pres(engine.evaluate(query)), query
    assert _holds(service)["hits"] == 0
    assert len(service.session(SMALL).holds) == _holds(service)["misses"]


def test_a_path_without_a_key_evaluates_unmemoized():
    """A hand-built tree carries no keys: the session's evaluator
    propagates it every time and the memo neither counts nor stores."""

    def built():
        test = Path(steps=[Step("child", NodeTest("name", "b"))])
        return Path(
            absolute=True,
            steps=[
                Step("descendant-or-self", NodeTest("node")),
                Step("child", NodeTest("name", "a"), [FunctionCall("boolean", [test])]),
            ],
        )

    service = QueryService()
    session = service.session(SMALL)
    evaluator = session.evaluator("corexpath")
    expected = _pres(XPathEngine(SMALL).evaluate("//a[b]"))
    for _ in range(2):
        with stats.collect() as collector:
            value = evaluator.evaluate(built(), Context(SMALL.root, 1, 1))
        assert _pres(value) == expected
        assert collector.counters["corexpath_steps"] == 3
    assert len(session.holds) == 0
    assert _holds(service)["hits"] == _holds(service)["misses"] == 0


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------


def _steps(run) -> int:
    with stats.collect() as collector:
        run()
    return collector.counters.get("corexpath_steps", 0)


def test_lookups_count_every_keyed_path_test_and_a_repeat_sweeps_nothing():
    document = book_catalog(3)
    engine = XPathEngine(document)
    service = QueryService()
    first, repeat = "//book[chapter/pages]/title", "//*[chapter/pages]"
    counting = _CountingLookups()
    with counting.patch():
        first_steps = _steps(lambda: service.evaluate(first, document))
        repeat_steps = _steps(lambda: service.evaluate(repeat, document))
    counters = _holds(service)
    assert counters["hits"] + counters["misses"] == counting.keyed
    # The first query misses its path and sweeps exactly what a bare
    # evaluator sweeps; the second finds `chapter/pages` held, so its two
    # backward steps do not run.
    assert first_steps == _steps(lambda: engine.evaluate(first, algorithm="corexpath"))
    bare_repeat = _steps(lambda: engine.evaluate(repeat, algorithm="corexpath"))
    assert repeat_steps == bare_repeat - 2
    assert counters["hits"] == 1


def test_batch_reports_per_batch_deltas_and_residual_sweeps_share_the_memo():
    """`evaluate_many` counts the batch's lookups, and the step DAG's
    residual sweeps read the same memo the whole queries fill."""
    document = book_catalog(3)
    service = QueryService()
    queries = ["/catalog/book/title[../chapter]", "/catalog/book/price[../chapter]"]
    batch = service.evaluate_many(queries, [document])
    assert batch.batch_plan["shared_plans"] == 2
    assert batch.holds_stats["misses"] == 1 and batch.holds_stats["hits"] == 1
    again = service.evaluate_many(["/catalog/book/authors[../chapter]"], [document])
    assert again.holds_stats["hits"] == 1 and again.holds_stats["misses"] == 0
    assert _holds(service)["hits"] == 2 and _holds(service)["misses"] == 1
    engine = XPathEngine(document)
    for row, query in zip(batch.values[0], queries):
        assert _pres(row) == _pres(engine.evaluate(query)), query


def test_batch_stats_print_one_holds_memo_line(capsys):
    code = cli_main(
        ["batch", "--xml", "<a><b/><c><b/></c></a>", "-q", "//c[b]", "-q", "//a[c/b]",
         "-q", "//*[b]", "--stats"]
    )
    assert code == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "holds memo" in line]
    assert lines == ["holds memo:   hits=1 misses=2 evictions=0 hit rate=33.3%"]


# ----------------------------------------------------------------------
# lifetime
# ----------------------------------------------------------------------


def test_clear_drops_the_memo():
    service = QueryService()
    service.evaluate("//a[b]", SMALL)
    session = service.session(SMALL)
    session.clear()
    assert len(session.holds) == 0
    service.evaluate("//a[b]", SMALL, cached=True)
    assert _holds(service)["misses"] == 2
    service.clear()
    assert len(session.holds) == 0


def test_an_evicted_session_takes_its_memo_with_it():
    other = parse_document("<r><a><b/></a></r>")
    service = QueryService(session_capacity=1)
    service.evaluate("//a[b]", SMALL)
    service.evaluate("//a[b]", other)
    assert _holds(service)["misses"] == 2
    assert len(service.session(SMALL).holds) == 0  # a new session
    service.evaluate("//a[b]", SMALL)
    assert _holds(service)["misses"] == 3 and _holds(service)["hits"] == 0


def test_the_bound_evicts_the_least_recent_and_counts_its_evictions():
    """Absolute paths hold a set of one cell at most, so two entries fit
    in 40 cells and the third evicts the least recent one. A set longer
    than the whole bound is neither kept nor evicts anything."""
    document = parse_document("<r>" + "<a/>" * 40 + "</r>")
    service = QueryService()
    session = service.session(document)
    with mock.patch.object(session.holds, "capacity", 40):
        for path in ("/descendant::a", "/child::r", "/child::a"):
            service.evaluate(f"//a[{path}]", document)
        assert _holds(service)["evictions"] == 1
        assert len(session.holds) == 2
        for _ in range(2):
            service.evaluate("//*[ancestor-or-self::node()]", document, cached=False)
        assert len(session.holds) == 2
    counters = _holds(service)
    assert counters["misses"] == 5 and counters["hits"] == 0
    assert counters["evictions"] == 1


def test_the_bound_evicts_exactly_the_least_recently_used_set():
    """Three one-cell sets (17 cells each with the header) under a
    40-cell bound: the third evicts the set used least recently, not
    the one a later query just read. A set longer than the bound is
    answered, not stored, and evicts nothing."""
    document = parse_document("<r>" + "<a/>" * 40 + "</r>")
    service = QueryService()
    with mock.patch.object(DocumentSession, "HOLDS_CELLS", 40):
        session = service.session(document)
    first, second, third = (
        f"//a[{path}]" for path in ("/descendant::a", "/child::r", "/descendant::r")
    )
    service.evaluate(first, document)
    service.evaluate(second, document)
    service.evaluate(first, document, cached=False)  # a hit: first is now the most recent
    service.evaluate(third, document)
    assert list(session.holds.keys()) == _keys(first) + _keys(third)
    assert (_holds(service)["hits"], _holds(service)["evictions"]) == (1, 1)
    wide = "//*[ancestor-or-self::node()]"
    assert _pres(service.evaluate(wide, document)) == _pres(
        XPathEngine(document).evaluate(wide, algorithm="corexpath")
    )
    assert list(session.holds.keys()) == _keys(first) + _keys(third)
    assert _holds(service)["evictions"] == 1


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------


def test_eight_threads_on_one_session_agree_and_reconcile():
    document = DOCUMENTS["catalog"]
    rng = random.Random("holds:hammer")
    queries = [random_core_query(rng, max_depth=3) for _ in range(40)]
    engine = XPathEngine(document)
    expected = [_pres(engine.evaluate(query, algorithm="corexpath")) for query in queries]
    service = QueryService()
    plans = [service.plan(query) for query in queries]
    session = service.session(document)
    barrier = threading.Barrier(8)
    answers: dict[int, list] = {}
    errors: list = []

    def drive(worker: int):
        try:
            barrier.wait()
            order = list(range(len(plans)))
            random.Random(worker).shuffle(order)
            got = [None] * len(plans)
            for _ in range(3):
                for index in order:
                    got[index] = _pres(session.evaluate(plans[index], cached=False))
            answers[worker] = got
        except BaseException as error:  # surfaced below
            errors.append(error)

    counting = _CountingLookups()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with counting.patch():
            threads = [threading.Thread(target=drive, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert all(answers[worker] == expected for worker in range(8))
    counters = _holds(service)
    assert counters["hits"] + counters["misses"] == counting.keyed
    assert counters["evictions"] == 0
    assert len(session.holds) <= counters["misses"]
