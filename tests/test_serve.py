"""The serving daemon: protocol, quotas, admission, the core, the adapter.

Most tests drive the sans-I/O :class:`~repro.serve.core.ServeCore`
through ``test_serve_core.py``'s :class:`Driver`: in process, on a
clock that moves only when told, the counters checked after every
frame. The rest run a real daemon on a loop thread over real sockets,
for what only the asyncio adapter does: flow control, half-closes,
worker-thread deadlines and cancels, the drain, and the CLI.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from conftest import permissive, running_daemon
from repro.cli import _CODE_EXITS, error_exit_code, main as cli_main
from repro.engine import XPathEngine
from repro.errors import (
    ERROR_CODES,
    PROTOCOL_CODES,
    DeadlineExceededError,
    OverloadError,
    ProtocolError,
    QuotaExceededError,
    RemoteError,
    ReproError,
    error_code,
)
from repro.serve import FaultInjector, ServeClient
from repro.serve.admission import AdmissionController
from repro.serve.core import FRAMES_PER_PASS
from repro.serve.daemon import _Connection
from repro.serve.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.serve.quotas import ClientQuota, ClientState, TokenBucket
from repro.service.planner import QueryPlanner
from repro.service.service import QueryService
from repro.stats import Counters, ServeStats
from repro.xml.parser import parse_document
from repro.xpath.parser import MAX_DEPTH
from test_serve_core import Driver

BOOKS = (
    "<lib><book><title>A</title><price>8</price></book>"
    "<book><title>B</title><price>23</price></book></lib>"
)


def assert_identities(snapshot):
    """The two exact reconciliation identities every test can close on
    (``queries`` and ``admitted``), and the ``rejected`` total."""
    assert ServeStats.residuals(snapshot) == {"queries": 0, "admitted": 0, "rejected": 0}


def assert_stats_reconcile(stats):
    """Both identities globally and per client, global == Σ clients."""
    assert_identities(stats["global"])
    for client_snapshot in stats["clients"].values():
        assert_identities(client_snapshot)
    # BYE and undecodable lines are requests of no client.
    for key in set(ServeStats.COUNTERS) - {"requests", "malformed"}:
        assert stats["global"][key] == sum(
            client[key] for client in stats["clients"].values()
        ), key


# ----------------------------------------------------------------------
# protocol frames
# ----------------------------------------------------------------------


def test_frame_roundtrip():
    frame = {"verb": "QUERY", "id": 7, "query": "//b", "doc": "d"}
    assert decode_frame(encode_frame(frame)) == frame


@pytest.mark.parametrize(
    "line",
    [b"not json\n", b"[1, 2]\n", b'"just a string"\n', b"\xff\xfe\n"],
)
def test_malformed_frames_raise_protocol_error(line):
    with pytest.raises(ProtocolError):
        decode_frame(line)


@pytest.mark.parametrize(
    "frame",
    [
        {"verb": "QUERY", "id": 1, "query": "//título[. = 'naïve — ✓']", "doc": "d"},
        {"id": "x", "ok": True, "kind": "number", "value": 0.1 + 0.2, "elapsed_ms": 1e-07},
        {"id": 2, "ok": True, "kind": "number", "value": float("nan"), "neg": -1.5e300},
        {"id": None, "ok": True, "cells": [[1, [2.5, "ü"]], [], [[None, False]]]},
        {"id": 3, "ok": False, "error": {"code": "PROTOCOL", "message": "bad \"frame\"\n"}},
        {"id": 4, "ok": False, "error": {"code": "OVERLOAD", "message": "m", "retry_after": 0.05}},
        {"id": 5, "ok": False, "error": {"code": "DEADLINE", "message": "late"},
         "cells": [{"doc": "d", "query": "//a", "count": 0, "items": []}],
         "completed": 1, "total": 2, "elapsed_ms": 12.345},
        {"id": 6, "ok": True, "items": ["/r[1]/\u00e9\U0001f600[2]"], "memo": True},
    ],
)
def test_encode_frame_is_byte_identical_to_compact_json_dumps(frame):
    expected = json.dumps(frame, separators=(",", ":")).encode() + b"\n"
    assert encode_frame(frame) == expected


def test_oversized_frame_raises_protocol_error():
    with pytest.raises(ProtocolError):
        encode_frame({"xml": "x" * MAX_FRAME_BYTES})
    with pytest.raises(ProtocolError):
        decode_frame(b"x" * (MAX_FRAME_BYTES + 1))


# ----------------------------------------------------------------------
# error taxonomy: stable codes <-> exit codes (table-driven)
# ----------------------------------------------------------------------


def _instantiate(error_class):
    """Build an instance of any library error class (a few constructors
    take structured arguments rather than one message)."""
    if error_class is RemoteError:
        return error_class("EVALUATION", "boom")
    if error_class.__name__ == "WrongArityError":
        return error_class("name", 2, "1")
    if error_class.__name__ == "UnknownAlgorithmError":
        return error_class("boom", ("auto",))
    return error_class("boom")


@pytest.mark.parametrize(
    "error_class,expected_code", ERROR_CODES, ids=lambda v: getattr(v, "__name__", v)
)
def test_error_classes_map_to_their_stable_codes(error_class, expected_code):
    error = _instantiate(error_class)
    code = error_code(error)
    if error_class is RemoteError:
        # RemoteError relays the server's code verbatim.
        assert code == "EVALUATION"
    else:
        assert code == expected_code
    assert code in PROTOCOL_CODES


@pytest.mark.parametrize(
    "error_class", [cls for cls, _ in ERROR_CODES], ids=lambda c: c.__name__
)
def test_exit_codes_cohere_with_protocol_codes(error_class):
    """The satellite identity: a query failing remotely exits exactly
    as the same failure would locally — class table and code table
    always agree."""
    error = _instantiate(error_class)
    assert error_exit_code(error) == _CODE_EXITS[error_code(error)]


def test_every_protocol_code_has_an_exit_code():
    assert set(_CODE_EXITS) == PROTOCOL_CODES


def test_exit_codes_distinguish_the_families():
    distinct = {
        error_exit_code(_instantiate(cls))
        for cls in (
            ReproError,
            OverloadError,
            DeadlineExceededError,
            QuotaExceededError,
            ProtocolError,
        )
    } | {error_exit_code(RemoteError("SNAPSHOT_CORRUPT", "x"))}
    # ERROR=1, OVERLOAD=7 (quota shares it), DEADLINE=8, SERVE=9, STORE=6.
    assert distinct == {1, 6, 7, 8, 9}


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------


def test_token_bucket_with_a_fake_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
    assert bucket.try_take() is None
    assert bucket.try_take() is None
    wait = bucket.try_take()
    assert wait == pytest.approx(0.5)
    now[0] += 0.5  # one token accrues
    assert bucket.try_take() is None
    assert bucket.try_take() is not None
    now[0] += 100.0  # refill clamps at burst
    assert bucket.try_take() is None
    assert bucket.try_take() is None
    assert bucket.try_take() is not None


def test_client_state_registration_budgets():
    state = ClientState(
        name="c", quota=ClientQuota(max_documents=2, max_registered_bytes=100)
    )
    state.check_register("a", 60)
    state.register("a", "doc-a", 60)
    with pytest.raises(QuotaExceededError):
        state.check_register("b", 60)  # byte budget
    state.check_register("a", 90)  # replacement frees the old bytes
    state.register("b", "doc-b", 30)
    with pytest.raises(QuotaExceededError):
        state.check_register("c", 1)  # document-count cap
    assert state.unregister("a")
    assert not state.unregister("a")
    assert state.gauges()["registered_bytes"] == 30


def test_client_state_in_flight_slots():
    state = ClientState(name="c", quota=ClientQuota(max_in_flight=1))
    state.acquire_slot()
    with pytest.raises(QuotaExceededError) as excinfo:
        state.acquire_slot()
    assert excinfo.value.retry_after is not None
    state.release_slot()
    state.acquire_slot()


# ----------------------------------------------------------------------
# admission pricing
# ----------------------------------------------------------------------


@pytest.fixture()
def service_and_plan():
    service = QueryService()
    return service, service.plan("//book/title"), parse_document(BOOKS)


def test_admission_admits_within_budget(service_and_plan):
    service, plan, document = service_and_plan
    controller = AdmissionController(service)
    decision = controller.decide([plan], [document])
    assert decision.admitted and not decision.degraded
    assert decision.algorithm == "auto" and decision.share
    assert decision.priced_seconds > 0.0


def test_admission_rejects_over_budget_without_retry_hint(service_and_plan):
    service, plan, document = service_and_plan
    controller = AdmissionController(service, max_cost_seconds=0.0)
    decision = controller.decide([plan], [document])
    assert not decision.admitted
    assert decision.retry_after is None  # retrying cannot help


def test_admission_rejects_at_the_high_watermark_with_a_hint(service_and_plan):
    service, plan, document = service_and_plan
    controller = AdmissionController(service, queue_high=4, queue_degrade=2)
    decision = controller.decide([plan], [document], queue_depth=4)
    assert not decision.admitted
    assert decision.retry_after is not None and decision.retry_after > 0


def test_admission_degrades_past_the_degrade_watermark(service_and_plan):
    service, plan, document = service_and_plan
    controller = AdmissionController(service, queue_high=64, queue_degrade=2)
    decision = controller.decide([plan], [document], queue_depth=2)
    assert decision.admitted and decision.degraded
    assert not decision.share  # sharing is dropped under pressure
    # A degrade keeps auto: it already runs the evaluator it was priced for.
    assert decision.algorithm == "auto"
    # So does a batch degrade, which also drops sharing.
    batch = controller.decide([plan, plan], [document], queue_depth=2)
    assert batch.admitted and batch.degraded
    assert batch.algorithm == "auto" and not batch.share


def test_admission_candidates_respect_the_fragment(service_and_plan):
    service, _, document = service_and_plan
    outside_core = service.plan("count(//book)")  # function call: not Core
    assert not outside_core.is_core_xpath
    controller = AdmissionController(service, queue_high=64, queue_degrade=0)
    decision = controller.decide([outside_core], [document])
    assert decision.degraded and decision.algorithm == "auto"
    # Priced under the evaluator auto runs outside Core XPath.
    assert outside_core.best_algorithm() == "optmincontext"
    assert decision.priced_seconds == controller.price(outside_core, document)


def test_admission_deadline_tightens_the_budget(service_and_plan):
    service, plan, document = service_and_plan
    controller = AdmissionController(service, max_cost_seconds=60.0)
    assert controller.decide([plan], [document], deadline_seconds=None).admitted
    assert not controller.decide([plan], [document], deadline_seconds=0.0).admitted

# ----------------------------------------------------------------------
# the core, driven in process (tests/test_serve_core.py's Driver)
# ----------------------------------------------------------------------


class Peer:
    """One connection to a driven core, speaking as ``client``."""

    def __init__(self, driver: Driver, client: str | None = None):
        self.driver, self.client, self.conn = driver, client, driver.connect()

    def send(self, verb: str, **fields) -> list[dict]:
        if self.client is not None:
            fields.setdefault("client", self.client)
        return self.driver.send(self.conn, encode_frame({"verb": verb, **fields}))

    def __call__(self, verb: str, **fields) -> dict:
        (reply,) = self.send(verb, **fields)
        return reply


def code(reply: dict) -> str | None:
    """A reply's error code (``None`` for an answer)."""
    return None if reply["ok"] else reply["error"]["code"]


def served(driver: Driver, **names) -> tuple:
    """A peer per ``client=document`` pair, each with ``document``
    registered as ``d``."""
    peers = []
    for client, xml in names.items():
        peer = Peer(driver, client)
        assert peer("REGISTER", name="d", xml=xml)["ok"]
        peers.append(peer)
    return tuple(peers)


def test_daemon_query_matches_the_local_engine():
    driver = Driver()
    alice = Peer(driver, "alice")
    assert alice("PING")["pong"]
    registered = alice("REGISTER", name="books", xml=BOOKS)
    assert registered["nodes"] == len(parse_document(BOOKS).nodes)
    reply = alice("QUERY", query="//book/title", doc="books")
    local = XPathEngine(parse_document(BOOKS)).evaluate("//book/title")
    assert reply["items"] == [node.path() for node in local]
    assert reply["count"] == 2 and not reply["degraded"]
    number = alice("QUERY", query="count(//book)", doc="books")
    assert number["kind"] == "number" and number["value"] == 2.0
    assert driver.core.stats.snapshot()["completed"] == 2


def test_daemon_batch_evaluates_every_cell():
    alice = Peer(Driver(), "alice")
    alice("REGISTER", name="books", xml=BOOKS)
    alice("REGISTER", name="tiny", xml="<a><b/></a>")
    reply = alice("BATCH", queries=["//title", "count(//*)"])
    assert reply["completed"] == reply["total"] == 4
    assert reply["shared"] and not reply["degraded"]
    cells = {(cell["doc"], cell["query"]): cell for cell in reply["cells"]}
    assert len(cells) == 4
    assert cells[("tiny", "count(//*)")]["value"] == 2.0


def test_daemon_typed_request_errors():
    driver = Driver()
    alice = Peer(driver, "alice")
    alice("REGISTER", name="books", xml=BOOKS)
    assert code(alice("QUERY", query="//title", doc="nope")) == "UNKNOWN_DOCUMENT"
    assert code(alice("QUERY", query="//[", doc="books")) == "QUERY_SYNTAX"
    assert code(alice("NOPE")) == "UNKNOWN_VERB"
    assert code(alice("REGISTER", name="books", xml="<unclosed>")) == "XML_SYNTAX"
    snapshot = driver.core.stats.snapshot()
    assert snapshot["request_errors"] == 2  # the two failed queries


def test_malformed_frame_gets_a_typed_error_and_the_connection_recovers():
    driver = Driver()
    peer = Peer(driver)
    (reply,) = driver.send(peer.conn, b"this is not json\n")
    assert reply["id"] is None and code(reply) == "PROTOCOL"
    # The protocol resynchronizes at the next newline.
    assert peer("PING")["pong"]
    assert driver.core.stats.snapshot()["malformed"] == 1


#: Query texts the front end once let escape as a bare exception (a
#: Unicode digit, nesting past the recursion limit), and the offset each
#: is refused at now.
HOSTILE_QUERIES = (
    ("²", 0),
    ("//book[price > ١٢]", 15),
    ("(" * 100 + "1" + ")" * 100, MAX_DEPTH),
    ("//book[" + "not(" * 100 + "title" + ")" * 100 + "]", 4 * MAX_DEPTH + 3),
    ("//book" + "[title" * 100 + "]" * 100, 6 * MAX_DEPTH + 6),
    ("1+" * 1000 + "1", None),  # too tall to compile: no offset
)


def test_hostile_query_texts_get_typed_replies_and_the_connection_stays_open():
    (alice,) = served(Driver(), alice=BOOKS)
    for query, offset in HOSTILE_QUERIES:
        reply = alice("QUERY", query=query, doc="d")
        assert code(reply) == "QUERY_SYNTAX"
        if offset is not None:
            assert f"(at offset {offset})" in reply["error"]["message"]
        # The same connection answers the next query.
        assert alice("QUERY", query="//book/title", doc="d")["count"] == 2
    stats = alice("STATS")["stats"]
    assert stats["global"]["request_errors"] == len(HOSTILE_QUERIES)
    assert stats["global"]["completed"] == len(HOSTILE_QUERIES)


class FailingPlanner(QueryService):
    """A service whose planner has a bug for one query text."""

    def plan(self, query, *args, **kwargs):
        if query == "//boom":
            raise RuntimeError("planner bug")
        return super().plan(query, *args, **kwargs)


def test_an_unexpected_validation_failure_is_one_typed_counted_reply():
    (alice,) = served(Driver(service=FailingPlanner()), alice=BOOKS)
    reply = alice("QUERY", query="//boom", doc="d")
    assert code(reply) == "INTERNAL" and "planner bug" in reply["error"]["message"]
    assert alice("QUERY", query="//book/title", doc="d")["count"] == 2
    assert code(alice("BATCH", queries=["//book", "//boom"], docs=["d"])) == "INTERNAL"
    stats = alice("STATS")["stats"]
    assert stats["global"]["request_errors"] == 2
    assert stats["gauges"]["alice"]["in_flight"] == 0


def test_rate_limit_is_typed_and_the_retry_hint_works():
    """The bucket runs on the driver's clock: waiting out the hint works."""
    driver = Driver(quota=ClientQuota(rate=20.0, burst=1))
    (peer,) = served(driver, r="<a><b/></a>")
    assert peer("QUERY", query="//b", doc="d")["ok"]
    refused = peer("QUERY", query="//b", doc="d")
    assert code(refused) == "RATE_LIMITED" and refused["error"]["retry_after"] > 0
    driver.now += refused["error"]["retry_after"]
    assert peer("QUERY", query="//b", doc="d")["ok"]
    snapshot = driver.core.stats.snapshot()
    assert snapshot["rejected_rate"] == 1


def test_admission_rejects_before_any_evaluation_starts():
    injector = FaultInjector()
    service = QueryService()
    driver = Driver(
        service=service, injector=injector,
        admission=AdmissionController(service, max_cost_seconds=0.0),
    )
    (peer,) = served(driver, o=BOOKS)
    refused = peer("QUERY", query="//book", doc="d")
    assert code(refused) == "OVERLOAD" and "retry_after" not in refused["error"]
    assert code(peer("BATCH", queries=["//book"], docs=["d"])) == "OVERLOAD"
    # The proof: nothing was evaluated for the rejected requests.
    assert injector.snapshot()["evaluations_started"] == 0
    # ... and the seam does see a BATCH that is admitted: its one
    # (query, document) cell starts one evaluation.
    driver.core.admission.max_cost_seconds = 60.0
    assert peer("BATCH", queries=["//book"], docs=["d"])["completed"] == 1
    assert injector.snapshot()["evaluations_started"] == 1
    snapshot = driver.core.stats.snapshot()
    assert snapshot["rejected_overload"] == 2


def test_degraded_admission_still_answers():
    service = QueryService()
    driver = Driver(
        service=service, admission=permissive(service, queue_high=64, queue_degrade=0)
    )
    (peer,) = served(driver, g=BOOKS)
    reply = peer("QUERY", query="//book/title", doc="d")
    assert reply["degraded"] and reply["algorithm"] == "corexpath"
    local = XPathEngine(parse_document(BOOKS)).evaluate("//book/title")
    assert reply["items"] == [node.path() for node in local]
    batch = peer("BATCH", queries=["//title", "//price"], docs=["d"])
    assert batch["degraded"] and not batch["shared"]
    assert batch["completed"] == batch["total"] == 2
    snapshot = driver.core.stats.snapshot()
    assert snapshot["degraded"] == 2 == snapshot["admitted"]


def test_batch_deadline_surfaces_partial_cells():
    """The deadline lapses while the second row runs: the reply keeps
    exactly the whole rows finished before it, in document order."""
    service = QueryService()
    driver = Driver(eager=False, service=service, admission=permissive(service))
    peer = Peer(driver, "b")
    names = ["d1", "d2", "d3"]
    for name in names:
        peer("REGISTER", name=name, xml=BOOKS)
    queries = ["//slow", "//title", "count(//book)"]
    assert peer.send("BATCH", queries=queries, docs=names, deadline_ms=800) == []
    (evaluation,) = driver.pending
    driver.step(evaluation)
    driver.now += 1.0
    driver.step(evaluation)
    (_, reply, _) = driver.replies[-1]
    assert code(reply) == "DEADLINE"
    assert (reply["completed"], reply["total"]) == (3, 9)
    assert [(cell["doc"], cell["query"]) for cell in reply["cells"]] == [
        ("d1", query) for query in queries
    ]
    assert driver.core.stats.snapshot()["deadlined"] == 1


def test_worker_death_returns_a_typed_error_response():
    service = QueryService()
    driver = Driver(
        service=service, injector=FaultInjector(die_matching="book"),
        admission=permissive(service),
    )
    (peer,) = served(driver, w=BOOKS)
    reply = peer("QUERY", query="//book", doc="d")
    assert code(reply) == "EVALUATION" and "worker died" in reply["error"]["message"]
    assert peer("QUERY", query="//title", doc="d")["ok"]  # the core survived
    snapshot = driver.core.stats.snapshot()
    assert snapshot["failed"] == 1 and snapshot["completed"] == 1


def test_non_numeric_deadline_gets_a_typed_protocol_error():
    """An untrusted ``deadline_ms`` must never escape as a bare
    ``ValueError`` that eats the response (regression)."""
    driver = Driver()
    (peer,) = served(driver, t=BOOKS)
    assert code(peer("QUERY", query="//book", doc="d", deadline_ms="fast")) == "PROTOCOL"
    assert code(peer("BATCH", queries=["//book"], docs=["d"], deadline_ms=[250])) == "PROTOCOL"
    assert code(peer("QUERY", query="//book", doc="d", deadline_ms=True)) == "PROTOCOL"
    # The connection stays usable after each typed refusal.
    assert peer("QUERY", query="//book", doc="d")["ok"]
    snapshot = driver.core.stats.snapshot()
    assert snapshot["request_errors"] == 3


def test_batch_worker_death_returns_a_typed_error_and_frees_the_gauge():
    """A worker death in a batch is a typed ``EVALUATION`` reply and
    frees the in-flight gauge (regression: the watermark filled up)."""
    service = QueryService()
    driver = Driver(
        service=service, injector=FaultInjector(die_matching="doomed"),
        admission=permissive(service),
    )
    (peer,) = served(driver, w=BOOKS)
    reply = peer("BATCH", queries=["//book", "//doomed"], docs=["d"])
    assert code(reply) == "EVALUATION" and "worker died" in reply["error"]["message"]
    assert driver.core.in_flight == 0
    assert peer("BATCH", queries=["//title"], docs=["d"])["ok"]  # the core survived
    snapshot = driver.core.stats.snapshot()
    assert snapshot["failed"] == 1 and snapshot["completed"] == 1


class CountingPlanner(QueryPlanner):
    """Counts the queries it compiles."""

    compiles = 0

    def compile(self, *args, **kwargs):
        self.compiles += 1
        return super().compile(*args, **kwargs)


def test_repeat_batches_hit_the_shared_memo_and_compile_each_query_once():
    """A BATCH shares the plan cache validation filled and the result
    memo a QUERY uses."""
    service = QueryService()
    service.planner = CountingPlanner()
    driver = Driver(service=service, admission=permissive(service))
    peer = Peer(driver, "r")
    names = ["d1", "d2"]
    for name in names:
        peer("REGISTER", name=name, xml=BOOKS)
    queries = ["//book/title", "//book/price", "count(//book)", "//title"]
    replies = [peer("BATCH", queries=queries, docs=names) for _ in range(3)]
    # A QUERY for one of the cells is answered from that memo.
    assert peer("QUERY", query="//book/price", doc="d2")["memo"] is True
    cells = len(queries) * len(names)
    assert [reply["completed"] for reply in replies] == [cells] * 3
    assert replies[1]["cells"] == replies[2]["cells"] == replies[0]["cells"]
    assert service.result_cache_stats()["hits"] == 2 * cells + 1
    assert service.planner.compiles == len(queries)


def test_a_deadline_and_elapsed_ms_count_from_the_frame_not_the_compile():
    """A request's clock starts at the frame's decode: a deadline the
    compile used up is a DEADLINE at the hop (no evaluation starts),
    ``elapsed_ms`` includes the compile, and a memo hit meets any deadline."""
    injector = FaultInjector()
    service = QueryService()
    service.planner = CountingPlanner()
    compile_plan = service.planner.compile

    def slow_compile(*args, **kwargs):
        time.sleep(0.3)
        return compile_plan(*args, **kwargs)

    service.planner.compile = slow_compile
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="p", timeout=10) as client:
            client.register("d", BOOKS)
            with pytest.raises(DeadlineExceededError):
                client.query("//title", "d", deadline_ms=100, retry=False)
            assert injector.snapshot()["evaluations_started"] == 0
            reply = client.query("//price", "d", retry=False)
            assert reply["memo"] is False and reply["elapsed_ms"] >= 300.0
            assert client.query("//price", "d", deadline_ms=0, retry=False)["memo"]
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["deadlined"] == 1 and snapshot["completed"] == 2
        assert service.planner.compiles == 2
        assert_identities(snapshot)


def test_a_batch_appends_each_row_before_the_next_is_evaluated():
    """Each row step sees every earlier row already in the cells."""
    service = QueryService()
    driver = Driver(eager=False, service=service, admission=permissive(service))
    peer = Peer(driver, "s")
    names = ["d1", "d2", "d3"]
    for name in names:
        peer("REGISTER", name=name, xml=BOOKS)
    peer.send("BATCH", queries=["//title", "count(//book)"], docs=names)
    (evaluation,) = driver.pending
    for appended in (0, 2, 4, 6):  # the last step finds no hop left: the reply
        assert len(evaluation.request.cells) == appended
        driver.step(evaluation)
    (_, reply, _) = driver.replies[-1]
    assert reply["completed"] == reply["total"] == 6


def test_deadline_lapsing_after_the_last_row_is_not_a_deadline():
    """The deadline is checked between rows, never after the last one: a
    batch whose rows all finished is ``completed`` (regression)."""
    service = QueryService()
    driver = Driver(eager=False, service=service, admission=permissive(service))
    peer = Peer(driver, "l")
    names = ["d1", "d2"]
    for name in names:
        peer("REGISTER", name=name, xml=BOOKS)
    peer.send("BATCH", queries=["//title", "//price"], docs=names, deadline_ms=60_000)
    (evaluation,) = driver.pending
    driver.step(evaluation)
    driver.step(evaluation)  # the last row
    driver.now += 120.0
    driver.step(evaluation)
    (_, reply, _) = driver.replies[-1]
    assert reply["completed"] == reply["total"] == 4
    snapshot = driver.core.stats.snapshot()
    assert snapshot["completed"] == 1 and snapshot["deadlined"] == 0


def test_register_quota_is_enforced_over_the_wire():
    peer = Peer(Driver(quota=ClientQuota(max_documents=1, max_registered_bytes=200)), "q")
    assert peer("REGISTER", name="a", xml="<a><b/></a>")["ok"]
    assert code(peer("REGISTER", name="b", xml="<a><b/></a>")) == "QUOTA"
    # Replacing the same name stays within the document cap.
    assert peer("REGISTER", name="a", xml="<a><c/></a>")["ok"]
    assert peer("QUERY", query="//c", doc="a")["count"] == 1


def test_per_client_quotas_span_connections():
    driver = Driver(quota=ClientQuota(max_documents=1))
    first = Peer(driver, "same")
    first("REGISTER", name="a", xml="<a/>")
    driver.close(first.conn)
    second = Peer(driver, "same")
    # Same identity, new connection: the document survives...
    assert second("QUERY", query="/a", doc="a")["count"] == 1
    # ...and so does the quota.
    assert code(second("REGISTER", name="b", xml="<b/>")) == "QUOTA"


def test_stats_verb_reports_exact_per_client_counters():
    service = QueryService()
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        with ServeClient(port=daemon.port, client="one") as one:
            one.register("d", BOOKS)
            one.query("//book", "d")
            with contextlib.suppress(RemoteError):
                one.query("//title", "missing")
            with ServeClient(port=daemon.port, client="two") as two:
                two.register("d", "<a><b/></a>")
                two.query("//b", "d")
                two.query("//b", "d")
                stats = two.stats()
        snapshot = stats["global"]
        assert_identities(snapshot)
        for client_snapshot in stats["clients"].values():
            assert_identities(client_snapshot)
        # Global counters are the exact per-client sums.
        for key in ("queries", "admitted", "completed", "request_errors"):
            assert snapshot[key] == sum(
                client[key] for client in stats["clients"].values()
            )
        assert stats["clients"]["one"]["request_errors"] == 1
        assert stats["clients"]["two"]["completed"] == 2


def test_anonymous_client_state_is_evicted_at_teardown():
    """An anonymous ``conn:N`` identity, never addressable again, goes
    with its connection (regression: one leaked per connection)."""
    driver = Driver()
    anonymous = Peer(driver)  # no client name
    assert anonymous("PING")["pong"]
    assert anonymous.conn.client in driver.core.clients
    driver.close(anonymous.conn)
    assert not any(name.startswith("conn:") for name in driver.core.clients)
    # The evicted identity's counters survive in the aggregate bucket,
    # so global == sum(clients) stays exact.
    stats = Peer(driver, "after")("STATS")["stats"]
    assert "(evicted)" in stats["clients"]


def test_idle_named_clients_are_evicted_after_the_retention_window():
    """Past the retention window an idle client is dropped, its counters
    folded into ``(evicted)`` (regression: registrations pinned forever)."""
    driver = Driver(client_retention_seconds=30.0)
    (old,) = served(driver, old=BOOKS)
    assert old("QUERY", query="//book", doc="d")["ok"]
    driver.close(old.conn)
    driver.now += 30.0
    # A new client's creation triggers the retention sweep.
    stats = Peer(driver, "fresh")("STATS")["stats"]
    assert "old" not in driver.core.clients and "old" not in stats["clients"]
    assert stats["clients"]["(evicted)"]["completed"] == 1


def test_a_new_identity_sorts_the_clients_only_when_one_can_go():
    """The retention sweep sorts the retained clients only over the cap or
    once the earliest retention window has ended, not on every new identity
    (regression: each new connection's first frame sorted them all)."""
    driver = Driver(client_retention_seconds=30.0)
    core = driver.core

    def ping(conn, **fields) -> None:
        core.receive(conn, encode_frame({"verb": "PING", **fields}))
        ((_, reply),) = core.next_actions(conn)
        assert decode_frame(reply)["pong"] is True
        assert core.next_actions(conn) is None  # the pass ends

    named = core.connect()
    for index in range(1000):
        ping(named, client=f"n{index}")
    core.disconnect(named)
    with mock.patch("repro.serve.core.sorted", side_effect=sorted, create=True) as sorts:
        for _ in range(300):
            conn = core.connect()
            ping(conn)
            core.disconnect(conn)
        assert sorts.call_count == 0 and len(core.clients) == 1000
        driver.now += 30.0  # every named client's window has ended
        ping(core.connect())
    assert sorts.call_count == 1
    assert not any(name.startswith("n") for name in core.clients)


class CountingAdmission(AdmissionController):
    """Counts the requests that were priced."""

    decisions = 0

    def decide(self, *args, **kwargs):
        self.decisions += 1
        return super().decide(*args, **kwargs)


def test_memo_hits_start_no_evaluation_no_task_and_no_pricing():
    service = QueryService()
    admission = CountingAdmission(service, seconds_per_unit=1e-12)
    driver = Driver(eager=False, service=service, admission=admission)
    (hot,) = served(driver, hot=BOOKS)
    assert hot.send("QUERY", query="//book/title", doc="d") == []
    driver.finish(driver.pending[0])
    (_, miss, _) = driver.replies[-1]
    assert miss["memo"] is False
    before = driver.core.stats_snapshot()
    priced, cache = admission.decisions, service.result_cache_stats()
    for _ in range(25):
        hit = hot("QUERY", query="//book/title", doc="d")
        assert hit["memo"] is True and not driver.pending  # no evaluation
        assert hit["algorithm"] == "corexpath" and hit["degraded"] is False
        assert hit["priced_ms"] == 0.0
        assert {key: hit[key] for key in ("kind", "count", "items")} == {
            key: miss[key] for key in ("kind", "count", "items")
        }
    # A hit meets any deadline, but validation still precedes it.
    assert hot("QUERY", query="//book/title", doc="d", deadline_ms=0)["memo"] is True
    assert code(hot("QUERY", query="//book/title", doc="d", deadline_ms="soon")) == "PROTOCOL"
    after = hot("STATS")["stats"]
    assert admission.decisions == priced
    assert after["faults"] == before["faults"]
    assert after["faults"]["evaluations_started"] == 1
    assert after["global"]["memo_hits"] == before["global"]["memo_hits"] + 26
    assert after["clients"]["hot"]["memo_hits"] == 26
    assert after["global"]["completed"] == before["global"]["completed"] + 26
    assert after["global"]["request_errors"] == 1
    now = service.result_cache_stats()
    assert now["hits"] == cache["hits"] + 26 and now["misses"] == cache["misses"]


def test_a_degraded_query_is_answered_from_the_memo_on_repeat():
    """A degrade keeps ``auto``, so the ``auto`` probe finds the entry the
    degraded evaluation made."""
    service = QueryService()
    driver = Driver(service=service, admission=permissive(service, queue_degrade=0))
    (peer,) = served(driver, d=BOOKS)
    replies = [peer("QUERY", query="//book/title", doc="d") for _ in range(3)]
    stats = peer("STATS")["stats"]
    assert replies[0]["memo"] is False and replies[0]["degraded"] is True
    assert [reply["memo"] for reply in replies[1:]] == [True, True]
    assert stats["global"]["memo_hits"] == 2
    assert stats["faults"]["evaluations_started"] == 1


def test_reply_timings_are_rounded_to_microseconds():
    service = QueryService()
    driver = Driver(eager=False, service=service, admission=permissive(service))
    (peer,) = served(driver, t=BOOKS)
    replies = []
    for verb, fields in (
        ("QUERY", {"query": "//book", "doc": "d"}),
        ("QUERY", {"query": "//book", "doc": "d"}),
        ("BATCH", {"queries": ["//title"], "docs": ["d"]}),
        ("QUERY", {"query": "//price", "doc": "d", "deadline_ms": 30}),
    ):
        start = len(driver.replies)
        peer.send(verb, **fields)
        driver.now += 0.123456789
        for evaluation in list(driver.pending):
            driver.finish(evaluation)
        replies += [reply for _, reply, _ in driver.replies[start:]]
    assert code(replies[-1]) == "DEADLINE"
    for reply in replies:
        for key in ("elapsed_ms", "priced_ms"):
            if key in reply:
                assert len(repr(float(reply[key])).partition(".")[2]) <= 3
    assert all("elapsed_ms" in reply for reply in replies)


def test_a_hit_takes_a_rate_token():
    driver = Driver(quota=ClientQuota(rate=1.0, burst=3))
    (peer,) = served(driver, r=BOOKS)
    assert peer("QUERY", query="//book", doc="d")["memo"] is False
    assert peer("QUERY", query="//book", doc="d")["memo"] is True
    assert peer("QUERY", query="//book", doc="d")["memo"] is True
    refused = peer("QUERY", query="//book", doc="d")  # the bucket is empty
    assert code(refused) == "RATE_LIMITED"
    assert refused["error"]["retry_after"] == pytest.approx(1.0)
    driver.now += 1.0
    assert peer("QUERY", query="//book", doc="d")["memo"] is True
    snapshot = driver.core.stats.snapshot()
    assert snapshot["rejected_rate"] == 1 and snapshot["memo_hits"] == 3


def test_a_hit_needs_a_free_slot_but_ignores_the_queue_watermarks():
    service = QueryService()
    driver = Driver(
        eager=False, service=service, quota=ClientQuota(max_in_flight=1),
        admission=permissive(service, queue_high=2, queue_degrade=2),
    )
    document = "<a><slow/><fast/></a>"
    one, two, idle = served(driver, one=document, two=document, idle=document)
    for peer in (one, two, idle):
        peer.send("QUERY", query="//fast", doc="d")
        driver.finish(driver.pending[0])
    one.send("QUERY", query="//slow", doc="d")
    two.send("QUERY", query="//slow", doc="d")
    assert driver.core.in_flight == 2  # the high watermark
    # Same client, its only slot taken: a hit is refused QUOTA.
    assert code(Peer(driver, "one")("QUERY", query="//fast", doc="d")) == "QUOTA"
    # Another client: its miss is shed, its hit is not load.
    assert code(idle("QUERY", query="//a", doc="d")) == "OVERLOAD"
    assert idle("QUERY", query="//fast", doc="d")["memo"] is True
    for evaluation in list(driver.pending):
        driver.finish(evaluation)
    stats = idle("STATS")["stats"]
    assert stats["global"]["rejected_quota"] == 1
    assert stats["global"]["rejected_overload"] == 1
    assert stats["global"]["memo_hits"] == 1


def test_a_hit_is_refused_while_draining():
    driver = Driver()
    (peer,) = served(driver, d=BOOKS)
    assert peer("QUERY", query="//book", doc="d")["memo"] is False
    driver.core.draining = True
    assert code(peer("QUERY", query="//book", doc="d")) == "SHUTTING_DOWN"
    driver.core.draining = False
    assert peer("QUERY", query="//book", doc="d")["memo"] is True
    snapshot = driver.core.stats.snapshot()
    assert snapshot["rejected_draining"] == 1 and snapshot["memo_hits"] == 1


def test_disconnect_fault_applies_to_a_hit_and_the_counters_reconcile():
    driver = Driver(injector=FaultInjector(disconnect_matching="price"))
    (peer,) = served(driver, x=BOOKS)
    for _ in range(2):  # the miss memoizes; the repeat is a hit
        assert peer.send("QUERY", query="//price", doc="d") == []
        assert peer.conn not in driver.core.connections  # abandoned
        peer = Peer(driver, "x")
    stats = peer("STATS")["stats"]
    assert stats["faults"] == {"evaluations_started": 1, "faults_injected": 2}
    assert stats["global"]["completed"] == 2
    assert stats["global"]["memo_hits"] == 1


def test_pipelined_frames_get_one_reply_each_and_hits_keep_send_order():
    service = QueryService()
    driver = Driver(
        service=service, quota=ClientQuota(max_in_flight=512),
        admission=permissive(service, queue_high=1024, queue_degrade=1024),
    )
    items = "".join(f"<item n='{index}'/>" for index in range(40))
    (peer,) = served(driver, p=f"<r>{items}</r>")
    warmed = peer("QUERY", query="//item", doc="d")
    frames, hits, misses = [], [], []
    for index in range(1, 301):
        fields = {"verb": "QUERY", "id": index, "client": "p", "doc": "d", "query": "//item"}
        if index == 100:
            frames.append(b"{this is not json\n")
            continue
        if index == 150:
            fields["doc"] = "ghost"
        elif index == 200:
            fields = {"verb": "PING", "id": index, "client": "p"}
        elif index % 3 == 0:
            fields["query"] = f"//item[@n = '7' or @n = 'x{index}']"
            misses.append(index)
        else:
            hits.append(index)
        frames.append(encode_frame(fields))
    before = driver.core.stats.snapshot()
    replies = driver.send(Peer(driver).conn, b"".join(frames))
    assert [reply["id"] for reply in replies] == [
        None if index == 100 else index for index in range(1, 301)
    ]
    by_id = {reply["id"]: reply for reply in replies}
    assert code(by_id[None]) == "PROTOCOL" and code(by_id[150]) == "UNKNOWN_DOCUMENT"
    assert by_id[200]["pong"] is True
    assert [r["id"] for r in replies if r.get("memo")] == hits
    for index in hits:
        assert by_id[index]["items"] == warmed["items"]
    for index in misses:
        assert by_id[index]["memo"] is False and by_id[index]["count"] == 1
    moved = driver.core.stats.delta(before)
    assert moved["memo_hits"] == len(hits) and moved["completed"] == len(hits) + len(misses)
    assert moved["malformed"] == 1 and moved["request_errors"] == 1


def framing_stream() -> tuple[bytes, int]:
    """≈50 pipelined frames for client ``f`` on document ``d``: hits of
    the warmed ``//item``, misses, one malformed line, blank lines and a
    PING; with the number of replies it must get."""
    lines = []
    for index in range(1, 51):
        if index == 20:
            lines.append(b"{this is not json\n")
            continue
        if index % 10 == 5:
            lines += [b"\n", b"  \r\n"]
        fields = {"verb": "QUERY", "id": index, "client": "f", "doc": "d", "query": "//item"}
        if index == 30:
            fields = {"verb": "PING", "id": index, "client": "f"}
        elif index % 4 == 0:
            fields["query"] = f"//item[@n = '{index % 7}' or @m = '{index}']"
        lines.append(encode_frame(fields))
    return b"".join(lines), 50


def run_framing_stream(driver, chunks) -> tuple[dict, dict]:
    """Re-register ``d`` (a fresh document, so its memo holds only the
    warmed ``//item``), send ``chunks`` one segment each and read every
    reply: the replies by ``id`` without their clocks, and what the
    stream moved on the global counters."""
    items = "".join(f"<item n='{index % 7}'/>" for index in range(30))
    served(driver, f=f"<r>{items}</r>")[0]("QUERY", query="//item", doc="d")
    before = driver.core.stats.snapshot()
    stream, count = framing_stream()
    assert b"".join(chunks) == stream
    conn = driver.connect()
    replies = [reply for chunk in chunks for reply in driver.send(conn, chunk)]
    assert len(replies) == count
    by_id = {}
    for reply in replies:
        assert reply["id"] not in by_id
        reply.pop("elapsed_ms", None)
        reply.pop("priced_ms", None)
        by_id[reply["id"]] = reply
    return by_id, driver.core.stats.delta(before)


def test_every_chunking_of_a_pipelined_stream_gets_the_same_replies():
    """However a pipelined stream is cut — a byte a segment, at every
    newline, at random — its replies and counter moves are the same."""
    from hypothesis import example, given, settings, strategies as st

    service = QueryService()
    driver = Driver(
        service=service, quota=ClientQuota(max_in_flight=512),
        admission=permissive(service, queue_high=1024, queue_degrade=1024),
    )
    stream, count = framing_stream()
    expected, moved = run_framing_stream(driver, [stream])
    assert code(expected[None]) == "PROTOCOL"
    assert moved["malformed"] == 1 and moved["memo_hits"] == 37
    newlines = [index for index, byte in enumerate(stream) if byte == ord("\n")]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, len(stream) - 1), max_size=40))
    @example(list(range(1, len(stream))))  # one byte per segment
    @example(newlines)  # every newline opens the next segment
    @example([index + 1 for index in newlines[:-1]])  # one line per segment
    def chunked(cuts):
        bounds = [0, *sorted(set(cuts)), len(stream)]
        chunks = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
        assert run_framing_stream(driver, chunks) == (expected, moved)

    chunked()


def test_the_frame_bound_is_max_frame_bytes_plus_two():
    """The wire bound: a line whose newline sits at most
    ``MAX_FRAME_BYTES + 2`` bytes in is read, and decoding refuses it
    as any oversized frame (typed ``PROTOCOL``, the connection stays
    usable); one byte more is ``FRAME_TOO_LARGE`` and a close."""
    driver = Driver()
    ping = encode_frame({"verb": "PING", "id": 1})
    longest = b"x" * (MAX_FRAME_BYTES + 2) + b"\n"
    refused, pong = driver.send(driver.connect(), longest + ping)
    assert refused["id"] is None and code(refused) == "PROTOCOL"
    assert "exceeds" in refused["error"]["message"] and pong["pong"] is True
    before = driver.core.stats.snapshot()
    conn = driver.connect()
    (reply,) = driver.send(conn, b"x" + longest)
    assert code(reply) == "FRAME_TOO_LARGE" and conn not in driver.core.connections
    moved = driver.core.stats.delta(before)
    assert moved["requests"] == 1 and moved["malformed"] == 1


def test_an_unterminated_frame_past_the_limit_gets_one_refusal():
    """Unterminated bytes past the bound, arriving in 64 KiB pieces, get
    one ``FRAME_TOO_LARGE`` and a close, counted once as malformed."""
    driver = Driver()
    before = driver.core.stats.snapshot()
    conn = driver.connect()
    piece = b"x" * (64 * 1024)
    for _ in range(MAX_FRAME_BYTES // len(piece)):
        assert driver.send(conn, piece) == []
    (reply,) = driver.send(conn, b"xyz")  # 3 bytes past the bound, no newline
    assert code(reply) == "FRAME_TOO_LARGE" and conn not in driver.core.connections
    moved = driver.core.stats.delta(before)
    assert moved["requests"] == 1 and moved["malformed"] == 1


@contextlib.contextmanager
def serve_adds():
    """Every ``Counters.add`` call a serve family takes while the block
    runs, as ``(instance name, amounts)``."""
    calls = []
    add = Counters.add

    def counting(self, amounts):
        if self.name.startswith("serve"):
            calls.append((self.name, dict(amounts)))
        return add(self, amounts)

    with mock.patch.object(Counters, "add", counting):
        yield calls


def test_a_query_frame_is_one_counter_event_on_every_exit():
    """A QUERY or BATCH is one event — one add globally, one for the
    client — answered from the memo, admitted or refused."""
    service = QueryService()
    driver = Driver(
        eager=False, service=service, admission=permissive(service),
        quota=ClientQuota(max_in_flight=1, rate=1e-3, burst=7),
    )

    def one_event(**outcome):
        event = {"requests": 1, "queries": 1, **outcome}
        return [("serve", event), ("serve_client_c", event)]

    (peer,) = served(driver, c="<a><b/><slow/></a>")
    peer.send("QUERY", query="//b", doc="d")  # fills the memo
    driver.finish(driver.pending[0])
    with serve_adds() as calls:
        assert peer("QUERY", query="//b", doc="d")["memo"] is True
    assert calls == one_event(admitted=1, completed=1, memo_hits=1)
    with serve_adds() as calls:
        peer.send("BATCH", queries=["//b"], docs=["d"])
        driver.finish(driver.pending[0])
    # The front half's event, then the evaluation's outcome.
    assert calls == one_event(admitted=1, degraded=0) + [
        ("serve", {"completed": 1, "drained": 0}),
        ("serve_client_c", {"completed": 1, "drained": 0}),
    ]
    with serve_adds() as calls:
        assert code(peer("QUERY", query="//b", doc="ghost")) == "UNKNOWN_DOCUMENT"
    assert calls == one_event(request_errors=1)
    with serve_adds() as calls:
        assert code(peer("QUERY", query="//b[1]", doc="d", deadline_ms=0)) == "OVERLOAD"
    assert calls == one_event(rejected_overload=1)
    Peer(driver, "c").send("QUERY", query="//slow", doc="d")  # holds the slot
    with serve_adds() as calls:
        assert code(peer("QUERY", query="//b", doc="d")) == "QUOTA"
    assert calls == one_event(rejected_quota=1)
    with serve_adds() as calls:
        assert code(peer("QUERY", query="//b", doc="d")) == "RATE_LIMITED"
    assert calls == one_event(rejected_rate=1)
    driver.finish(driver.pending[0])
    driver.core.draining = True
    with serve_adds() as calls:
        assert code(peer("QUERY", query="//b", doc="d")) == "SHUTTING_DOWN"
    assert calls == one_event(rejected_draining=1)


def test_draining_daemon_refuses_new_work_typed():
    driver = Driver()
    (peer,) = served(driver, d=BOOKS)
    driver.core.draining = True
    assert code(peer("QUERY", query="//book", doc="d")) == "SHUTTING_DOWN"
    assert code(peer("REGISTER", name="e", xml="<a/>")) == "SHUTTING_DOWN"
    driver.core.draining = False
    assert peer("QUERY", query="//book", doc="d")["ok"]
    snapshot = driver.core.stats.snapshot()
    assert snapshot["rejected_draining"] == 1


# ----------------------------------------------------------------------
# the asyncio adapter, over real sockets
# ----------------------------------------------------------------------


def test_in_flight_quota_is_typed_and_retryable():
    injector = FaultInjector(delay_matching="slow", delay_seconds=0.6)
    service = QueryService()
    with running_daemon(
        service=service,
        injector=injector,
        quota=ClientQuota(max_in_flight=1),
        admission=permissive(service),
    ) as daemon:
        first = ServeClient(port=daemon.port, client="q", timeout=10)
        outcome = {}

        def occupy():
            outcome["first"] = first.query("//slow", "d", retry=False)

        first.register("d", "<a><slow/></a>")
        thread = threading.Thread(target=occupy)
        thread.start()
        time.sleep(0.2)  # the slow query now holds the only slot
        with ServeClient(port=daemon.port, client="q") as second:
            with pytest.raises(QuotaExceededError) as excinfo:
                second.query("//slow", "d", retry=False)
            assert excinfo.value.retry_after is not None
            # The retrying path waits the slot out and succeeds.
            assert second.query("//slow", "d", retry=True)["ok"]
        thread.join(10)
        assert outcome["first"]["ok"]
        first.close()
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["rejected_quota"] >= 1
        assert_identities(snapshot)


def test_query_deadline_returns_typed_deadline_not_a_hang():
    injector = FaultInjector(delay_matching="title", delay_seconds=2.0)
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="d", timeout=10) as client:
            client.register("d", BOOKS)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.query("//title", "d", deadline_ms=150, retry=False)
            elapsed = time.monotonic() - started
            assert elapsed < 1.5  # answered at the deadline, not after the fault
            # The connection is still usable while the abandoned worker runs.
            assert client.query("//book", "d")["ok"]
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["deadlined"] == 1 and snapshot["completed"] == 1
        assert_identities(snapshot)


def test_mid_stream_disconnect_keeps_counters_reconciled():
    injector = FaultInjector(disconnect_matching="price")
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        client = ServeClient(port=daemon.port, client="x", timeout=5)
        client.register("d", BOOKS)
        with pytest.raises(ProtocolError):
            client.query("//price", "d", retry=False)
        with contextlib.suppress(ProtocolError, OSError):
            client.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            snapshot = daemon.core.stats.snapshot()
            if snapshot["completed"] == 1:
                break
            time.sleep(0.05)
        # The response was produced and counted; only its delivery was
        # cut — the identity still closes.
        assert snapshot["completed"] == 1
        assert_identities(snapshot)


def read_frames(sock, count, timeout=30.0):
    """The next ``count`` reply frames off a raw socket."""
    sock.settimeout(timeout)
    with sock.makefile("rb") as stream:
        return [decode_frame(stream.readline()) for _ in range(count)]


def daemon_connection(daemon, sock, deadline):
    """The daemon's side of a client socket. The kernel can take a whole
    burst before the loop has accepted the connection, and a client that
    just closed may still be listed: it has its BYE reply before the
    daemon drops it."""
    name = sock.getsockname()
    while time.monotonic() < deadline:
        for conn in list(daemon._connections):
            if conn.transport.get_extra_info("peername") == name:
                return conn
        time.sleep(0.01)
    raise AssertionError("the daemon never accepted the connection")


def wait_until_stalled(daemon, transport, deadline) -> int:
    """Wait until the reader has stopped above the transport's high-water
    mark (a client that does not read); return the ``requests`` count it
    stopped at. It must stay put for ten polls, so that a passing
    crossing of the mark does not count."""
    high_water = transport.get_write_buffer_limits()[1]
    requests, still = None, 0
    while still < 10 and time.monotonic() < deadline:
        seen = daemon.core.stats.snapshot()["requests"]
        above = transport.get_write_buffer_size() >= high_water
        still = still + 1 if above and seen == requests else 0
        requests = seen
        time.sleep(0.01)
    assert still == 10, "the reader never stalled above the high-water mark"
    return requests


def test_a_client_that_does_not_read_cannot_grow_the_daemons_buffers():
    with running_daemon() as daemon:
        items = "".join("<item/>" for _ in range(200))
        with ServeClient(port=daemon.port, client="b") as client:
            client.register("d", f"<r>{items}</r>")
            client.query("//item", "d")
        frame = {"verb": "QUERY", "client": "b", "doc": "d", "query": "//item"}
        burst = b"".join(encode_frame({**frame, "id": n}) for n in range(5000))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(burst)
            deadline = time.monotonic() + 10.0
            conn = daemon_connection(daemon, sock, deadline)
            transport = conn.transport
            high_water = transport.get_write_buffer_limits()[1]
            requests = wait_until_stalled(daemon, transport, deadline)
            buffered = []
            for _ in range(20):
                assert daemon.core.stats.snapshot()["requests"] == requests
                buffered.append(transport.get_write_buffer_size())
                assert not conn.tasks
                time.sleep(0.01)
            replies = read_frames(sock, 5000)
        # A write lands only below the mark, so the buffer overshoots it
        # by at most one reply.
        largest = max(len(encode_frame(reply)) for reply in replies)
        assert max(buffered) <= high_water + largest
        assert [reply["id"] for reply in replies] == list(range(5000))
        assert all(reply["memo"] and reply["count"] == 200 for reply in replies)
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["memo_hits"] == 5000
        assert_identities(snapshot)


def test_a_pipelined_burst_is_answered_in_passes_of_at_most_the_frame_cap():
    """5 000 memo hits sent in one burst: no adapter pass answers more than
    ``FRAMES_PER_PASS`` frames of it (the rest waits for the next pass, so
    other connections are served in between); every reply arrives, in order."""
    passes = []
    answer_frames, perform = _Connection.answer_frames, _Connection.perform

    def counting_frames(self):
        passes.append(0)
        answer_frames(self)

    def counting_perform(self, actions):
        passes[-1] += 1
        perform(self, actions)

    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="p") as client:
            client.register("d", BOOKS)
            client.query("//title", "d")
        frame = {"verb": "QUERY", "client": "p", "doc": "d", "query": "//title"}
        burst = b"".join(encode_frame({**frame, "id": n}) for n in range(5000))
        with mock.patch.object(_Connection, "answer_frames", counting_frames), mock.patch.object(
            _Connection, "perform", counting_perform
        ), socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sender = threading.Thread(target=sock.sendall, args=(burst,))
            sender.start()
            replies = read_frames(sock, 5000)
            sender.join(10)
        assert [reply["id"] for reply in replies] == list(range(5000))
        assert all(reply["memo"] for reply in replies)
    assert max(passes) == FRAMES_PER_PASS
    assert sum(passes) >= 5000


def test_eof_is_honoured_after_every_buffered_frame_is_answered():
    """A client that pipelines a burst and half-closes without reading
    still gets every reply, then the close."""
    with running_daemon() as daemon:
        items = "".join("<item/>" for _ in range(200))
        with ServeClient(port=daemon.port, client="e") as client:
            client.register("d", f"<r>{items}</r>")
            client.query("//item", "d")
        frame = {"verb": "QUERY", "client": "e", "doc": "d", "query": "//item"}
        burst = b"".join(encode_frame({**frame, "id": n}) for n in range(3000))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(burst)
            sock.shutdown(socket.SHUT_WR)
            time.sleep(0.2)  # the daemon meets the EOF with replies unread
            replies = read_frames(sock, 3000)
            assert sock.recv(1 << 16) == b""
        assert [reply["id"] for reply in replies] == list(range(3000))
        assert all(reply["memo"] for reply in replies)
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["memo_hits"] == 3000
        assert_identities(snapshot)


def test_a_memo_hit_makes_no_future_and_no_task():
    """A hit is answered inside the callback that read its frame: a
    thousand of them, one per send, make no future and no task on the
    daemon's loop."""
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="h") as client:
            client.register("d", BOOKS)
            client.query("//title", "d")
        loop = daemon._server.get_loop()
        made = []
        installed = threading.Event()
        create_future = loop.create_future

        def counting_future():
            made.append("future")
            return create_future()

        def counting_task(loop, coroutine, **kwargs):
            made.append("task")
            return asyncio.Task(coroutine, loop=loop, **kwargs)

        def install(on):
            if on:
                loop.create_future = counting_future
                loop.set_task_factory(counting_task)
            else:
                del loop.create_future
                loop.set_task_factory(None)
            installed.set()

        frame = encode_frame(
            {"verb": "QUERY", "id": 1, "client": "h", "doc": "d", "query": "//title"}
        )
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(frame)
            read_frames(sock, 1)  # the connection is set up and warm
            loop.call_soon_threadsafe(install, True)
            assert installed.wait(5)
            sock.settimeout(30.0)
            with sock.makefile("rb") as stream:
                for _ in range(1000):
                    sock.sendall(frame)
                    assert decode_frame(stream.readline())["memo"] is True
            installed.clear()
            loop.call_soon_threadsafe(install, False)
            assert installed.wait(5)
        assert made == []


def test_stats_pipelined_behind_mixed_frames_reads_every_residual_zero():
    """Every frame before a STATS is fully counted by the time it is
    answered: pipelined hits, refusals of three kinds, request errors,
    malformed lines, PINGs and unknown verbs leave no residual."""
    service = QueryService()
    quota = ClientQuota(max_in_flight=512, rate=1e-3, burst=150)
    with running_daemon(
        service=service, quota=quota, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="p") as client:
            client.register("d", "<r><item/><item/></r>")
            client.query("//item", "d")
        frames = []
        for index in range(1, 301):
            fields = {"verb": "QUERY", "id": index, "client": "p", "doc": "d"}
            kind = index % 10
            if kind == 0:
                frames.append(b"{not json\n")
                continue
            if kind == 1:
                fields = {"verb": "PING", "id": index, "client": "p"}
            elif kind == 2:
                fields.update(query="//item", doc="ghost")
            elif kind == 3:  # a miss priced over its own deadline
                fields.update(query=f"//item[{index}]", deadline_ms=0)
            elif kind == 4:
                fields = {
                    "verb": "BATCH", "id": index, "client": "p",
                    "queries": ["//item"], "deadline_ms": 0,
                }
            elif kind == 5:
                fields = {"verb": "NOPE", "id": index, "client": "p"}
            else:
                fields["query"] = "//item"
            frames.append(encode_frame(fields))
        frames.append(encode_frame({"verb": "STATS", "id": 301, "client": "p"}))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(b"".join(frames))
            replies = read_frames(sock, 301)
        assert replies[-1]["id"] == 301
        stats = replies[-1]["stats"]
        served = stats["global"]
        assert served["memo_hits"] > 0 and served["malformed"] == 30
        assert served["rejected_overload"] > 0 and served["rejected_rate"] > 0
        assert served["request_errors"] > 0
        residuals = stats["residuals"]
        assert set(residuals["global"].values()) == {0}
        assert residuals["clients"] and all(
            set(client.values()) == {0} for client in residuals["clients"].values()
        )


def test_a_batch_whose_client_leaves_starts_no_further_row():
    """A client that leaves mid-BATCH cancels it between rows: the row in
    flight is abandoned, no later row starts, and the request counts as
    failed."""
    injector = FaultInjector(delay_matching="slow", delay_seconds=0.4)
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        names = ["d1", "d2", "d3"]
        with ServeClient(port=daemon.port, client="q") as client:
            for name in names:
                client.register(name, BOOKS)
        frame = {
            "verb": "BATCH", "id": 1, "client": "q", "queries": ["//slow"], "docs": names
        }
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(encode_frame(frame))
            deadline = time.monotonic() + 5.0
            while injector.snapshot()["evaluations_started"] == 0:
                assert time.monotonic() < deadline, "the first row never started"
                time.sleep(0.01)
        deadline = time.monotonic() + 5.0
        while daemon.core.stats.snapshot()["failed"] == 0:
            assert time.monotonic() < deadline, "the cancel was never counted"
            time.sleep(0.01)
        time.sleep(0.6)  # past the abandoned row's delay
        assert injector.snapshot()["evaluations_started"] == 1
        snapshot = daemon.core.stats.snapshot()
        assert snapshot["failed"] == 1 and daemon.core.in_flight == 0
        assert_identities(snapshot)


def test_a_miss_admitted_right_before_the_client_leaves_is_failed_not_lost():
    """The reader admits and counts a miss before its task has run a
    step; an EOF right behind the frame must not strand the slot, the
    gauge or the ``admitted`` it already recorded."""
    injector = FaultInjector(delay_matching="slow", delay_seconds=0.5)
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="e") as client:
            client.register("d", "<a><slow/><fast/></a>")
            client.query("//fast", "d")
        frame = {"verb": "QUERY", "client": "e", "doc": "d"}
        burst = [encode_frame({**frame, "id": n, "query": "//fast"}) for n in range(600)]
        burst.append(encode_frame({**frame, "id": 600, "query": "//slow"}))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(b"".join(burst))
            sock.shutdown(socket.SHUT_WR)
            replies = read_frames(sock, 600)
        assert [reply["id"] for reply in replies] == list(range(600))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            snapshot = daemon.core.stats.snapshot()
            if snapshot["failed"]:
                break
            time.sleep(0.01)
        assert snapshot["admitted"] == 602 and snapshot["failed"] == 1
        assert daemon.core.in_flight == 0
        assert daemon.core.clients["e"].in_flight == 0
        assert_identities(snapshot)


def test_drain_deadlines_out_stragglers_and_loses_no_responses():
    injector = FaultInjector(delay_matching="slow", delay_seconds=3.0)
    service = QueryService()
    outcomes = {}
    with running_daemon(
        service=service, injector=injector, drain_grace=0.4, admission=permissive(service)
    ) as daemon:
        client = ServeClient(port=daemon.port, client="z", timeout=10)
        client.register("d", "<a><slow/><fast/></a>")

        def in_flight():
            try:
                outcomes["slow"] = client.query("//slow", "d", retry=False)
            except ReproError as error:
                outcomes["slow"] = error

        straggler = threading.Thread(target=in_flight)
        straggler.start()
        time.sleep(0.3)  # the slow query is admitted and running
        drain_started = time.monotonic()
        daemon._server.get_loop().call_soon_threadsafe(daemon.initiate_drain)
        straggler.join(10)
        client.close()
    assert time.monotonic() - drain_started < 3.0  # bounded by grace, not by the fault
    # The straggler got a typed DEADLINE response, not a dropped socket.
    assert isinstance(outcomes["slow"], DeadlineExceededError)
    snapshot = daemon.core.stats.snapshot()
    assert snapshot["admitted"] == 1
    assert snapshot["deadlined"] == 1
    assert snapshot["drained"] == 1
    assert_identities(snapshot)


def _drain_with_stalled_clients(clients: int, within: float) -> None:
    """Stall ``clients`` sockets, each by pipelining a burst of memo hits
    and never reading, so replies stay buffered above the transport's
    high-water mark; then drain with ``drain_grace=1.0`` and require the
    loop to finish ``within`` seconds and every connection to be gone."""
    with contextlib.ExitStack() as stack:
        with running_daemon(drain_grace=1.0) as daemon:
            items = "".join("<item/>" for _ in range(2000))
            with ServeClient(port=daemon.port, client="s") as client:
                client.register("d", f"<r>{items}</r>")
                client.query("//item", "d")  # every frame of the burst is a hit
            frame = {"verb": "QUERY", "client": "s", "doc": "d", "query": "//item"}
            burst = b"".join(encode_frame({**frame, "id": n}) for n in range(3000))
            socks = []
            for _ in range(clients):
                sock = stack.enter_context(
                    socket.create_connection(("127.0.0.1", daemon.port))
                )
                sock.sendall(burst)
                deadline = time.monotonic() + 10.0
                conn = daemon_connection(daemon, sock, deadline)
                wait_until_stalled(daemon, conn.transport, deadline)
                socks.append(sock)
            started = time.monotonic()
            daemon._server.get_loop().call_soon_threadsafe(daemon.initiate_drain)
        elapsed = time.monotonic() - started
        assert elapsed < within, "the drain waited on clients that never read"
        # The daemon gave up on the unread replies: every connection is
        # gone, not left open behind the finished loop.
        for sock in socks:
            sock.settimeout(5.0)
            with contextlib.suppress(ConnectionResetError):
                while sock.recv(1 << 20):
                    pass
    assert_identities(daemon.core.stats.snapshot())


def test_drain_finishes_while_a_connected_client_has_stopped_reading():
    """The drain finishes inside its grace windows instead of waiting on
    a client that never reads."""
    _drain_with_stalled_clients(1, within=3.0)


def test_drain_gives_stalled_clients_one_grace_together():
    """Stalled connections are torn down concurrently: three clients
    that never read cost one ``drain_grace`` (1 s), not three."""
    _drain_with_stalled_clients(3, within=2.5)


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------


def test_cli_client_round_trip_and_exit_codes(tmp_path, capsys):
    xml_path = tmp_path / "books.xml"
    xml_path.write_text(BOOKS, encoding="utf-8")
    with running_daemon() as daemon:
        port = str(daemon.port)
        code = cli_main(
            ["client", "--port", port, "--register", f"books={xml_path}", "-q", "//book/title"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "/lib[1]/book[1]/title[1]" in output
        # Unknown document -> the document-family exit code.
        assert cli_main(["client", "--port", port, "-q", "//b", "--doc", "ghost"]) == 4
        # Bad query -> the query-family exit code, across the wire.
        code = cli_main(
            ["client", "--port", port, "--register-xml", "t=<a><b/></a>", "-q", "//["]
        )
        assert code == 3
        capsys.readouterr()
        # A missing --register file is a local failure (exit 1), found
        # before connecting: no frame reaches the daemon.
        requests = daemon.core.stats.snapshot()["requests"]
        missing = f"a={tmp_path / 'missing.xml'}"
        assert cli_main(["client", "--port", port, "--register", missing, "-q", "//a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert daemon.core.stats.snapshot()["requests"] == requests
    # Connection refused (daemon gone) -> the serve-family exit code.
    no_daemon = ["client", "--port", port, "--no-retry", "-q", "//b", "--doc", "x"]
    assert cli_main(no_daemon) == 9
    capsys.readouterr()


def _result_texts(output: str) -> list[str]:
    """The result texts of a ``batch``/``client`` printout, headers
    (``=== doc :: query [algorithm] ===``) dropped."""
    texts = []
    for line in output.splitlines():
        if line.startswith("=== "):
            texts.append([])
        else:
            texts[-1].append(line)
    return ["\n".join(text) for text in texts]


def test_cli_modes_print_identical_result_text(capsys):
    """One query set through the default mode, ``batch`` and ``client``
    prints the same result text, byte for byte, in every style: all
    three render through the daemon's result payload."""
    queries = [
        "//book/title",
        "//missing",
        "count(//book)",
        "sum(//price) div 3",
        "boolean(//price > 20)",
        "string(//title)",
    ]
    with running_daemon() as daemon:
        for style in ("path", "xml", "value"):
            local = []
            for query in queries:
                assert cli_main([query, "--xml", BOOKS, "-o", style]) == 0
                local.append(capsys.readouterr().out.rstrip("\n"))
            flags = [arg for query in queries for arg in ("-q", query)]
            assert cli_main(["batch", "--xml", BOOKS, "-o", style, *flags]) == 0
            batch = _result_texts(capsys.readouterr().out)
            code = cli_main(
                ["client", "--port", str(daemon.port), "--register-xml",
                 f"d={BOOKS}", "-o", style, *flags]
            )
            assert code == 0
            remote = _result_texts(capsys.readouterr().out)
            assert local == batch == remote, style
    assert local[1] == "(empty node-set)"
    assert local[2:5] == ["2.0", "10.333333333333334", "true"]


def test_cli_client_overload_exit_code(capsys):
    service = QueryService()
    with running_daemon(
        service=service,
        admission=AdmissionController(service, max_cost_seconds=0.0),
    ) as daemon:
        code = cli_main(
            ["client", "--port", str(daemon.port), "--register-xml", "d=<a><b/></a>",
             "-q", "//b", "--no-retry"]
        )
        assert code == 7
    capsys.readouterr()


@pytest.mark.slow
def test_cli_serve_drains_gracefully_on_sigterm(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--drain-grace", "2.0"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = process.stderr.readline()
        assert "listening on" in banner
        port = int(banner.rsplit(":", 1)[1])
        with ServeClient(port=port, client="cli") as client:
            client.register("d", BOOKS)
            assert client.query("//book", "d")["count"] == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=5)
        process.stderr.close()
