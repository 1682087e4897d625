"""The serving daemon: protocol, quotas, admission, deadlines, drain.

The daemon runs on a private event loop in a background thread (no
pytest-asyncio in the toolchain); clients are real blocking sockets
through :class:`repro.serve.client.ServeClient`, so every test
exercises the actual wire path. Deterministic failure modes come from
the :class:`repro.serve.faults.FaultInjector` seam — the
``evaluations_started`` counter doubles as the proof that rejected
requests never reach evaluation.
"""

import asyncio
import concurrent.futures
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
    RateLimitedError,
    RemoteError,
    ReproError,
    error_code,
)
from repro.serve import FaultInjector, ServeClient, XPathDaemon
from repro.serve.admission import AdmissionController
from repro.serve.daemon import FRAMES_PER_PASS, _Connection
from repro.serve.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.serve.quotas import ClientQuota, ClientState, TokenBucket
from repro.service.planner import QueryPlanner
from repro.service.service import QueryService
from repro.stats import Counters, ServeStats
from repro.xml.parser import parse_document
from repro.xpath.parser import MAX_DEPTH

BOOKS = (
    "<lib><book><title>A</title><price>8</price></book>"
    "<book><title>B</title><price>23</price></book></lib>"
)


def assert_identities(snapshot):
    """The two exact reconciliation identities every test can close on
    (``queries`` and ``admitted``), and the ``rejected`` total."""
    assert ServeStats.residuals(snapshot) == {"queries": 0, "admitted": 0, "rejected": 0}


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
# daemon end to end
# ----------------------------------------------------------------------


def test_daemon_query_matches_the_local_engine():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="alice") as client:
            assert client.ping()["pong"]
            registered = client.register("books", BOOKS)
            assert registered["nodes"] == len(parse_document(BOOKS).nodes)
            response = client.query("//book/title", "books")
            local = XPathEngine(parse_document(BOOKS)).evaluate("//book/title")
            assert response["items"] == [node.path() for node in local]
            assert response["count"] == 2 and not response["degraded"]
            number = client.query("count(//book)", "books")
            assert number["kind"] == "number" and number["value"] == 2.0
        snapshot = daemon.stats.snapshot()
        assert snapshot["completed"] == 2
        assert_identities(snapshot)


def test_daemon_batch_evaluates_every_cell():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="alice") as client:
            client.register("books", BOOKS)
            client.register("tiny", "<a><b/></a>")
            response = client.batch(["//title", "count(//*)"])
            assert response["completed"] == response["total"] == 4
            assert response["shared"] and not response["degraded"]
            cells = {
                (cell["doc"], cell["query"]): cell for cell in response["cells"]
            }
            assert len(cells) == 4
            assert cells[("tiny", "count(//*)")]["value"] == 2.0


def test_daemon_typed_request_errors():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="alice") as client:
            client.register("books", BOOKS)
            with pytest.raises(RemoteError) as excinfo:
                client.query("//title", "nope")
            assert excinfo.value.protocol_code == "UNKNOWN_DOCUMENT"
            with pytest.raises(RemoteError) as excinfo:
                client.query("//[", "books")
            assert excinfo.value.protocol_code == "QUERY_SYNTAX"
            with pytest.raises(RemoteError) as excinfo:
                client.request("NOPE")
            assert excinfo.value.protocol_code == "UNKNOWN_VERB"
            with pytest.raises(RemoteError) as excinfo:
                client.register("books", "<unclosed>")
            assert excinfo.value.protocol_code == "XML_SYNTAX"
        snapshot = daemon.stats.snapshot()
        assert snapshot["request_errors"] == 2  # the two failed queries
        assert_identities(snapshot)


def test_malformed_frame_gets_a_typed_error_and_the_connection_recovers():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port) as client:
            client.send_raw(b"this is not json\n")
            response = client.read_response()
            assert response["ok"] is False
            assert response["error"]["code"] == "PROTOCOL"
            # The protocol resynchronizes at the next newline.
            assert client.ping()["pong"]
        assert daemon.stats.snapshot()["malformed"] == 1


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
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="alice") as client:
            client.register("books", BOOKS)
            for query, offset in HOSTILE_QUERIES:
                with pytest.raises(RemoteError) as excinfo:
                    client.query(query, "books")
                assert excinfo.value.protocol_code == "QUERY_SYNTAX"
                if offset is not None:
                    assert f"(at offset {offset})" in str(excinfo.value)
                # The same connection answers the next query.
                assert client.query("//book/title", "books")["count"] == 2
            stats = client.stats()
        assert stats["global"]["request_errors"] == len(HOSTILE_QUERIES)
        assert stats["global"]["completed"] == len(HOSTILE_QUERIES)
        assert_stats_reconcile(stats)


class FailingPlanner(QueryService):
    """A service whose planner has a bug for one query text."""

    def plan(self, query, *args, **kwargs):
        if query == "//boom":
            raise RuntimeError("planner bug")
        return super().plan(query, *args, **kwargs)


def test_an_unexpected_validation_failure_is_one_typed_counted_reply():
    with running_daemon(service=FailingPlanner()) as daemon:
        with ServeClient(port=daemon.port, client="alice") as client:
            client.register("books", BOOKS)
            with pytest.raises(RemoteError) as excinfo:
                client.query("//boom", "books")
            assert excinfo.value.protocol_code == "INTERNAL"
            assert "planner bug" in str(excinfo.value)
            assert client.query("//book/title", "books")["count"] == 2
            with pytest.raises(RemoteError) as excinfo:
                client.batch(["//book", "//boom"], ["books"])
            assert excinfo.value.protocol_code == "INTERNAL"
            stats = client.stats()
        assert stats["global"]["request_errors"] == 2
        assert stats["gauges"]["alice"]["in_flight"] == 0
        assert_stats_reconcile(stats)


def test_rate_limit_is_typed_and_the_retry_hint_works():
    """The client's rate bucket runs on a clock that moves only when the
    client sleeps on a retry hint: no real gap between the two queries
    can refill the bucket, and the retry's sleep always does."""
    now = [time.monotonic()]

    def sleep(seconds):
        now[0] += seconds

    def client_state(**fields):
        return ClientState(**fields, clock=lambda: now[0])

    with mock.patch("repro.serve.daemon.ClientState", client_state), running_daemon(
        quota=ClientQuota(rate=20.0, burst=1)
    ) as daemon:
        with ServeClient(port=daemon.port, client="r", sleep=sleep) as client:
            client.register("d", "<a><b/></a>")
            assert client.query("//b", "d", retry=False)["ok"]
            with pytest.raises(RateLimitedError) as excinfo:
                client.query("//b", "d", retry=False)
            assert excinfo.value.retry_after > 0
            # Honoring the hint (jittered backoff) succeeds.
            assert client.query("//b", "d", retry=True)["ok"]
            assert client.retries >= 1
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_rate"] >= 1
        assert_identities(snapshot)


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
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_quota"] >= 1
        assert_identities(snapshot)


def test_admission_rejects_before_any_evaluation_starts():
    injector = FaultInjector()
    service = QueryService()
    with running_daemon(
        service=service,
        injector=injector,
        admission=AdmissionController(service, max_cost_seconds=0.0),
    ) as daemon:
        with ServeClient(port=daemon.port, client="o") as client:
            client.register("d", BOOKS)
            with pytest.raises(OverloadError) as excinfo:
                client.query("//book", "d", retry=False)
            assert excinfo.value.retry_after is None
            with pytest.raises(OverloadError):
                client.batch(["//book"], ["d"], retry=False)
            # The proof: nothing was evaluated for the rejected requests.
            assert injector.snapshot()["evaluations_started"] == 0
            # ... and the seam does see a BATCH that is admitted: its one
            # (query, document) cell starts one evaluation.
            daemon.admission.max_cost_seconds = 60.0
            assert client.batch(["//book"], ["d"], retry=False)["completed"] == 1
            assert injector.snapshot()["evaluations_started"] == 1
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_overload"] == 2
        assert_identities(snapshot)


def test_degraded_admission_still_answers():
    service = QueryService()
    with running_daemon(
        service=service,
        admission=permissive(service, queue_high=64, queue_degrade=0),
    ) as daemon:
        with ServeClient(port=daemon.port, client="g") as client:
            client.register("d", BOOKS)
            response = client.query("//book/title", "d")
            assert response["degraded"]
            assert response["algorithm"] == "corexpath"
            local = XPathEngine(parse_document(BOOKS)).evaluate("//book/title")
            assert response["items"] == [node.path() for node in local]
            batch = client.batch(["//title", "//price"], ["d"])
            assert batch["degraded"] and not batch["shared"]
            assert batch["completed"] == batch["total"] == 2
        snapshot = daemon.stats.snapshot()
        assert snapshot["degraded"] == 2 == snapshot["admitted"]
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
        snapshot = daemon.stats.snapshot()
        assert snapshot["deadlined"] == 1 and snapshot["completed"] == 1
        assert_identities(snapshot)


def test_batch_deadline_surfaces_partial_cells():
    """Every row is slowed by the fault seam, so the deadline lapses
    inside a later row: the reply keeps exactly the whole rows finished
    before it, in document order."""
    injector = FaultInjector(delay_matching="slow", delay_seconds=0.5)
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="b", timeout=10) as client:
            names = ["d1", "d2", "d3"]
            for name in names:
                client.register(name, BOOKS)
            queries = ["//slow", "//title", "count(//book)"]
            with pytest.raises(DeadlineExceededError) as excinfo:
                client.batch(queries, names, deadline_ms=800, retry=False)
            error = excinfo.value
            assert error.total == len(queries) * len(names)
            rows, remainder = divmod(error.completed, len(queries))
            assert remainder == 0 and 0 < rows < len(names)
            assert len(error.cells) == error.completed
            assert [(cell["doc"], cell["query"]) for cell in error.cells] == [
                (name, query) for name in names[:rows] for query in queries
            ]
        snapshot = daemon.stats.snapshot()
        assert snapshot["deadlined"] == 1
        assert_identities(snapshot)


def test_worker_death_returns_a_typed_error_response():
    injector = FaultInjector(die_matching="book")
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="w") as client:
            client.register("d", BOOKS)
            with pytest.raises(RemoteError) as excinfo:
                client.query("//book", "d")
            assert excinfo.value.protocol_code == "EVALUATION"
            assert "worker died" in str(excinfo.value)
            assert client.query("//title", "d")["ok"]  # daemon survived
        snapshot = daemon.stats.snapshot()
        assert snapshot["failed"] == 1 and snapshot["completed"] == 1
        assert_identities(snapshot)


def test_non_numeric_deadline_gets_a_typed_protocol_error():
    """An untrusted ``deadline_ms`` must never escape as a bare
    ``ValueError`` that eats the response (regression)."""
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="t") as client:
            client.register("d", BOOKS)
            with pytest.raises(ProtocolError):
                client.request("QUERY", query="//book", doc="d", deadline_ms="fast")
            with pytest.raises(ProtocolError):
                client.request(
                    "BATCH", queries=["//book"], docs=["d"], deadline_ms=[250]
                )
            with pytest.raises(ProtocolError):
                client.request("QUERY", query="//book", doc="d", deadline_ms=True)
            # The connection stays usable after each typed refusal.
            assert client.query("//book", "d")["ok"]
        snapshot = daemon.stats.snapshot()
        assert snapshot["request_errors"] == 3
        assert_identities(snapshot)


def test_batch_worker_death_returns_a_typed_error_and_frees_the_gauge():
    """A non-ReproError escaping batch evaluation must produce a typed
    ``EVALUATION`` response and release the in-flight gauge, or the
    daemon would slowly reject all traffic at the queue watermark
    (regression)."""
    injector = FaultInjector(die_matching="doomed")
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="w") as client:
            client.register("d", BOOKS)
            with pytest.raises(RemoteError) as excinfo:
                client.batch(["//book", "//doomed"], ["d"])
            assert excinfo.value.protocol_code == "EVALUATION"
            assert "worker died" in str(excinfo.value)
            assert daemon._in_flight == 0
            assert client.batch(["//title"], ["d"])["ok"]  # daemon survived
        snapshot = daemon.stats.snapshot()
        assert snapshot["failed"] == 1 and snapshot["completed"] == 1
        assert_identities(snapshot)


class CountingPlanner(QueryPlanner):
    """Counts the queries it compiles."""

    compiles = 0

    def compile(self, *args, **kwargs):
        self.compiles += 1
        return super().compile(*args, **kwargs)


def test_repeat_batches_hit_the_shared_memo_and_compile_each_query_once():
    """A BATCH runs on the daemon's own service: its plans come from the
    plan cache that validation filled, and its cells fill and hit the
    same result memo a QUERY uses."""
    service = QueryService()
    service.planner = CountingPlanner()
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        with ServeClient(port=daemon.port, client="r") as client:
            names = ["d1", "d2"]
            for name in names:
                client.register(name, BOOKS)
            queries = ["//book/title", "//book/price", "count(//book)", "//title"]
            replies = [client.batch(queries, names) for _ in range(3)]
            # A QUERY for one of the cells is answered from that memo.
            assert client.query("//book/price", "d2")["memo"] is True
        cells = len(queries) * len(names)
        assert [reply["completed"] for reply in replies] == [cells] * 3
        assert replies[1]["cells"] == replies[2]["cells"] == replies[0]["cells"]
        assert service.result_cache_stats()["hits"] == 2 * cells + 1
        assert service.planner.compiles == len(queries)
        assert_identities(daemon.stats.snapshot())


class SlowPlanner(CountingPlanner):
    """Compiles each query after a fixed pause."""

    def compile(self, *args, **kwargs):
        time.sleep(0.3)
        return super().compile(*args, **kwargs)


def test_a_deadline_and_elapsed_ms_count_from_the_frame_not_the_compile():
    """A request's clock starts when its frame is decoded: a deadline
    the plan compile uses up is a typed DEADLINE at the hop (no
    evaluation starts), and ``elapsed_ms`` includes the compile. A memo
    hit still meets any deadline."""
    injector = FaultInjector()
    service = QueryService()
    service.planner = SlowPlanner()
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
        snapshot = daemon.stats.snapshot()
        assert snapshot["deadlined"] == 1 and snapshot["completed"] == 2
        assert service.planner.compiles == 2
        assert_identities(snapshot)


def test_a_batch_appends_each_row_before_the_next_is_evaluated():
    """The first row is in the reply's cells before the last document's
    row is evaluated: each row step sees every earlier row already
    appended."""
    service = QueryService()
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        seen = []
        real_row = daemon._batch_row

        def recording_row(request, rows):
            seen.append(len(request.cells))
            return real_row(request, rows)

        daemon._batch_row = recording_row
        with ServeClient(port=daemon.port, client="s") as client:
            names = ["d1", "d2", "d3"]
            for name in names:
                client.register(name, BOOKS)
            reply = client.batch(["//title", "count(//book)"], names)
        assert reply["completed"] == reply["total"] == 6
        assert seen == [0, 2, 4]


def test_deadline_lapsing_after_the_last_row_is_not_a_deadline():
    """A batch whose rows all finished is answered ``completed`` even
    when its deadline lapses between the last row and the reply — the
    deadline is checked between rows, never after the last one
    (regression)."""
    service = QueryService()
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        real_row = daemon._batch_row

        def lapsing_row(request, rows):
            row = real_row(request, rows)
            if len(request.cells) + len(row) == request.partial()["total"]:
                request.deadline_seconds = 0.0
            return row

        daemon._batch_row = lapsing_row
        with ServeClient(port=daemon.port, client="l") as client:
            names = ["d1", "d2"]
            for name in names:
                client.register(name, BOOKS)
            reply = client.batch(
                ["//title", "//price"], names, deadline_ms=60_000, retry=False
            )
        assert reply["completed"] == reply["total"] == 4
        snapshot = daemon.stats.snapshot()
        assert snapshot["completed"] == 1 and snapshot["deadlined"] == 0
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
            snapshot = daemon.stats.snapshot()
            if snapshot["completed"] == 1:
                break
            time.sleep(0.05)
        # The response was produced and counted; only its delivery was
        # cut — the identity still closes.
        assert snapshot["completed"] == 1
        assert_identities(snapshot)


def test_register_quota_is_enforced_over_the_wire():
    with running_daemon(
        quota=ClientQuota(max_documents=1, max_registered_bytes=200)
    ) as daemon:
        with ServeClient(port=daemon.port, client="q") as client:
            client.register("a", "<a><b/></a>")
            with pytest.raises(QuotaExceededError):
                client.register("b", "<a><b/></a>")
            # Replacing the same name stays within the document cap.
            client.register("a", "<a><c/></a>")
            assert client.query("//c", "a")["count"] == 1


def test_per_client_quotas_span_connections():
    with running_daemon(quota=ClientQuota(max_documents=1)) as daemon:
        with ServeClient(port=daemon.port, client="same") as first:
            first.register("a", "<a/>")
        with ServeClient(port=daemon.port, client="same") as second:
            # Same identity, new connection: the document survives...
            assert second.query("/a", "a")["count"] == 1
            # ...and so does the quota.
            with pytest.raises(QuotaExceededError):
                second.register("b", "<b/>")


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
    """Anonymous ``conn:N`` identities can never be addressed again;
    retaining them would leak one ClientState + ServeStats per
    connection for the daemon's lifetime (regression)."""
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port) as client:  # no client name
            assert client.ping()["pong"]
            anonymous = [name for name in daemon._clients if name.startswith("conn:")]
            assert anonymous  # the identity exists while connected
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(name.startswith("conn:") for name in daemon._clients):
                break
            time.sleep(0.05)
        assert not any(name.startswith("conn:") for name in daemon._clients)
        # The evicted identity's counters survive in the aggregate
        # bucket, so global == sum(clients) stays exact.
        with ServeClient(port=daemon.port, client="after") as client:
            stats = client.stats()
        snapshot = stats["global"]
        assert_identities(snapshot)
        assert "(evicted)" in stats["clients"]
        for key in ("queries", "admitted", "completed"):
            assert snapshot[key] == sum(
                client[key] for client in stats["clients"].values()
            )


def test_idle_named_clients_are_evicted_after_the_retention_window():
    """Named-client registrations must not pin memory forever: past the
    retention window an idle disconnected client is dropped, counters
    folded into the ``(evicted)`` bucket (regression)."""
    with running_daemon(client_retention_seconds=0.0) as daemon:
        with ServeClient(port=daemon.port, client="old") as client:
            client.register("d", BOOKS)
            assert client.query("//book", "d")["ok"]
        # A new client's creation triggers the retention sweep.
        with ServeClient(port=daemon.port, client="fresh") as client:
            assert client.ping()["pong"]
            stats = client.stats()
        assert "old" not in daemon._clients
        assert "old" not in stats["clients"]
        evicted = stats["clients"]["(evicted)"]
        assert evicted["completed"] >= 1
        snapshot = stats["global"]
        assert_identities(snapshot)
        for key in ("queries", "admitted", "completed"):
            assert snapshot[key] == sum(
                client[key] for client in stats["clients"].values()
            )


# ----------------------------------------------------------------------
# memo hits: answered by the reader, on the event loop
# ----------------------------------------------------------------------


class CountingAdmission(AdmissionController):
    """Counts the requests that were priced."""

    decisions = 0

    def decide(self, *args, **kwargs):
        self.decisions += 1
        return super().decide(*args, **kwargs)


class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """Counts the calls handed to worker threads."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


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


def test_memo_hits_start_no_evaluation_no_task_and_no_pricing():
    service = QueryService()
    admission = CountingAdmission(service, seconds_per_unit=1e-12)
    executor = CountingExecutor(max_workers=2)
    with running_daemon(service=service, admission=admission) as daemon:
        loop = daemon._server.get_loop()
        loop.call_soon_threadsafe(loop.set_default_executor, executor)
        with ServeClient(port=daemon.port, client="hot") as client:
            client.register("d", BOOKS)
            miss = client.query("//book/title", "d")
            assert miss["memo"] is False
            before = daemon.stats_snapshot()
            priced, submitted = admission.decisions, executor.submitted
            cache = service.result_cache_stats()
            (conn,) = daemon._connections
            for _ in range(25):
                hit = client.query("//book/title", "d")
                assert hit["memo"] is True and not conn.tasks
                assert hit["algorithm"] == "corexpath" and hit["degraded"] is False
                assert hit["priced_ms"] == 0.0
                assert {key: hit[key] for key in ("kind", "count", "items")} == {
                    key: miss[key] for key in ("kind", "count", "items")
                }
            # A hit meets any deadline, but validation still precedes it.
            assert client.query("//book/title", "d", deadline_ms=0)["memo"] is True
            with pytest.raises(ProtocolError):
                client.request(
                    "QUERY", query="//book/title", doc="d", deadline_ms="soon"
                )
            after = client.stats()
        assert admission.decisions == priced
        assert executor.submitted == submitted
        assert after["faults"] == before["faults"]
        assert after["faults"]["evaluations_started"] == 1
        assert after["global"]["memo_hits"] == before["global"]["memo_hits"] + 26
        assert after["clients"]["hot"]["memo_hits"] == 26
        assert after["global"]["completed"] == before["global"]["completed"] + 26
        assert after["global"]["request_errors"] == 1
        now = service.result_cache_stats()
        assert now["hits"] == cache["hits"] + 26 and now["misses"] == cache["misses"]
        assert_stats_reconcile(after)


def test_a_degraded_query_is_answered_from_the_memo_on_repeat():
    """A degrade keeps ``auto``, so the loop's ``auto`` probe finds the
    entry the degraded evaluation made."""
    service = QueryService()
    with running_daemon(
        service=service, admission=permissive(service, queue_degrade=0)
    ) as daemon:
        with ServeClient(port=daemon.port, client="d") as client:
            client.register("d", BOOKS)
            replies = [client.query("//book/title", "d") for _ in range(3)]
            stats = client.stats()
    assert replies[0]["memo"] is False and replies[0]["degraded"] is True
    assert [reply["memo"] for reply in replies[1:]] == [True, True]
    assert stats["global"]["memo_hits"] == 2
    assert stats["faults"]["evaluations_started"] == 1
    assert_stats_reconcile(stats)


def test_reply_timings_are_rounded_to_microseconds():
    injector = FaultInjector(delay_matching="price", delay_seconds=0.3)
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="t") as client:
            client.register("d", BOOKS)
            replies = [client.query("//book", "d"), client.query("//book", "d")]
            replies.append(client.batch(["//title"], ["d"]))
            client.send_raw(
                encode_frame(
                    {"verb": "QUERY", "id": 0, "client": "t", "doc": "d",
                     "query": "//price", "deadline_ms": 30}
                )
            )
            replies.append(client.read_response())
        assert replies[-1]["error"]["code"] == "DEADLINE"
        for reply in replies:
            for key in ("elapsed_ms", "priced_ms"):
                if key in reply:
                    assert len(repr(float(reply[key])).partition(".")[2]) <= 3
        assert all("elapsed_ms" in reply for reply in replies)


def test_a_hit_takes_a_rate_token():
    now = [0.0]
    with running_daemon(quota=ClientQuota(rate=1.0, burst=3)) as daemon:
        with ServeClient(port=daemon.port, client="r") as client:
            client.register("d", BOOKS)
            daemon._clients["r"].bucket = TokenBucket(
                rate=1.0, burst=3, clock=lambda: now[0]
            )
            assert client.query("//book", "d", retry=False)["memo"] is False
            assert client.query("//book", "d", retry=False)["memo"] is True
            assert client.query("//book", "d", retry=False)["memo"] is True
            with pytest.raises(RateLimitedError) as excinfo:
                client.query("//book", "d", retry=False)  # bucket empty
            assert excinfo.value.retry_after == pytest.approx(1.0)
            now[0] += 1.0
            assert client.query("//book", "d", retry=False)["memo"] is True
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_rate"] == 1 and snapshot["memo_hits"] == 3
        assert_identities(snapshot)


def test_a_hit_needs_a_free_slot_but_ignores_the_queue_watermarks():
    injector = FaultInjector(delay_matching="slow", delay_seconds=1.0)
    service = QueryService()
    with running_daemon(
        service=service,
        injector=injector,
        quota=ClientQuota(max_in_flight=1),
        admission=permissive(service, queue_high=2, queue_degrade=2),
    ) as daemon:
        document = "<a><slow/><fast/></a>"
        busy = {}
        for name in ("one", "two"):
            client = ServeClient(port=daemon.port, client=name, timeout=10)
            client.register("d", document)
            assert client.query("//fast", "d")["memo"] is False
            busy[name] = client
        with ServeClient(port=daemon.port, client="idle") as idle:
            idle.register("d", document)
            assert idle.query("//fast", "d")["memo"] is False
            threads = [
                threading.Thread(target=client.query, args=("//slow", "d"))
                for client in busy.values()
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while daemon._in_flight < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon._in_flight == 2  # the high watermark
            # Same client, its only slot taken: a hit is refused QUOTA.
            with ServeClient(port=daemon.port, client="one") as again:
                with pytest.raises(QuotaExceededError):
                    again.query("//fast", "d", retry=False)
            # Another client: its miss is shed, its hit is not load.
            with pytest.raises(OverloadError):
                idle.query("//a", "d", retry=False)
            assert idle.query("//fast", "d", retry=False)["memo"] is True
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            stats = idle.stats()
        for client in busy.values():
            client.close()
        assert stats["global"]["rejected_quota"] == 1
        assert stats["global"]["rejected_overload"] == 1
        assert stats["global"]["memo_hits"] == 1
        assert_stats_reconcile(stats)


def test_a_hit_is_refused_while_draining():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="d") as client:
            client.register("d", BOOKS)
            assert client.query("//book", "d")["memo"] is False
            daemon.draining = True
            with pytest.raises(RemoteError) as excinfo:
                client.query("//book", "d", retry=False)
            assert excinfo.value.protocol_code == "SHUTTING_DOWN"
            daemon.draining = False
            assert client.query("//book", "d")["memo"] is True
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_draining"] == 1 and snapshot["memo_hits"] == 1
        assert_identities(snapshot)


def test_disconnect_fault_applies_to_a_hit_and_the_counters_reconcile():
    injector = FaultInjector(disconnect_matching="price")
    with running_daemon(injector=injector) as daemon:
        for attempt in range(2):  # the miss memoizes; the repeat is a hit
            client = ServeClient(port=daemon.port, client="x", timeout=5)
            if attempt == 0:
                client.register("d", BOOKS)
            with pytest.raises(ProtocolError):
                client.query("//price", "d", retry=False)
            with contextlib.suppress(ProtocolError, OSError):
                client.close()
        with ServeClient(port=daemon.port, client="x") as client:
            stats = client.stats()
        assert stats["faults"] == {"evaluations_started": 1, "faults_injected": 2}
        assert stats["global"]["completed"] == 2
        assert stats["global"]["memo_hits"] == 1
        assert_stats_reconcile(stats)


# ----------------------------------------------------------------------
# pipelining and backpressure, over a raw socket
# ----------------------------------------------------------------------


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
        seen = daemon.stats.snapshot()["requests"]
        above = transport.get_write_buffer_size() >= high_water
        still = still + 1 if above and seen == requests else 0
        requests = seen
        time.sleep(0.01)
    assert still == 10, "the reader never stalled above the high-water mark"
    return requests


def test_pipelined_frames_get_one_reply_each_and_hits_keep_send_order():
    service = QueryService()
    with running_daemon(
        service=service,
        quota=ClientQuota(max_in_flight=512),
        admission=permissive(service, queue_high=1024, queue_degrade=1024),
    ) as daemon:
        items = "".join(f"<item n='{index}'/>" for index in range(40))
        with ServeClient(port=daemon.port, client="p") as client:
            client.register("d", f"<r>{items}</r>")
            warmed = client.query("//item", "d")
        frames, hits, misses = [], [], []
        for index in range(1, 301):
            fields = {"verb": "QUERY", "id": index, "client": "p", "doc": "d"}
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
                fields["query"] = "//item"
                hits.append(index)
            fields.setdefault("query", "//item")
            frames.append(encode_frame(fields))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(b"".join(frames))
            replies = read_frames(sock, 300)
        by_id = {}
        for reply in replies:
            assert reply["id"] not in by_id  # exactly one reply per id
            by_id[reply["id"]] = reply
        assert set(by_id) == (set(range(1, 301)) - {100}) | {None}
        assert by_id[None]["error"]["code"] == "PROTOCOL"
        assert by_id[150]["error"]["code"] == "UNKNOWN_DOCUMENT"
        assert by_id[200]["pong"] is True
        assert [r["id"] for r in replies if r.get("memo")] == hits
        for index in hits:
            assert by_id[index]["items"] == warmed["items"]
        for index in misses:
            assert by_id[index]["memo"] is False and by_id[index]["count"] == 1
        snapshot = daemon.stats.snapshot()
        assert snapshot["memo_hits"] == len(hits)
        assert snapshot["completed"] == 1 + len(hits) + len(misses)
        assert snapshot["malformed"] == 1 and snapshot["request_errors"] == 1
        assert_identities(snapshot)


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
                assert daemon.stats.snapshot()["requests"] == requests
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
        snapshot = daemon.stats.snapshot()
        assert snapshot["memo_hits"] == 5000
        assert_identities(snapshot)


def test_a_pipelined_burst_is_answered_in_passes_of_at_most_the_frame_cap():
    """5 000 memo hits sent in one burst: no loop callback answers more
    than ``FRAMES_PER_PASS`` frames of it (the rest waits for the next
    pass, so other connections are served in between), and every reply
    still arrives, in order."""
    passes = []
    answer_frames, answer_line = _Connection.answer_frames, _Connection.answer_line

    def counting_frames(self):
        passes.append(0)
        answer_frames(self)

    def counting_line(self, line):
        passes[-1] += 1
        answer_line(self, line)

    with mock.patch.object(_Connection, "answer_frames", counting_frames), mock.patch.object(
        _Connection, "answer_line", counting_line
    ), running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="p") as client:
            client.register("d", BOOKS)
            client.query("//title", "d")
        frame = {"verb": "QUERY", "client": "p", "doc": "d", "query": "//title"}
        burst = b"".join(encode_frame({**frame, "id": n}) for n in range(5000))
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sender = threading.Thread(target=sock.sendall, args=(burst,))
            sender.start()
            replies = read_frames(sock, 5000)
            sender.join(10)
        assert [reply["id"] for reply in replies] == list(range(5000))
        assert all(reply["memo"] for reply in replies)
        assert daemon.stats.snapshot()["memo_hits"] == 5000
    assert max(passes) == FRAMES_PER_PASS
    assert sum(passes) >= 5000


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


def run_framing_stream(daemon, chunks) -> tuple[dict, dict]:
    """Re-register ``d`` (a fresh document, so its memo holds only the
    warmed ``//item``), send ``chunks`` one segment each and read every
    reply: the replies by ``id`` without their clocks, and what the
    stream moved on the global counters."""
    items = "".join(f"<item n='{index % 7}'/>" for index in range(30))
    with ServeClient(port=daemon.port, client="f") as client:
        client.register("d", f"<r>{items}</r>")
        client.query("//item", "d")
    before = daemon.stats.snapshot()
    stream, count = framing_stream()
    assert b"".join(chunks) == stream
    with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
        replies = read_frames(sock, count)
    by_id = {}
    for reply in replies:
        assert reply["id"] not in by_id
        reply.pop("elapsed_ms", None)
        reply.pop("priced_ms", None)
        by_id[reply["id"]] = reply
    return by_id, daemon.stats.delta(before)


def test_every_chunking_of_a_pipelined_stream_gets_the_same_replies():
    """However the bytes of a pipelined stream are cut into segments —
    one byte each, a cut right at a newline, or random — the daemon
    answers every frame exactly as it answers one ``sendall``, and the
    counters move the same."""
    from hypothesis import example, given, settings, strategies as st

    service = QueryService()
    with running_daemon(
        service=service,
        quota=ClientQuota(max_in_flight=512),
        admission=permissive(service, queue_high=1024, queue_degrade=1024),
    ) as daemon:
        stream, count = framing_stream()
        expected, moved = run_framing_stream(daemon, [stream])
        assert len(expected) == count and expected[None]["error"]["code"] == "PROTOCOL"
        assert moved["malformed"] == 1 and moved["memo_hits"] == 37
        newlines = [index for index, byte in enumerate(stream) if byte == ord("\n")]

        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(1, len(stream) - 1), max_size=40))
        @example(list(range(1, len(stream))))  # one byte per segment
        @example(newlines)  # every newline opens the next segment
        @example([index + 1 for index in newlines[:-1]])  # one line per segment
        def chunked(cuts):
            bounds = [0, *sorted(set(cuts)), len(stream)]
            chunks = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
            assert run_framing_stream(daemon, chunks) == (expected, moved)

        chunked()


def test_the_frame_bound_is_max_frame_bytes_plus_two():
    """The wire bound: a line whose newline sits at most
    ``MAX_FRAME_BYTES + 2`` bytes in is read, and decoding refuses it
    as any oversized frame (typed ``PROTOCOL``, the connection stays
    usable); one byte more is ``FRAME_TOO_LARGE`` and a close."""
    with running_daemon() as daemon:
        ping = encode_frame({"verb": "PING", "id": 1})
        longest = b"x" * (MAX_FRAME_BYTES + 2) + b"\n"
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(longest + ping)
            refused, pong = read_frames(sock, 2)
        assert refused["id"] is None and refused["error"]["code"] == "PROTOCOL"
        assert "exceeds" in refused["error"]["message"] and pong["pong"] is True
        before = daemon.stats.snapshot()
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(b"x" + longest)
            (reply,) = read_frames(sock, 1)
            assert reply["error"]["code"] == "FRAME_TOO_LARGE"
            with contextlib.suppress(ConnectionResetError):
                assert sock.recv(1 << 16) == b""
        moved = daemon.stats.delta(before)
        assert moved["requests"] == 1 and moved["malformed"] == 1


def test_an_unterminated_frame_past_the_limit_gets_one_refusal():
    """Unterminated bytes past the bound, arriving in 64 KiB pieces, get
    one ``FRAME_TOO_LARGE`` and a close, counted once as malformed."""
    with running_daemon() as daemon:
        before = daemon.stats.snapshot()
        piece = b"x" * (64 * 1024)
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            for _ in range(MAX_FRAME_BYTES // len(piece)):
                sock.sendall(piece)
            sock.sendall(b"xyz")  # 3 bytes past the bound, and no newline
            (reply,) = read_frames(sock, 1)
            assert reply["error"]["code"] == "FRAME_TOO_LARGE"
            with contextlib.suppress(ConnectionResetError):
                assert sock.recv(1 << 16) == b""
        moved = daemon.stats.delta(before)
        assert moved["requests"] == 1 and moved["malformed"] == 1


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
        snapshot = daemon.stats.snapshot()
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
    """The front half counts a QUERY or BATCH as one event — one add on
    the global counters, one on the client's — whether it is answered
    from the memo, admitted or refused."""
    injector = FaultInjector(delay_matching="slow", delay_seconds=2.0)
    service = QueryService()
    quota = ClientQuota(max_in_flight=1, rate=1e-3, burst=7)
    with running_daemon(
        service=service, injector=injector, quota=quota, admission=permissive(service)
    ) as daemon:
        frame = {"requests": 1, "queries": 1}

        def one_event(**outcome):
            event = {**frame, **outcome}
            return [("serve", event), ("serve_client_c", event)]

        with ServeClient(port=daemon.port, client="c") as client:
            client.register("d", "<a><b/><slow/></a>")
            client.query("//b", "d", retry=False)  # fills the memo
            with serve_adds() as calls:
                assert client.query("//b", "d", retry=False)["memo"] is True
            assert calls == one_event(admitted=1, completed=1, memo_hits=1)
            with serve_adds() as calls:
                client.batch(["//b"], ["d"], retry=False)
            # The front half's event, then the evaluation task's outcome.
            assert calls == one_event(admitted=1, degraded=0) + [
                ("serve", {"completed": 1, "drained": 0}),
                ("serve_client_c", {"completed": 1, "drained": 0}),
            ]
            with serve_adds() as calls:
                with pytest.raises(ReproError):
                    client.query("//b", "ghost", retry=False)
            assert calls == one_event(request_errors=1)
            with serve_adds() as calls:
                with pytest.raises(OverloadError):
                    client.query("//b[1]", "d", deadline_ms=0, retry=False)
            assert calls == one_event(rejected_overload=1)
            started = injector.snapshot()["evaluations_started"]
            with ServeClient(port=daemon.port, client="c") as holder:
                slow = threading.Thread(
                    target=lambda: holder.query("//slow", "d", retry=False)
                )
                slow.start()
                deadline = time.monotonic() + 5.0
                while injector.snapshot()["evaluations_started"] == started:
                    assert time.monotonic() < deadline, "the slow query never started"
                    time.sleep(0.01)
                with serve_adds() as calls:
                    with pytest.raises(QuotaExceededError):
                        client.query("//b", "d", retry=False)
                assert calls == one_event(rejected_quota=1)
                with serve_adds() as calls:
                    with pytest.raises(RateLimitedError):
                        client.query("//b", "d", retry=False)
                assert calls == one_event(rejected_rate=1)
                slow.join(10)
            daemon.draining = True  # the next drain finds it already set
            with serve_adds() as calls:
                with pytest.raises(ReproError) as refused:
                    client.query("//b", "d", retry=False)
            assert refused.value.protocol_code == "SHUTTING_DOWN"
            assert calls == one_event(rejected_draining=1)
        assert_identities(daemon.stats.snapshot())


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
        while daemon.stats.snapshot()["failed"] == 0:
            assert time.monotonic() < deadline, "the cancel was never counted"
            time.sleep(0.01)
        time.sleep(0.6)  # past the abandoned row's delay
        assert injector.snapshot()["evaluations_started"] == 1
        snapshot = daemon.stats.snapshot()
        assert snapshot["failed"] == 1 and daemon._in_flight == 0
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
            snapshot = daemon.stats.snapshot()
            if snapshot["failed"]:
                break
            time.sleep(0.01)
        assert snapshot["admitted"] == 602 and snapshot["failed"] == 1
        assert daemon._in_flight == 0
        assert daemon._clients["e"].in_flight == 0
        assert_identities(snapshot)


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------


def test_draining_daemon_refuses_new_work_typed():
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="d") as client:
            client.register("d", BOOKS)
            daemon.draining = True  # flip the flag without tearing down
            with pytest.raises(RemoteError) as excinfo:
                client.query("//book", "d", retry=False)
            assert excinfo.value.protocol_code == "SHUTTING_DOWN"
            with pytest.raises(RemoteError) as excinfo:
                client.register("e", "<a/>")
            assert excinfo.value.protocol_code == "SHUTTING_DOWN"
            daemon.draining = False
            assert client.query("//book", "d")["ok"]
        snapshot = daemon.stats.snapshot()
        assert snapshot["rejected_draining"] == 1
        assert_identities(snapshot)


def test_drain_deadlines_out_stragglers_and_loses_no_responses():
    injector = FaultInjector(delay_matching="slow", delay_seconds=3.0)
    service = QueryService()
    holder = {}
    ready = threading.Event()

    def run():
        async def main():
            daemon = XPathDaemon(
                service=service,
                injector=injector,
                drain_grace=0.4,
                admission=permissive(service),
            )
            await daemon.start()
            holder["daemon"] = daemon
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await daemon.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    daemon = holder["daemon"]
    client = ServeClient(port=daemon.port, client="z", timeout=10)
    client.register("d", "<a><slow/><fast/></a>")
    outcomes = {}

    def in_flight(key, query):
        try:
            outcomes[key] = client.query(query, "d", retry=False)
        except ReproError as error:
            outcomes[key] = error

    straggler = threading.Thread(target=in_flight, args=("slow", "//slow"))
    straggler.start()
    time.sleep(0.3)  # the slow query is admitted and running
    drain_started = time.monotonic()
    holder["loop"].call_soon_threadsafe(daemon.initiate_drain)
    straggler.join(10)
    thread.join(10)
    drain_elapsed = time.monotonic() - drain_started
    assert not thread.is_alive()
    assert drain_elapsed < 3.0  # bounded by grace, not by the fault
    # The straggler got a typed DEADLINE response, not a dropped socket.
    assert isinstance(outcomes["slow"], DeadlineExceededError)
    snapshot = daemon.stats.snapshot()
    assert snapshot["admitted"] == 1
    assert snapshot["deadlined"] == 1
    assert snapshot["drained"] == 1
    assert_identities(snapshot)


def _drain_with_stalled_clients(clients: int, within: float) -> None:
    """Stall ``clients`` sockets, each by pipelining a burst of memo hits
    and never reading, so replies stay buffered above the transport's
    high-water mark; then drain with ``drain_grace=1.0`` and require the
    loop to finish ``within`` seconds and every connection to be gone."""
    service = QueryService()
    holder = {}
    ready = threading.Event()

    def run():
        async def main():
            daemon = XPathDaemon(service=service, drain_grace=1.0)
            await daemon.start()
            holder["daemon"] = daemon
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await daemon.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    daemon = holder["daemon"]
    items = "".join("<item/>" for _ in range(2000))
    with ServeClient(port=daemon.port, client="s") as client:
        client.register("d", f"<r>{items}</r>")
        client.query("//item", "d")  # every frame of the burst is a hit
    frame = {"verb": "QUERY", "client": "s", "doc": "d", "query": "//item"}
    burst = b"".join(encode_frame({**frame, "id": n}) for n in range(3000))
    with contextlib.ExitStack() as stack:
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
        holder["loop"].call_soon_threadsafe(daemon.initiate_drain)
        thread.join(within)
        assert not thread.is_alive(), "the drain waited on clients that never read"
        # The daemon gave up on the unread replies: every connection is
        # gone, not left open behind the finished loop.
        for sock in socks:
            sock.settimeout(5.0)
            with contextlib.suppress(ConnectionResetError):
                while sock.recv(1 << 20):
                    pass
    assert_identities(daemon.stats.snapshot())


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
            [
                "client",
                "--port",
                port,
                "--register",
                f"books={xml_path}",
                "-q",
                "//book/title",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "/lib[1]/book[1]/title[1]" in output
        # Unknown document -> the document-family exit code.
        assert (
            cli_main(["client", "--port", port, "-q", "//b", "--doc", "ghost"]) == 4
        )
        # Bad query -> the query-family exit code, across the wire.
        code = cli_main(
            [
                "client",
                "--port",
                port,
                "--register-xml",
                "t=<a><b/></a>",
                "-q",
                "//[",
            ]
        )
        assert code == 3
        capsys.readouterr()
        # A missing --register file is a local failure (exit 1), found
        # before connecting: no frame reaches the daemon.
        requests = daemon.stats.snapshot()["requests"]
        code = cli_main(
            [
                "client",
                "--port",
                port,
                "--register",
                f"a={tmp_path / 'missing.xml'}",
                "-q",
                "//a",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert daemon.stats.snapshot()["requests"] == requests
    # Connection refused (daemon gone) -> the serve-family exit code.
    assert (
        cli_main(["client", "--port", port, "--no-retry", "-q", "//b", "--doc", "x"])
        == 9
    )
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
            [
                "client",
                "--port",
                str(daemon.port),
                "--register-xml",
                "d=<a><b/></a>",
                "-q",
                "//b",
                "--no-retry",
            ]
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
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--drain-grace",
            "2.0",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
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


# ----------------------------------------------------------------------
# soak: skewed many-client workload with fault injection
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_soak_skewed_clients_with_faults_reconcile_exactly():
    """The serve-gates soak: concurrent clients with skewed load, slow
    and dying evaluations, deadlines and rejections — and at the end the
    exact identities close and no client lost a response."""
    injector = FaultInjector(
        delay_matching="sleepy", delay_seconds=0.2, die_matching="doomed"
    )
    service = QueryService()
    with running_daemon(
        service=service,
        injector=injector,
        quota=ClientQuota(max_in_flight=8),
        admission=permissive(service, queue_high=256, queue_degrade=64),
    ) as daemon:
        document = "<lib>" + "<book><sleepy/><doomed/></book>" * 20 + "</lib>"
        plans = [
            ("hot", 30),
            ("warm", 15),
            ("cold", 5),
            ("cold2", 5),
        ]
        results = {}

        def client_run(name, requests):
            sent = received = 0
            with ServeClient(port=daemon.port, client=name, timeout=30) as client:
                client.register("d", document)
                for index in range(requests):
                    kind = index % 5
                    sent += 1
                    try:
                        if kind == 0:
                            client.query(
                                "//sleepy", "d", deadline_ms=40, retry=False
                            )
                        elif kind == 1:
                            client.query("//doomed", "d", retry=False)
                        elif kind == 2:
                            client.batch(["//book", "count(//book)"], ["d"])
                        else:
                            client.query("//book", "d")
                        received += 1
                    except ReproError:
                        received += 1  # a typed response IS a response
                results[name] = (sent, received, client.responses_received)

        threads = [
            threading.Thread(target=client_run, args=(name, count))
            for name, count in plans
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive(), "soak client hung"
        # Zero lost responses: every request produced exactly one reply.
        for name, count in plans:
            sent, received, _ = results[name]
            assert sent == count and received == count
        stats = daemon.stats_snapshot()
        snapshot = stats["global"]
        assert_identities(snapshot)
        for client_snapshot in stats["clients"].values():
            assert_identities(client_snapshot)
        for key in ("queries", "admitted", "completed", "deadlined", "failed"):
            assert snapshot[key] == sum(
                client[key] for client in stats["clients"].values()
            )
        # The workload genuinely exercised the failure paths.
        assert snapshot["deadlined"] > 0
        assert snapshot["failed"] > 0
        assert snapshot["completed"] > 0
