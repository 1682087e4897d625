"""A QUERY reply is a head spliced before the result's encoded payload.

A result-memo entry keeps that payload per output style, and its hit
reply's head, from its first hit on, so a repeated QUERY is neither
rendered nor re-encoded; it is found by its text, so no plan is looked
up either. These tests hold the splice byte-identical to encoding the
whole frame, count the renders the memo saves through a wrapper around
``render_value``, pin the hit path's contract (no plan lookup or
compile, the fields still checked, the probe's key) and the ``output``
validation and the evaluator name the reply carries.
"""

import contextlib
from unittest import mock

import pytest

from conftest import permissive, running_daemon
from test_serve_core import Driver
from repro.cli import main as cli_main
from repro.engine import XPathEngine
from repro.errors import ProtocolError, RemoteError
from repro.serve.core import EVALUATE, WRITE
from repro.serve import ServeClient
from repro.serve.protocol import (
    OUTPUT_STYLES,
    decode_frame,
    encode_frame,
    encode_payload,
    ok_response,
    render_value,
    reply_head,
    splice_reply,
)
from repro.service.plan import plan_key
from repro.service.service import QueryService
from repro.xml.parser import parse_document
from test_serve import BOOKS, assert_identities, assert_stats_reconcile

#: Quotes, a newline and non-ASCII text in names, attributes and text.
MIXED = (
    '<r a="say &quot;hi&quot;" b="été"><t>line one\nline "two" ☃ '
    "\U0001d11e</t><n>3</n><n>-0</n>"
    + "".join(f'<i k="{index}">{index}</i>' for index in range(200))
    + "</r>"
)

VALUE_QUERIES = [
    "//missing",  # an empty node-set
    "/r",  # one node
    "//i",  # 200 nodes
    "//@*",  # attribute nodes
    "//text()",  # text nodes
    "//t | //@a",  # text-bearing element and attribute mixed
]

SCALARS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    3,
    2.5,
    True,
    False,
    "",
    'say "hi"',
    "line one\nline two",
    "héllo ☃ \U0001d11e \\ back",
]

#: ``(id, head fields, elapsed_ms)`` of a reply.
HEADS = [
    (1, dict(query="//i", doc="d", algorithm="corexpath", degraded=False,
             priced_ms=0.0, memo=True), 0.011),
    ("id-é", dict(query='//t[. = "☃"]', doc="d\n"), 1234.5),
    (None, {}, 0.0),
]


def _values():
    engine = XPathEngine(parse_document(MIXED))
    return [engine.evaluate(query) for query in VALUE_QUERIES] + SCALARS


@pytest.mark.parametrize("style", OUTPUT_STYLES)
def test_a_spliced_reply_is_byte_identical_to_the_encoded_frame(style):
    values = _values()
    assert len(values[2]) == 200 and values[0] == []
    for request_id, fields, elapsed_ms in HEADS:
        head = reply_head(**fields)
        for value in values:
            expected = encode_frame({
                **ok_response(request_id, **fields, elapsed_ms=elapsed_ms),
                **render_value(value, style),
            })
            reply = splice_reply(request_id, head, elapsed_ms, encode_payload(value, style))
            assert reply == expected


def test_the_frame_bound_holds_for_the_whole_spliced_frame():
    payload = encode_payload(list(XPathEngine(parse_document(MIXED)).evaluate("//i")))
    request_id, fields, elapsed_ms = HEADS[0]
    head = reply_head(**fields)
    size = len(splice_reply(request_id, head, elapsed_ms, payload))
    assert len(payload) < size
    with mock.patch("repro.serve.protocol.MAX_FRAME_BYTES", size):
        assert len(splice_reply(request_id, head, elapsed_ms, payload)) == size
    with mock.patch("repro.serve.protocol.MAX_FRAME_BYTES", size - 1):
        with pytest.raises(ProtocolError):
            splice_reply(request_id, head, elapsed_ms, payload)


#: The reply fields that differ between a miss and the hit after it.
VOLATILE = ("id", "memo", "priced_ms", "elapsed_ms")


def test_a_miss_and_the_hit_after_it_are_the_same_bytes_but_the_clock_fields():
    cells = [(query, style) for query in VALUE_QUERIES for style in OUTPUT_STYLES]
    cells += [
        (query, "path")
        for query in ("0 div 0", "1 div 0", "-(0)", "count(//n) = 2", "string(//t)")
    ]
    with running_daemon() as daemon:
        with ServeClient(port=daemon.port, client="b") as client:
            for style in OUTPUT_STYLES:  # a document per style: a miss each
                client.register(style, MIXED)
            for number, (query, style) in enumerate(cells):
                lines = []
                for attempt in (0, 1):
                    client.send_raw(encode_frame(
                        {"verb": "QUERY", "id": [number, attempt], "client": "b",
                         "doc": style, "query": query, "output": style}
                    ))
                    lines.append(client._file.readline())
                miss, hit = (decode_frame(line) for line in lines)
                assert (miss["memo"], hit["memo"]) == (False, True), query
                assert encode_frame(miss) == lines[0]
                assert encode_frame(hit) == lines[1]
                same = {**hit, **{key: miss[key] for key in VOLATILE}}
                assert encode_frame(same) == lines[0], (query, style)
            stats = client.stats()
    assert stats["global"]["memo_hits"] == len(cells)
    assert_stats_reconcile(stats)


@contextlib.contextmanager
def counted_renders():
    """Every ``render_value`` call the serving package makes while the
    block runs, wherever it calls it from."""
    calls = []

    def counting(value, style="path"):
        calls.append(style)
        return render_value(value, style)

    with mock.patch("repro.serve.protocol.render_value", counting), \
            mock.patch("repro.serve.core.render_value", counting):
        yield calls


def _entries(service):
    return [
        entry
        for session in service._sessions.values()
        for entry in session.results.values()
    ]


def test_hits_on_one_cell_render_once_per_style():
    service = QueryService()
    with running_daemon(service=service) as daemon:
        with ServeClient(port=daemon.port, client="r") as client:
            client.register("d", BOOKS)
            with counted_renders() as calls:
                miss = client.query("//book/title", "d")
                assert miss["memo"] is False and len(calls) == 1
                del calls[:]
                hits = [client.query("//book/title", "d") for _ in range(25)]
                assert all(hit["memo"] for hit in hits)
                assert calls == ["path"]
                values = [client.query("//book/title", "d", output="value") for _ in range(5)]
                assert calls == ["path", "value"]
            stats = client.stats()
    assert values[0]["items"] == ["A", "B"]
    assert hits[-1]["items"] == miss["items"]
    (entry,) = _entries(service)
    assert sorted(entry.payloads) == ["path", "value"]
    assert stats["global"]["memo_hits"] == 30
    assert_stats_reconcile(stats)


def test_an_evicted_entry_takes_its_payload_with_it():
    service = QueryService(result_capacity=1)
    with running_daemon(service=service) as daemon:
        with ServeClient(port=daemon.port, client="e") as client:
            client.register("d", BOOKS)
            with counted_renders() as calls:
                replies = [client.query("//title", "d"), client.query("//title", "d")]
                assert len(calls) == 2  # the miss and the first hit
                replies.append(client.query("//price", "d"))  # evicts //title
                assert len(calls) == 3
                replies.append(client.query("//title", "d"))
                assert len(calls) == 4  # a miss again
                replies.append(client.query("//title", "d"))
                assert len(calls) == 5  # the new entry's first hit
            stats = client.stats()
    assert [reply["memo"] for reply in replies] == [False, True, False, False, True]
    (entry,) = _entries(service)
    assert list(entry.payloads) == ["path"]
    assert service.result_cache_stats()["evictions"] == 2
    assert_stats_reconcile(stats)


def test_library_evaluation_allocates_no_payload_slot():
    service = QueryService()
    documents = [parse_document(BOOKS), parse_document(MIXED)]
    queries = ["//title", "//book[1]", "count(//i)", "//i[position() = last()]"]
    for _ in range(2):  # misses, then hits
        service.evaluate("//title", documents[0])
        service.evaluate_many(queries, documents)
        service.evaluate_many(queries, documents, share=False)
    entries = _entries(service)
    assert len(entries) >= len(queries) * len(documents)
    assert all(entry.payloads is None for entry in entries)


def test_a_hit_too_large_for_one_frame_is_refused_typed():
    service = QueryService()
    with running_daemon(service=service, admission=permissive(service)) as daemon:
        with ServeClient(port=daemon.port, client="big") as client:
            client.register("d", MIXED)
            with mock.patch("repro.serve.protocol.MAX_FRAME_BYTES", 400):
                for _ in range(3):  # a miss, then two hits
                    with pytest.raises(RemoteError, match="FRAME_TOO_LARGE"):
                        client.query("//i", "d")
                assert client.ping()["pong"] is True
                small = client.query("/r/t", "d")
                assert small["items"] == ["/r[1]/t[1]"]
            snapshot = daemon.core.stats.snapshot()
    assert snapshot["memo_hits"] == 2 and snapshot["completed"] == 4
    assert_identities(snapshot)


#: Fifty distinct ``output`` values no style answers to.
BOGUS_OUTPUTS = (
    [f"style{index}" for index in range(38)]
    + ["PATH", "Path", " path", "", "paths", "html"]
    + [None, 0, 1.5, True, ["path"], {"style": "path"}]
)


def test_an_unknown_output_style_is_a_typed_protocol_error():
    assert len(BOGUS_OUTPUTS) == 50
    service = QueryService()
    with running_daemon(service=service) as daemon:
        with ServeClient(port=daemon.port, client="o") as client:
            client.register("d", BOOKS)
            client.query("//book/title", "d")
            assert client.query("//book/title", "d")["memo"] is True
            before = client.stats()["global"]
            for output in BOGUS_OUTPUTS:
                with pytest.raises(ProtocolError, match="'output'"):
                    client.request("QUERY", query="//book/title", doc="d", output=output)
            with pytest.raises(ProtocolError, match="'output'"):
                client.request("BATCH", queries=["//book"], docs=["d"], output="html")
            # A missing field is ``path``; the connection is still usable.
            plain = client.request("QUERY", query="//book/title", doc="d")
            assert plain["memo"] is True
            assert plain["items"] == ["/lib[1]/book[1]/title[1]", "/lib[1]/book[2]/title[1]"]
            stats = client.stats()
    assert stats["global"]["request_errors"] == before["request_errors"] + 51
    assert stats["global"]["memo_hits"] == before["memo_hits"] + 1
    (entry,) = _entries(service)
    assert list(entry.payloads) == ["path"]
    assert_stats_reconcile(stats)


def _headers(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("=== ")]


@pytest.mark.parametrize(
    "query, evaluator",
    [("//book/title", "corexpath"), ("//book[position() = last()]/title", "optmincontext")],
)
def test_client_names_the_evaluator_batch_names_on_miss_and_hit(capsys, query, evaluator):
    assert cli_main(["batch", "--xml", BOOKS, "-q", query]) == 0
    (batch,) = _headers(capsys.readouterr().out)
    assert batch.endswith(f" :: {query} [{evaluator}] ===")
    with running_daemon() as daemon:
        code = cli_main(
            ["client", "--port", str(daemon.port), "--register-xml", f"d={BOOKS}",
             "-q", query, "-q", query]
        )
        hits = daemon.core.stats.snapshot()["memo_hits"]
    assert code == 0 and hits == 1
    assert _headers(capsys.readouterr().out) == [f"=== d :: {query} [{evaluator}] ==="] * 2



# ----------------------------------------------------------------------
# The hit path's contract, on the core driven in process
# ----------------------------------------------------------------------


def _query(driver: Driver, conn, **fields) -> bytes:
    """One QUERY frame through the core, a miss evaluated at once: the
    reply's bytes as written."""
    core = driver.core
    core.receive(conn, encode_frame({"verb": "QUERY", "client": "h", **fields}))
    ((kind, argument),) = core.next_actions(conn)
    assert core.next_actions(conn) is None
    if kind == EVALUATE:
        for step, _ in core.hops(argument):
            argument.take(step())
        ((kind, argument),) = core.settle(argument)
    assert kind == WRITE
    return argument


def _hot(service: QueryService, xml: str = BOOKS) -> tuple:
    """A driven core on ``service`` with ``xml`` registered as ``d``."""
    driver = Driver(service=service)
    conn = driver.connect()
    driver.send(conn, encode_frame(
        {"verb": "REGISTER", "client": "h", "name": "d", "xml": xml}
    ))
    return driver, conn


def test_hits_look_up_no_plan():
    service = QueryService()
    driver, conn = _hot(service)
    assert decode_frame(_query(driver, conn, id=0, query="//book/title", doc="d"))["memo"] is False
    before = service.plans.stats.snapshot()
    for number in range(25):
        hit = decode_frame(_query(driver, conn, id=number, query="//book/title", doc="d"))
        assert hit["memo"] is True
    after = service.plans.stats.snapshot()
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    assert driver.core.stats.snapshot()["memo_hits"] == 25


def test_a_hit_whose_plan_was_evicted_compiles_nothing():
    service = QueryService(plan_capacity=1)
    compiles = []
    compile_plan = service.planner.compile

    def counting(query, *args, **kwargs):
        compiles.append(query)
        return compile_plan(query, *args, **kwargs)

    service.planner.compile = counting
    driver, conn = _hot(service)
    miss = decode_frame(_query(driver, conn, id=1, query="//book/title", doc="d"))
    _query(driver, conn, id=2, query="//price", doc="d")  # evicts the first plan
    assert compiles == ["//book/title", "//price"]
    assert ("//book/title", ()) not in service.plans
    hit = decode_frame(_query(driver, conn, id=3, query="//book/title", doc="d"))
    assert hit["memo"] is True and hit["algorithm"] == "corexpath"
    assert hit["items"] == miss["items"]
    assert compiles == ["//book/title", "//price"]


#: A request id of every JSON type.
IDS = [
    'say "hi"', "été", "\U0001d11e astral", [1, "two", None], {"k": [True, 2.5]},
    2.5, -0.0, 7, True, False, None,
]


@pytest.mark.parametrize("style", OUTPUT_STYLES)
def test_hit_bytes_are_the_encoded_frame_for_every_id_type(style):
    service = QueryService()
    ticks = iter(range(10**6))
    driver, conn = _hot(service, MIXED)
    driver.core.clock = lambda: next(ticks) * 0.00125  # elapsed_ms moves
    engine = XPathEngine(parse_document(MIXED))
    for query in VALUE_QUERIES + ["count(//i)", "string(//t)", "//n = 3"]:
        miss = _query(driver, conn, id="miss", query=query, doc="d", output=style)
        assert decode_frame(miss)["memo"] is False
        rendered = render_value(engine.evaluate(query), style)
        for request_id in IDS:
            hit = _query(driver, conn, id=request_id, query=query, doc="d", output=style)
            head = ok_response(
                request_id, query=query, doc="d", algorithm=decode_frame(miss)["algorithm"],
                degraded=False, priced_ms=0.0, memo=True,
                elapsed_ms=decode_frame(hit)["elapsed_ms"],
            )
            assert hit == encode_frame({**head, **rendered}), (query, request_id)
    assert decode_frame(hit)["elapsed_ms"] > 0.0


def test_a_memoized_cell_still_refuses_bad_fields_typed():
    service = QueryService()
    driver, conn = _hot(service)
    cell = {"query": "//book/title", "doc": "d"}
    _query(driver, conn, id=0, **cell)
    assert decode_frame(_query(driver, conn, id=1, **cell))["memo"] is True
    before = driver.core.stats.snapshot()
    refusals = [
        ({**cell, "deadline_ms": "soon"}, "PROTOCOL"),
        ({**cell, "deadline_ms": [250]}, "PROTOCOL"),
        ({**cell, "output": "html"}, "PROTOCOL"),
        ({**cell, "doc": "nope"}, "UNKNOWN_DOCUMENT"),
        ({**cell, "doc": ["d"]}, "UNKNOWN_DOCUMENT"),
    ]
    for fields, expected in refusals:
        reply = decode_frame(_query(driver, conn, id=2, **fields))
        assert reply["ok"] is False and reply["error"]["code"] == expected, fields
    after = driver.core.stats.snapshot()
    assert after["memo_hits"] == before["memo_hits"]
    assert after["request_errors"] == before["request_errors"] + len(refusals)
    assert decode_frame(_query(driver, conn, id=3, **cell))["memo"] is True


def test_the_probe_key_is_the_plans_cache_key():
    nodes = parse_document(BOOKS).root.children
    for variables, query in (
        ({"n": 2, "flag": True, "s": "A"}, "//book[$n]/title = $s"),
        ({"set": nodes, "n": 1.5}, "$set"),  # another document's nodes: the whole query
    ):
        service = QueryService(variables=variables)
        assert plan_key(query, service.variables) == service.plan(query).cache_key
        driver, conn = _hot(service)
        miss = decode_frame(_query(driver, conn, id=0, query=query, doc="d"))
        hit = decode_frame(_query(driver, conn, id=1, query=query, doc="d"))
        assert (miss["memo"], hit["memo"]) == (False, True)
        assert {**hit, **{key: miss[key] for key in VOLATILE}} == miss
