"""A QUERY reply is a head spliced before the result's encoded payload.

A result-memo entry keeps that payload per output style from its first
hit on, so a repeated QUERY is neither rendered nor re-encoded. These
tests hold the splice byte-identical to encoding the whole frame, count
the renders the memo saves through a wrapper around ``render_value``,
and pin the ``output`` validation and the evaluator name the reply
carries.
"""

import contextlib
from unittest import mock

import pytest

from conftest import permissive, running_daemon
from repro.cli import main as cli_main
from repro.engine import XPathEngine
from repro.errors import ProtocolError, RemoteError
from repro.serve import ServeClient
from repro.serve.protocol import (
    OUTPUT_STYLES,
    decode_frame,
    encode_frame,
    encode_payload,
    encode_reply,
    ok_response,
    render_value,
)
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

HEADS = [
    ok_response(1, query="//i", doc="d", algorithm="corexpath", degraded=False,
                priced_ms=0.0, memo=True, elapsed_ms=0.011),
    ok_response("id-é", query='//t[. = "☃"]', doc="d\n"),
    {"id": None},
]


def _values():
    engine = XPathEngine(parse_document(MIXED))
    return [engine.evaluate(query) for query in VALUE_QUERIES] + SCALARS


@pytest.mark.parametrize("style", OUTPUT_STYLES)
def test_a_spliced_reply_is_byte_identical_to_the_encoded_frame(style):
    values = _values()
    assert len(values[2]) == 200 and values[0] == []
    for head in HEADS:
        for value in values:
            expected = encode_frame({**head, **render_value(value, style)})
            assert encode_reply(head, encode_payload(value, style)) == expected


def test_the_frame_bound_holds_for_the_whole_spliced_frame():
    payload = encode_payload(list(XPathEngine(parse_document(MIXED)).evaluate("//i")))
    head = HEADS[0]
    size = len(encode_reply(head, payload))
    assert len(payload) < size
    with mock.patch("repro.serve.protocol.MAX_FRAME_BYTES", size):
        assert len(encode_reply(head, payload)) == size
    with mock.patch("repro.serve.protocol.MAX_FRAME_BYTES", size - 1):
        with pytest.raises(ProtocolError):
            encode_reply(head, payload)


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

