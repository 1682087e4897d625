"""Node sets stay pre arrays until the public edge.

An evaluator's value, a result-memo entry and a batch row hold a node
set as a :class:`~repro.core.common.NodeSet` — its document and a
sorted ``array('I')`` of pres — and the daemon renders it from the pres.
Only the public calls (``XPathEngine``, ``QueryService.evaluate`` /
``evaluate_many``, ``DocumentSession.evaluate``) box it into
``list[Node]``. These tests count the nodes a served query makes, weigh
what the result memo holds a member, and render a node-set binding of
another document through the serve core.
"""

import tracemalloc

from repro.core.common import NodeSet
from repro.engine import XPathEngine
from repro.serve.protocol import OUTPUT_STYLES, decode_frame, encode_frame, encode_payload
from repro.service.service import QueryService
from repro.stats import axis_kernel_stats
from repro.workloads.documents import book_catalog
from repro.xml.parser import parse_document
from test_reply_payload import MIXED, _hot, _query
from test_serve import BOOKS


def _materialized() -> int:
    return axis_kernel_stats.snapshot()["nodes_materialized"]


#: Queries per document text: Core, full XPath, attributes, text nodes,
#: a union, an empty answer.
QUERIES = {
    BOOKS: ["//book/title", "//title/text()", "//book[price > 10]", "/lib", "//missing"],
    MIXED: ["//i[@k > 150]", "//t | //@a", "//n/text()", "/r/i[last()]", "//@*"],
}


def test_served_misses_and_a_shared_batch_box_no_node():
    """QUERY misses in every output style (a document per style, so each
    is a miss) and a BATCH whose queries share a prefix, with a Core and
    a full-XPath residual, make at most one node per registered
    document: the document node the memo key names."""
    service = QueryService()
    driver, conn = _hot(service)
    names = {}
    for number, (xml, style) in enumerate(
        (xml, style) for xml in QUERIES for style in OUTPUT_STYLES
    ):
        names[xml, style] = name = f"doc{number}"
        driver.send(conn, encode_frame(
            {"verb": "REGISTER", "client": "h", "name": name, "xml": xml}
        ))
    client = driver.core.clients["h"]
    documents = [client.document(name) for name in ["d", *names.values()]]
    before = _materialized()
    for (xml, style), name in names.items():
        for number, query in enumerate(QUERIES[xml]):
            reply = decode_frame(_query(
                driver, conn, id=number, query=query, doc=name, output=style
            ))
            assert reply["ok"] is True and reply["memo"] is False, (query, style)
    (batch,) = driver.send(conn, encode_frame({
        "verb": "BATCH", "client": "h", "id": 99, "docs": ["d", names[MIXED, "path"]],
        "queries": ["//book/title", "//book/price", "//book[position() = last()]/title"],
    }))
    assert batch["ok"] is True and batch["shared"] is True
    assert [cell["count"] for cell in batch["cells"]] == [2, 2, 1, 0, 0, 0]
    assert _materialized() - before <= len(documents)
    assert all(document.materialized_count() <= 1 for document in documents)


def test_the_result_memo_holds_a_member_in_at_most_four_and_a_half_bytes():
    """100 result-memo entries of ``/descendant::node()[position() > k]``
    on ``book_catalog(120)``, the document's nodes already made, weighed
    under ``tracemalloc``: pres, array and entry headers, keys and the
    memo's slots, per member."""
    document = book_catalog(120)
    document.nodes_at(range(len(document)))
    service = QueryService()
    session = service.session(document)
    plans = [service.plan(f"/descendant::node()[position() > {3 * k}]") for k in range(100)]
    for plan in plans[:2]:  # lazy document and service state, made once
        session.value(plan, cached=False)
    tracemalloc.start()
    try:
        values = [session.value(plan) for plan in plans]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(value, NodeSet) for value in values)
    assert len(session.results) == len(plans)
    assert [len(value) for value in values] == [len(values[0]) - 3 * k for k in range(100)]
    members = sum(len(value) for value in values)
    assert held / members <= 4.5, held / members


def test_a_foreign_node_set_binding_is_served_as_the_other_documents_nodes():
    """``$set`` bound to nodes of another document is the whole query: the
    core renders that document's paths, values and markup, byte-identical
    to rendering the engine's boxed answer, miss and hit alike."""
    other = parse_document(BOOKS)
    nodes = [other.nodes[pre] for pre in (8, 3, 5, 3)]  # any order, a repeat
    service = QueryService(variables={"set": nodes})
    driver, conn = _hot(service, MIXED)
    boxed = XPathEngine(parse_document(MIXED), variables={"set": nodes}).evaluate("$set")
    assert [node.pre for node in boxed] == [3, 5, 8]
    assert all(node.document is other for node in boxed)
    replies = []
    for style in OUTPUT_STYLES:
        payload = encode_payload(boxed, style)
        for _ in range(2):  # the entry's payload is made at its first hit in a style
            reply = _query(driver, conn, id=1, query="$set", doc="d", output=style)
            assert reply.endswith(payload), style
            replies.append(decode_frame(reply)["memo"])
    assert replies == [False, True, True, True, True, True]
    paths = decode_frame(_query(driver, conn, id=2, query="$set", doc="d"))["items"]
    assert paths == [node.path() for node in boxed]
    assert paths == [
        "/lib[1]/book[1]/title[1]", "/lib[1]/book[1]/price[1]", "/lib[1]/book[2]/title[1]"
    ]
