"""A stored document answers its first queries without a whole-document
pass.

Two kernels run without the per-document structure they used to build
first, each until the document has done as much work without it as the
structure costs:

* **sibling steps** hop ``c += size[c]`` inside the parent's interval
  until the document's hops have visited ``|D|`` nodes, then build the
  child table (``NodeIndex.sibling_table``);
* **an element's string value** joins the text nodes of its own interval
  until those joins have decoded as many text nodes as the document
  holds, then builds the whole-document join.

Differentially: forward, inverse and relation sibling steps and element
string values are equal on a fresh document, on one whose table and
join are already built, and (steps) to the Definition-1 scans —
attribute runs, the document node and text nodes among the origins.
Then the zero-pass contract on the ``ingest`` workload's query pairs,
and where each rule fires.
"""

from __future__ import annotations

import random

import pytest

from repro.axes.axes import kernel_mode_forced
from repro.axes.vec import forward_step, inverse_step
from repro.core.common import step_relation_pres
from repro.service import QueryService
from repro.workloads.documents import book_catalog, random_document, running_example_document
from repro.xml.columns import ELEM, TEXT
from repro.xml.index import node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xml.store import DocumentStore
from repro.xpath.ast import NodeTest

SIBLING_AXES = ("following-sibling", "preceding-sibling")
_TESTS = [NodeTest("node"), NodeTest("wildcard"), NodeTest("name", "b"), NodeTest("text")]

#: The ``ingest`` workload's query pairs (benchmarks/e2e/workloads.py).
INGEST_PAIRS = [
    ("//book[ref and chapter/pages]/title", "count(//chapter)"),
    ("//chapter[preceding-sibling::chapter]/heading", "count(//book[@lang='de'])"),
    ("/catalog/book[not(ref)]/authors/author", "sum(//book[position() <= 10]/price)"),
    (
        "//book[authors/author/following-sibling::author]/@id",
        "string(/catalog/book[last()]/title)",
    ),
]


def _corpus():
    rng = random.Random(20261016)
    blobs = [
        encode_snapshot(document)
        for document in (
            running_example_document(),
            book_catalog(books=3),
            parse_document(
                '<a id="1" k="v">x<b id="2" z="q"><a id="3">100</a>y</b>'
                '<?target data?><!--note--><b/>t<c id="4" kind="k">'
                '<b id="5">1</b>u<b id="6">2</b></c></a>'
            ),
        )
    ]
    blobs += [encode_snapshot(random_document(rng, max_nodes=24)) for _ in range(6)]
    return blobs


def _fresh(blob):
    document = decode_snapshot(blob)
    assert not node_index(document).child_table_ready
    assert not document.text_join_ready
    return document


def _built(blob):
    document = decode_snapshot(blob)
    node_index(document).child_table()
    document.string_value_of_pre(0)
    assert document.text_join_ready
    return document


def _contexts(document):
    """Sorted origin sets: singletons of every kind (attributes and the
    document node included), attribute runs, random blocks, all of dom."""
    total = len(document)
    rng = random.Random(total)
    contexts = [[pre] for pre in range(total)]
    contexts.append(list(range(total)))
    contexts.append([p for p in range(total) if document.columns.kinds[p] != ELEM])
    for width in (2, 5, 17):
        for _ in range(4):
            contexts.append(sorted(rng.sample(range(total), min(width, total))))
    return contexts


def test_sibling_steps_hop_to_the_answers_of_the_table_and_the_scan():
    for blob in _corpus():
        built = _built(blob)
        for pres in _contexts(built):
            for axis in SIBLING_AXES:
                fresh = _fresh(blob)
                with kernel_mode_forced("scan"):
                    scanned = [list(forward_step(built, axis, pres, t)) for t in _TESTS]
                    scanned_inverse = inverse_step(built, axis, pres)
                hopped = [list(forward_step(fresh, axis, pres, t)) for t in _TESTS]
                hopped_inverse = inverse_step(fresh, axis, pres)
                tabled = [list(forward_step(built, axis, pres, t)) for t in _TESTS]
                assert hopped == tabled == scanned, (axis, pres)
                assert hopped_inverse == inverse_step(built, axis, pres) == scanned_inverse
        assert node_index(built).child_table_ready


def test_sibling_relations_hop_to_the_relation_the_table_cuts():
    for blob in _corpus():
        built = _built(blob)
        for pres in _contexts(built):
            for axis in SIBLING_AXES:
                for test in _TESTS:
                    pool = list(forward_step(built, axis, pres, test))
                    fresh = _fresh(blob)
                    hopped = step_relation_pres(fresh, axis, pres, pool, test)
                    assert hopped == step_relation_pres(built, axis, pres, pool, test)
                    # Its own origins' candidates, in proximity order.
                    for x, cut in hopped.items():
                        assert cut == [
                            p for p in forward_step(built, axis, [x], test) if p in pool
                        ][:: 1 if axis == "following-sibling" else -1]


def _walked_string_value(document, pre):
    columns = document.columns
    return "".join(
        columns.values[p]
        for p in range(pre, pre + columns.size[pre])
        if columns.kinds[p] == TEXT
    )


def test_element_string_values_join_their_own_interval_until_the_join_pays():
    for blob in _corpus():
        built = _built(blob)
        fresh = _fresh(blob)
        kinds = fresh.columns.kinds
        texts = len(node_index(fresh).text_nodes)
        decoded = 0
        # Deepest first: the join must not be built while the reads have
        # decoded fewer text nodes than the document holds.
        elements = sorted(
            (p for p in range(len(fresh)) if kinds[p] == ELEM),
            key=lambda p: fresh.columns.size[p],
        )
        for pre in elements:
            in_interval = sum(
                kinds[p] == TEXT for p in range(pre, pre + fresh.columns.size[pre])
            )
            ready = fresh.text_join_ready
            value = fresh.string_value_of_pre(pre)
            assert value == built.string_value_of_pre(pre) == _walked_string_value(built, pre)
            if not ready:
                decoded += in_interval
                assert fresh.text_join_ready == (decoded >= texts), (pre, decoded, texts)
        assert fresh.string_value_of_pre(0) == built.string_value_of_pre(0)
        assert fresh.text_join_ready


@pytest.fixture()
def stored_catalog(tmp_path):
    store = DocumentStore(tmp_path / "store")
    store.save("doc", book_catalog(books=40))
    return store


def _plain(value):
    """A query value with its nodes as pre numbers."""
    return [node.pre for node in value] if isinstance(value, list) else value


@pytest.mark.parametrize("pair", INGEST_PAIRS, ids=lambda pair: pair[0])
def test_a_loaded_document_answers_an_ingest_pair_with_no_whole_document_pass(
    stored_catalog, pair
):
    document = stored_catalog.load("doc")
    service = QueryService()
    answers = [_plain(service.evaluate(query, document)) for query in pair]
    index = node_index(document)
    assert not index.child_table_ready
    assert not document.text_join_ready
    # The same answers as a parsed twin whose table and join are built.
    twin = parse_document(serialize(document))
    node_index(twin).child_table()
    twin.string_value_of_pre(0)
    assert answers == [_plain(QueryService().evaluate(query, twin)) for query in pair]


def test_sibling_hops_build_the_table_once_they_have_visited_the_document(
    stored_catalog,
):
    document = stored_catalog.load("doc")
    index = node_index(document)
    chapters = list(index.by_tag["chapter"])
    chapter = NodeTest("name", "chapter")
    built = _built(encode_snapshot(document))
    expected = forward_step(built, "preceding-sibling", chapters, chapter)
    hopped = 0
    while hopped < index.total:
        assert forward_step(document, "preceding-sibling", chapters, chapter) == expected
        assert not index.child_table_ready
        assert index._sibling_hops > hopped
        hopped = index._sibling_hops
    # The step after the hops reached |D| builds the table and slices it;
    # the tally stops.
    assert forward_step(document, "preceding-sibling", chapters, chapter) == expected
    assert index.child_table_ready
    assert index._sibling_hops == hopped

