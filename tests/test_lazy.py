"""Lazy documents ≡ eager documents.

A :class:`~repro.xml.document.Document` holds only its columns and
creates ``Node`` objects per pre, on demand, memoized; a node's links
are memoized on first access, and the index's child table and attribute
counts are built when a kernel first needs them. The "eager" leg here
is a document with all of that already done, the "lazy" leg a fresh
``decode_snapshot`` of it with none of it done. The contract under test:
**byte-identical results in every configuration** (all algorithms,
share on/off, every kernel mode), **exact
accounting** (``lazy_documents`` / ``nodes_materialized`` move by
exactly what happened, each pre is created at most once), and
**output-sensitivity** (a selective Core XPath query materializes
O(output) nodes, not O(|D|)).

The suite rides the differential-fuzz corpus generators with fixed
seeds, so every case is reproducible.
"""

import random
import threading
from unittest import mock

from conftest import per_node_statistics, walked_path
from repro import stats
from repro.axes.axes import KERNEL_MODES, kernel_mode_forced
from repro.axes.vec import forward_step
from repro.engine import XPathEngine
from repro.service import QueryService
from repro.workloads.documents import book_catalog, running_example_document, wide_tree
from repro.workloads.queries import random_core_query, random_full_query
from repro.stats import Counters
from repro.xml.columns import StringTable
from repro.xml.document import Document, Node
from repro.xml.index import node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xml.statistics import document_statistics
from repro.xml.store import DocumentStore
from repro.xpath.ast import NodeTest

SEED = 20030612
ALGORITHMS = ("naive", "bottomup", "topdown", "mincontext", "optmincontext", "corexpath")


def _eager(document):
    """``document`` with every node created and every memo filled: all
    links walked, the index's child table and attribute counts built."""
    index = node_index(document)
    index.child_table()
    index.attribute_counts()
    for node in document.nodes:
        node.parent, node.children, node.attributes, node.child_index, node.string_value
    return document


def _fixed_documents():
    """The eager legs."""
    return [
        _eager(running_example_document()),
        _eager(wide_tree(width=6)),
        _eager(
            parse_document(
                '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
                '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b><b id="7">2</b></c>'
                '<!--comment--><d id="8"/></a>'
            )
        ),
    ]


def _lazy_twin(document):
    """A fresh document with the same columns as ``document``."""
    twin = decode_snapshot(encode_snapshot(document))
    assert type(twin) is Document and twin.materialized_count() == 0
    return twin


def _canon(value):
    """Document-independent canonical form: nodes become their pre
    numbers (twins have different Node objects, identical numbering)."""
    if isinstance(value, list):
        return [_canon(item) for item in value]
    if isinstance(value, Node):
        return ("node", value.pre)
    return value


# ----------------------------------------------------------------------
# Decode builds nothing; materialization is exact
# ----------------------------------------------------------------------


def test_lazy_decode_builds_no_nodes():
    blob = encode_snapshot(running_example_document())
    before = stats.axis_kernel_stats.snapshot()
    document = decode_snapshot(blob)
    after = stats.axis_kernel_stats.snapshot()
    assert after["lazy_documents"] - before["lazy_documents"] == 1
    assert after["nodes_materialized"] - before["nodes_materialized"] == 0
    assert document.materialized_count() == 0
    # The first touch materializes exactly one node, memoized.
    root = document.root
    assert root.pre == 0
    assert document.materialized_count() == 1
    assert document.nodes[0] is root
    assert stats.axis_kernel_stats.snapshot()["nodes_materialized"] == (
        before["nodes_materialized"] + 1
    )


def test_materialization_counter_is_exact_and_memoized():
    document = _lazy_twin(_fixed_documents()[2])
    total = len(document)
    before = stats.axis_kernel_stats.snapshot()
    first_pass = [document.nodes[pre] for pre in range(total)]
    mid = stats.axis_kernel_stats.snapshot()
    second_pass = [document.nodes[pre] for pre in range(total)]
    after = stats.axis_kernel_stats.snapshot()
    # Every pre boxed exactly once; re-iteration adds zero.
    assert mid["nodes_materialized"] - before["nodes_materialized"] == total
    assert after["nodes_materialized"] == mid["nodes_materialized"]
    assert document.materialized_count() == total
    assert all(a is b for a, b in zip(first_pass, second_pass))
    assert all(type(node) is Node for node in first_pass)
    assert [node.pre for node in first_pass] == list(range(total))


def test_lazy_node_list_is_a_sequence():
    """``document.nodes`` does what a list would do for its readers: ``random.sample``, ``index``, ``count``,
    membership, reversal; slices are plain lists."""
    from collections.abc import Sequence

    document = _lazy_twin(_fixed_documents()[2])
    other = _lazy_twin(_fixed_documents()[2])
    nodes = document.nodes
    assert isinstance(nodes, Sequence) and not hasattr(nodes, "__dict__")
    picked = random.Random(SEED).sample(nodes, 5)
    assert len({node.pre for node in picked}) == 5
    assert all(nodes[node.pre] is node for node in picked)
    assert [nodes.index(node) for node in picked] == [node.pre for node in picked]
    assert nodes.index(nodes[-1]) == len(nodes) - 1
    assert nodes.count(picked[0]) == 1 and nodes.count(other.nodes[3]) == 0
    assert picked[0] in nodes and other.nodes[3] not in nodes
    assert type(nodes[2:5]) is list and [node.pre for node in nodes[2:5]] == [2, 3, 4]
    assert [node.pre for node in reversed(nodes)] == list(reversed(range(len(nodes))))


def test_selective_query_materializes_output_only():
    """The O(output) claim on a genuinely selective query: a Core XPath
    sweep under auto dispatch boxes the results and the context node,
    nothing else — counter-verified, and then for the other five
    evaluators."""
    document = _lazy_twin(book_catalog(books=24, chapters_per_book=4))
    before = stats.axis_kernel_stats.snapshot()
    engine = XPathEngine(document)
    with kernel_mode_forced("auto"):
        result = engine.evaluate(engine.compile("/descendant::price"), algorithm="corexpath")
    after = stats.axis_kernel_stats.snapshot()
    assert 0 < len(result) < 0.10 * len(document)
    materialized = after["nodes_materialized"] - before["nodes_materialized"]
    assert materialized == document.materialized_count()
    # O(output): the result nodes plus the query's context node.
    assert materialized <= len(result) + 1

    # A selective workload over several fresh documents: each stays
    # under a tenth of its |dom|, and the global counter is exactly the
    # sum of what the documents hold (none boxed twice, none uncounted).
    selective = (
        "/descendant::price",
        "/descendant::ref",
        "/descendant::author[not(following::ref)]",
        "/descendant::heading/following::ref",
    )
    before = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
    documents = [
        _lazy_twin(book_catalog(books=books, chapters_per_book=4))
        for books in (24, 12)
    ]
    with kernel_mode_forced("auto"):
        for document in documents:
            engine = XPathEngine(document)
            for query in selective:
                engine.evaluate(engine.compile(query), algorithm="corexpath")
            assert document.materialized_count() <= 0.10 * len(document)
    after = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
    assert after - before == sum(d.materialized_count() for d in documents)

    # The table evaluators run on the pre plane too: with the context
    # node (the root) already boxed, a scalar query boxes nothing and a
    # node-set query boxes exactly its result.
    for algorithm in ("mincontext", "optmincontext"):
        for query, boxed_results in (
            ("count(//chapter)", False),
            ("count(//book[@lang='de'])", False),
            ("sum(//book[position() <= 10]/price)", False),
            ("//book[price > 50]/title", True),
        ):
            document = _lazy_twin(book_catalog(books=24, chapters_per_book=4))
            engine = XPathEngine(document)
            compiled = engine.compile(query)
            assert document.root.pre == 0 and document.materialized_count() == 1
            before = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
            with kernel_mode_forced("auto"):
                result = engine.evaluate(compiled, algorithm=algorithm)
            after = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
            assert result if boxed_results else result > 0, (algorithm, query)
            expected = len(result) if boxed_results else 0
            assert after - before == expected, (algorithm, query)
            assert document.materialized_count() == 1 + expected, (algorithm, query)

    # So do the reference evaluators: candidates, predicate contexts and
    # tables are pres, and only the answer and the context node are
    # boxed. bottomup tabulates |D|³ contexts, so its document is small.
    for algorithm, books in (("naive", 24), ("topdown", 24), ("bottomup", 2)):
        document = _lazy_twin(book_catalog(books=books, chapters_per_book=4 if books > 2 else 1))
        engine = XPathEngine(document)
        before = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
        result = engine.evaluate(engine.compile("//book[price > 30]/title"), algorithm=algorithm)
        materialized = stats.axis_kernel_stats.snapshot()["nodes_materialized"] - before
        assert result, algorithm
        assert materialized <= len(result) + 1, (algorithm, materialized, len(result))


# ----------------------------------------------------------------------
# Boxing: no decodes, one counter event per call, one node per pre
# ----------------------------------------------------------------------


def test_boxing_a_stored_answer_decodes_no_string(tmp_path):
    """A stored document keeps its names and values encoded: boxing a
    node-set answer and reading ``.pre`` decodes none of them. ``.name``
    and ``.value`` are decoded on first read, equal the parsed twin's,
    and a second read decodes nothing."""
    parsed = book_catalog(books=12, chapters_per_book=3)
    store = DocumentStore(tmp_path / "store")
    store.save("catalog", parsed)
    document = store.load("catalog")
    assert isinstance(document.columns.names, StringTable)
    engine = XPathEngine(document)
    plan = engine.compile("/descendant::chapter/child::*")
    decodes = []
    decode = StringTable.__getitem__

    def spy(table, index):
        decodes.append(index)
        return decode(table, index)

    with mock.patch.object(StringTable, "__getitem__", spy):
        nodes = engine.evaluate(plan, algorithm="corexpath")
        pres = [node.pre for node in nodes]
        assert len(nodes) > 12 and decodes == []
        reboxed = document.nodes_at(pres)
        assert all(a is b for a, b in zip(nodes, reboxed)) and decodes == []
        first = [(node.name, node.value) for node in nodes]
        assert len(decodes) == 2 * len(nodes)
        assert [(node.name, node.value) for node in nodes] == first
        assert len(decodes) == 2 * len(nodes)
    twin = parsed.nodes
    assert first == [(twin[pre].name, twin[pre].value) for pre in pres]
    attribute = document.nodes_at([node_index(document).by_attribute["lang"][0]])[0]
    assert attribute.name == "lang" and attribute.value in ("en", "de")


def test_one_boxing_call_is_one_counter_event():
    """``nodes_at`` over k new pres ticks ``nodes_materialized`` once, by
    k; over pres that all have nodes already it ticks nothing."""
    document = _lazy_twin(book_catalog(books=6, chapters_per_book=2))
    pres = list(node_index(document).elements)
    document.node_at(pres[0])
    events = []
    tick = Counters.tick

    def spy(family, key, amount=1):
        if key == "nodes_materialized":
            events.append(amount)
        tick(family, key, amount)

    with mock.patch.object(Counters, "tick", spy):
        nodes = document.nodes_at(pres + pres[:3])
        assert events == [len(pres) - 1]
        assert document.nodes_at(pres) == nodes[: len(pres)]
        assert document.nodes_at([]) == []
        assert events == [len(pres) - 1]
    assert document.materialized_count() == len(pres)


def test_racing_boxing_calls_keep_one_node_per_pre():
    """Eight threads box overlapping pre lists of one fresh document:
    every pre gets one node, ``document.nodes[pre]`` is the node every
    thread got, and the counter moves by exactly the nodes made."""
    document = _lazy_twin(book_catalog(books=40, chapters_per_book=4))
    total = len(document)
    lists = [list(range(start, total, 3)) for start in range(3)]
    lists += [list(range(total)), list(range(0, total, 2)), list(range(1, total, 2))]
    lists += [list(range(total // 2)), list(range(total // 3, total))]
    barrier = threading.Barrier(len(lists))
    results = [None] * len(lists)

    def box(slot):
        barrier.wait()
        results[slot] = document.nodes_at(lists[slot])

    before = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
    threads = [threading.Thread(target=box, args=(slot,)) for slot in range(len(lists))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    after = stats.axis_kernel_stats.snapshot()["nodes_materialized"]
    assert all(nodes is not None for nodes in results)
    for pres, nodes in zip(lists, results):
        assert [node.pre for node in nodes] == pres
        assert all(document.nodes[node.pre] is node for node in nodes)
    assert document.materialized_count() == total
    assert after - before == document.materialized_count()


# ----------------------------------------------------------------------
# lazy ≡ eager over the fuzz corpus — algorithms × kernel modes
# ----------------------------------------------------------------------


def test_lazy_matches_eager_on_core_fuzz_corpus():
    """Every Core XPath fuzz case, all six algorithms: the lazy twin
    returns the same values (by pre) as the eager document."""
    rng = random.Random(SEED)
    cases = 0
    for document in _fixed_documents():
        eager_engine = XPathEngine(document)
        lazy_engine = XPathEngine(_lazy_twin(document))
        for _ in range(12):
            query = random_core_query(rng)
            for algorithm in ALGORITHMS:
                expected = _canon(eager_engine.evaluate(query, algorithm=algorithm))
                got = _canon(lazy_engine.evaluate(query, algorithm=algorithm))
                assert got == expected, (query, algorithm)
                cases += 1
    assert cases == 3 * 12 * len(ALGORITHMS)


def test_lazy_matches_eager_on_full_grammar():
    """The full-grammar generator (position()/last(), functions, unions,
    id()): lazy ≡ eager on the five full-XPath algorithms, six when the
    case classifies inside Core XPath."""
    rng = random.Random(SEED + 1)
    for document in _fixed_documents():
        eager_engine = XPathEngine(document)
        lazy_engine = XPathEngine(_lazy_twin(document))
        for _ in range(12):
            query = random_full_query(rng)
            compiled = eager_engine.compile(query)
            names = ALGORITHMS if compiled.is_core_xpath else ALGORITHMS[:-1]
            for algorithm in names:
                expected = _canon(eager_engine.evaluate(query, algorithm=algorithm))
                got = _canon(lazy_engine.evaluate(query, algorithm=algorithm))
                assert got == expected, (query, algorithm)


def test_lazy_matches_eager_under_every_kernel_mode():
    """Every dispatch mode returns identical values on the eager document
    and on its lazy twin — the kernels and the Definition-1 fallbacks
    agree whatever has been materialized. Core queries
    ride the Core evaluator; the same queries plus a full-grammar corpus
    (position()/last(), count(), id(), unions) ride the forced table
    evaluators, which share its pre plane, against the ``topdown``
    oracle."""
    core_queries = [
        "/descendant::b",
        "/descendant::c[child::b]/child::b",
        "/descendant::b[not(following::c)]",
        "/descendant::*[not(child::*)]/parent::*",
    ]
    rng = random.Random(SEED + 4)
    full_queries = core_queries + [random_full_query(rng) for _ in range(12)]
    cases = [(query, "corexpath") for query in core_queries] + [
        (query, algorithm)
        for query in full_queries
        for algorithm in ("mincontext", "optmincontext")
    ]
    for document in _fixed_documents():
        eager_engine = XPathEngine(document)
        lazy_engine = XPathEngine(_lazy_twin(document))
        oracle = {
            query: _canon(eager_engine.evaluate(query, algorithm="topdown"))
            for query in full_queries
        }
        for mode in KERNEL_MODES:
            with kernel_mode_forced(mode):
                for query, algorithm in cases:
                    for engine in (eager_engine, lazy_engine):
                        got = _canon(engine.evaluate(query, algorithm=algorithm))
                        assert got == oracle[query], (mode, query, algorithm)


# ----------------------------------------------------------------------
# lazy ≡ eager through the service layer — share on/off × backends
# ----------------------------------------------------------------------


def test_lazy_matches_eager_through_batch_service_share_on_and_off():
    rng = random.Random(SEED + 2)
    queries = [random_core_query(rng, max_steps=3) for _ in range(8)]
    queries.append("//b")  # a guaranteed-sharing chain with the corpus
    eager_documents = _fixed_documents()
    lazy_documents = [_lazy_twin(document) for document in eager_documents]
    for share in (True, False):
        expected = QueryService().evaluate_many(
            queries, eager_documents, share=share
        )
        got = QueryService().evaluate_many(queries, lazy_documents, share=share)
        assert _canon(got.values) == _canon(expected.values), share


# ----------------------------------------------------------------------
# Column accessors: strings, ids, statistics, serialization
# ----------------------------------------------------------------------


def test_string_values_ids_and_paths_match_the_tree():
    for document in _fixed_documents():
        lazy = _lazy_twin(document)
        assert len(lazy) == len(document)
        for pre, node in enumerate(document.nodes):
            assert lazy.string_value_of_pre(pre) == node.string_value
            twin = lazy.nodes[pre]
            assert twin.string_value == node.string_value
            assert twin.name == node.name
            assert twin.kind == node.kind
            assert twin.child_index == node.child_index
            assert twin.path() == node.path() == walked_path(node)
        assert {k: v.pre for k, v in lazy.id_map.items()} == {
            k: v.pre for k, v in document.id_map.items()
        }


def test_duplicate_ids_resolve_first_in_document_order():
    document = _eager(parse_document('<a id="x"><b id="x"/><c id="y"/><d id="y"/></a>'))
    lazy = _lazy_twin(document)
    assert {k: v.pre for k, v in lazy.id_map.items()} == {
        k: v.pre for k, v in document.id_map.items()
    }
    assert lazy.id_map["x"].name == "a"
    assert lazy.id_map["y"].name == "c"


def test_column_statistics_match_the_tree_walk():
    """``document_statistics`` answers from the index — identical to a
    pass over every node's columns, and without materializing a node."""
    for document in _fixed_documents() + [book_catalog(books=3)]:
        lazy = _lazy_twin(document)
        assert document_statistics(lazy) == per_node_statistics(document)
        assert lazy.materialized_count() == 0


def test_serialization_and_reencode_are_byte_identical():
    """Serializing a lazy document reads its columns and creates no
    node; re-encoding it reproduces the exact snapshot blob."""
    for document in _fixed_documents():
        blob = encode_snapshot(document)
        lazy = decode_snapshot(blob)
        assert serialize(lazy) == serialize(document)
        assert lazy.materialized_count() == 0
        assert encode_snapshot(lazy) == blob


# ----------------------------------------------------------------------
# The no-copy following kernel (satellite regression)
# ----------------------------------------------------------------------


def test_following_axis_suffix_is_a_zero_copy_view():
    """The following-axis kernel returns a memoryview slice of the
    packed partition itself — no ``list()`` copy of the suffix."""
    document = book_catalog(books=6)
    index = node_index(document)
    test = NodeTest("name", "price")
    partition = index.filter_partition(test)
    origin = index.by_tag["title"][0]
    with kernel_mode_forced("auto"):
        out = forward_step(document, "following", [origin], test)
    assert isinstance(out, memoryview)
    assert out.obj is partition.obj  # same backing storage: zero-copy
    assert list(out)  # and the suffix is non-trivial on this workload
