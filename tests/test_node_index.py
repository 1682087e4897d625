"""NodeIndex invariants and fused-kernel/scan byte-identity (PR 5).

Two properties carry the whole output-sensitive fast path:

* **Index invariants** — pre/post consistency (interval containment iff
  the two-number test), partition sortedness/completeness, and the
  size/depth/parent arrays mirroring the tree, asserted directly over a
  fuzz corpus (:meth:`repro.xml.index.NodeIndex.validate` plus explicit
  checks here).
* **Kernel ≡ scan** — for every axis × node test × context-set shape
  (attributes, the document node, text/comment nodes, the empty set, all
  of ``dom``), the step functions return *exactly* the Definition-1
  scan's answer under both policies (``auto``, forced ``scan``). The
  kernels' own width branches are driven both ways on every block shape
  by the property in ``tests/test_vector.py``.

The exact fused/fallback accounting is asserted here per call and under
contention in ``tests/test_thread_safety.py``.
"""

import random

import pytest

from repro import stats
from repro.axes.axes import (
    ALL_AXES,
    KERNEL_MODES,
    axis_set,
    intersect,
    inverse_axis_set,
    kernel_mode,
    kernel_mode_forced,
    matches_node_test,
    set_kernel_mode,
)
from repro.axes.vec import VECTOR_MIN_BLOCK, filter_step, forward_step, inverse_step
from repro.workloads.documents import (
    book_catalog,
    deep_chain,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.xml.index import (
    NodeIndex,
    merge_intersection,
    merge_union,
    node_index,
)
from repro.xml.parser import parse_document
from repro.xpath.ast import NodeTest

SEED = 20030614


def _corpus():
    rng = random.Random(SEED)
    documents = [
        running_example_document(),
        book_catalog(books=4),
        wide_tree(width=7),
        deep_chain(9),
        parse_document(
            '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
            "<?target data?><!--note-->"
            '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b></c></a>'
        ),
    ]
    documents += [random_document(rng, max_nodes=18) for _ in range(4)]
    return documents


_TESTS = [
    NodeTest("name", "a"),
    NodeTest("name", "b"),
    NodeTest("name", "price"),
    NodeTest("name", "nosuch"),
    NodeTest("name", "id"),       # attribute name on the attribute axis
    NodeTest("name", "kind"),
    NodeTest("wildcard"),
    NodeTest("node"),
    NodeTest("text"),
    NodeTest("comment"),
    NodeTest("pi"),
    NodeTest("pi", "target"),
]


def _context_sets(document, rng):
    nodes = document.nodes
    attributes = [n for n in nodes if n.is_attribute]
    sets = [
        [],
        [document.root],
        [nodes[-1]],
        rng.sample(nodes, min(3, len(nodes))),
        rng.sample(nodes, min(9, len(nodes))),
        list(nodes),
    ]
    if attributes:
        sets.append(attributes[:2])
        sets.append(rng.sample(nodes, min(4, len(nodes))) + attributes[:1])
    return sets


# ----------------------------------------------------------------------
# Index invariants
# ----------------------------------------------------------------------


def test_node_index_invariants_hold_on_the_corpus():
    for document in _corpus():
        index = node_index(document)
        index.validate()


def test_pre_post_numbering_characterizes_ancestorship():
    """The classic two-number test: x is a proper ancestor of y iff
    pre(x) < pre(y) and post(x) > post(y)."""
    for document in _corpus():
        index = node_index(document)
        for x in document.nodes:
            for y in document.nodes:
                expected = x.is_ancestor_of(y) and x is not y
                assert index.is_ancestor(x.pre, y.pre) == expected, (x, y)


def test_partitions_are_sorted_and_complete():
    # list(...) around partitions: packed indexes expose memoryview
    # slices, which never compare equal to lists directly.
    for document in _corpus():
        index = node_index(document)
        for tag, members in index.by_tag.items():
            members = list(members)
            assert members == sorted(members)
            expected = [n.pre for n in document.nodes if n.is_element and n.name == tag]
            assert members == expected
        all_tagged = sorted(p for ps in index.by_tag.values() for p in ps)
        assert all_tagged == list(index.elements)
        for name, members in index.by_attribute.items():
            expected = [
                n.pre for n in document.nodes if n.is_attribute and n.name == name
            ]
            assert list(members) == expected
        assert list(index.non_attributes) == [
            n.pre for n in document.nodes if not n.is_attribute
        ]


def test_node_index_is_cached_and_refuses_unfinalized_documents():
    document = book_catalog(books=2)
    assert node_index(document) is node_index(document)
    from repro.xml.document import Document

    with pytest.raises(ValueError):
        NodeIndex(Document())


def test_index_cache_never_pins_a_document():
    """The weak-keyed cache promise: indexing a document must not keep
    it alive — the index holds only a weak back-reference, so dropping
    the last strong reference collects both document and index."""
    import gc
    import weakref

    document = book_catalog(books=2)
    index = node_index(document)
    assert index.document is document
    finalizer = weakref.ref(document)
    del document
    del index
    gc.collect()
    assert finalizer() is None, "indexed document leaked through the cache"


# ----------------------------------------------------------------------
# Fused kernels ≡ Definition-1 scans, every axis × test × mode
# ----------------------------------------------------------------------


def _scan_reference(document, axis, X, test):
    return {y for y in axis_set(document, axis, X) if matches_node_test(y, test, axis)}


def _kernel_axis_set(document, axis, X, test):
    """``χ(X) ∩ T(t)`` as a node set, through the step production runs."""
    nodes = document.nodes
    pres = sorted({x.pre for x in X})
    return {nodes[p] for p in forward_step(document, axis, pres, test)}


def _kernel_inverse_axis_set(document, axis, Y):
    nodes = document.nodes
    pres = sorted({y.pre for y in Y})
    return {nodes[p] for p in inverse_step(document, axis, pres)}


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_fused_axis_set_matches_scan_everywhere(mode):
    rng = random.Random(SEED + 1)
    cells = 0
    with kernel_mode_forced(mode):
        for document in _corpus():
            for X in _context_sets(document, rng):
                for axis in sorted(ALL_AXES):
                    for test in _TESTS:
                        expected = _scan_reference(document, axis, X, test)
                        assert _kernel_axis_set(document, axis, X, test) == expected, (
                            mode,
                            axis,
                            test.kind,
                            test.name,
                        )
                        cells += 1
    assert cells > 0


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_fused_inverse_axis_set_matches_scan_everywhere(mode):
    rng = random.Random(SEED + 2)
    with kernel_mode_forced(mode):
        for document in _corpus():
            for Y in _context_sets(document, rng):
                for axis in sorted(ALL_AXES):
                    expected = inverse_axis_set(document, axis, Y)
                    assert _kernel_inverse_axis_set(document, axis, Y) == expected, (
                        mode,
                        axis,
                    )


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_pres_level_kernels_agree_and_stay_sorted(mode):
    """The sorted-array forms (the corexpath sweeps' interface) must
    return sorted pre arrays equal to the set forms."""
    rng = random.Random(SEED + 3)
    with kernel_mode_forced(mode):
        for document in _corpus():
            for X in _context_sets(document, rng):
                # The pres interface's contract: sorted, duplicate-free.
                X = list(dict.fromkeys(X))
                pres = sorted(x.pre for x in X)
                for axis in sorted(ALL_AXES):
                    for test in _TESTS:
                        # following returns a zero-copy partition view —
                        # normalize through list() like any partition.
                        out = list(forward_step(document, axis, pres, test))
                        assert out == sorted(out)
                        expected = _scan_reference(document, axis, X, test)
                        assert out == sorted(y.pre for y in expected), (mode, axis)
                    inverse = inverse_step(document, axis, pres)
                    assert inverse == sorted(inverse)
                    expected_inverse = inverse_axis_set(document, axis, X)
                    assert inverse == sorted(y.pre for y in expected_inverse), (
                        mode,
                        axis,
                    )


def test_step_relation_pres_matches_per_origin_enumeration():
    """The per-origin relation the table evaluators cut from the columns
    — ``x ↦ χ({x}) ∩ pool`` in proximity order, for all origins at once —
    equals the boxed one-origin-at-a-time enumeration the reference
    evaluators rank: on every axis (``id`` included), for the full
    candidate pool and for a thinned one (a predicate-passing subset)."""
    from repro.core.common import step_candidate_pres, step_candidates, step_relation_pres

    rng = random.Random(SEED + 5)
    cells = 0
    for document in _corpus() + [running_example_document()]:
        for X in _context_sets(document, rng):
            origins = sorted({x.pre for x in X})
            for axis in sorted(ALL_AXES):
                for test in _TESTS:
                    full = step_candidate_pres(document, axis, origins, test)
                    for pool in (full, full[::2]):
                        relation = step_relation_pres(document, axis, origins, pool, test)
                        assert all(relation.values()), "sparse: no empty rows"
                        kept = set(pool)
                        for x in X:
                            expected = [
                                y.pre
                                for y in step_candidates(document, axis, x, test)
                                if y.pre in kept
                            ]
                            assert relation.get(x.pre, []) == expected, (axis, test.kind)
                            cells += 1
    assert cells > 0


def test_id_pseudo_axis_kernels_match_scan():
    """The id pseudo-axis boxes its origins and dereferences their
    string values (forward) and rides the Definition-1 token index
    (inverse); both must equal the scans on documents whose string
    values dereference real ids."""
    document = running_example_document()
    nodes = document.nodes
    rng = random.Random(SEED + 4)
    for mode in KERNEL_MODES:
        with kernel_mode_forced(mode):
            for X in ([], [document.root], rng.sample(nodes, 5), list(nodes)):
                for test in (NodeTest("node"), NodeTest("name", "d"), NodeTest("wildcard")):
                    assert _kernel_axis_set(document, "id", X, test) == _scan_reference(
                        document, "id", X, test
                    )
                assert _kernel_inverse_axis_set(document, "id", X) == inverse_axis_set(
                    document, "id", X
                )


# ----------------------------------------------------------------------
# Dispatch accounting and mode plumbing
# ----------------------------------------------------------------------


def test_every_dispatch_counts_exactly_one_outcome():
    """``fused_hits + fallback_scans + vector_ops`` partitions the axis
    steps: one tick per dispatch, a scan under ``scan``, a block op on
    the columnar axes of a block, a fused hit otherwise."""
    document = book_catalog(books=3)
    node_index(document)  # build outside the measured window
    rng = random.Random(SEED + 5)
    narrow = rng.sample(document.nodes, 6)
    block = list(document.nodes)
    assert len(narrow) < VECTOR_MIN_BLOCK <= len(block)
    test = NodeTest("name", "title")
    siblings_and_id = 3  # no whole-column form: fused at every width
    for mode, X, want in (
        # Forward: every axis has a kernel. Inverse: every tree axis
        # does; ``id`` honestly counts as a scan.
        ("auto", narrow, (2 * len(ALL_AXES) - 1, 1, 0)),
        ("auto", block, (2 * siblings_and_id - 1, 1, 2 * (len(ALL_AXES) - siblings_and_id))),
        ("scan", narrow, (0, 2 * len(ALL_AXES), 0)),
        ("scan", block, (0, 2 * len(ALL_AXES), 0)),
    ):
        with kernel_mode_forced(mode):
            before = stats.axis_kernel_stats.snapshot()
            for axis in sorted(ALL_AXES):
                _kernel_axis_set(document, axis, X, test)
                _kernel_inverse_axis_set(document, axis, X)
            after = stats.axis_kernel_stats.snapshot()
        got = tuple(
            after[key] - before[key]
            for key in ("fused_hits", "fallback_scans", "vector_ops")
        )
        assert got == want, (mode, len(X))
        assert after["index_builds"] == before["index_builds"]


def test_scan_mode_step_functions_read_no_index():
    """``scan`` means one thing: on a fresh boxed document no step
    function builds (or reads) the index, and each equals its ``auto``
    answer."""
    test = NodeTest("name", "title")
    scanned = book_catalog(books=20)
    block = [node.pre for node in scanned.nodes if node.is_element]
    before = stats.axis_kernel_stats.snapshot()
    with kernel_mode_forced("scan"):
        answers = (
            list(forward_step(scanned, "child", block, test)),
            inverse_step(scanned, "child", block),
            filter_step(scanned, "child", block, test),
        )
    after = stats.axis_kernel_stats.snapshot()
    assert after["index_builds"] == before["index_builds"]
    indexed = book_catalog(books=20)
    assert answers == (
        list(forward_step(indexed, "child", block, test)),
        inverse_step(indexed, "child", block),
        filter_step(indexed, "child", block, test),
    )
    assert stats.axis_kernel_stats.snapshot()["index_builds"] == after["index_builds"] + 1


def test_unknown_axis_is_refused_by_both_policies():
    document = book_catalog(books=1)
    for mode in KERNEL_MODES:
        with kernel_mode_forced(mode), pytest.raises(ValueError, match="unknown axis"):
            forward_step(document, "bogus", [0], NodeTest("node"))


def test_auto_dispatch_falls_back_when_predicted_output_is_large():
    """descendant::node() from the root of an attribute-free document
    predicts ~|D| output — the auto dispatch must take the guaranteed
    scan, not the kernel. (With attributes in play the node() partition
    is genuinely smaller than dom and the kernel may rightly win.)"""
    document = parse_document("<a>" + "<b>x</b>" * 50 + "</a>")
    node_index(document)
    assert kernel_mode() == "auto"
    before = stats.axis_kernel_stats.snapshot()
    _kernel_axis_set(document, "descendant", [document.root], NodeTest("node"))
    after = stats.axis_kernel_stats.snapshot()
    assert after["fallback_scans"] - before["fallback_scans"] == 1
    # A selective name test from the same context stays on the kernel.
    before = stats.axis_kernel_stats.snapshot()
    _kernel_axis_set(document, "descendant", [document.root], NodeTest("name", "a"))
    after = stats.axis_kernel_stats.snapshot()
    assert after["fused_hits"] - before["fused_hits"] == 1


def test_kernel_mode_validates_and_restores():
    assert kernel_mode() == "auto"
    assert KERNEL_MODES == ("auto", "scan")
    for retired in ("bogus", "indexed", "vector"):
        with pytest.raises(ValueError):
            set_kernel_mode(retired)
    with kernel_mode_forced("scan"):
        assert kernel_mode() == "scan"
        with kernel_mode_forced("auto"):
            assert kernel_mode() == "auto"
        assert kernel_mode() == "scan"
    assert kernel_mode() == "auto"


# ----------------------------------------------------------------------
# Sorted-array node-set algebra
# ----------------------------------------------------------------------


def test_merge_algebra_matches_set_algebra():
    rng = random.Random(SEED + 6)
    for _ in range(200):
        a = sorted(rng.sample(range(60), rng.randint(0, 20)))
        b = sorted(rng.sample(range(60), rng.randint(0, 20)))
        assert merge_union(a, b) == sorted(set(a) | set(b))
        assert merge_intersection(a, b) == sorted(set(a) & set(b))
        assert intersect(a, b) == sorted(set(a) & set(b))


def test_merge_intersection_gallops_on_skewed_sizes():
    big = list(range(0, 100000, 3))
    small = [0, 2, 3, 300, 99999, 99999 // 3 * 3]
    assert merge_intersection(small, big) == sorted(set(small) & set(big))
    assert merge_intersection(big, small) == sorted(set(small) & set(big))
    assert merge_intersection([], big) == []
    # The block form gallops on the same skew and set-intersects the rest.
    assert intersect(small, big) == intersect(big, small) == sorted(set(small) & set(big))
    assert intersect(big, big[::2]) == big[::2]


# ----------------------------------------------------------------------
# End-to-end: whole queries are mode-independent
# ----------------------------------------------------------------------


def test_evaluators_are_byte_identical_across_kernel_modes():
    """One fuzz pass per policy: every pre-plane algorithm returns the
    same bytes under ``auto`` as under ``scan``, on the boxed tree and on
    its column twin — the EXP-AXIS value gate in miniature."""
    from repro.engine import XPathEngine
    from repro.workloads.queries import random_core_query, random_full_query
    from repro.xml.snapshot import decode_snapshot, encode_snapshot

    rng = random.Random(SEED + 7)
    documents = [random_document(rng, max_nodes=16) for _ in range(3)]
    documents.append(book_catalog(books=6))  # wide enough for block steps
    queries = [random_core_query(rng, max_steps=3) for _ in range(6)]
    queries += [random_full_query(rng, max_steps=3) for _ in range(6)]
    queries += ["/descendant::b/following::*", "//b[preceding::c]"]

    def answers(document):
        engine = XPathEngine(document)
        out = {}
        for query in queries:
            compiled = engine.compile(query)
            names = ["mincontext", "optmincontext"]
            if compiled.is_core_xpath:
                names.append("corexpath")
            for name in names:
                value = engine.evaluate(compiled, algorithm=name)
                if isinstance(value, list):
                    value = [node.pre for node in value]
                out[(query, name)] = value
        return out

    for document in documents:
        with kernel_mode_forced("scan"):
            baseline = answers(document)
        column = decode_snapshot(encode_snapshot(document))
        for twin in (document, column):
            assert answers(twin) == baseline, type(twin).__name__
