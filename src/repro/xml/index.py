"""Per-document NodeIndex: output-sensitive axis-kernel substrate.

The paper's axis set functions (Definition 1) are ``O(|D|)`` per call —
the bound every complexity theorem relies on, but also the reason a
selective query over a large document spends almost all of its time
re-scanning the whole tree to produce a tiny node set. This module holds
the *derived* structures that make an output-sensitive fast path
possible, all computed once per document and cached process-wide:

* **pre/post numbering** — ``pre`` is positional (``nodes[i].pre == i``,
  assigned at finalize); ``post[i]`` is the post-order rank, so
  ancestorship is the classic two-number test
  ``pre(x) < pre(y) and post(x) > post(y)``;
* **size / depth / parent arrays** — ``size[i]`` (subtree size, interval
  arithmetic), ``depth[i]``, ``parent_pre[i]`` (``-1`` for the document
  node), so kernels never chase Python object attributes in their inner
  loops;
* **name-partitioned sorted pre-order arrays** — for every element tag
  (and every attribute name, every non-element node kind) the sorted
  array of pre numbers of matching nodes. ``descendant::a`` then becomes
  a binary-search range query over the ``a`` partition:
  ``O(|X|·log|D| + output)`` instead of ``O(|D|)``.

Node sets travel through the fast kernels as **sorted pre-order int
arrays** (document order for free, set algebra by linear merges —
:func:`merge_union` / :func:`merge_intersection`). The dispatch between
these kernels and the paper-bounded scans lives in the step functions of
:mod:`repro.axes.vec`; this module only provides the machinery.

The columns are **packed**: ``size`` / ``post`` / ``depth`` /
``parent_pre`` are ``memoryview``s over ``array('q')`` storage, and
every name/kind partition is a zero-copy ``memoryview`` slice into one
shared packed pre-number array (an offset table maps partition → span).
Indexing a memoryview yields a plain ``int`` and ``bisect`` works
through ``__getitem__``/``__len__``, so the kernels in
:mod:`repro.axes.axes` bisect over unboxed 8-byte machine words — the
exact columns the binary snapshot format (:mod:`repro.xml.snapshot`)
persists.

Partitions are made in one place: one ``O(|D|)`` partition pass over a
document's flat columns (:class:`~repro.xml.columns.DocumentColumns`),
counted as ``partition_passes`` on :data:`repro.stats.store_stats`.
A boxed tree's columns are read off its nodes first, at most once per
document: :func:`node_index` is weak-cached like
:func:`repro.service.specialize.document_profile`, and the build runs
under the cache lock so racing threads see exactly one build
(``index_builds`` on :data:`repro.stats.axis_kernel_stats` is exact).
Parsed documents skip the build: :meth:`NodeIndex.from_columns` adopts
their columns as they stand and runs the pass over them. Snapshot loads
skip the pass as well — the packed array and its span directory
(:attr:`NodeIndex.partitions`) are part of the snapshot and are handed
back as they were written. Either way :func:`adopt_node_index` seeds
the cache with the prebuilt index (counted as ``index_adoptions``,
never ``index_builds``).
"""

from __future__ import annotations

import threading
import weakref
from array import array
from bisect import bisect_left

from repro.stats import axis_kernel_stats, store_stats
from repro.xml.document import Document

#: The kind byte of an attribute in the ``kinds`` column
#: (:data:`repro.xml.columns.KIND_CODES`).
ATTR = ord("A")

#: The six kind partitions, in the order they are packed and persisted.
KIND_PARTITIONS = (
    "elements", "attributes", "non_attributes", "text_nodes", "comments", "pis"
)


class NodeIndex:
    """Derived per-document arrays and name partitions (read-only).

    Attributes:
        document: the indexed (finalized, immutable) document.
        total: ``|dom|``.
        size: ``size[i]`` — subtree size of the node with pre number ``i``.
        post: ``post[i]`` — post-order rank of the node with pre ``i``.
        depth: ``depth[i]`` — distance from the document node (root is 0;
            an attribute is one deeper than its element).
        parent_pre: ``parent_pre[i]`` — pre number of the parent (``-1``
            for the document node).
        kinds: ``kinds[i]`` — the kind byte of the node with pre ``i``,
            the columns' own ``bytes`` (not a copy): ``kinds[p] == ATTR``
            is the kernels' attribute-membership test.
        by_tag: element tag → sorted pre numbers of elements with it.
        by_attribute: attribute name → sorted pre numbers of attributes.
        by_pi_target: PI target → sorted pre numbers.
        elements / attributes / non_attributes / text_nodes / comments /
        pis: kind partitions, each a sorted pre array.
        partitions: ``(packed, span_ends, tags, attributes, pi_targets)``
            — the storage all of the above are views of, and its span
            directory; see :meth:`_build_partitions`.

    Every partition is a zero-copy slice into one shared packed array;
    all of them index/bisect/slice/iterate like a list, but
    ``partition == [..]`` is always ``False`` for a memoryview —
    comparisons must go through ``list(partition)``.
    """

    __slots__ = (
        "_document_ref",
        "total",
        "_child_offsets",
        "_child_packed",
        "_attribute_counts",
        "size",
        "post",
        "depth",
        "parent_pre",
        "kinds",
        "partitions",
        "by_tag",
        "by_attribute",
        "by_pi_target",
        "elements",
        "attributes",
        "non_attributes",
        "text_nodes",
        "comments",
        "pis",
    )

    def __init__(self, document: Document):
        """The index of a boxed tree: its columns are read off the nodes
        once, then indexed exactly as a parsed or decoded document's."""
        # Imported here: repro.xml.columns builds on this module.
        from repro.xml.columns import DocumentColumns

        if not document.is_finalized:
            raise ValueError("document must be finalized before indexing")
        self._adopt(document, DocumentColumns.from_document(document))

    @classmethod
    def from_columns(cls, document: Document, columns, partitions=None) -> "NodeIndex":
        """The index over a document's flat columns
        (:class:`~repro.xml.columns.DocumentColumns`, already known to
        describe ``document``) — the parser's and the snapshot decoder's
        constructor. The int columns are adopted zero-copy. The parser
        leaves ``partitions`` out and pays one ``O(|D|)`` partition pass
        over the kind and name columns, which never touches
        ``document.nodes`` (doing so would materialize every node of a
        :class:`~repro.xml.columns.ColumnDocument`); the decoder hands
        in the persisted :attr:`partitions` of the encoded index and
        pays nothing per node."""
        if not document.is_finalized:
            raise ValueError("document must be finalized before indexing")
        index = cls.__new__(cls)
        index._adopt(document, columns, partitions)
        return index

    def _adopt(self, document: Document, columns, partitions=None) -> None:
        # Weak back-reference only: the index is the *value* of a
        # weak-keyed cache whose key is the document — a strong reference
        # here would make every key strongly reachable from its own value
        # and pin every indexed document in memory forever.
        self._document_ref = weakref.ref(document)
        self._child_offsets = None
        self._child_packed = None
        self._attribute_counts = None
        self.total = len(columns)
        self.size = memoryview(columns.size)
        self.post = memoryview(columns.post)
        self.depth = memoryview(columns.depth)
        self.parent_pre = memoryview(columns.parent_pre)
        self.kinds = columns.kinds
        if partitions is None:
            partitions = self._build_partitions(columns.kinds, columns.names)
        self._point_at(*partitions)

    @staticmethod
    def _build_partitions(kinds, names):
        """One pre-order pass over the kind and name columns filling the
        kind and name partitions (sorted by construction), packed into
        the persisted form ``(packed, span_ends, tags, attributes,
        pi_targets)`` that :meth:`_point_at` takes: every partition
        concatenated into one ``array('q')`` — the six kind partitions
        in :data:`KIND_PARTITIONS` order, then the tag, attribute-name
        and PI-target partitions in first-occurrence order — with the
        end offset of each (it starts where its predecessor ends) and
        the three key lists."""
        store_stats.tick("partition_passes")
        by_tag: dict[str, list[int]] = {}
        by_attribute: dict[str, list[int]] = {}
        by_pi: dict[str, list[int]] = {}
        elements: list[int] = []
        attributes: list[int] = []
        non_attributes: list[int] = []
        text_nodes: list[int] = []
        comments: list[int] = []
        pis: list[int] = []
        element, attribute = ord("E"), ATTR
        text, comment, pi = ord("T"), ord("C"), ord("P")
        elements_append = elements.append
        attributes_append = attributes.append
        non_attributes_append = non_attributes.append
        text_append = text_nodes.append
        comment_append = comments.append
        pi_append = pis.append
        # This loop runs on every parse; iterating the kind bytes
        # directly (ints) with bound appends keeps it cheap.
        for pre, code in enumerate(kinds):
            if code == attribute:
                attributes_append(pre)
                name = names[pre]
                bucket = by_attribute.get(name)
                if bucket is None:
                    bucket = by_attribute[name] = []
                bucket.append(pre)
                continue
            non_attributes_append(pre)
            if code == element:
                elements_append(pre)
                name = names[pre]
                bucket = by_tag.get(name)
                if bucket is None:
                    bucket = by_tag[name] = []
                bucket.append(pre)
            elif code == text:
                text_append(pre)
            elif code == comment:
                comment_append(pre)
            elif code == pi:
                pi_append(pre)
                by_pi.setdefault(names[pre], []).append(pre)
        packed = array("q")
        span_ends = array("q")
        for partition in (
            elements, attributes, non_attributes, text_nodes, comments, pis,
            *by_tag.values(), *by_attribute.values(), *by_pi.values(),
        ):
            packed.extend(partition)
            span_ends.append(len(packed))
        return packed, span_ends, list(by_tag), list(by_attribute), list(by_pi)

    def _point_at(self, packed, span_ends, tags, attributes, pi_targets) -> None:
        """Point the partition attributes at zero-copy ``memoryview``
        slices of ``packed`` (kept, with the span directory, as
        ``self.partitions`` — what a snapshot persists and a load hands
        back here). The caller vouches for the directory: one end per
        partition, non-decreasing, the last equal to ``len(packed)``."""
        self.partitions = (packed, span_ends, tags, attributes, pi_targets)
        view = memoryview(packed)
        spans = (view[lo:hi] for lo, hi in zip([0, *span_ends], span_ends))
        for kind in KIND_PARTITIONS:
            setattr(self, kind, next(spans))
        self.by_tag = dict(zip(tags, spans))
        self.by_attribute = dict(zip(attributes, spans))
        self.by_pi_target = dict(zip(pi_targets, spans))

    # ------------------------------------------------------------------

    @property
    def document(self) -> Document:
        """The indexed document (weakly held — see ``_adopt``)."""
        document = self._document_ref()
        if document is None:  # pragma: no cover - needs a caller that
            # outlives the document it handed in
            raise ReferenceError("the indexed document has been garbage-collected")
        return document

    def partition(self, test, axis: str):
        """The sorted pre array of ``T(t)`` for a node test, restricted to
        the principal-capable node kinds the partition axes can reach.

        Only meaningful for the non-attribute-principal axes (the
        interval/suffix kernels never enumerate attribute nodes — the
        attribute axis is handled by per-node enumeration). Returns
        ``None`` only for test shapes with no precomputed partition.
        """
        kind = test.kind
        if kind == "name":
            return self.by_tag.get(test.name, [])
        if kind == "wildcard":
            return self.elements
        if kind == "node":
            return self.non_attributes
        if kind == "text":
            return self.text_nodes
        if kind == "comment":
            return self.comments
        if kind == "pi":
            if test.name is None:
                return self.pis
            return self.by_pi_target.get(test.name, [])
        return None

    def filter_partition(self, test, attribute_principal: bool = False):
        """The sorted pre array equal to ``{p | matches_node_test}`` for
        *arbitrary* candidate nodes — the membership filter the backward
        sweeps intersect with. ``None`` means "matches everything"
        (``node()``, which is kind-blind). Unlike :meth:`partition`, name
        and wildcard tests here honor the axis's principal node type:
        the caller passes ``attribute_principal`` (``axis in
        repro.axes.AXIS_PRINCIPAL_ATTRIBUTE``) — a bool parameter keeps
        the xml layer below the axes layer.
        """
        kind = test.kind
        if kind == "node":
            return None
        if kind in ("name", "wildcard"):
            if attribute_principal:
                if kind == "wildcard":
                    return self.attributes
                return self.by_attribute.get(test.name, [])
            if kind == "wildcard":
                return self.elements
            return self.by_tag.get(test.name, [])
        if kind == "text":
            return self.text_nodes
        if kind == "comment":
            return self.comments
        if kind == "pi":
            if test.name is None:
                return self.pis
            return self.by_pi_target.get(test.name, [])
        return None

    # ------------------------------------------------------------------
    # Block accessors (the axis kernels' gatherable columns)
    # ------------------------------------------------------------------

    @property
    def child_table_ready(self) -> bool:
        """Whether :meth:`child_table` is already memoized (probe for
        callers that want the fast path only when it costs nothing —
        e.g. a lazy document answering one node's ``children``)."""
        return self._child_offsets is not None

    @property
    def attribute_counts_ready(self) -> bool:
        """Whether :meth:`attribute_counts` is already memoized."""
        return self._attribute_counts is not None

    def child_table(self):
        """``(offsets, children)`` — the contiguous child-span table.

        ``children[offsets[p]:offsets[p+1]]`` is the ascending pre array
        of the children of ``p`` (attributes excluded), for every pre.
        Both columns are ``array('q')`` — gatherable by slice.
        Built lazily in one counting-sort pass over ``parent_pre``
        (stable, so each span is ascending for free) and memoized; the
        build is idempotent, so a racing duplicate build is benign — the
        last assignment wins and both values are identical.
        """
        offsets = self._child_offsets
        if offsets is not None:
            return offsets, self._child_packed
        total = self.total
        parent_pre = self.parent_pre
        attribute_counts = self.attribute_counts()
        counts = [0] * (total + 1)
        for pre in self.non_attributes:
            parent = parent_pre[pre]
            if parent >= 0:
                counts[parent + 1] += 1
        for pre in range(total):
            counts[pre + 1] += counts[pre]
        offsets = array("q", counts)
        children = array("q", bytes(8 * offsets[total]))
        cursor = list(offsets[:total])
        for pre in self.non_attributes:
            parent = parent_pre[pre]
            if parent >= 0:
                children[cursor[parent]] = pre
                cursor[parent] += 1
        # attribute_counts() memoized first: a reader that sees the child
        # columns always sees the attribute column too.
        self._child_packed = children
        self._child_offsets = offsets
        return offsets, children

    def attribute_counts(self):
        """``array('q')`` of per-pre attribute counts: element ``p``'s
        attributes are exactly the contiguous run ``p+1 .. p+counts[p]``
        (the parser's attribute-contiguity invariant). Lazily built from
        the attribute partition, memoized; benign-race idempotent."""
        counts = self._attribute_counts
        if counts is None:
            counts = array("q", bytes(8 * self.total))
            parent_pre = self.parent_pre
            for pre in self.attributes:
                counts[parent_pre[pre]] += 1
            self._attribute_counts = counts
        return counts

    def ancestors_of(self, pre: int) -> list[int]:
        """Pre numbers of the proper ancestors of ``pre`` (nearest first)."""
        chain = []
        parent = self.parent_pre[pre]
        while parent >= 0:
            chain.append(parent)
            parent = self.parent_pre[parent]
        return chain

    def is_ancestor(self, x_pre: int, y_pre: int) -> bool:
        """The two-number ancestorship test (proper)."""
        return x_pre < y_pre and self.post[x_pre] > self.post[y_pre]

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert every invariant the fused kernels rely on; raises
        ``AssertionError`` with a description on violation. O(|D|²) in
        the pre/post cross-check — property-test use only.
        """
        nodes = self.document.nodes
        total = self.total
        assert total == len(nodes), "index size diverged from document"
        assert len(self.size) == len(self.post) == total, "column lengths diverged"
        assert len(self.depth) == len(self.parent_pre) == total, (
            "column lengths diverged"
        )
        assert sorted(self.post) == list(range(total)), "post is not a permutation"
        for pre, node in enumerate(nodes):
            assert self.size[pre] == node.size, f"size broken at pre={pre}"
            expected_parent = -1 if node.parent is None else node.parent.pre
            assert self.parent_pre[pre] == expected_parent, f"parent broken at pre={pre}"
            if node.parent is not None:
                assert self.depth[pre] == self.depth[node.parent.pre] + 1, (
                    f"depth broken at pre={pre}"
                )
            else:
                assert self.depth[pre] == 0, "document node depth must be 0"
        # Pre/post consistency: interval containment iff pre/post order.
        for x in range(total):
            x_end = x + self.size[x]
            for y in range(total):
                interval = x < y < x_end
                two_number = x < y and self.post[x] > self.post[y]
                assert interval == two_number, (
                    f"pre/post inconsistent for ({x}, {y})"
                )
        partitions = [
            self.elements,
            self.attributes,
            self.non_attributes,
            self.text_nodes,
            self.comments,
            self.pis,
            *self.by_tag.values(),
            *self.by_attribute.values(),
            *self.by_pi_target.values(),
        ]
        for partition in partitions:
            assert all(a < b for a, b in zip(partition, partition[1:])), (
                "partition not strictly sorted"
            )
        # Partitions are memoryviews — normalize through list() for the
        # equality checks.
        assert sum(len(p) for p in self.by_tag.values()) == len(self.elements)
        assert sorted(p for ps in self.by_tag.values() for p in ps) == list(
            self.elements
        )
        assert sorted(p for ps in self.by_attribute.values() for p in ps) == list(
            self.attributes
        )
        assert len(self.non_attributes) + len(self.attributes) == total
        for tag, members in self.by_tag.items():
            for pre in members:
                assert nodes[pre].is_element and nodes[pre].name == tag
        for name, members in self.by_attribute.items():
            for pre in members:
                assert nodes[pre].is_attribute and nodes[pre].name == name


# ----------------------------------------------------------------------
# Process-wide cache
# ----------------------------------------------------------------------

#: Indexes are immutable facts about finalized documents; cache them
#: process-wide so every evaluator over the same document shares one.
#: Weak keys (and a weak back-reference inside the index): the cache
#: never pins a document.
_INDEX_CACHE: "weakref.WeakKeyDictionary[Document, NodeIndex]" = (
    weakref.WeakKeyDictionary()
)
#: Per-document build locks (weak-keyed too): racing first callers of
#: one document serialize, builds of *different* documents proceed in
#: parallel — a sharded thread batch over fresh documents must not
#: funnel every O(|D|·log|D|) build through one global lock.
_BUILD_LOCKS: "weakref.WeakKeyDictionary[Document, threading.Lock]" = (
    weakref.WeakKeyDictionary()
)
_INDEX_LOCK = threading.Lock()


def node_index(document: Document) -> NodeIndex:
    """The (process-wide, weakly cached) :class:`NodeIndex` of a document.

    Exactness contract: one build per document, *ever* (asserted by the
    thread-safety hammer). The global lock only guards the dictionaries;
    the build itself runs under a per-document lock, so concurrent first
    callers of one document see one build and then hits, while unrelated
    documents index concurrently.
    """
    with _INDEX_LOCK:
        index = _INDEX_CACHE.get(document)
        if index is not None:
            return index
        build_lock = _BUILD_LOCKS.get(document)
        if build_lock is None:
            build_lock = threading.Lock()
            _BUILD_LOCKS[document] = build_lock
    with build_lock:
        with _INDEX_LOCK:
            index = _INDEX_CACHE.get(document)
            if index is not None:  # built by the racing caller we waited on
                return index
        index = NodeIndex(document)
        with _INDEX_LOCK:
            _INDEX_CACHE[document] = index
            axis_kernel_stats.index_build()
    return index


def adopt_node_index(document: Document, index: NodeIndex) -> NodeIndex:
    """Seed the process-wide cache with a prebuilt index (snapshot loads).

    Counts as ``index_adoptions`` on :data:`repro.stats.axis_kernel_stats`
    — never ``index_builds``, whose one-build-per-document exactness the
    thread hammer asserts. If a racing caller already built or adopted an
    index for ``document``, that one wins and is returned; the loser is
    dropped (both describe the same immutable document, so either is
    correct — first-in keeps identity stable for callers already holding
    it).
    """
    if index.document is not document:
        raise ValueError("index does not describe this document")
    with _INDEX_LOCK:
        existing = _INDEX_CACHE.get(document)
        if existing is not None:
            return existing
        _INDEX_CACHE[document] = index
        axis_kernel_stats.index_adoption()
    return index


# ----------------------------------------------------------------------
# Sorted-array node-set algebra
# ----------------------------------------------------------------------


def merge_union(a: list[int], b: list[int]) -> list[int]:
    """Union of two sorted int arrays (linear merge, duplicates dropped)."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    out: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def merge_intersection(a: list[int], b: list[int]) -> list[int]:
    """Intersection of two sorted int arrays.

    Linear merge when the sides are comparable; when one side is much
    smaller, galloping (binary-search membership per small-side element)
    keeps the cost ``O(small · log large)`` — the shape the fused
    kernels produce (tiny context sets against big partitions).
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    len_a, len_b = len(a), len(b)
    if len_a * 16 < len_b:
        out = []
        lo = 0
        for x in a:
            lo = bisect_left(b, x, lo)
            if lo == len_b:
                break
            if b[lo] == x:
                out.append(x)
                lo += 1
        return out
    out = []
    i = j = 0
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    return out
