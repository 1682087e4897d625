"""Per-document NodeIndex: output-sensitive axis-kernel substrate.

The paper's axis set functions (Definition 1) are ``O(|D|)`` per call —
the bound every complexity theorem relies on, but also the reason a
selective query over a large document spends almost all of its time
re-scanning the whole tree to produce a tiny node set. This module holds
the *derived* structures that make an output-sensitive fast path
possible, all computed once per document and cached process-wide:

* **pre numbering** — ``pre`` is positional (``nodes[i].pre == i``),
  and ancestorship is the interval test ``x < y < x + size[x]``;
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

The columns are **packed**: ``size`` / ``depth`` / ``parent_pre`` are
``memoryview``s over ``array('q')`` storage, and
every name/kind partition is a zero-copy ``memoryview`` slice into one
shared packed pre-number array (an offset table maps partition → span).
Indexing a memoryview yields a plain ``int`` and ``bisect`` works
through ``__getitem__``/``__len__``, so the kernels in
:mod:`repro.axes.axes` bisect over unboxed 8-byte machine words — the
exact columns the binary snapshot format (:mod:`repro.xml.snapshot`)
persists.

Partitions are made in one place: one ``O(|D|)`` partition pass over a
document's flat columns (:class:`~repro.xml.columns.DocumentColumns`),
counted as ``partition_passes`` on :data:`repro.stats.store_stats`. The
same pass measures the document's :class:`DocumentShape` (text volume,
element depth and fanout), so a profile of the document reads numbers
instead of walking nodes. Every document is born with its index:
:meth:`~repro.xml.document.Document.from_columns` adopts the columns as
they stand and runs the pass over them — or, for a snapshot load, takes
the packed array, its span directory (:attr:`NodeIndex.partitions`) and
the shape back as they were written — and :func:`adopt_node_index`
seeds the process-wide cache with it (``index_adoptions``).
:func:`node_index` is weak-cached; a document made without
:meth:`~repro.xml.document.Document.from_columns` is indexed on first
use, under the cache lock, so racing threads see exactly one build (``index_builds`` on
:data:`repro.stats.axis_kernel_stats` is exact).
"""

from __future__ import annotations

import threading
import weakref
from array import array
from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from repro.stats import axis_kernel_stats, store_stats
from repro.xml.columns import ATTR, COMMENT, ELEM, PI, TEXT

if TYPE_CHECKING:
    from repro.xml.document import Document

#: The six kind partitions, in the order they are packed and persisted.
KIND_PARTITIONS = (
    "elements", "attributes", "non_attributes", "text_nodes", "comments", "pis"
)


class DocumentShape(NamedTuple):
    """What the partition pass measures besides the partitions, persisted
    beside them: the shape numbers no partition length gives."""

    #: Characters over every text node (the document's string value).
    text_chars: int
    #: Depth of the deepest element (the root element is at 1).
    max_depth: int
    #: Most element children of one element.
    max_fanout: int
    #: Elements with at least one element child.
    fanout_parents: int
    #: Elements whose parent is an element.
    fanout_children: int


class NodeIndex:
    """Derived per-document arrays and name partitions (read-only).

    Attributes:
        document: the indexed (immutable) document.
        total: ``|dom|``.
        size: ``size[i]`` — subtree size of the node with pre number ``i``.
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
        shape: the :class:`DocumentShape` the same pass measured.

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
        "_sibling_hops",
        "size",
        "depth",
        "parent_pre",
        "kinds",
        "partitions",
        "shape",
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

    @classmethod
    def from_columns(
        cls, document: Document, columns, partitions=None, shape=None
    ) -> "NodeIndex":
        """The index over a document's flat columns
        (:class:`~repro.xml.columns.DocumentColumns`, already known to
        describe ``document``) — the parser's and the snapshot decoder's
        constructor. The int columns are adopted zero-copy. The parser
        and the builders leave ``partitions`` and ``shape`` out and pay
        one ``O(|D|)`` partition pass over the columns, which never
        touches ``document.nodes`` (doing so would create every node);
        the decoder hands in the persisted :attr:`partitions` and
        :attr:`shape` of the encoded index and pays nothing per node."""
        index = cls.__new__(cls)
        index._adopt(document, columns, partitions, shape)
        return index

    def _adopt(self, document: Document, columns, partitions=None, shape=None) -> None:
        # Weak back-reference only: the index is the *value* of a
        # weak-keyed cache whose key is the document — a strong reference
        # here would make every key strongly reachable from its own value
        # and pin every indexed document in memory forever.
        self._document_ref = weakref.ref(document)
        self._child_offsets = None
        self._child_packed = None
        self._attribute_counts = None
        self._sibling_hops = 0
        self.total = len(columns)
        self.size = memoryview(columns.size)
        self.depth = memoryview(columns.depth)
        self.parent_pre = memoryview(columns.parent_pre)
        self.kinds = columns.kinds
        if partitions is None:
            partitions, shape = self._build_partitions(columns)
        self.shape = shape
        self._point_at(*partitions)

    @staticmethod
    def _build_partitions(columns) -> tuple[tuple, DocumentShape]:
        """One pre-order pass over the kind and name columns filling the
        kind and name partitions (sorted by construction), packed into
        the persisted form ``(packed, span_ends, tags, attributes,
        pi_targets)`` that :meth:`_point_at` takes: every partition
        concatenated into one ``array('q')`` — the six kind partitions
        in :data:`KIND_PARTITIONS` order, then the tag, attribute-name
        and PI-target partitions in first-occurrence order — with the
        end offset of each (it starts where its predecessor ends) and
        the three key lists. Returns them with the document's
        :class:`DocumentShape`, gathered from the element and text
        partitions before they are packed."""
        store_stats.tick("partition_passes")
        kinds, names = columns.kinds, columns.names
        by_tag: dict[str, list[int]] = {}
        by_attribute: dict[str, list[int]] = {}
        by_pi: dict[str, list[int]] = {}
        elements: list[int] = []
        attributes: list[int] = []
        non_attributes: list[int] = []
        text_nodes: list[int] = []
        comments: list[int] = []
        pis: list[int] = []
        element, attribute, text, comment, pi = ELEM, ATTR, TEXT, COMMENT, PI
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
        # The shape, one C-level map per measure over the partitions just
        # filled. Elements hang under elements or under the document node
        # (pre 0), whose children do not count as fanout.
        values = columns.values
        fanout = Counter(map(columns.parent_pre.__getitem__, elements))
        fanout.pop(0, None)
        shape = DocumentShape(
            text_chars=sum(map(len, filter(None, map(values.__getitem__, text_nodes)))),
            max_depth=max(map(columns.depth.__getitem__, elements), default=0),
            max_fanout=max(fanout.values(), default=0),
            fanout_parents=len(fanout),
            fanout_children=sum(fanout.values()),
        )
        partitions = (packed, span_ends, list(by_tag), list(by_attribute), list(by_pi))
        return partitions, shape

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
        """The sorted pre array equal to ``select_node_test(dom)`` for
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

    def sibling_table(self):
        """The child table for a sibling step, or ``None`` while hopping
        is the cheaper way: a step then walks ``c += size[c]`` inside the
        parent's interval, paying for its own output, and tallies the
        nodes it visited with :meth:`count_sibling_hops`. Once a
        document's hops have visited ``total`` nodes the ``O(|D|)``
        build has been paid for once over, so the table is built (or
        was, by another step) and every later sibling step slices it:
        neither way costs more than twice the other, and a long-lived
        document ends up with its table."""
        if self._child_offsets is None and self._sibling_hops < self.total:
            return None
        return self.child_table()

    def count_sibling_hops(self, visited: int) -> None:
        """Tally ``visited`` nodes hopped by a sibling step (unlocked: a
        lost update only moves the point :meth:`sibling_table` switches)."""
        self._sibling_hops += visited

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
        """Proper ancestorship: ``y`` lies strictly inside ``x``'s
        subtree interval."""
        return x_pre < y_pre < x_pre + self.size[x_pre]

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert every invariant the fused kernels rely on; raises
        ``AssertionError`` with a description on violation. O(|D|²) in
        the interval cross-check — property-test use only.
        """
        names = self.document.columns.names
        total = self.total
        assert len(self.kinds) == len(self.size) == total, "column lengths diverged"
        assert len(self.depth) == len(self.parent_pre) == total, (
            "column lengths diverged"
        )
        assert self.parent_pre[0] == -1 and self.depth[0] == 0, "document node broken"
        # Sizes recomputed bottom-up from the parent column (a child's
        # pre exceeds its parent's, so walking backwards sees it first).
        sizes = [1] * total
        for pre in range(total - 1, 0, -1):
            parent = self.parent_pre[pre]
            assert 0 <= parent < pre, f"parent broken at pre={pre}"
            assert self.depth[pre] == self.depth[parent] + 1, f"depth broken at pre={pre}"
            sizes[parent] += sizes[pre]
        for pre in range(total):
            assert self.size[pre] == sizes[pre], f"size broken at pre={pre}"
        # Interval containment iff the parent chain reaches x.
        for y in range(total):
            chain = set(self.ancestors_of(y))
            for x in range(total):
                assert self.is_ancestor(x, y) == (x in chain), (
                    f"intervals and parents disagree for ({x}, {y})"
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
                assert self.kinds[pre] == ELEM and names[pre] == tag
        for name, members in self.by_attribute.items():
            for pre in members:
                assert self.kinds[pre] == ATTR and names[pre] == name


# ----------------------------------------------------------------------
# Process-wide cache
# ----------------------------------------------------------------------

#: Indexes are immutable facts about immutable documents; cache them
#: process-wide so every evaluator over the same document shares one.
#: Weak keys (and a weak back-reference inside the index): the cache
#: never pins a document.
_INDEX_CACHE: "weakref.WeakKeyDictionary[Document, NodeIndex]" = (
    weakref.WeakKeyDictionary()
)
#: Per-document build locks (weak-keyed too): racing first callers of
#: one document serialize, builds of *different* documents proceed in
#: parallel — worker threads answering first queries on fresh
#: documents must not funnel every O(|D|·log|D|) build through one
#: global lock.
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
        index = NodeIndex.from_columns(document, document.columns)
        with _INDEX_LOCK:
            _INDEX_CACHE[document] = index
            axis_kernel_stats.tick("index_builds")
    return index


def adopt_node_index(document: Document, index: NodeIndex) -> NodeIndex:
    """Seed the process-wide cache with a prebuilt index (every
    :meth:`~repro.xml.document.Document.from_columns`).

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
        axis_kernel_stats.tick("index_adoptions")
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
