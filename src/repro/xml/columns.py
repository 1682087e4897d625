"""Column documents: the parsed and the decoded form of ``dom``.

A :class:`ColumnDocument` is a finalized document whose *only* storage is
the flat snapshot columns — one kind-code byte, four signed-8-byte ints
(``parent_pre`` / ``size`` / ``post`` / ``depth``), and the two string
columns per node. :func:`~repro.xml.parser.parse_document` writes them
straight from the source text and a snapshot load
(``decode_snapshot(blob)``, ``DocumentStore.load(name)``) reads them
back, the strings still encoded (:class:`StringTable`); no
:class:`~repro.xml.document.Node` object exists afterwards: the fused
axis kernels (:mod:`repro.axes.axes`), the Core XPath evaluator and the
context-value-table evaluators (MINCONTEXT / OPTMINCONTEXT) thread
sorted pre arrays end-to-end, and a boxed ``Node``
is materialized **on demand, per pre, memoized** only when a caller
actually touches one — a result node, a non-columnar residual (the
``id`` axis, ``name()``/``lang()``/``id()`` calls, serialization), or
one of the reference evaluators. Everything
predicates need is answered straight from the columns:

* **name/kind tests** — already columnar via the
  :class:`~repro.xml.index.NodeIndex` partitions;
* **string values** — :meth:`ColumnDocument.string_value_of_pre` cuts the
  subtree's text out of a memoized per-document *text prefix structure*
  (sorted text-node pres + cumulative offsets into one joined string), an
  ``O(log #texts)`` bisect per call instead of a subtree walk; its
  ``to_number`` is memoized per pre
  (:meth:`~repro.xml.document.Document.number_value_of_pre`);
* **attribute lookup** — the snapshot validator's attribute-contiguity
  invariant (attribute ``i`` of element ``e`` sits at
  ``e + seen_attrs + 1``) makes the attribute run of an element a closed
  pre interval;
* **id maps** — built lazily from the ``by_attribute[id_attribute]``
  partition, first id-named attribute per element, first element per key;
* **paths** — :meth:`ColumnDocument.path_of_pre` renders
  :meth:`~repro.xml.document.Node.path` from the columns, one sibling
  walk per parent, memoized per pre (what the daemon and the CLI print
  for every node of an answer).

Materialization is the graceful eager fallback: any construct the column
accessors do not cover simply touches ``document.nodes[pre]`` and gets a
correct, memoized :class:`LazyNode` — the lazy path only ever *removes*
work, never changes a result. ``nodes_materialized`` /
``lazy_documents`` on :data:`repro.stats.axis_kernel_stats` count both
sides of that bargain exactly (each pre is counted once, ever, under the
per-document materialization lock).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

from repro.errors import SnapshotCorruptError
from repro.stats import axis_kernel_stats
from repro.xml.document import Document, Node, NodeKind
from repro.xml.index import NodeIndex, adopt_node_index

__all__ = [
    "ColumnDocument",
    "DocumentColumns",
    "LazyNode",
    "LazyNodeList",
    "StringTable",
]

#: Snapshot kind-code bytes (the on-disk codes; see repro.xml.snapshot).
KIND_CODES = {
    NodeKind.DOCUMENT: ord("D"),
    NodeKind.ELEMENT: ord("E"),
    NodeKind.ATTRIBUTE: ord("A"),
    NodeKind.TEXT: ord("T"),
    NodeKind.COMMENT: ord("C"),
    NodeKind.PROCESSING_INSTRUCTION: ord("P"),
}
CODE_KINDS = {code: kind for kind, code in KIND_CODES.items()}

_DOC = KIND_CODES[NodeKind.DOCUMENT]
_ELEM = KIND_CODES[NodeKind.ELEMENT]
_ATTR = KIND_CODES[NodeKind.ATTRIBUTE]
_TEXT = KIND_CODES[NodeKind.TEXT]
_COMMENT = KIND_CODES[NodeKind.COMMENT]


class StringTable(Sequence):
    """A string column in its stored shape: one UTF-8 blob and
    ``len + 1`` offsets into it, each string decoded when it is asked
    for — a load decodes the few strings its queries touch, not every
    string of the document. Read-only, and a drop-in for the
    ``list[str | None]`` the parser produces (index, ``len``, iterate,
    and what :class:`~collections.abc.Sequence` derives from those);
    like the partitions it does not compare equal to a list — go
    through ``list(table)``.

    String ``i`` is ``blob[offsets[i]:offsets[i + 1]]``; a ``None``
    entry occupies no bytes and stores its position *complemented*
    (``~offset``, negative), which the end of its predecessor reads back
    with another ``~``. This class is the one place that knows the
    shape: :meth:`pack` writes it, indexing reads it, :meth:`checked`
    verifies it. Offsets that leave the blob or split a multi-byte
    sequence — which only a table that was never checked can hold —
    surface as :class:`~repro.errors.SnapshotCorruptError`.
    """

    __slots__ = ("offsets", "blob", "_length")

    def __init__(self, offsets, blob: bytes):
        self.offsets = offsets
        self.blob = blob
        self._length = len(offsets) - 1

    @staticmethod
    def pack(strings) -> tuple[array, bytes]:
        """``(offsets, blob)`` for a sequence of ``str | None``."""
        strings = list(strings)
        present = [text for text in strings if text is not None]
        blob = "".join(present).encode("utf-8")
        ascii_only = len(blob) == sum(map(len, present))  # one byte per char
        offsets = []
        append = offsets.append
        position = 0
        for text in strings:
            if text is None:
                append(~position)
            else:
                append(position)
                position += len(text) if ascii_only else len(text.encode("utf-8"))
        append(position)
        return array("q", offsets), blob

    def checked(self, what: str) -> list[str | None]:
        """Every string, decoded — after verifying what indexing takes
        on trust: offsets start at 0, never decrease and end at the
        blob's end."""
        offsets = self.offsets
        starts = [entry if entry >= 0 else ~entry for entry in offsets]
        if starts[0] != 0 or offsets[-1] != len(self.blob) or starts != sorted(starts):
            raise SnapshotCorruptError(
                f"corrupt snapshot: {what} offset table is not monotone over its blob"
            )
        if self.blob.isascii():
            # Byte offsets are character offsets: every string is a plain
            # slice of the one decoded text, no per-string decode call.
            text = self.blob.decode("ascii")
            return [
                None if entry < 0 else text[entry:end]
                for entry, end in zip(offsets, starts[1:])
            ]
        # Per string, so that an offset splitting a multi-byte sequence
        # (or a blob that is not UTF-8 at all) fails its own decode.
        return list(self)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> str | None:
        length = self._length
        if not 0 <= index < length:
            if not -length <= index < 0:
                raise IndexError("string column index out of range")
            index += length
        offsets = self.offsets
        lo = offsets[index]
        if lo < 0:
            return None
        hi = offsets[index + 1]
        if hi < 0:
            hi = ~hi
        try:
            return self.blob[lo:hi].decode("utf-8")
        except UnicodeDecodeError as error:
            raise SnapshotCorruptError(
                f"corrupt snapshot: string {index} of a column is not UTF-8"
            ) from error

    def __iter__(self):
        return map(self.__getitem__, range(self._length))


class DocumentColumns:
    """The flat columns of one finalized document (read-only).

    Exactly the column sections of a snapshot: ``kinds`` is a ``bytes``
    of kind codes, the four int columns are ``array('q')`` (or any int
    buffer), ``names`` / ``values`` are sequences of ``str | None`` — a
    list from the parser or a boxed tree, a :class:`StringTable` from a
    snapshot, and no reader may care which. The int columns are shared
    zero-copy with the document's :class:`~repro.xml.index.NodeIndex`.
    """

    __slots__ = ("kinds", "parent_pre", "size", "post", "depth", "names", "values")

    def __init__(self, *, kinds, parent_pre, size, post, depth, names, values):
        self.kinds = kinds
        self.parent_pre = parent_pre
        self.size = size
        self.post = post
        self.depth = depth
        self.names = names
        self.values = values

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_document(cls, document: Document) -> "DocumentColumns":
        """Columns of a boxed tree, read off its nodes in one pre-order
        pass — what :class:`~repro.xml.index.NodeIndex` indexes and
        :func:`~repro.xml.snapshot.encode_snapshot` writes for one."""
        nodes = document.nodes
        total = len(nodes)
        size = array("q", [node.size for node in nodes])
        parent_pre = array("q", [-1]) * total
        depth = array("q", bytes(8 * total))
        for pre, node in enumerate(nodes):
            parent = node.parent
            if parent is not None:
                # Parents precede children in pre-order, so their depth
                # is already final when the child is visited.
                parent_pre[pre] = parent.pre
                depth[pre] = depth[parent.pre] + 1
        # Post-order rank, closed form: the nodes finishing before pre
        # are exactly those started before it (pre of them) minus its
        # still-open ancestors (depth), plus its own descendants
        # (size - 1) — so post = pre - depth + size - 1, no sort needed.
        post = array("q", [pre - depth[pre] + size[pre] - 1 for pre in range(total)])
        return cls(
            kinds=bytes(KIND_CODES[node.kind] for node in nodes),
            parent_pre=parent_pre,
            size=size,
            post=post,
            depth=depth,
            names=[node.name for node in nodes],
            values=[node.value for node in nodes],
        )


# Captured slot descriptors of Node: LazyNode shadows these names with
# properties, but the underlying per-instance slot storage still exists
# (allocated by Node.__slots__) and is reachable only through the
# descriptors. An unset slot raises AttributeError on __get__ — that *is*
# the memo sentinel, no extra flag needed.
_PARENT = Node.parent
_CHILDREN = Node.children
_ATTRIBUTES = Node.attributes
_CHILD_INDEX = Node.child_index
_STRING_VALUE = Node._string_value


class LazyNode(Node):
    """A :class:`~repro.xml.document.Node` whose links are cut from the
    columns on first access.

    ``document`` / ``kind`` / ``name`` / ``value`` / ``pre`` / ``size``
    are filled at materialization; ``parent`` / ``children`` /
    ``attributes`` / ``child_index`` / ``string_value`` are computed
    lazily and memoized in the inherited slots, so a result node costs
    O(1) objects until a caller actually walks from it.
    """

    __slots__ = ()

    @property
    def parent(self):
        try:
            return _PARENT.__get__(self)
        except AttributeError:
            pass
        parent_pre = self.document.columns.parent_pre[self.pre]
        parent = None if parent_pre < 0 else self.document.node_at(parent_pre)
        _PARENT.__set__(self, parent)
        return parent

    @property
    def children(self):
        try:
            return _CHILDREN.__get__(self)
        except AttributeError:
            pass
        document = self.document
        children = [document.node_at(p) for p in document.child_pres(self.pre)]
        _CHILDREN.__set__(self, children)
        return children

    @property
    def attributes(self):
        try:
            return _ATTRIBUTES.__get__(self)
        except AttributeError:
            pass
        document = self.document
        attributes = [document.node_at(p) for p in document.attribute_pres(self.pre)]
        _ATTRIBUTES.__set__(self, attributes)
        return attributes

    @property
    def child_index(self):
        try:
            return _CHILD_INDEX.__get__(self)
        except AttributeError:
            pass
        index = self.document.child_index_of(self.pre)
        _CHILD_INDEX.__set__(self, index)
        return index

    @property
    def string_value(self):
        try:
            return _STRING_VALUE.__get__(self)
        except AttributeError:
            pass
        if self.kind is NodeKind.DOCUMENT or self.kind is NodeKind.ELEMENT:
            text = self.document.string_value_of_pre(self.pre)
        else:
            text = self.value or ""
        _STRING_VALUE.__set__(self, text)
        return text

    def attribute(self, name: str) -> "Node | None":
        pre = self.document.attribute_pre_of(self.pre, name)
        return None if pre is None else self.document.node_at(pre)

    def attribute_value(self, name: str, default: str | None = None) -> str | None:
        pre = self.document.attribute_pre_of(self.pre, name)
        if pre is None:
            return default
        return self.document.columns.values[pre]

    def path(self) -> str:
        return self.document.path_of_pre(self.pre)


class LazyNodeList(Sequence):
    """``document.nodes`` of a column document: a sequence view that
    materializes on indexing/iteration and allocates nothing up front.

    A :class:`~collections.abc.Sequence` like the eager list — ``len``,
    int and slice indexing (slices return plain lists), iteration,
    ``reversed``, ``index`` / ``count``, ``random.sample``.
    """

    __slots__ = ("_document",)

    def __init__(self, document: "ColumnDocument"):
        self._document = document

    def __len__(self) -> int:
        return len(self._document.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            node_at = self._document.node_at
            return [node_at(p) for p in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self._document.node_at(index)

    def __iter__(self):
        node_at = self._document.node_at
        for pre in range(len(self)):
            yield node_at(pre)

    def __reversed__(self):
        node_at = self._document.node_at
        for pre in reversed(range(len(self))):
            yield node_at(pre)

    def __contains__(self, item) -> bool:
        return (
            isinstance(item, Node)
            and item.document is self._document
            and 0 <= item.pre < len(self)
            and self._document.node_at(item.pre) is item
        )


class ColumnDocument(Document):
    """A finalized document living entirely in flat columns.

    Constructed by :meth:`from_columns` — the parser's and the snapshot
    decoder's last step; already frozen, with ``nodes`` a
    :class:`LazyNodeList` and ``root`` / ``root_element`` materialized on
    first touch. The adopted :class:`~repro.xml.index.NodeIndex` is held
    as ``_index`` (a strong reference: the index's own document link is
    weak, so this closes the lifecycle loop without a leak — document
    keeps index alive, index does not pin document).
    """

    def __init__(self, columns: DocumentColumns, id_attribute: str = "id"):
        # Deliberately *not* Document.__init__: that would build a boxed
        # document node and an eager nodes list — the exact work this
        # representation exists to skip.
        self.id_attribute = id_attribute
        self.columns = columns
        self.nodes = LazyNodeList(self)
        self._finalized = True
        self._id_map = None
        self._id_tokens = None
        self._number_column = None
        self._index = None
        self._cache: list[Node | None] = [None] * len(columns)
        self._materialize_lock = threading.Lock()
        self._text_structure_cache = None
        self._paths = None
        self._root_element_pre = self._find_root_element_pre()
        axis_kernel_stats.lazy_document()

    @classmethod
    def from_columns(
        cls, columns: DocumentColumns, id_attribute: str = "id", partitions=None
    ) -> "ColumnDocument":
        """The document over ``columns`` (already known to be legal) with
        its index made from them — or from the persisted ``partitions``
        of :attr:`NodeIndex.partitions <repro.xml.index.NodeIndex>` —
        and adopted: no node is boxed and no index build is ever counted
        for it."""
        document = cls(columns, id_attribute=id_attribute)
        index = NodeIndex.from_columns(document, columns, partitions)
        # First-in wins in the process cache; keep a strong ref to the
        # winner so the weak-keyed cache entry survives as long as the
        # document does (the index only weak-refs the document back).
        document._index = adopt_node_index(document, index)
        return document

    def _find_root_element_pre(self) -> int | None:
        """Pre of the single element child of the document node, if any
        (the finalize() rule) — O(#top-level children) span hops."""
        columns = self.columns
        kinds, size = columns.kinds, columns.size
        total = len(columns)
        element_pre = None
        count = 0
        child = 1  # the document node carries no attributes
        while child < total:
            if kinds[child] == _ELEM:
                count += 1
                element_pre = child
            child += size[child]
        return element_pre if count == 1 else None

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    @property
    def root(self) -> Node:
        return self.node_at(0)

    @property
    def root_element(self) -> Node | None:
        pre = self._root_element_pre
        return None if pre is None else self.node_at(pre)

    def node_at(self, pre: int) -> Node:
        """The boxed node for ``pre``, materialized at most once ever."""
        if pre < 0:
            raise IndexError(pre)
        node = self._cache[pre]
        if node is not None:
            return node
        return self._materialize(pre)

    def _materialize(self, pre: int) -> Node:
        with self._materialize_lock:
            node = self._cache[pre]
            if node is not None:  # lost the race — the winner's node is it
                return node
            columns = self.columns
            node = LazyNode.__new__(LazyNode)
            node.document = self
            node.kind = CODE_KINDS[columns.kinds[pre]]
            node.name = columns.names[pre]
            node.value = columns.values[pre]
            node.pre = pre
            node.size = columns.size[pre]
            if pre == 0:
                _PARENT.__set__(node, None)
            if pre == 0 or node.kind is NodeKind.ATTRIBUTE:
                _CHILD_INDEX.__set__(node, None)
            self._cache[pre] = node
            axis_kernel_stats.node_materialized()
            return node

    def materialized_count(self) -> int:
        """How many pres have boxed nodes (counter-reconciliation hook)."""
        return sum(1 for node in self._cache if node is not None)

    # ------------------------------------------------------------------
    # Column accessors (what predicates need, without nodes)
    # ------------------------------------------------------------------

    def attribute_pres(self, pre: int) -> range:
        """The contiguous attribute run of element ``pre`` (maybe empty)."""
        index = self._index
        if index is not None and index.attribute_counts_ready:
            # An axis kernel already paid for the per-pre attribute
            # counts — the run is a closed form then (non-elements
            # count 0, so the kind check is subsumed).
            return range(pre + 1, pre + 1 + index.attribute_counts()[pre])
        columns = self.columns
        kinds = columns.kinds
        if kinds[pre] != _ELEM:
            return range(0)
        start = pre + 1
        end = pre + columns.size[pre]
        stop = start
        while stop < end and kinds[stop] == _ATTR:
            stop += 1
        return range(start, stop)

    def attribute_pre_of(self, pre: int, name: str) -> int | None:
        """Pre of the first ``name`` attribute of element ``pre``."""
        names = self.columns.names
        for attr_pre in self.attribute_pres(pre):
            if names[attr_pre] == name:
                return attr_pre
        return None

    def child_pres(self, pre: int) -> list[int]:
        """Child pres of ``pre`` in order: skip the attribute run, then
        hop sibling subtrees (``c += size[c]``) to the interval end."""
        index = self._index
        if index is not None and index.child_table_ready:
            # One contiguous span of the memoized child table (built by
            # the axis kernels; non-parents have an empty span).
            offsets, children = index.child_table()
            return list(children[offsets[pre] : offsets[pre + 1]])
        columns = self.columns
        kinds, size = columns.kinds, columns.size
        code = kinds[pre]
        if code != _ELEM and code != _DOC:
            return []
        end = pre + size[pre]
        child = pre + 1
        while child < end and kinds[child] == _ATTR:
            child += 1
        out = []
        while child < end:
            out.append(child)
            child += size[child]
        return out

    def child_index_of(self, pre: int) -> int | None:
        """Index of ``pre`` within its parent's children (None for the
        document node and attributes) — walks earlier sibling spans."""
        columns = self.columns
        parent = columns.parent_pre[pre]
        if parent < 0 or columns.kinds[pre] == _ATTR:
            return None
        kinds, size = columns.kinds, columns.size
        child = parent + 1
        while kinds[child] == _ATTR:
            child += 1
        index = 0
        while child != pre:
            index += 1
            child += size[child]
        return index

    def _text_structure(self):
        """(sorted text pres, cumulative offsets, joined text) — computed
        once; a lost construction race just recomputes the same value."""
        structure = self._text_structure_cache
        if structure is None:
            columns = self.columns
            values = columns.values
            index = self._index
            if index is not None:
                pres = index.text_nodes
            else:
                pres = [i for i, code in enumerate(columns.kinds) if code == _TEXT]
            parts = [values[text_pre] or "" for text_pre in pres]
            offsets = array("q", accumulate(map(len, parts), initial=0))
            structure = (pres, offsets, "".join(parts))
            self._text_structure_cache = structure
        return structure

    def string_value_of_pre(self, pre: int) -> str:
        """``strval`` of the node at ``pre`` straight from the columns.

        For document/element pres this is the concatenation of all text
        nodes in the subtree interval ``[pre, pre + size)`` in document
        order — exactly ``Node._collect_text``'s answer, because every
        text node's ancestors inside the interval are elements (text
        attaches only under D/E, and D only at pre 0). One bisect into
        the text prefix structure, one string slice.
        """
        columns = self.columns
        code = columns.kinds[pre]
        if code != _ELEM and code != _DOC:
            return columns.values[pre] or ""
        pres, offsets, joined = self._text_structure()
        lo = bisect_left(pres, pre)
        hi = bisect_left(pres, pre + columns.size[pre], lo)
        return joined[offsets[lo] : offsets[hi]]

    def path_of_pre(self, pre: int) -> str:
        """:meth:`Node.path` of the node at ``pre``, from the columns.

        One sibling walk numbers *all* children of a parent, and every
        path is memoized per pre — rendering an answer costs one list
        lookup per node once its siblings have been seen. The memo is
        filled idempotently (racing renderers write equal strings)."""
        paths = self._paths
        if paths is None:
            paths = [None] * len(self.columns)
            paths[0] = "/"
            self._paths = paths
        if paths[pre] is not None:
            return paths[pre]
        columns = self.columns
        kinds, names, parent_pre = columns.kinds, columns.names, columns.parent_pre
        missing = []  # pre and its ancestors still without a path, nearest first
        node = pre
        while paths[node] is None:
            missing.append(node)
            node = parent_pre[node]
        for node in reversed(missing):
            parent = parent_pre[node]
            if kinds[node] == _ATTR:
                paths[node] = f"{paths[parent]}/@{names[node]}"
                continue
            prefix = "" if parent == 0 else paths[parent]
            seen: dict = {}
            for child in self.child_pres(parent):
                code, name = kinds[child], names[child]
                number = seen[code, name] = seen.get((code, name), 0) + 1
                if code == _ELEM:
                    label = name
                elif code == _TEXT:
                    label = "text()"
                elif code == _COMMENT:
                    label = "comment()"
                else:
                    label = f"processing-instruction({name})"
                paths[child] = f"{prefix}/{label}[{number}]"
        return paths[pre]

    # ------------------------------------------------------------------
    # Document API, columnar
    # ------------------------------------------------------------------

    def elements(self) -> list[Node]:
        index = self._index
        if index is not None:
            return [self.node_at(p) for p in index.elements]
        kinds = self.columns.kinds
        return [self.node_at(p) for p in range(len(kinds)) if kinds[p] == _ELEM]

    @property
    def id_map(self) -> dict[str, Node]:
        if self._id_map is None:
            columns = self.columns
            parent_pre, values = columns.parent_pre, columns.values
            mapping: dict[str, Node] = {}
            last_element = -1
            for attr_pre in self._id_attribute_pres():
                element = parent_pre[attr_pre]
                if element == last_element:
                    # Only the *first* id-named attribute of an element
                    # counts (Node.attribute returns the first match).
                    continue
                last_element = element
                key = values[attr_pre]
                if key is not None and key not in mapping:
                    mapping[key] = self.node_at(element)
            self._id_map = mapping
        return self._id_map

    def _id_attribute_pres(self):
        index = self._index
        if index is not None:
            return index.by_attribute.get(self.id_attribute, ())
        columns = self.columns
        kinds, names = columns.kinds, columns.names
        return [
            p
            for p in range(len(columns))
            if kinds[p] == _ATTR and names[p] == self.id_attribute
        ]
