"""XML document data model.

Implements the paper's data model (Section 2.1): an XML document is an
unranked, ordered, labeled tree. ``dom`` is the set of all nodes, exposed
here as :attr:`Document.nodes` in document order. The model supports six
node kinds (document, element, attribute, text, comment, processing
instruction); the paper treats all nodes as a single type, and every paper
example works on element-only documents, but a practical library needs the
full set.

A :class:`Document` *is* its flat columns
(:class:`~repro.xml.columns.DocumentColumns`): kind, parent, subtree
size, post rank, depth, name and value per pre-order number ``pre``.
Following the W3C data model, an element's attribute nodes come after
the element and before its children in document order; ``size`` counts
a node's subtree including itself and all attributes in it, which lets
the axis functions in :mod:`repro.axes` run in linear time:

* ``y`` is a descendant-or-self of ``x``  iff
  ``x.pre <= y.pre < x.pre + x.size`` (and ``y`` is not an attribute,
  for strict descendants),
* ``following(x)`` is exactly the pre-order suffix starting at
  ``x.pre + x.size``.

The parser, the builders and the snapshot decoder write the columns and
finish through :meth:`Document.from_columns`: a document is immutable
from birth, with its :class:`~repro.xml.index.NodeIndex` adopted. The
fused axis kernels (:mod:`repro.axes.axes`), the Core XPath evaluator
and the context-value-table evaluators (MINCONTEXT / OPTMINCONTEXT)
thread sorted pre arrays end-to-end; a :class:`Node` is created for a
pre **on demand, memoized** only when a caller touches one — a result
node, a long-tail library call (``name()``, ``lang()``, ``id()``), or
one of the reference evaluators. Everything predicates need is answered
straight from the columns:

* **name/kind tests** — the :class:`~repro.xml.index.NodeIndex`
  partitions, or the kind and name columns;
* **string values** — :meth:`Document.string_value_of_pre` cuts the
  subtree's text out of a memoized per-document *text prefix structure*
  (sorted text-node pres + cumulative offsets into one joined string), an
  ``O(log #texts)`` bisect per call instead of a subtree walk; its
  ``to_number`` is memoized per pre (:meth:`Document.number_value_of_pre`);
* **attribute lookup** — attribute ``i`` of element ``e`` sits at
  ``e + i + 1`` (the columns' attribute-contiguity invariant), so the
  attribute run of an element is a closed pre interval;
* **id maps** — :meth:`Document.id_pre_map`, built from the
  ``by_attribute[id_attribute]`` partition: first id-named attribute per
  element, first element per key;
* **paths** — :meth:`Document.path_of_pre`, one sibling walk per parent,
  memoized per pre (what the daemon and the CLI print for every node of
  an answer).

``nodes_materialized`` / ``lazy_documents`` on
:data:`repro.stats.axis_kernel_stats` count nodes and documents exactly
(each pre is counted once, ever, under the per-document lock).
"""

from __future__ import annotations

import enum
import threading
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from typing import Iterator

from repro.stats import axis_kernel_stats
from repro.xml.columns import ATTR, COMMENT, DOC, ELEM, PI, TEXT, DocumentColumns
from repro.xml.index import NodeIndex, adopt_node_index, node_index


class NodeKind(enum.Enum):
    """The six node kinds of the XPath 1.0 data model (minus namespaces).

    Namespace nodes are omitted, matching the paper ("we do not discuss the
    'namespace' ... axes").
    """

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


#: Each kind's code in the ``kinds`` column.
KIND_CODES = {
    NodeKind.DOCUMENT: DOC,
    NodeKind.ELEMENT: ELEM,
    NodeKind.ATTRIBUTE: ATTR,
    NodeKind.TEXT: TEXT,
    NodeKind.COMMENT: COMMENT,
    NodeKind.PROCESSING_INSTRUCTION: PI,
}
CODE_KINDS = {code: kind for kind, code in KIND_CODES.items()}


class Node:
    """One node of a document: a pre number and its column entries.

    Attributes:
        document: owning :class:`Document`.
        kind: the :class:`NodeKind`.
        name: element tag name, attribute name, or PI target; ``None`` for
            document, text, and comment nodes.
        value: attribute value, text content, comment content, or PI data;
            ``None`` for document and element nodes.
        pre: pre-order document-order index (document node is 0):
            ``document.nodes[pre] is self``.
        size: number of nodes in this node's subtree, including itself and
            all attribute nodes in the subtree.

    ``parent`` / ``children`` / ``attributes`` / ``child_index`` /
    ``string_value`` are cut from the columns on first access and
    memoized in the node's slots, so a result node costs one object
    until a caller walks from it.
    """

    __slots__ = (
        "document",
        "kind",
        "name",
        "value",
        "pre",
        "size",
        "_parent",
        "_children",
        "_attributes",
        "_child_index",
        "_string_value",
    )

    def __init__(self, document: "Document", pre: int):
        columns = document.columns
        self.document = document
        self.kind = CODE_KINDS[columns.kinds[pre]]
        self.name = columns.names[pre]
        self.value = columns.values[pre]
        self.pre = pre
        self.size = columns.size[pre]

    # An unset slot raises AttributeError: that is the memo's "not yet".

    @property
    def parent(self) -> "Node | None":
        """The parent node (``None`` for the document node). An attribute
        node's parent is its owning element, per the W3C data model."""
        try:
            return self._parent
        except AttributeError:
            pass
        parent_pre = self.document.columns.parent_pre[self.pre]
        self._parent = None if parent_pre < 0 else self.document.node_at(parent_pre)
        return self._parent

    @property
    def children(self) -> "list[Node]":
        """Child nodes in document order (never attribute nodes)."""
        try:
            return self._children
        except AttributeError:
            pass
        document = self.document
        self._children = [document.node_at(p) for p in document.child_pres(self.pre)]
        return self._children

    @property
    def attributes(self) -> "list[Node]":
        """Attribute nodes, in source order."""
        try:
            return self._attributes
        except AttributeError:
            pass
        document = self.document
        self._attributes = [document.node_at(p) for p in document.attribute_pres(self.pre)]
        return self._attributes

    @property
    def child_index(self) -> int | None:
        """Index of this node within ``parent.children`` (``None`` for
        attributes and the document node)."""
        try:
            return self._child_index
        except AttributeError:
            pass
        self._child_index = self.document.child_index_of(self.pre)
        return self._child_index

    @property
    def string_value(self) -> str:
        """The XPath string value of this node (``strval`` in the paper).

        For document and element nodes: the concatenation of the values of
        all text-node descendants in document order (the paper's "non-tag,
        non-comment strings between start and end tag"). For text,
        attribute, comment, and PI nodes: the node's own value.
        """
        try:
            return self._string_value
        except AttributeError:
            pass
        if self.kind is NodeKind.DOCUMENT or self.kind is NodeKind.ELEMENT:
            self._string_value = self.document.string_value_of_pre(self.pre)
        else:
            self._string_value = self.value or ""
        return self._string_value

    # ------------------------------------------------------------------
    # Kind predicates
    # ------------------------------------------------------------------

    @property
    def is_document(self) -> bool:
        return self.kind is NodeKind.DOCUMENT

    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def is_text(self) -> bool:
        return self.kind is NodeKind.TEXT

    @property
    def is_comment(self) -> bool:
        return self.kind is NodeKind.COMMENT

    @property
    def is_processing_instruction(self) -> bool:
        return self.kind is NodeKind.PROCESSING_INSTRUCTION

    # ------------------------------------------------------------------
    # Tree navigation helpers
    # ------------------------------------------------------------------

    def ancestors(self) -> Iterator["Node"]:
        """Yield proper ancestors, nearest first (ends at the document node)."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff ``self`` is a proper ancestor of ``other`` (the
        pre-order interval test)."""
        if other is self:
            return False
        return self.pre <= other.pre < self.pre + self.size

    def attribute(self, name: str) -> "Node | None":
        """Return the attribute node with the given name, or ``None``."""
        pre = self.document.attribute_pre_of(self.pre, name)
        return None if pre is None else self.document.node_at(pre)

    def attribute_value(self, name: str, default: str | None = None) -> str | None:
        """Return the value of the named attribute, or ``default``."""
        pre = self.document.attribute_pre_of(self.pre, name)
        return default if pre is None else self.document.columns.values[pre]

    @property
    def xml_id(self) -> str | None:
        """The value of this element's id attribute, if any."""
        if not self.is_element:
            return None
        return self.attribute_value(self.document.id_attribute)

    def path(self) -> str:
        """A human-readable absolute path, e.g. ``/a[1]/b[2]``."""
        return self.document.path_of_pre(self.pre)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f" id={self.xml_id}" if self.is_element and self.xml_id else ""
        return f"<Node {self.kind.value} {self.name or self.value!r}{ident} pre={self.pre}>"


class NodeList(Sequence):
    """``document.nodes``: a sequence view that creates nodes on indexing
    and iteration and allocates nothing up front — ``len``, int and
    slice indexing (slices return plain lists), iteration, ``reversed``,
    ``index`` / ``count``, ``random.sample``."""

    __slots__ = ("_document",)

    def __init__(self, document: "Document"):
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


class Document:
    """An XML document: the paper's ``dom`` as flat columns plus derived
    indexes, immutable from birth.

    Made by :meth:`from_columns` — the last step of
    :func:`~repro.xml.parser.parse_document`, of
    :class:`~repro.xml.builder.DocumentBuilder` and of the snapshot
    decoder. The adopted :class:`~repro.xml.index.NodeIndex` is held as
    ``_index`` (a strong reference: the index's own document link is
    weak, so document keeps index alive and index does not pin document).

    Attributes:
        columns: the :class:`~repro.xml.columns.DocumentColumns`.
        nodes: all nodes in document order (``dom``), a :class:`NodeList`;
            ``nodes[i].pre == i``.
        id_attribute: the attribute name used for ``id()`` lookups
            (defaults to ``"id"``; the paper's Figure 2 keys all elements
            by an ``id`` attribute).
    """

    def __init__(self, columns: DocumentColumns, id_attribute: str = "id"):
        self.id_attribute = id_attribute
        self.columns = columns
        self.nodes = NodeList(self)
        self._index = None
        self._cache: list[Node | None] = [None] * len(columns)
        self._materialize_lock = threading.Lock()
        self._id_pres = None
        self._id_tokens = None
        self._number_column = None
        self._text_structure_cache = None
        self._paths = None
        self._root_element_pre = self._find_root_element_pre()
        axis_kernel_stats.lazy_document()

    @classmethod
    def from_columns(
        cls, columns: DocumentColumns, id_attribute: str = "id", partitions=None
    ) -> "Document":
        """The document over ``columns`` (already known to be legal) with
        its index made from them — or from the persisted ``partitions``
        of :attr:`NodeIndex.partitions <repro.xml.index.NodeIndex>` —
        and adopted: no node is created and no index build is ever
        counted for it."""
        document = cls(columns, id_attribute=id_attribute)
        index = NodeIndex.from_columns(document, columns, partitions)
        # First-in wins in the process cache; keep a strong ref to the
        # winner so the weak-keyed cache entry survives as long as the
        # document does (the index only weak-refs the document back).
        document._index = adopt_node_index(document, index)
        return document

    def _find_root_element_pre(self) -> int | None:
        """Pre of the single element child of the document node, if any
        — O(#top-level children) span hops."""
        columns = self.columns
        kinds, size = columns.kinds, columns.size
        total = len(columns)
        element_pre = None
        count = 0
        child = 1  # the document node carries no attributes
        while child < total:
            if kinds[child] == ELEM:
                count += 1
                element_pre = child
            child += size[child]
        return element_pre if count == 1 else None

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    @property
    def root(self) -> Node:
        """The document node (parent of the root element). This is the
        node the paper's absolute paths start from: Example 4 shows
        ``/descendant::*`` selecting all nine elements of Figure 2, which
        requires a document node *above* the root element."""
        return self.node_at(0)

    @property
    def root_element(self) -> Node | None:
        """The single element child of the document node."""
        pre = self._root_element_pre
        return None if pre is None else self.node_at(pre)

    def node_at(self, pre: int) -> Node:
        """The node for ``pre``, created at most once ever."""
        if pre < 0:
            raise IndexError(pre)
        node = self._cache[pre]
        if node is not None:
            return node
        with self._materialize_lock:
            node = self._cache[pre]
            if node is None:  # else a racing caller's node is it
                node = self._cache[pre] = Node(self, pre)
                axis_kernel_stats.node_materialized()
            return node

    def nodes_at(self, pres) -> list[Node]:
        """The nodes for ``pres`` (valid pre numbers), in their order: one
        list read per node already created — how every node-set result
        is boxed."""
        cache, node_at = self._cache, self.node_at
        return [cache[pre] or node_at(pre) for pre in pres]

    def materialized_count(self) -> int:
        """How many pres have nodes (counter-reconciliation hook)."""
        return sum(1 for node in self._cache if node is not None)

    def __len__(self) -> int:
        """``|dom|``: the number of nodes, including the document node."""
        return len(self.columns)

    def elements(self) -> list[Node]:
        """All element nodes in document order."""
        return [self.node_at(p) for p in node_index(self).elements]

    def in_document_order(self, nodes) -> list[Node]:
        """Sort an iterable of nodes into document order."""
        return sorted(nodes, key=lambda n: n.pre)

    def first_in_document_order(self, nodes) -> Node | None:
        """The paper's ``first_<doc``: earliest node of a set, or ``None``."""
        best: Node | None = None
        for node in nodes:
            if best is None or node.pre < best.pre:
                best = node
        return best

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
        if kinds[pre] != ELEM:
            return range(0)
        start = pre + 1
        end = pre + columns.size[pre]
        stop = start
        while stop < end and kinds[stop] == ATTR:
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
        end = pre + size[pre]
        child = pre + 1
        while child < end and kinds[child] == ATTR:
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
        if parent < 0 or columns.kinds[pre] == ATTR:
            return None
        kinds, size = columns.kinds, columns.size
        child = parent + 1
        while kinds[child] == ATTR:
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
            values = self.columns.values
            pres = node_index(self).text_nodes
            parts = [values[text_pre] or "" for text_pre in pres]
            offsets = array("q", accumulate(map(len, parts), initial=0))
            structure = (pres, offsets, "".join(parts))
            self._text_structure_cache = structure
        return structure

    def string_value_of_pre(self, pre: int) -> str:
        """``strval`` of the node at ``pre`` straight from the columns.

        For document/element pres this is the concatenation of all text
        nodes in the subtree interval ``[pre, pre + size)`` in document
        order: every text node's ancestors inside the interval are
        elements (text attaches only under D/E, and D only at pre 0).
        One bisect into the text prefix structure, one string slice.
        """
        columns = self.columns
        code = columns.kinds[pre]
        if code != ELEM and code != DOC:
            return columns.values[pre] or ""
        pres, offsets, joined = self._text_structure()
        lo = bisect_left(pres, pre)
        hi = bisect_left(pres, pre + columns.size[pre], lo)
        return joined[offsets[lo] : offsets[hi]]

    def number_value_of_pre(self, pre: int) -> float:
        """``to_number(strval(pre))``, memoized per document: the regex
        runs once per node, not once per comparison. The column is
        filled idempotently, so racing evaluations are benign (a lost
        race recomputes the same float)."""
        column = self._number_column
        if column is None:
            column = self._number_column = [None] * len(self.columns)
        value = column[pre]
        if value is None:
            # Deferred: repro.values sits above repro.xml.
            from repro.values.numbers import to_number

            value = column[pre] = to_number(self.string_value_of_pre(pre))
        return value

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
            if kinds[node] == ATTR:
                paths[node] = f"{paths[parent]}/@{names[node]}"
                continue
            prefix = "" if parent == 0 else paths[parent]
            seen: dict = {}
            for child in self.child_pres(parent):
                code, name = kinds[child], names[child]
                number = seen[code, name] = seen.get((code, name), 0) + 1
                if code == ELEM:
                    label = name
                elif code == TEXT:
                    label = "text()"
                elif code == COMMENT:
                    label = "comment()"
                else:
                    label = f"processing-instruction({name})"
                paths[child] = f"{prefix}/{label}[{number}]"
        return paths[pre]

    # ------------------------------------------------------------------
    # ids (the paper's deref_ids)
    # ------------------------------------------------------------------

    def id_pre_map(self) -> dict[str, int]:
        """Map from id-attribute value to the pre of its element, from the
        ``by_attribute[id_attribute]`` partition. Only the first id-named
        attribute of an element counts, and per the XML spec, if several
        elements claim the same id the first one in document order wins.
        Built once; a lost construction race rebuilds the same map."""
        mapping = self._id_pres
        if mapping is None:
            parent_pre, values = self.columns.parent_pre, self.columns.values
            mapping = {}
            last_element = -1
            for attr_pre in node_index(self).by_attribute.get(self.id_attribute, ()):
                element = parent_pre[attr_pre]
                if element != last_element:
                    last_element = element
                    mapping.setdefault(values[attr_pre], element)
            self._id_pres = mapping
        return mapping

    @property
    def id_map(self) -> dict[str, Node]:
        """:meth:`id_pre_map` with its elements as nodes."""
        return {key: self.node_at(pre) for key, pre in self.id_pre_map().items()}

    def element_by_id(self, key: str) -> Node | None:
        """Look up an element by the value of its id attribute."""
        pre = self.id_pre_map().get(key)
        return None if pre is None else self.node_at(pre)

    def deref_id_pres(self, value: str) -> set[int]:
        """The paper's ``deref_ids`` over pre numbers: the elements whose
        ids are the whitespace-separated tokens of ``value``."""
        mapping = self.id_pre_map()
        return {mapping[token] for token in value.split() if token in mapping}

    def deref_ids(self, value: str) -> set[Node]:
        """The paper's ``deref_ids``: whitespace-separated keys to nodes."""
        return {self.node_at(pre) for pre in self.deref_id_pres(value)}

    def id_tokens(self) -> list[frozenset[str]]:
        """Per pre, the whitespace tokens of the node's string value.

        Used by the inverse of the ``id`` pseudo-axis (Section 4): ``x``
        id-reaches ``y`` iff some token of ``strval(x)`` is the id of
        ``y``. Computed once per document and cached.
        """
        if self._id_tokens is None:
            strval = self.string_value_of_pre
            self._id_tokens = [frozenset(strval(pre).split()) for pre in range(len(self))]
        return self._id_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        root = self._root_element_pre
        tag = "?" if root is None else self.columns.names[root]
        return f"<Document root={tag!r} nodes={len(self)}>"
