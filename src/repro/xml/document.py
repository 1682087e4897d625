"""XML document data model.

Implements the paper's data model (Section 2.1): an XML document is an
unranked, ordered, labeled tree. ``dom`` is the set of all nodes, exposed
here as :attr:`Document.nodes` in document order. The model supports six
node kinds (document, element, attribute, text, comment, processing
instruction); the paper treats all nodes as a single type, and every paper
example works on element-only documents, but a practical library needs the
full set.

Document order (``<doc`` in the paper) is materialized as a pre-order
numbering ``Node.pre`` assigned by :meth:`Document.finalize`. Following the
W3C data model, an element's attribute nodes come after the element and
before its children in document order. Each node also stores the size of
its subtree (``Node.size``, including the node itself and its attributes),
which lets the axis functions in :mod:`repro.axes` run in linear time:

* ``y`` is a descendant-or-self of ``x``  iff
  ``x.pre <= y.pre < x.pre + x.size`` (and ``y`` is not an attribute,
  for strict descendants),
* ``following(x)`` is exactly the pre-order suffix starting at
  ``x.pre + x.size``.

Documents are *frozen* after :meth:`Document.finalize`: evaluation caches
(string values, id maps, numbering) assume the tree no longer changes, and
mutation afterwards raises :class:`repro.errors.DocumentFrozenError`.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.errors import DocumentFrozenError, DocumentNotFinalizedError


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


# Node kinds that participate in the child/descendant/sibling structure.
# Attribute nodes have a parent but are not children of it.
_TREE_KINDS = frozenset(
    {
        NodeKind.ELEMENT,
        NodeKind.TEXT,
        NodeKind.COMMENT,
        NodeKind.PROCESSING_INSTRUCTION,
    }
)


class Node:
    """One node of an XML document tree.

    Attributes:
        document: owning :class:`Document`.
        kind: the :class:`NodeKind`.
        name: element tag name, attribute name, or PI target; ``None`` for
            document, text, and comment nodes.
        value: attribute value, text content, comment content, or PI data;
            ``None`` for document and element nodes.
        parent: parent node (``None`` for the document node). An attribute
            node's parent is its owning element, per the W3C data model.
        children: child nodes in document order (never attribute nodes).
        attributes: attribute nodes, in the order given in the source.
        pre: pre-order document-order index (document node is 0); assigned
            by :meth:`Document.finalize`.
        size: number of nodes in this node's subtree, including itself and
            all attribute nodes in the subtree.
        child_index: index of this node within ``parent.children``
            (``None`` for attributes and the document node).
    """

    __slots__ = (
        "document",
        "kind",
        "name",
        "value",
        "parent",
        "children",
        "attributes",
        "pre",
        "size",
        "child_index",
        "_string_value",
    )

    def __init__(
        self,
        document: "Document",
        kind: NodeKind,
        name: str | None = None,
        value: str | None = None,
    ):
        self.document = document
        self.kind = kind
        self.name = name
        self.value = value
        self.parent: Node | None = None
        self.children: list[Node] = []
        self.attributes: list[Node] = []
        self.pre: int = -1
        self.size: int = 1
        self.child_index: int | None = None
        self._string_value: str | None = None

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

    def iter_subtree(self, include_attributes: bool = False) -> Iterator["Node"]:
        """Yield this node and its subtree in document order."""
        yield self
        if include_attributes:
            yield from self.attributes
        for child in self.children:
            yield from child.iter_subtree(include_attributes=include_attributes)

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff ``self`` is a proper ancestor of ``other``.

        Uses the pre-order interval test, so the document must be finalized.
        """
        if other is self:
            return False
        return self.pre <= other.pre < self.pre + self.size

    def attribute(self, name: str) -> "Node | None":
        """Return the attribute node with the given name, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def attribute_value(self, name: str, default: str | None = None) -> str | None:
        """Return the value of the named attribute, or ``default``."""
        attr = self.attribute(name)
        return default if attr is None else attr.value

    # ------------------------------------------------------------------
    # String value (``strval`` in the paper)
    # ------------------------------------------------------------------

    @property
    def string_value(self) -> str:
        """The XPath string value of this node.

        For document and element nodes: the concatenation of the values of
        all text-node descendants in document order (the paper's "non-tag,
        non-comment strings between start and end tag"). For text,
        attribute, comment, and PI nodes: the node's own value. Cached
        (documents are frozen after finalize, so caching is safe).
        """
        if self._string_value is None:
            if self.kind in (NodeKind.DOCUMENT, NodeKind.ELEMENT):
                parts: list[str] = []
                self._collect_text(parts)
                self._string_value = "".join(parts)
            else:
                self._string_value = self.value or ""
        return self._string_value

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if child.kind is NodeKind.TEXT:
                parts.append(child.value or "")
            elif child.kind is NodeKind.ELEMENT:
                child._collect_text(parts)

    # ------------------------------------------------------------------
    # Identification and display
    # ------------------------------------------------------------------

    @property
    def xml_id(self) -> str | None:
        """The value of this element's id attribute, if any."""
        if not self.is_element:
            return None
        return self.attribute_value(self.document.id_attribute)

    def path(self) -> str:
        """A human-readable absolute path, e.g. ``/a[1]/b[2]``.

        On a boxed tree every step recounts its preceding siblings —
        O(depth x siblings) per call, quadratic over a wide answer. That
        is fine for the oracle; a column document renders from a per-pre
        memo instead (``ColumnDocument.path_of_pre``)."""
        if self.is_document:
            return "/"
        if self.is_attribute:
            assert self.parent is not None
            return f"{self.parent.path()}/@{self.name}"
        assert self.parent is not None
        same_name_before = sum(
            1
            for sibling in self.parent.children[: self.child_index]
            if sibling.kind is self.kind and sibling.name == self.name
        )
        if self.is_element:
            label = self.name
        elif self.is_text:
            label = "text()"
        elif self.is_comment:
            label = "comment()"
        else:
            label = f"processing-instruction({self.name})"
        prefix = "" if self.parent.is_document else self.parent.path()
        return f"{prefix}/{label}[{same_name_before + 1}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f" id={self.xml_id}" if self.is_element and self.xml_id else ""
        return f"<Node {self.kind.value} {self.name or self.value!r}{ident} pre={self.pre}>"


class Document:
    """A frozen XML document: the paper's ``dom`` plus derived indexes.

    Construct a boxed tree via :class:`repro.xml.builder.DocumentBuilder`
    (it calls :meth:`finalize`, after which the tree is immutable);
    :func:`repro.xml.parser.parse_document` returns the column subclass,
    :class:`repro.xml.columns.ColumnDocument`, born finalized.

    Attributes:
        root: the document node (parent of the root element). This is the
            node the paper's absolute paths start from: Example 4 shows
            ``/descendant::*`` selecting all nine elements of Figure 2,
            which requires a document node *above* the root element.
        root_element: the single element child of the document node.
        nodes: all nodes in document order (``dom``); ``nodes[i].pre == i``.
        id_attribute: the attribute name used for ``id()`` lookups
            (defaults to ``"id"``; the paper's Figure 2 keys all elements
            by an ``id`` attribute).
    """

    def __init__(self, id_attribute: str = "id"):
        self.id_attribute = id_attribute
        self.root = Node(self, NodeKind.DOCUMENT)
        self.root_element: Node | None = None
        self.nodes: list[Node] = []
        self._finalized = False
        self._id_map: dict[str, Node] | None = None
        self._id_tokens: list[tuple[Node, frozenset[str]]] | None = None
        self._number_column: list[float | None] | None = None

    # ------------------------------------------------------------------
    # Construction and finalization
    # ------------------------------------------------------------------

    def new_node(
        self, kind: NodeKind, name: str | None = None, value: str | None = None
    ) -> Node:
        """Create a detached node owned by this document."""
        if self._finalized:
            raise DocumentFrozenError("cannot create nodes on a finalized document")
        return Node(self, kind, name, value)

    def append_child(self, parent: Node, child: Node) -> Node:
        """Attach ``child`` as the last child of ``parent``."""
        if self._finalized:
            raise DocumentFrozenError("cannot modify a finalized document")
        if child.kind is NodeKind.ATTRIBUTE:
            raise ValueError("attributes must be attached with set_attribute_node")
        if child.kind not in _TREE_KINDS and child.kind is not NodeKind.ELEMENT:
            raise ValueError(f"cannot attach {child.kind.value} node as a child")
        child.parent = parent
        child.child_index = len(parent.children)
        parent.children.append(child)
        return child

    def set_attribute_node(self, element: Node, attribute: Node) -> Node:
        """Attach ``attribute`` to ``element``."""
        if self._finalized:
            raise DocumentFrozenError("cannot modify a finalized document")
        if not element.is_element or not attribute.is_attribute:
            raise ValueError("set_attribute_node needs an element and an attribute node")
        attribute.parent = element
        element.attributes.append(attribute)
        return attribute

    def finalize(self) -> "Document":
        """Freeze the document: assign pre-order numbers and subtree sizes.

        Idempotent. After this, the document is immutable and all axis
        machinery may be used.
        """
        if self._finalized:
            return self
        element_children = [c for c in self.root.children if c.is_element]
        if len(element_children) == 1:
            self.root_element = element_children[0]
        self.nodes = []
        self._number(self.root)
        self._finalized = True
        return self

    def _number(self, node: Node) -> None:
        node.pre = len(self.nodes)
        self.nodes.append(node)
        for attr in node.attributes:
            attr.pre = len(self.nodes)
            attr.size = 1
            self.nodes.append(attr)
        for child in node.children:
            self._number(child)
        node.size = len(self.nodes) - node.pre

    @property
    def is_finalized(self) -> bool:
        return self._finalized

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise DocumentNotFinalizedError(
                "document must be finalized before evaluation (call finalize())"
            )

    # ------------------------------------------------------------------
    # dom views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """``|dom|``: the number of nodes, including the document node."""
        self._require_finalized()
        return len(self.nodes)

    def elements(self) -> list[Node]:
        """All element nodes in document order."""
        self._require_finalized()
        return [n for n in self.nodes if n.is_element]

    def element_by_id(self, key: str) -> Node | None:
        """Look up an element by the value of its id attribute."""
        return self.id_map.get(key)

    @property
    def id_map(self) -> dict[str, Node]:
        """Map from id-attribute value to element node.

        Per the XML spec, if several elements claim the same id the first
        one in document order wins.
        """
        self._require_finalized()
        if self._id_map is None:
            mapping: dict[str, Node] = {}
            for node in self.nodes:
                if node.is_element:
                    key = node.attribute_value(self.id_attribute)
                    if key is not None and key not in mapping:
                        mapping[key] = node
            self._id_map = mapping
        return self._id_map

    def deref_ids(self, value: str) -> set[Node]:
        """The paper's ``deref_ids``: whitespace-separated keys to nodes."""
        mapping = self.id_map
        result: set[Node] = set()
        for token in value.split():
            node = mapping.get(token)
            if node is not None:
                result.add(node)
        return result

    def id_tokens(self) -> list[tuple[Node, frozenset[str]]]:
        """For every node, the whitespace tokens of its string value.

        Used by the inverse of the ``id`` pseudo-axis (Section 4): ``x``
        id-reaches ``y`` iff some token of ``strval(x)`` is the id of
        ``y``. Computed once per document and cached.
        """
        self._require_finalized()
        if self._id_tokens is None:
            self._id_tokens = [
                (node, frozenset(node.string_value.split())) for node in self.nodes
            ]
        return self._id_tokens

    # ------------------------------------------------------------------
    # Per-pre value accessors (what the pre-plane evaluators read)
    # ------------------------------------------------------------------

    def string_value_of_pre(self, pre: int) -> str:
        """``strval`` of the node with pre number ``pre`` — here the
        node's cached :attr:`Node.string_value`; a column document
        answers from its columns without boxing the node."""
        return self.nodes[pre].string_value

    def number_value_of_pre(self, pre: int) -> float:
        """``to_number(strval(pre))``, memoized per document: the regex
        runs once per node, not once per comparison. The column is
        filled idempotently, so racing evaluations are benign (a lost
        race recomputes the same float)."""
        column = self._number_column
        if column is None:
            column = self._number_column = [None] * len(self.nodes)
        value = column[pre]
        if value is None:
            # Deferred: repro.values sits above repro.xml.
            from repro.values.numbers import to_number

            value = column[pre] = to_number(self.string_value_of_pre(pre))
        return value

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

    def validate(self) -> None:
        """Check the structural invariants every axis computation relies
        on; raises ``AssertionError`` with a description on violation.

        Checked: positional pre-order numbering, subtree-size tiling
        (``size == 1 + Σ children.size + |attributes|``), parent/child
        back-links, attribute ownership, and child_index consistency.
        Useful after deserialization (:mod:`repro.xml.store`) and in
        property tests; O(|D|).
        """
        self._require_finalized()
        for index, node in enumerate(self.nodes):
            assert node.pre == index, f"pre-order broken at index {index}"
            expected_size = 1 + len(node.attributes) + sum(c.size for c in node.children)
            assert node.size == expected_size, f"size broken at {node!r}"
            for child_index, child in enumerate(node.children):
                assert child.parent is node, f"parent link broken at {child!r}"
                assert child.child_index == child_index, f"child_index broken at {child!r}"
                assert not child.is_attribute, f"attribute in children of {node!r}"
            for attr in node.attributes:
                assert attr.parent is node, f"attribute link broken at {attr!r}"
                assert attr.is_attribute, f"non-attribute in attributes of {node!r}"
        assert self.nodes[0] is self.root, "document node must be first"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.root_element.name if self.root_element is not None else "?"
        n = len(self.nodes) if self._finalized else "unfinalized"
        return f"<Document root={tag!r} nodes={n}>"
