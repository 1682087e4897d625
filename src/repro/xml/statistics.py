"""Document statistics: the shape numbers that drive evaluation cost.

The paper's complexity bounds are stated in |D| alone, but the constants
hide document shape: depth drives ancestor/descendant work, fanout drives
sibling/position work, text volume drives string-value comparisons. This
module computes those shape statistics — one O(|D|) walk of a boxed
tree, a read of the index for a column document — for the specializer's
``DocumentProfile``, the ``fragment_advisor`` example (to contextualize
measurements) and workload tests asserting generator shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.xml.columns import ColumnDocument
from repro.xml.document import Document, Node, NodeKind
from repro.xml.index import node_index


@dataclass
class DocumentStatistics:
    """Shape summary of one document."""

    total_nodes: int = 0
    elements: int = 0
    attributes: int = 0
    text_nodes: int = 0
    comments: int = 0
    processing_instructions: int = 0
    max_depth: int = 0
    max_fanout: int = 0
    total_text_bytes: int = 0
    identified_elements: int = 0
    tag_counts: Counter = field(default_factory=Counter)

    _parents: int = 0
    _child_sum: int = 0

    @property
    def mean_fanout(self) -> float:
        """Average element-child count over elements with children."""
        if not self._parents:
            return 0.0
        return self._child_sum / self._parents

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        common = ", ".join(f"{tag}×{count}" for tag, count in self.tag_counts.most_common(5))
        return (
            f"|dom| = {self.total_nodes} "
            f"({self.elements} elements, {self.attributes} attributes, "
            f"{self.text_nodes} text, {self.comments} comments, "
            f"{self.processing_instructions} PIs); "
            f"depth ≤ {self.max_depth}, fanout ≤ {self.max_fanout} "
            f"(mean {self.mean_fanout:.1f}); "
            f"{self.total_text_bytes} text chars; "
            f"{self.identified_elements} elements carry ids; "
            f"top tags: {common}"
        )


def document_statistics(document: Document) -> DocumentStatistics:
    """Shape statistics for a finalized document.

    Column documents are read off their index (identical numbers, zero
    nodes materialized — :func:`repro.service.specialize.document_profile`
    runs this on every parsed or loaded document before its first query,
    so a tree walk here would defeat the lazy path).
    """
    if isinstance(document, ColumnDocument):
        return _column_statistics(document)
    stats = DocumentStatistics()
    stats.total_nodes = len(document)

    def visit(node: Node, depth: int) -> None:
        if node.kind is NodeKind.ELEMENT:
            stats.elements += 1
            stats.tag_counts[node.name] += 1
            stats.max_depth = max(stats.max_depth, depth)
            if node.attribute_value(document.id_attribute) is not None:
                stats.identified_elements += 1
            element_children = sum(1 for c in node.children if c.is_element)
            if element_children:
                stats._parents += 1
                stats._child_sum += element_children
                stats.max_fanout = max(stats.max_fanout, element_children)
        elif node.kind is NodeKind.ATTRIBUTE:
            stats.attributes += 1
        elif node.kind is NodeKind.TEXT:
            stats.text_nodes += 1
            stats.total_text_bytes += len(node.value or "")
        elif node.kind is NodeKind.COMMENT:
            stats.comments += 1
        elif node.kind is NodeKind.PROCESSING_INSTRUCTION:
            stats.processing_instructions += 1
        for attr in node.attributes:
            visit(attr, depth + 1)
        for child in node.children:
            visit(child, depth + 1)

    visit(document.root, 0)
    return stats


def _column_statistics(document: ColumnDocument) -> DocumentStatistics:
    """The tree walk above, read off the document's index — field-for-
    field equal (asserted by the store property suite) and nothing per
    node: kind counts and ``tag_counts`` are partition lengths, depth
    and element-child fanout are gathered from the ``depth`` /
    ``parent_pre`` columns by the ``elements`` partition, text volume is
    the length of the document node's string value (every text node
    joined: the prefix structure the first string comparison builds
    anyway), identified elements come off ``by_attribute[id_attribute]``."""
    index = node_index(document)
    values = document.columns.values
    parent_of = index.parent_pre.__getitem__
    stats = DocumentStatistics(
        total_nodes=index.total,
        elements=len(index.elements),
        attributes=len(index.attributes),
        text_nodes=len(index.text_nodes),
        comments=len(index.comments),
        processing_instructions=len(index.pis),
        max_depth=max(map(index.depth.__getitem__, index.elements), default=0),
        total_text_bytes=len(document.string_value_of_pre(0)),
        tag_counts=Counter({tag: len(pres) for tag, pres in index.by_tag.items()}),
    )
    # Attributes of one element are consecutive in the partition, and
    # only the first id-named one counts (Node.attribute's rule).
    last_parent = -1
    for pre in index.by_attribute.get(document.id_attribute, ()):
        parent = parent_of(pre)
        if parent != last_parent:
            last_parent = parent
            stats.identified_elements += values[pre] is not None
    # Elements hang under elements or under the document node (pre 0),
    # whose children the tree walk does not count as fanout.
    fanout = Counter(map(parent_of, index.elements))
    fanout.pop(0, None)
    if fanout:
        stats._parents = len(fanout)
        stats._child_sum = sum(fanout.values())
        stats.max_fanout = max(fanout.values())
    return stats
