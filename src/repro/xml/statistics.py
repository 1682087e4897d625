"""Document statistics: the shape numbers that drive evaluation cost.

The paper's complexity bounds are stated in |D| alone, but the constants
hide document shape: depth drives ancestor/descendant work, fanout drives
sibling/position work, text volume drives string-value comparisons. This
module reads those shape statistics off the document's index — for the
``fragment_advisor`` example (to contextualize measurements) and
workload tests asserting generator shapes; admission's
``DocumentProfile`` (:mod:`repro.service.cost`) reads two of the same
index numbers, ``|dom|`` and fanout, directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.xml.document import Document


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
    """Shape statistics for a document, read off its index with no node
    created: kind counts and ``tag_counts`` are partition lengths; depth,
    element-child fanout and text volume are the index's
    :class:`~repro.xml.index.DocumentShape`, which the partition pass
    measured (and a snapshot persists), so no text is decoded. The one
    loop left runs over the ``by_attribute[id_attribute]`` partition to
    count identified elements."""
    index = document.index
    shape = index.shape
    values = document.columns.values
    parent_of = index.parent_pre.__getitem__
    stats = DocumentStatistics(
        total_nodes=index.total,
        elements=len(index.elements),
        attributes=len(index.attributes),
        text_nodes=len(index.text_nodes),
        comments=len(index.comments),
        processing_instructions=len(index.pis),
        max_depth=shape.max_depth,
        max_fanout=shape.max_fanout,
        total_text_bytes=shape.text_chars,
        tag_counts=Counter({tag: len(pres) for tag, pres in index.by_tag.items()}),
        _parents=shape.fanout_parents,
        _child_sum=shape.fanout_children,
    )
    # Attributes of one element are consecutive in the partition, and
    # only the first id-named one counts (Node.attribute's rule).
    last_parent = -1
    for pre in index.by_attribute.get(document.id_attribute, ()):
        parent = parent_of(pre)
        if parent != last_parent:
            last_parent = parent
            stats.identified_elements += values[pre] is not None
    return stats
