"""From-scratch XML substrate: data model, parser, builder, serializer.

This package implements the data model of Section 2.1 of the paper: an
unranked, ordered, labeled tree ``dom`` with document order, string values,
and the ``id``/``deref_ids`` machinery. Nothing here depends on external
XML libraries; the parser is a self-contained well-formedness checker.

``dom`` *is* a set of flat columns in document order — kind, parent,
subtree size, depth, name, value per pre number — and every
way into the system produces them. Two forms sit over the columns:

* **Document** (:mod:`repro.xml.document`) — the columns
  (:mod:`repro.xml.columns`) plus :class:`~repro.xml.document.Node`
  objects created per pre on first access and cached (counted exactly as
  ``nodes_materialized`` on :data:`repro.stats.axis_kernel_stats`).
  :func:`~repro.xml.parser.parse_document` writes the columns in one
  pass over the source text, :class:`~repro.xml.builder.DocumentBuilder`
  and ``element()`` / ``text()`` append to the same columns,
  :func:`~repro.xml.snapshot.decode_snapshot` and
  :meth:`DocumentStore.load <repro.xml.store.DocumentStore.load>` read
  them back from a snapshot (strings still encoded, decoded per access);
  all finish through the :class:`~repro.xml.document.Document`
  constructor. String values, attribute
  lookup, id maps, paths, shape statistics and serialization are
  answered straight from the columns.
* **Packed index** (:mod:`repro.xml.index`) — the same int columns as
  memoryviews plus name/kind partitions as sorted pre arrays and the
  document's shape (text volume, element depth and fanout), made by
  one pass over the columns (or, for a loaded document, read out of the
  snapshot) when the document is constructed, and held by it as
  ``Document.index``. The fused axis kernels, the Core XPath sweeps
  and the table evaluators compute entirely in this plane; the binary
  snapshot format (:mod:`repro.xml.snapshot`) persists exactly these
  columns, partitions and shape.

The reference evaluators walk ``Node`` objects; everything else works on
pre numbers, and results are byte-identical either way.
"""

from repro.xml.columns import DocumentColumns
from repro.xml.document import Document, Node, NodeKind
from repro.xml.index import (
    NodeIndex,
    merge_intersection,
    merge_union,
    node_index,
)
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.builder import DocumentBuilder, element, text
from repro.xml.serializer import serialize, serialize_node
from repro.xml.snapshot import (
    decode_snapshot,
    encode_snapshot,
    snapshot_column_sizes,
)
from repro.xml.store import DocumentStore, DocumentStoreError

__all__ = [
    "Document",
    "DocumentColumns",
    "DocumentStore",
    "DocumentStoreError",
    "Node",
    "NodeIndex",
    "NodeKind",
    "decode_snapshot",
    "encode_snapshot",
    "merge_intersection",
    "merge_union",
    "node_index",
    "parse_document",
    "parse_fragment",
    "snapshot_column_sizes",
    "DocumentBuilder",
    "element",
    "text",
    "serialize",
    "serialize_node",
]
