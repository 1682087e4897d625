"""From-scratch XML substrate: data model, parser, builder, serializer.

This package implements the data model of Section 2.1 of the paper: an
unranked, ordered, labeled tree ``dom`` with document order, string values,
and the ``id``/``deref_ids`` machinery. Nothing here depends on external
XML libraries; the parser is a self-contained well-formedness checker.

``dom`` *is* a set of flat columns in document order — kind, parent,
subtree size, post rank, depth, name, value per pre number — and every
way into the system produces them:

* **Column document** (:mod:`repro.xml.columns`) — the parsed form and
  the decoded form. :func:`~repro.xml.parser.parse_document` writes the
  columns in one pass over the source text;
  :func:`~repro.xml.snapshot.decode_snapshot` and
  :meth:`DocumentStore.load <repro.xml.store.DocumentStore.load>` read
  them back from a snapshot (strings still encoded, decoded per access);
  all return a :class:`~repro.xml.columns.ColumnDocument` with no
  ``Node`` object in it. Boxed nodes are materialized per pre, on
  demand, memoized (counted exactly as ``nodes_materialized`` on
  :data:`repro.stats.axis_kernel_stats`); string values, attribute
  lookup, id maps, paths and shape statistics are answered straight
  from the columns.
* **Packed index** (:mod:`repro.xml.index`) — the same int columns as
  memoryviews plus name/kind partitions as sorted pre arrays. For a
  parsed document the partitions come from one pass over the columns,
  for a loaded one out of the snapshot, and the index is *adopted*
  (``index_adoptions``); a boxed tree's columns are read off its nodes
  first and the result counted as an index *build*.
  The fused axis kernels, the Core XPath sweeps and the table
  evaluators compute entirely in this plane; the binary snapshot format
  (:mod:`repro.xml.snapshot`) persists exactly these columns and
  partitions.
* **Boxed tree** (:mod:`repro.xml.document`) — linked ``Node`` objects
  with parent/children/attribute references, produced by
  :class:`~repro.xml.builder.DocumentBuilder`, ``element()`` / ``text()``
  and the workload generators. It is the oracle's input and the reference evaluators'
  home: everything works here; nothing is fastest here.

Results are byte-identical whichever form a document is in: a construct
the column accessors don't cover just materializes the nodes it touches —
the column path only ever removes work.
"""

from repro.xml.columns import ColumnDocument, DocumentColumns, LazyNode
from repro.xml.document import Document, Node, NodeKind
from repro.xml.index import (
    NodeIndex,
    adopt_node_index,
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
    "ColumnDocument",
    "Document",
    "DocumentColumns",
    "DocumentStore",
    "DocumentStoreError",
    "LazyNode",
    "Node",
    "NodeIndex",
    "NodeKind",
    "adopt_node_index",
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
