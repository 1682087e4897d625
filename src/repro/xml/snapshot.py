"""Binary snapshots of finalized documents (``RXSNAP03``).

A snapshot is a document in the shape a load will use it: the flat
columns :func:`~repro.xml.parser.parse_document` produces, the two
string columns as offset tables over UTF-8 blobs
(:class:`~repro.xml.columns.StringTable` decodes a string when it is
asked for), and the index's partitions as the packed array and span
directory it holds anyway (:attr:`NodeIndex.partitions
<repro.xml.index.NodeIndex>`). A parsed document is written as it
stands; a load reads the int sections with ``frombytes``, points
``memoryview`` slices at the partition array and adopts the index
(``index_adoptions``) — no parse, no index build, no partition pass, no
string decoded, no node boxed. :class:`~repro.xml.store.DocumentStore`
keeps one such file per document;
:class:`~repro.service.scheduler.ProcessScheduler` ships them to workers.

Layout (all integers little-endian)::

    magic      8 bytes            b"RXSNAP03"
    version    u32                3
    n          u64                node count (>= 1)
    name       u32 length + UTF-8 the store's name for the document
                                  (empty outside a store)
    id_attr    u32 length + UTF-8
    kinds      n bytes            one code per node: D E A T C P
    parent_pre, size, post, depth   n x i64 each
    names, values                 one string table each (below)
    packed     u64 p + p x i64    every partition, concatenated
    key counts u32 T, u32 A, u32 P  tags, attribute names, PI targets
    span ends  (6 + T + A + P) x i64  where each partition ends in
                                  ``packed`` (it starts where its
                                  predecessor ends): the six kind
                                  partitions, then one per key
    keys       string table of T + A + P entries
    crc        u32                zlib.crc32 over every preceding byte

A string table of ``k`` entries is ``(k + 1) x i64`` offsets, a ``u64``
blob length and the blob; entry ``i`` is ``blob[o[i]:o[i+1]]`` and a
``None`` entry stores ``~offset`` (see ``StringTable``).

**What is checked, and when.** The one reader, :func:`read_snapshot`,
verifies the envelope (magic, version, CRC-32 over the whole blob) and
every section's bounds: a section running past the blob, a table not
ending where its blob does, a span directory not non-decreasing from 0
to ``p``, trailing bytes. :func:`check_snapshot` is the full ``O(|D|)``
structural check on top of it: the columns are a pre-order numbering of
a legal tree (parents precede children, attributes sit contiguously
behind their element, exact ``size`` / ``depth``, every subtree one
nested interval, ``post = pre - depth + size - 1``), the string tables
are monotone and decode, and the persisted partitions are exactly what a
partition pass over the columns yields. :func:`decode_snapshot` — for
bytes a caller hands in: the process scheduler's payloads, the CLI,
anything that crossed a boundary — always runs it, because a CRC says
the bytes are the ones that were written, not that what was written is a
document. :meth:`DocumentStore.load <repro.xml.store.DocumentStore.load>`
(:func:`decode_stored`) does not: every file under ``<store>.d/`` was
produced by :func:`encode_snapshot` from a finalized document, whose
columns and index are legal by construction, so there the checksum, the
header (which must name the document asked for) and the reader's bounds
are the whole argument. ``structural_checks`` on
:data:`repro.stats.store_stats` counts the full check's runs.

Every failure raises :class:`~repro.errors.SnapshotCorruptError` (a
:class:`~repro.errors.DocumentStoreError`) with the byte offset at which
reading stopped when one is known — ``struct``, ``zlib`` and codec
internals never reach a caller. A blob of the previous format
(``RXSNAP02``) is refused the same way, naming the remedy.
"""

from __future__ import annotations

import struct
import sys
import weakref
import zlib
from array import array
from operator import ne

from repro.errors import DocumentStoreError, SnapshotCorruptError
from repro.stats import store_stats
from repro.xml.columns import ColumnDocument, DocumentColumns, StringTable
from repro.xml.document import Document
from repro.xml.index import KIND_PARTITIONS, NodeIndex, node_index

SNAPSHOT_MAGIC = b"RXSNAP03"
SNAPSHOT_VERSION = 3

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_KEY_COUNTS = struct.Struct("<III")
#: magic, version, node count: what precedes the name.
_FIXED_HEADER = len(SNAPSHOT_MAGIC) + 4 + 8


def _corrupt(what: str, offset: int | None = None) -> SnapshotCorruptError:
    return SnapshotCorruptError(f"corrupt snapshot: {what}", offset=offset)


def _column_bytes(column: array) -> bytes:
    """Little-endian bytes of an ``array('q')`` (host-order safe)."""
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere here
        column = array("q", column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(raw) -> array:
    column = array("q")
    column.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover
        column.byteswap()
    return column


def _sized(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _string_table(strings) -> bytes:
    offsets, blob = StringTable.pack(strings)
    return _column_bytes(offsets) + _U64.pack(len(blob)) + blob


def encode_snapshot(document: Document, name: str = "") -> bytes:
    """Serialize a finalized document to the binary snapshot format,
    ``name`` (what a store files it under) in the header.

    A :class:`~repro.xml.columns.ColumnDocument` is written from its
    columns and its adopted index as they stand (no node is boxed, no
    partition pass); the columns of a boxed tree are read off its nodes
    and partitioned first."""
    document._require_finalized()
    if isinstance(document, ColumnDocument):
        columns = document.columns
        partitions = node_index(document).partitions
    else:
        columns = DocumentColumns.from_document(document)
        partitions = NodeIndex._build_partitions(columns.kinds, columns.names)
    packed, span_ends, tags, attributes, pi_targets = partitions
    payload = b"".join(
        (
            SNAPSHOT_MAGIC,
            _U32.pack(SNAPSHOT_VERSION),
            _U64.pack(len(columns)),
            _sized(name),
            _sized(document.id_attribute),
            bytes(columns.kinds),
            _column_bytes(columns.parent_pre),
            _column_bytes(columns.size),
            _column_bytes(columns.post),
            _column_bytes(columns.depth),
            _string_table(columns.names),
            _string_table(columns.values),
            _U64.pack(len(packed)),
            _column_bytes(packed),
            _KEY_COUNTS.pack(len(tags), len(attributes), len(pi_targets)),
            _column_bytes(span_ends),
            _string_table(tags + attributes + pi_targets),
        )
    )
    return payload + _U32.pack(zlib.crc32(payload))


class _Reader:
    """Bounds-checked cursor over a snapshot blob; hands out zero-copy
    views, so each section is copied once, by whoever adopts it."""

    __slots__ = ("blob", "offset")

    def __init__(self, blob):
        self.blob = memoryview(blob)
        self.offset = 0

    def take(self, count: int, what: str) -> memoryview:
        end = self.offset + count
        if end > len(self.blob):
            raise _corrupt(f"truncated {what}", self.offset)
        raw = self.blob[self.offset : end]
        self.offset = end
        return raw

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def ints(self, count: int, what: str) -> array:
        return _column_from_bytes(self.take(count * 8, what))

    def utf8(self, count: int, what: str) -> str:
        raw = self.take(count, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as error:
            raise _corrupt(f"{what} not UTF-8", self.offset - count) from error

    def string_table(self, count: int, what: str) -> StringTable:
        offsets = self.ints(count + 1, f"{what} offset table")
        blob = self.take(self.u64(f"{what} blob length"), f"{what} blob")
        if offsets[count] != len(blob):
            raise _corrupt(
                f"{what} offsets do not end at their blob", self.offset - len(blob)
            )
        return StringTable(offsets, bytes(blob))

    def header(self) -> int:
        """Magic, version, node count — the one place that decides what a
        snapshot of this format starts with. Returns the node count."""
        magic = self.take(len(SNAPSHOT_MAGIC), "header")
        if magic == b"RXSNAP02":
            raise SnapshotCorruptError(
                "snapshot format v2 (RXSNAP02) is no longer read: load the "
                "document with a checkout at or before PR 22 and save it again "
                "with this one",
                offset=0,
            )
        if magic != SNAPSHOT_MAGIC:
            raise _corrupt("bad magic", 0)
        version = self.u32("header")
        if version != SNAPSHOT_VERSION:
            raise SnapshotCorruptError(
                f"unsupported snapshot version {version}", offset=len(SNAPSHOT_MAGIC)
            )
        total = self.u64("header")
        if total < 1:
            raise _corrupt("empty node table", len(SNAPSHOT_MAGIC) + 4)
        return total


def snapshot_name(read) -> str:
    """The name in a snapshot's header, through ``read(count) -> bytes``
    (an open file's, say): what lists a store without reading its blobs.
    Header fields only — the checksum is :func:`decode_stored`'s to
    verify."""
    reader = _Reader(read(_FIXED_HEADER + 4))
    reader.header()
    length = reader.u32("name length")
    return _Reader(read(length)).utf8(length, "name")


def read_snapshot(blob) -> tuple[str, str, DocumentColumns, tuple]:
    """The reader: ``(name, id_attribute, columns, partitions)`` of a
    blob — envelope (magic, version, CRC) and section bounds verified,
    every section adopted in the shape it will be used
    (``partitions`` is :attr:`NodeIndex.partitions
    <repro.xml.index.NodeIndex>`), no node walked. Whether the sections
    describe a document is :func:`check_snapshot`'s question."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise DocumentStoreError("snapshot must be a bytes-like object")
    if len(blob) < _FIXED_HEADER + 4 + 4 + 4:
        raise _corrupt("truncated header", len(blob))
    reader = _Reader(memoryview(blob)[:-4])
    total = reader.header()  # before the CRC: a foreign format is named, not "corrupt"
    if zlib.crc32(reader.blob) != _U32.unpack(blob[-4:])[0]:
        raise _corrupt("checksum mismatch", len(blob) - 4)
    name = reader.utf8(reader.u32("name length"), "name")
    id_attribute = reader.utf8(reader.u32("id attribute length"), "id attribute")
    columns = DocumentColumns(
        kinds=bytes(reader.take(total, "kind column")),
        parent_pre=reader.ints(total, "parent column"),
        size=reader.ints(total, "size column"),
        post=reader.ints(total, "post column"),
        depth=reader.ints(total, "depth column"),
        names=reader.string_table(total, "name"),
        values=reader.string_table(total, "value"),
    )
    packed = reader.ints(reader.u64("partition array length"), "partition array")
    tags, attributes, pi_targets = _KEY_COUNTS.unpack(reader.take(12, "key counts"))
    keyed = tags + attributes + pi_targets
    span_ends = reader.ints(len(KIND_PARTITIONS) + keyed, "span directory")
    spans = span_ends.tolist()
    if spans[0] < 0 or spans[-1] != len(packed) or spans != sorted(spans):
        raise _corrupt(
            "span directory does not tile the partition array",
            reader.offset - 8 * len(spans),
        )
    keys = list(reader.string_table(keyed, "partition key"))
    if reader.offset != len(reader.blob):
        raise _corrupt("trailing bytes", reader.offset)
    split = tags + attributes
    partitions = (packed, span_ends, keys[:tags], keys[tags:split], keys[split:])
    return name, id_attribute, columns, partitions


def _first(flags) -> int:
    return next(i for i, flag in enumerate(flags) if flag)


def _validate_columns(kinds, parent_pre, size, post, depth, names) -> None:
    """Reject columns that do not describe a legal finalized document.

    The per-node loop is written for speed: byte compares instead of
    kind-enum lookups, and attribute contiguity checked against the
    *predecessor* row (attribute ``i`` is contiguous with its element
    iff ``i-1`` is that element or a sibling attribute of it —
    inductively equivalent to ``i == parent + seen + 1`` without a
    per-element counter)."""
    total = len(kinds)
    doc, elem, attr = ord("D"), ord("E"), ord("A")
    # The loops below gather by parent index; lists hand back their
    # boxed ints directly where arrays would box one per access.
    parent_pre, size, post, depth = (
        column.tolist() for column in (parent_pre, size, post, depth)
    )
    if kinds[0] != doc or parent_pre[0] != -1 or depth[0] != 0 or names[0] is not None:
        raise _corrupt("malformed document node")
    ends = [i + s for i, s in enumerate(size)]
    for i in range(1, total):
        code = kinds[i]
        parent = parent_pre[i]
        if parent < 0 or parent >= i:
            raise _corrupt(f"node {i} has invalid parent {parent}")
        if depth[i] != depth[parent] + 1:
            raise _corrupt(f"depth broken at node {i}")
        # Sizes recomputed from parent_pre (below) agree with a table
        # whose subtrees interleave; only nesting makes the numbering
        # pre-order: with exact sizes and parent < i, every subtree
        # ending inside its parent's forces each onto one contiguous
        # interval [i, i + size[i]).
        if ends[i] > ends[parent]:
            raise _corrupt(f"subtree of node {i} leaves its parent's interval")
        owner = kinds[parent]
        if code == attr:
            if owner != elem:
                raise _corrupt(f"attribute {i} owned by a non-element")
            # Attributes are numbered immediately after their element,
            # before any of its children — the contiguity every axis
            # kernel's interval arithmetic relies on.
            if i != parent + 1 and not (
                kinds[i - 1] == attr and parent_pre[i - 1] == parent
            ):
                raise _corrupt(f"attribute {i} not contiguous with element")
        elif code not in b"ETCP":
            if code == doc:
                raise _corrupt("document node not first")
            raise _corrupt(f"unknown node kind {chr(code)!r}")
        elif owner != elem and owner != doc:
            raise _corrupt(f"node {i} attached under a leaf")
        # Elements, attributes and PIs are named; text and comments are not.
        if (names[i] is None) == (code in b"EAP"):
            raise _corrupt(f"bad name column at node {i}")
    # Exact subtree sizes, bottom-up (walking pre-order backwards sees
    # every child before its parent's total). Whole-column compares from
    # here on, at C speed; _first only runs to blame.
    recomputed = [1] * total
    for i in range(total - 1, 0, -1):
        recomputed[parent_pre[i]] += recomputed[i]
    if size != recomputed:
        raise _corrupt(f"size broken at node {_first(map(ne, size, recomputed))}")
    # Closed-form post identity — pins the whole column exactly.
    expected_post = [i - d + s - 1 for i, (d, s) in enumerate(zip(depth, size))]
    if post != expected_post:
        raise _corrupt(f"post broken at node {_first(map(ne, post, expected_post))}")


def check_snapshot(columns: DocumentColumns, partitions: tuple) -> None:
    """The full ``O(|D|)`` structural check (see the module docstring):
    legal columns, sound string tables, and persisted partitions equal
    to a fresh partition pass over the columns. It has to decode every
    string, and leaves them in ``columns`` as lists for the document."""
    store_stats.tick("structural_checks")
    names = columns.names = columns.names.checked("name")
    columns.values = columns.values.checked("value")
    _validate_columns(
        columns.kinds, columns.parent_pre, columns.size, columns.post, columns.depth, names
    )
    if partitions != NodeIndex._build_partitions(columns.kinds, names):
        raise _corrupt("persisted partitions disagree with the columns")


def decode_snapshot(blob: bytes, lazy: bool = True) -> ColumnDocument:
    """Rebuild a finalized document (index adopted) from snapshot bytes
    of any origin: read, fully checked, adopted. **Zero**
    :class:`~repro.xml.document.Node` objects exist until a caller
    touches one. ``lazy`` is accepted and selects nothing.

    Raises :class:`~repro.errors.SnapshotCorruptError` on any corruption:
    truncation, bad magic, wrong version, checksum mismatch, sections
    that disagree about their sizes, node tables that are not a legal
    pre-order numbering, partitions that are not the columns'.
    """
    _, id_attribute, columns, partitions = read_snapshot(blob)
    check_snapshot(columns, partitions)
    return ColumnDocument.from_columns(columns, id_attribute, partitions)


def decode_stored(blob: bytes, name: str) -> ColumnDocument:
    """:func:`decode_snapshot` for a file a
    :class:`~repro.xml.store.DocumentStore` wrote itself: read and
    adopted, the full check left out (the module docstring says why),
    the header required to name the document asked for."""
    stored_name, id_attribute, columns, partitions = read_snapshot(blob)
    if stored_name != name:
        raise _corrupt(f"file for {name!r} holds {stored_name!r}", _FIXED_HEADER)
    return ColumnDocument.from_columns(columns, id_attribute, partitions)


def snapshot_column_sizes(blob: bytes) -> dict[str, int]:
    """Storage accounting for a snapshot blob (``repro-xpath store
    list``), through the reader alone: the bytes the blob occupies as
    stored, the flat-column payload a load keeps resident (one kind byte
    + four 8-byte ints per node, plus the raw UTF-8 name/value blobs)
    and the packed partition array beside it — Python object overhead
    excluded on purpose; a column document has no per-node objects to
    count."""
    _, _, columns, partitions = read_snapshot(blob)
    name_bytes, value_bytes = len(columns.names.blob), len(columns.values.blob)
    return {
        "nodes": len(columns),
        "disk_bytes": len(blob),
        "column_bytes": len(columns) * 33 + name_bytes + value_bytes,
        "name_bytes": name_bytes,
        "value_bytes": value_bytes,
        "partition_bytes": 8 * len(partitions[0]),
    }


# ----------------------------------------------------------------------
# Parent-side blob cache
# ----------------------------------------------------------------------

#: Shipping the same document to many worker shards must not re-encode
#: it per shard; weak keys keep the cache from pinning documents (same
#: contract as the index cache).
_SNAPSHOT_CACHE: "weakref.WeakKeyDictionary[Document, bytes]" = (
    weakref.WeakKeyDictionary()
)


def cached_snapshot(document: Document) -> bytes:
    """:func:`encode_snapshot`, weak-cached per document."""
    blob = _SNAPSHOT_CACHE.get(document)
    if blob is None:
        blob = encode_snapshot(document)
        _SNAPSHOT_CACHE[document] = blob
    return blob
