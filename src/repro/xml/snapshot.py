"""Versioned binary snapshots of finalized documents (store format v2).

A snapshot is the flat-column :class:`~repro.xml.index.NodeIndex`
representation made durable: the per-node ``parent_pre`` / ``size`` /
``post`` / ``depth`` columns as little-endian signed 8-byte ints, one
kind-code byte per node, and the two string columns (names, values) as
length tables plus UTF-8 blobs — the very columns
:func:`~repro.xml.parser.parse_document` produces, so a parsed document
is written as it stands, without boxing a node. Decoding skips both the
XML parse *and* the index build — the decoded
:class:`~repro.xml.columns.ColumnDocument` arrives with its index
pre-seeded in the process cache
(:func:`~repro.xml.index.adopt_node_index`, counted as
``index_adoptions``) and no node boxed.
This is what :class:`~repro.xml.store.DocumentStore` persists per
document in format v2 and what
:class:`~repro.service.scheduler.ProcessScheduler` ships to workers
instead of serialized markup.

Layout (all integers little-endian)::

    magic      8 bytes   b"RXSNAP02"
    version    u32       2
    n          u64       node count (>= 1)
    id_len     u32       byte length of the UTF-8 id_attribute
    id_attr    id_len bytes
    kinds      n bytes   one code per node: D E A T C P
    parent_pre n × i64
    size       n × i64
    post       n × i64
    depth      n × i64
    names      n × i64 lengths (-1 = None) + u64 blob_len + blob
    values     n × i64 lengths (-1 = None) + u64 blob_len + blob
    crc        u32       zlib.crc32 over every preceding byte

Corruption is caught twice: the CRC rejects bit rot, and an ``O(|D|)``
structural validation (parent ordering, attribute contiguity, exact
``size``/``depth`` recomputation, and the closed-form post identity
``post = pre - depth + size - 1``) rejects well-formed-looking blobs
that do not describe a legal document. Every failure raises
:class:`~repro.errors.SnapshotCorruptError` (a
:class:`~repro.errors.DocumentStoreError`), carrying the byte offset at
which decoding stopped when one is known — ``struct``/checksum
internals never leak to callers.
"""

from __future__ import annotations

import struct
import sys
import weakref
import zlib
from array import array

from repro.errors import DocumentStoreError, SnapshotCorruptError
from repro.xml.columns import ColumnDocument, DocumentColumns
from repro.xml.document import Document

SNAPSHOT_MAGIC = b"RXSNAP02"
SNAPSHOT_VERSION = 2

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _column_bytes(values) -> bytes:
    """Little-endian i64 bytes of an int sequence (host-order safe)."""
    column = values if isinstance(values, array) else array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere here
        column = array("q", column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(raw: bytes) -> array:
    column = array("q")
    column.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover
        column.byteswap()
    return column


def _string_column(strings) -> bytes:
    """Length table (-1 for None) + u64 blob length + UTF-8 blob."""
    present = [text for text in strings if text is not None]
    blob = "".join(present).encode("utf-8")
    if len(blob) == sum(map(len, present)):  # pure ASCII: one byte per char
        lengths = [-1 if text is None else len(text) for text in strings]
    else:
        lengths = [-1 if text is None else len(text.encode("utf-8")) for text in strings]
    return _column_bytes(lengths) + _U64.pack(len(blob)) + blob


def encode_snapshot(document: Document) -> bytes:
    """Serialize a finalized document to the v2 binary snapshot format.

    A :class:`~repro.xml.columns.ColumnDocument` is written from its
    columns as they stand (no node is boxed); the columns of a boxed tree
    are read off its nodes first."""
    document._require_finalized()
    if isinstance(document, ColumnDocument):
        columns = document.columns
    else:
        columns = DocumentColumns.from_document(document)
    id_attr = document.id_attribute.encode("utf-8")
    parts = [
        SNAPSHOT_MAGIC,
        _U32.pack(SNAPSHOT_VERSION),
        _U64.pack(len(columns)),
        _U32.pack(len(id_attr)),
        id_attr,
        bytes(columns.kinds),
        _column_bytes(columns.parent_pre),
        _column_bytes(columns.size),
        _column_bytes(columns.post),
        _column_bytes(columns.depth),
        _string_column(columns.names),
        _string_column(columns.values),
    ]
    payload = b"".join(parts)
    return payload + _U32.pack(zlib.crc32(payload))


class _Reader:
    """Bounds-checked cursor over a snapshot blob."""

    __slots__ = ("blob", "offset")

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if count < 0 or end > len(self.blob):
            raise SnapshotCorruptError(
                f"corrupt snapshot: truncated {what}", offset=self.offset
            )
        raw = self.blob[self.offset : end]
        self.offset = end
        return raw

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]


def _read_string_column(reader: _Reader, total: int, what: str) -> list[str | None]:
    lengths = _column_from_bytes(reader.take(total * 8, f"{what} length table"))
    blob_len = reader.u64(f"{what} blob length")
    # min() guards the sum identity: once no entry is below -1, the
    # positive total is sum + count(-1), both C-speed over the array.
    if min(lengths, default=0) < -1 or sum(lengths) + lengths.count(-1) != blob_len:
        raise SnapshotCorruptError(
            f"corrupt snapshot: {what} column lengths do not match blob",
            offset=reader.offset,
        )
    blob = reader.take(blob_len, f"{what} blob")
    strings: list[str | None] = []
    append = strings.append
    offset = 0
    try:
        text = blob.decode("utf-8")
        if len(text) == len(blob):
            # Pure-ASCII blob (any multi-byte char would shrink the
            # text): byte offsets are character offsets, so every string
            # is a plain slice of the one decoded text — no per-string
            # decode calls on the hot path.
            for length in lengths:
                if length < 0:
                    append(None)
                else:
                    append(text[offset : offset + length])
                    offset += length
        else:
            # Non-ASCII: slice the bytes and decode per string, so a
            # length table that splits a multi-byte sequence still fails.
            for length in lengths:
                if length < 0:
                    append(None)
                else:
                    append(blob[offset : offset + length].decode("utf-8"))
                    offset += length
    except UnicodeDecodeError as error:
        raise SnapshotCorruptError(f"corrupt snapshot: {what} not UTF-8") from error
    return strings


def _validate_columns(kinds, parent_pre, size, post, depth, names) -> None:
    """O(|D|) structural validation: reject blobs that pass the CRC but
    do not describe a legal finalized document.

    This runs on every decode, so the per-node loop is written for
    speed: direct byte compares instead of kind-enum
    lookups, and attribute contiguity checked against the *predecessor*
    row (attribute ``i`` is contiguous with its element iff ``i-1`` is
    that element or a sibling attribute of it — inductively equivalent
    to ``i == parent + seen + 1`` without a per-element counter)."""
    total = len(kinds)
    doc, elem, attr, txt, comment, pi = (
        ord("D"), ord("E"), ord("A"), ord("T"), ord("C"), ord("P")
    )
    # The loops below gather by parent index; lists hand back their
    # boxed ints directly where arrays would box one per access.
    parent_pre = parent_pre.tolist() if isinstance(parent_pre, array) else parent_pre
    depth = depth.tolist() if isinstance(depth, array) else depth
    if kinds[0] != doc or parent_pre[0] != -1 or depth[0] != 0:
        raise SnapshotCorruptError("corrupt snapshot: malformed document node")
    if names[0] is not None:
        raise SnapshotCorruptError("corrupt snapshot: bad name column at node 0")
    for i in range(1, total):
        code = kinds[i]
        parent = parent_pre[i]
        if parent < 0 or parent >= i:
            raise SnapshotCorruptError(f"corrupt snapshot: node {i} has invalid parent {parent}")
        if depth[i] != depth[parent] + 1:
            raise SnapshotCorruptError(f"corrupt snapshot: depth broken at node {i}")
        owner = kinds[parent]
        if code == attr:
            if owner != elem:
                raise SnapshotCorruptError(f"corrupt snapshot: attribute {i} owned by a non-element")
            # Attributes are numbered immediately after their element,
            # before any of its children — the contiguity every axis
            # kernel's interval arithmetic relies on.
            if i != parent + 1 and not (
                kinds[i - 1] == attr and parent_pre[i - 1] == parent
            ):
                raise SnapshotCorruptError(f"corrupt snapshot: attribute {i} not contiguous with element")
            if names[i] is None:
                raise SnapshotCorruptError(
                    f"corrupt snapshot: bad name column at node {i}"
                )
        else:
            if owner != elem and owner != doc:
                raise SnapshotCorruptError(f"corrupt snapshot: node {i} attached under a leaf")
            if code == elem or code == pi:
                if names[i] is None:
                    raise SnapshotCorruptError(
                        f"corrupt snapshot: bad name column at node {i}"
                    )
            elif code == txt or code == comment:
                if names[i] is not None:
                    raise SnapshotCorruptError(
                        f"corrupt snapshot: bad name column at node {i}"
                    )
            elif code == doc:
                raise SnapshotCorruptError("corrupt snapshot: document node not first")
            else:
                raise SnapshotCorruptError(f"corrupt snapshot: unknown node kind {chr(code)!r}")
    # Exact subtree sizes, bottom-up (children precede nothing: walking
    # pre-order backwards sees every child before its parent total).
    size = size.tolist() if isinstance(size, array) else list(size)
    recomputed = [1] * total
    for i in range(total - 1, 0, -1):
        recomputed[parent_pre[i]] += recomputed[i]
    if size != recomputed:  # one C-speed compare; loop only to blame
        for i in range(total):
            if size[i] != recomputed[i]:
                raise SnapshotCorruptError(f"corrupt snapshot: size broken at node {i}")
    # Closed-form post identity — pins the whole column exactly.
    expected_post = [
        i - d + s - 1 for i, (d, s) in enumerate(zip(depth, size))
    ]
    post = post.tolist() if isinstance(post, array) else list(post)
    if post != expected_post:
        for i in range(total):
            if post[i] != expected_post[i]:
                raise SnapshotCorruptError(f"corrupt snapshot: post broken at node {i}")


def _open_envelope(blob) -> tuple[_Reader, int]:
    """Verify a blob's envelope — bytes-like, header present, magic,
    CRC, version, node count — and return a reader positioned after the
    node count (over the payload, CRC stripped) together with that
    count. The one place that decides what a corrupt envelope is."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise DocumentStoreError("snapshot must be a bytes-like object")
    blob = bytes(blob)
    if len(blob) < len(SNAPSHOT_MAGIC) + 4 + 8 + 4 + 4:
        raise SnapshotCorruptError(
            "corrupt snapshot: truncated header", offset=len(blob)
        )
    if blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError("corrupt snapshot: bad magic", offset=0)
    declared_crc = _U32.unpack(blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != declared_crc:
        raise SnapshotCorruptError(
            "corrupt snapshot: checksum mismatch", offset=len(blob) - 4
        )
    reader = _Reader(blob[:-4])
    reader.take(len(SNAPSHOT_MAGIC), "magic")
    version = reader.u32("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"unsupported snapshot version {version}", offset=len(SNAPSHOT_MAGIC)
        )
    total = reader.u64("node count")
    if total < 1:
        raise SnapshotCorruptError(
            "corrupt snapshot: empty node table", offset=len(SNAPSHOT_MAGIC) + 4
        )
    return reader, total


def decode_snapshot(blob: bytes, lazy: bool = True) -> ColumnDocument:
    """Rebuild a finalized document (index pre-seeded) from a snapshot.

    The decode stops at the columns: a
    :class:`~repro.xml.columns.ColumnDocument` is returned, its index
    partitions built straight from the kind/name columns, and **zero**
    :class:`~repro.xml.document.Node` objects exist until a caller
    touches one. ``lazy`` is accepted and selects nothing.

    Raises :class:`~repro.errors.SnapshotCorruptError` on any corruption:
    truncation, bad magic, wrong version, checksum mismatch, column
    lengths that disagree, or structurally illegal node tables.
    """
    reader, total = _open_envelope(blob)
    try:
        id_attribute = reader.take(reader.u32("id length"), "id attribute").decode(
            "utf-8"
        )
    except UnicodeDecodeError as error:
        raise SnapshotCorruptError(
            "corrupt snapshot: id attribute not UTF-8"
        ) from error
    kinds = reader.take(total, "kind column")
    parent_pre = _column_from_bytes(reader.take(total * 8, "parent column"))
    size = _column_from_bytes(reader.take(total * 8, "size column"))
    post = _column_from_bytes(reader.take(total * 8, "post column"))
    depth = _column_from_bytes(reader.take(total * 8, "depth column"))
    names = _read_string_column(reader, total, "name")
    values = _read_string_column(reader, total, "value")
    if reader.offset != len(reader.blob):
        raise SnapshotCorruptError(
            "corrupt snapshot: trailing bytes", offset=reader.offset
        )
    _validate_columns(kinds, parent_pre, size, post, depth, names)
    columns = DocumentColumns(
        kinds=kinds,
        parent_pre=parent_pre,
        size=size,
        post=post,
        depth=depth,
        names=names,
        values=values,
    )
    return ColumnDocument.from_columns(columns, id_attribute)


def snapshot_column_sizes(blob: bytes) -> dict[str, int]:
    """Storage accounting for a snapshot blob, without decoding it.

    Returns ``{"nodes", "disk_bytes", "column_bytes", "name_bytes",
    "value_bytes"}``: the bytes the blob occupies as stored versus the
    flat-column payload a load keeps resident (one kind byte + four
    8-byte ints per node, plus the raw UTF-8 name/value blobs — Python
    object overhead excluded on purpose; a column document has no
    per-node objects to count). Only the envelope (magic, version, CRC,
    lengths) is verified here, not the structure — this backs
    ``repro-xpath store list``, which must stay cheap per entry.
    """
    reader, total = _open_envelope(blob)
    reader.take(reader.u32("id length"), "id attribute")
    reader.take(total, "kind column")
    reader.take(total * 32, "int columns")
    string_bytes = []
    for what in ("name", "value"):
        reader.take(total * 8, f"{what} length table")
        blob_len = reader.u64(f"{what} blob length")
        reader.take(blob_len, f"{what} blob")
        string_bytes.append(blob_len)
    name_bytes, value_bytes = string_bytes
    return {
        "nodes": total,
        "disk_bytes": len(reader.blob) + 4,
        "column_bytes": total * 33 + name_bytes + value_bytes,
        "name_bytes": name_bytes,
        "value_bytes": value_bytes,
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
