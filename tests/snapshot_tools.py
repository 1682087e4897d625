"""The ``RXSNAP03`` layout spelled out a second time, for the tests.

``assemble_snapshot`` builds a CRC-valid blob from arbitrary (also
illegal) tables without going through ``encode_snapshot``;
``snapshot_layout`` maps a blob to its sections so a test can aim a
corruption at one of them. Both follow the layout table in
``repro/xml/snapshot.py``'s docstring, not its code.
"""

from __future__ import annotations

import struct
import zlib
from array import array

from repro.xml.index import NodeIndex

MAGIC = b"RXSNAP03"
VERSION = 3


def reseal(payload: bytes) -> bytes:
    """Append a fresh, *valid* CRC — for corruptions that must get past
    the checksum and be caught by what lies behind it."""
    return bytes(payload) + struct.pack("<I", zlib.crc32(payload))


def ints(values) -> bytes:
    return array("q", values).tobytes()


def string_table(items) -> bytes:
    offsets, blob = [], b""
    for item in items:
        if item is None:
            offsets.append(~len(blob))
        else:
            offsets.append(len(blob))
            blob += item.encode("utf-8")
    offsets.append(len(blob))
    return ints(offsets) + struct.pack("<Q", len(blob)) + blob


def sized(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def assemble_snapshot(
    *, kinds, parent_pre, size, post, depth, names, values,
    partitions=None, name="", id_attribute="id",
) -> bytes:
    """A structurally arbitrary, CRC-valid snapshot. ``partitions``
    defaults to what an honest writer would persist for these kinds and
    names (``NodeIndex.partitions``' five components)."""
    if partitions is None:
        partitions = NodeIndex._build_partitions(kinds, names)
    packed, span_ends, tags, attributes, pi_targets = partitions
    return reseal(
        MAGIC
        + struct.pack("<IQ", VERSION, len(kinds))
        + sized(name)
        + sized(id_attribute)
        + bytes(kinds)
        + ints(parent_pre)
        + ints(size)
        + ints(post)
        + ints(depth)
        + string_table(names)
        + string_table(values)
        + struct.pack("<Q", len(packed))
        + ints(packed)
        + struct.pack("<III", len(tags), len(attributes), len(pi_targets))
        + ints(span_ends)
        + string_table(list(tags) + list(attributes) + list(pi_targets))
    )


def snapshot_layout(blob: bytes) -> dict[str, tuple[int, int]]:
    """``{section: (start, end)}`` of a well-formed blob, in file order."""
    sections: dict[str, tuple[int, int]] = {}
    cursor = 0

    def mark(section: str, length: int) -> bytes:
        nonlocal cursor
        sections[section] = (cursor, cursor + length)
        cursor += length
        return blob[cursor - length : cursor]

    def table(what: str, entries: int) -> None:
        mark(f"{what} offsets", 8 * (entries + 1))
        (length,) = struct.unpack("<Q", mark(f"{what} blob length", 8))
        mark(f"{what} blob", length)

    mark("magic", 8)
    mark("version", 4)
    (total,) = struct.unpack("<Q", mark("node count", 8))
    for what in ("name", "id attribute"):
        (length,) = struct.unpack("<I", mark(f"{what} length", 4))
        mark(what, length)
    mark("kinds", total)
    for column in ("parent_pre", "size", "post", "depth"):
        mark(column, 8 * total)
    table("names", total)
    table("values", total)
    (members,) = struct.unpack("<Q", mark("packed length", 8))
    mark("packed", 8 * members)
    keyed = sum(struct.unpack("<III", mark("key counts", 12)))
    mark("span ends", 8 * (6 + keyed))
    table("keys", keyed)
    mark("crc", 4)
    assert cursor == len(blob), "not a well-formed snapshot"
    return sections
