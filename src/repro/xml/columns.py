"""The flat columns of ``dom``: what every document is stored as.

A document (:class:`~repro.xml.document.Document`) is one kind-code
byte, three signed-8-byte ints (``parent_pre`` / ``size`` / ``depth``)
and two strings (name, value) per node, in document order —
:class:`DocumentColumns`, the column sections of a snapshot.
:func:`~repro.xml.parser.parse_document` and the builders of
:mod:`repro.xml.builder` write them as lists
(:meth:`DocumentColumns.from_lists`); a snapshot load
(``decode_snapshot(blob)``, ``DocumentStore.load(name)``) reads them
back with the strings still encoded (:class:`StringTable`).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from repro.errors import SnapshotCorruptError

__all__ = ["DocumentColumns", "StringTable"]

#: The kind-code bytes of the ``kinds`` column (the on-disk codes of
#: repro.xml.snapshot), as ints.
DOC, ELEM, ATTR, TEXT, COMMENT, PI = b"DEATCP"


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
    """The flat columns of one document (read-only).

    Exactly the column sections of a snapshot: ``kinds`` is a ``bytes``
    of kind codes, the three int columns are ``array('q')`` (or any int
    buffer), ``names`` / ``values`` are sequences of ``str | None`` — a
    list from the parser or a builder, a :class:`StringTable` from a
    snapshot, and no reader may care which. The int columns are shared
    zero-copy with the document's :class:`~repro.xml.index.NodeIndex`.
    """

    __slots__ = ("kinds", "parent_pre", "size", "depth", "names", "values")

    def __init__(self, *, kinds, parent_pre, size, depth, names, values):
        self.kinds = kinds
        self.parent_pre = parent_pre
        self.size = size
        self.depth = depth
        self.names = names
        self.values = values

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_lists(cls, kinds, parent_pre, size, depth, names, values) -> "DocumentColumns":
        """The columns a writer appended in pre-order, every ``size``
        closed."""
        return cls(
            kinds=bytes(kinds),
            parent_pre=array("q", parent_pre),
            size=array("q", size),
            depth=array("q", depth),
            names=names,
            values=values,
        )
