"""Binary snapshot codec: corruption fuzzing and byte-identity (PR 6;
``RXSNAP04`` layout: no ``post`` column, the document shape persisted).

Two properties carry the snapshot path (that the kernels equal the
Definition-1 scans is ``tests/test_node_index.py``'s, over the same
corpus: a decoded document is a built one):

* **Every corruption is a DocumentStoreError** — truncation at any
  boundary, bad magic, wrong version, sections that disagree about
  their sizes, checksum failure, and — through ``decode_snapshot``,
  which runs the full structural check — node tables, string tables and
  persisted partitions that carry a valid CRC but do not describe a
  document, and a persisted shape that is not the columns'.
  ``DocumentStore.load`` leaves the full check out; what it
  must still catch (everything the checksum, the header and the
  reader's bounds can see) is asserted beside each case.
* **Round-trip equality** — a decoded snapshot reproduces ``pre`` /
  ``size`` / ``depth`` / every partition and the shape exactly, and its
  index arrives adopted (``index_adoptions``), never rebuilt
  (``index_builds``).
"""

import random
import struct
from array import array

import pytest

from snapshot_tools import assemble_snapshot, ints, reseal, snapshot_layout
from repro import stats
from repro.axes.axes import (
    ALL_AXES,
    INVERSE_INTERVAL_AXES,
    kernel_mode_forced,
)
from repro.axes.vec import forward_step, inverse_step
from repro.errors import DocumentStoreError, SnapshotCorruptError
from repro.workloads.documents import (
    book_catalog,
    deep_chain,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.xml.index import adopt_node_index, node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    decode_snapshot,
    encode_snapshot,
)
from repro.xpath.ast import NodeTest

SEED = 20030614


def _corpus():
    rng = random.Random(SEED)
    documents = [
        running_example_document(),
        book_catalog(books=4),
        wide_tree(width=7),
        deep_chain(9),
        parse_document(
            '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
            "<?target data?><!--note-->"
            '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b></c></a>'
        ),
    ]
    documents += [random_document(rng, max_nodes=18) for _ in range(4)]
    return documents


_TESTS = [
    NodeTest("name", "a"),
    NodeTest("name", "b"),
    NodeTest("name", "price"),
    NodeTest("name", "id"),
    NodeTest("wildcard"),
    NodeTest("node"),
    NodeTest("text"),
    NodeTest("comment"),
    NodeTest("pi"),
    NodeTest("pi", "target"),
]


# ----------------------------------------------------------------------
# Corruption fuzzing
# ----------------------------------------------------------------------


def test_truncation_at_every_boundary_rejected():
    blob = encode_snapshot(running_example_document())
    lengths = {0, 1, 4, 7, 8, 11, 12, 15, 16, 19, 20}
    lengths.update(range(0, len(blob), max(1, len(blob) // 64)))
    lengths.add(len(blob) - 1)
    for length in sorted(lengths):
        with pytest.raises(DocumentStoreError):
            decode_snapshot(blob[:length])


def test_bad_magic_rejected():
    blob = encode_snapshot(parse_document("<a/>"))
    with pytest.raises(DocumentStoreError):
        decode_snapshot(b"NOTSNAP!" + blob[8:])
    with pytest.raises(DocumentStoreError):
        decode_snapshot(b"")
    with pytest.raises(DocumentStoreError):
        decode_snapshot("not bytes")


def test_wrong_version_rejected():
    blob = encode_snapshot(parse_document("<a/>"))
    payload = bytearray(blob[:-4])
    payload[8:12] = struct.pack("<I", SNAPSHOT_VERSION + 1)
    with pytest.raises(DocumentStoreError, match="version"):
        decode_snapshot(reseal(bytes(payload)))


def test_checksum_failure_rejected():
    blob = encode_snapshot(book_catalog(books=2))
    # Flip one bit in every region of the payload: all must be caught.
    for offset in range(len(SNAPSHOT_MAGIC), len(blob) - 4, max(1, len(blob) // 40)):
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0x40
        with pytest.raises(DocumentStoreError):
            decode_snapshot(bytes(corrupted))
    # And a flipped CRC itself.
    corrupted = bytearray(blob)
    corrupted[-1] ^= 0x01
    with pytest.raises(DocumentStoreError, match="checksum"):
        decode_snapshot(bytes(corrupted))


def test_mismatched_column_lengths_rejected():
    """A length table whose sum disagrees with its blob — resealed with
    a valid CRC so only the column check can catch it."""
    doc = parse_document("<a><b>hi</b></a>")
    blob = encode_snapshot(doc)
    payload = bytearray(blob[:-4])
    # The name column's first length entry lives right after the fixed
    # columns; corrupt the *declared node count* instead, which desyncs
    # every column length at once.
    payload[12:20] = struct.pack("<Q", len(doc.nodes) + 1)
    with pytest.raises(DocumentStoreError):
        decode_snapshot(reseal(bytes(payload)))
    payload = bytearray(blob[:-4])
    payload[12:20] = struct.pack("<Q", 0)
    with pytest.raises(DocumentStoreError):
        decode_snapshot(reseal(bytes(payload)))


def test_structurally_illegal_tables_rejected_despite_valid_crc():
    base = dict(
        kinds=b"DEA",
        parent_pre=[-1, 0, 1],
        size=[3, 2, 1],
        depth=[0, 1, 2],
        names=[None, "a", "id"],
        values=[None, None, "1"],
    )
    # The base itself decodes.
    good = decode_snapshot(assemble_snapshot(**base))
    assert serialize(good) == '<a id="1"/>'

    def variant(**overrides):
        merged = dict(base, **overrides)
        return assemble_snapshot(**merged)

    bad_blobs = [
        variant(kinds=b"EEA"),  # no document node first
        variant(kinds=b"DDA"),  # second document node
        variant(kinds=b"DEZ"),  # unknown kind
        variant(parent_pre=[-1, 0, 5]),  # parent out of range
        variant(parent_pre=[-1, 0, 0]),  # attribute owned by document
        variant(size=[3, 1, 1]),  # wrong subtree size
        variant(depth=[0, 1, 1]),  # wrong depth
        variant(names=[None, None, "id"]),  # unnamed element
        variant(names=["d", "a", "id"]),  # named document node
        variant(kinds=b"DTA", names=[None, None, "id"]),  # attr under text
    ]
    for blob in bad_blobs:
        with pytest.raises(DocumentStoreError):
            decode_snapshot(blob)
    # Parents precede children, depths and (recomputed) sizes agree —
    # and node 3, a child of node 1, lies
    # outside [1, 1 + size[1]): not a pre-order numbering. Decoded before
    # PR 24; ``/a/descendant::*`` then answered ``b`` and ``//a/c``
    # nothing.
    with pytest.raises(SnapshotCorruptError, match="leaves its parent's interval"):
        decode_snapshot(
            assemble_snapshot(
                kinds=b"DEEE",
                parent_pre=[-1, 0, 0, 1],
                size=[4, 2, 1, 1],
                depth=[0, 1, 1, 2],
                names=[None, "a", "b", "c"],
                values=[None, None, None, None],
            )
        )


def test_attribute_contiguity_enforced():
    # Attribute numbered after a child of its element (not contiguous).
    blob = assemble_snapshot(
        kinds=b"DETA",
        parent_pre=[-1, 0, 1, 1],
        size=[4, 3, 1, 1],
        depth=[0, 1, 2, 2],
        names=[None, "a", None, "id"],
        values=[None, None, "t", "1"],
    )
    with pytest.raises(DocumentStoreError, match="contiguous"):
        decode_snapshot(blob)


# ----------------------------------------------------------------------
# flat ≡ Definition-1, and round-trip equality
# ----------------------------------------------------------------------


def _axis_answers(document):
    """Every (axis × test) pre array over a fixed context, computed
    through the kernels the evaluators run."""
    answers = []
    total = len(document.nodes)
    contexts = [[0], list(range(total)), [total - 1]]
    for pres in contexts:
        for axis in sorted(ALL_AXES):
            for test in _TESTS:
                answers.append(list(forward_step(document, axis, pres, test)))
        for axis in sorted(INVERSE_INTERVAL_AXES):
            answers.append(inverse_step(document, axis, pres))
    return answers


def test_flat_list_and_scan_kernels_are_byte_identical():
    for document in _corpus():
        with kernel_mode_forced("auto"):
            flat_answers = _axis_answers(document)
        with kernel_mode_forced("scan"):
            scan_answers = _axis_answers(document)
        assert flat_answers == scan_answers


def test_round_trip_columns_and_partitions_equal():
    """One index form: the index a document partitions from the columns
    it was built or parsed with is, column for column and partition for
    partition, the index its ``encode -> decode`` twin adopts from the
    snapshot."""
    for document in _corpus():
        original_index = node_index(document)
        loaded = decode_snapshot(encode_snapshot(document))
        loaded_index = node_index(loaded)
        assert loaded_index.shape == original_index.shape
        for column in ("size", "depth", "parent_pre"):
            assert list(getattr(loaded_index, column)) == list(
                getattr(original_index, column)
            ), column
        for group in ("by_tag", "by_attribute", "by_pi_target"):
            original_group = getattr(original_index, group)
            loaded_group = getattr(loaded_index, group)
            assert sorted(original_group) == sorted(loaded_group)
            for name in original_group:
                assert list(loaded_group[name]) == list(original_group[name])
        for kind in ("elements", "attributes", "non_attributes", "text_nodes",
                     "comments", "pis"):
            assert list(getattr(loaded_index, kind)) == list(
                getattr(original_index, kind)
            )
        for a, b in zip(document.nodes, loaded.nodes):
            assert (a.kind, a.name, a.value, a.pre, a.size) == (
                b.kind, b.name, b.value, b.pre, b.size,
            )
        loaded_index.validate()


def test_decode_adopts_index_without_building():
    document = book_catalog(books=3)
    blob = encode_snapshot(document)
    before = stats.axis_kernel_stats.snapshot()
    loaded = decode_snapshot(blob)
    after = stats.axis_kernel_stats.snapshot()
    assert after["index_builds"] == before["index_builds"]
    assert after["index_adoptions"] == before["index_adoptions"] + 1
    # node_index() now hits the adopted entry — still no build.
    node_index(loaded)
    assert stats.axis_kernel_stats.snapshot()["index_builds"] == before["index_builds"]


def test_adopt_rejects_foreign_index():
    a, b = parse_document("<a/>"), parse_document("<b/>")
    with pytest.raises(ValueError):
        adopt_node_index(a, node_index(b))


def test_snapshot_preserves_custom_id_attribute():
    original = parse_document('<a key="k1"/>', id_attribute="key")
    loaded = decode_snapshot(encode_snapshot(original))
    assert loaded.id_attribute == "key"
    assert loaded.element_by_id("k1") is loaded.root_element


# ----------------------------------------------------------------------
# Typed corruption: SnapshotCorruptError with offset context (PR 10)
# ----------------------------------------------------------------------


def test_every_truncation_raises_typed_snapshot_corrupt_with_offset(tmp_path):
    """Truncation at every boundary — section boundaries included —
    surfaces the typed subclass with a byte offset, never a
    struct/checksum internal, from ``decode_snapshot`` and from the
    store alike."""
    blob = encode_snapshot(book_catalog(books=2), "doc")
    lengths = set(range(0, len(blob), max(1, len(blob) // 96)))
    lengths.update({0, 1, 7, 8, 11, 12, 19, 20, 23, 24, len(blob) - 5, len(blob) - 1})
    lengths.update(start for start, _ in snapshot_layout(blob).values())
    for length in sorted(lengths):
        for decode in (decode_snapshot, lambda cut: _stored(tmp_path, cut).load("doc")):
            with pytest.raises(SnapshotCorruptError) as excinfo:
                decode(blob[:length])
            assert excinfo.value.offset is not None
            assert "at byte" in str(excinfo.value)


def test_bit_flip_fuzzing_raises_only_the_typed_error(tmp_path):
    """Byte-level corruption fuzzing: a flipped bit anywhere is caught
    (CRC-32 sees every single-bit error) by both readers; resealed, the
    flip meets whatever lies behind the checksum — the full check for
    ``decode_snapshot``, the reader's bounds for the store — and either
    way every failure is SnapshotCorruptError: no struct.error,
    ValueError, IndexError or UnicodeDecodeError ever leaks, not even
    from a lazily decoded string."""
    rng = random.Random(20251008)
    blob = encode_snapshot(running_example_document(), "doc")
    for _ in range(120):
        corrupted = bytearray(blob)
        offset = rng.randrange(len(corrupted))
        corrupted[offset] ^= 1 << rng.randrange(8)
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bytes(corrupted))
        with pytest.raises(SnapshotCorruptError):
            _stored(tmp_path, bytes(corrupted)).load("doc")
    for _ in range(120):
        payload = bytearray(blob[:-4])
        offset = rng.randrange(len(SNAPSHOT_MAGIC), len(payload))
        payload[offset] ^= 1 << rng.randrange(8)
        try:
            decode_snapshot(reseal(bytes(payload)))
        except SnapshotCorruptError:
            pass  # the only acceptable failure type
        try:
            columns = _stored(tmp_path, reseal(bytes(payload))).load("doc").columns
            list(columns.names), list(columns.values)
        except SnapshotCorruptError:
            pass


def _is_pre_order(parent_pre) -> bool:
    """The definition, by simulation: walking the nodes in number order,
    each one's parent must still be open (an ancestor-or-self of its
    predecessor)."""
    open_path = [0]
    for pre in range(1, len(parent_pre)):
        while open_path and open_path[-1] != parent_pre[pre]:
            open_path.pop()
        if not open_path:
            return False
        open_path.append(pre)
    return True


def test_reparented_tables_decode_only_when_they_are_still_pre_order():
    """Resealed structural fuzz: move one subtree root under another
    element or the document node and recompute ``depth`` and ``size``
    from the new ``parent_pre`` — every per-node check of the
    old validator passes by construction. The table must decode exactly
    when it is still a pre-order numbering; before the interval-nesting
    test the interleaved ones decoded too."""
    rng = random.Random(20261003)
    accepted = rejected = 0
    for document in _corpus():
        columns = decode_snapshot(encode_snapshot(document)).columns
        total = len(columns)
        kinds = columns.kinds
        homes = [i for i in range(total) if kinds[i] in b"DE"]
        moves = [
            (node, home)
            for node in range(2, total)
            if kinds[node] != ord("A")
            for home in homes
            if home < node and home != columns.parent_pre[node]
        ]
        for node, home in rng.sample(moves, min(24, len(moves))):
            parent_pre = list(columns.parent_pre)
            parent_pre[node] = home
            depth = [0] * total
            size = [1] * total
            for i in range(1, total):
                depth[i] = depth[parent_pre[i]] + 1
            for i in range(total - 1, 0, -1):
                size[parent_pre[i]] += size[i]
            blob = assemble_snapshot(
                kinds=kinds,
                parent_pre=parent_pre,
                size=size,
                depth=depth,
                names=list(columns.names),
                values=list(columns.values),
            )
            if _is_pre_order(parent_pre):
                node_index(decode_snapshot(blob)).validate()
                accepted += 1
            else:
                with pytest.raises(SnapshotCorruptError, match="parent's interval"):
                    decode_snapshot(blob)
                rejected += 1
    assert accepted >= 10 and rejected >= 50, (accepted, rejected)


def test_snapshot_corrupt_offsets_point_into_the_blob():
    from repro.errors import SnapshotCorruptError

    blob = encode_snapshot(parse_document("<a><b>hi</b></a>"))
    with pytest.raises(SnapshotCorruptError) as excinfo:
        decode_snapshot(b"NOTSNAP!" + blob[8:])
    assert excinfo.value.offset == 0  # magic lives at the start
    with pytest.raises(SnapshotCorruptError) as excinfo:
        corrupted = bytearray(blob)
        corrupted[-1] ^= 0x01
        decode_snapshot(bytes(corrupted))
    assert excinfo.value.offset == len(blob) - 4  # the CRC trailer


def test_type_errors_stay_plain_document_store_errors():
    """Passing a non-bytes object is a caller bug, not corruption — it
    must not masquerade as SnapshotCorruptError."""
    from repro.errors import SnapshotCorruptError

    with pytest.raises(DocumentStoreError) as excinfo:
        decode_snapshot("not bytes")
    assert not isinstance(excinfo.value, SnapshotCorruptError)


def test_store_load_surfaces_typed_corruption_from_the_sidecar(tmp_path):
    """Corrupting sidecar bytes on disk surfaces SnapshotCorruptError
    through DocumentStore.load, with the offset context intact."""
    from repro.errors import SnapshotCorruptError
    from repro.xml.store import DocumentStore

    store = DocumentStore(tmp_path / "cat.json")
    sidecar = store.save_snapshot("books", book_catalog(books=2))
    blob = sidecar.read_bytes()
    # Truncated sidecar.
    sidecar.write_bytes(blob[: len(blob) // 2])
    fresh = DocumentStore(tmp_path / "cat.json")
    with pytest.raises(SnapshotCorruptError) as excinfo:
        fresh.load("books")
    assert excinfo.value.offset is not None
    # Flipped byte (checksum catches it) — still the typed subclass.
    corrupted = bytearray(blob)
    corrupted[len(blob) // 3] ^= 0x10
    sidecar.write_bytes(bytes(corrupted))
    with pytest.raises(SnapshotCorruptError):
        DocumentStore(tmp_path / "cat.json").load("books")
    # Restoring the bytes restores the document.
    sidecar.write_bytes(blob)
    assert len(DocumentStore(tmp_path / "cat.json").load("books").nodes) > 1


# ----------------------------------------------------------------------
# The sections: header name, string tables, partitions, shape
# ----------------------------------------------------------------------

_NON_ASCII = '<r id="é1">naïve ☃<k v="ü"/>\U0001d11e<?pi dätä?><!--ç--></r>'


def _stored(tmp_path, blob: bytes, name: str = "doc"):
    """A store whose file for ``name`` holds exactly ``blob``."""
    from repro.xml.store import DocumentStore

    store = DocumentStore(tmp_path / "store")
    file = store.save_snapshot(name, parse_document("<seed/>"))
    file.write_bytes(blob)
    return store


def _patched(blob: bytes, section: str, data: bytes, at: int = 0) -> bytes:
    """``blob`` with ``data`` written ``at`` bytes into ``section``,
    resealed."""
    start, _ = snapshot_layout(blob)[section]
    payload = bytearray(blob[:-4])
    payload[start + at : start + at + len(data)] = data
    return reseal(payload)


def _section_ints(blob: bytes, section: str) -> list[int]:
    start, end = snapshot_layout(blob)[section]
    return array("q", blob[start:end]).tolist()


def test_snapshot_layout_helper_agrees_with_the_encoder():
    """The tests' own reading of the layout table maps every byte of an
    encoded blob, and re-assembling the sections yields the same bytes."""
    document = parse_document(_NON_ASCII, id_attribute="v")
    blob = encode_snapshot(document, "naïve")
    layout = snapshot_layout(blob)
    assert blob[slice(*layout["name"])] == "naïve".encode("utf-8")
    assert blob[slice(*layout["id attribute"])] == b"v"
    columns = document.columns
    assert blob == assemble_snapshot(
        kinds=columns.kinds,
        parent_pre=columns.parent_pre,
        size=columns.size,
        depth=columns.depth,
        names=columns.names,
        values=columns.values,
        partitions=node_index(document).partitions,
        shape=node_index(document).shape,
        name="naïve",
        id_attribute="v",
    )


def test_header_name_must_be_the_name_asked_for(tmp_path):
    blob = encode_snapshot(parse_document("<a/>"), "doc")
    # Any name decodes as bytes of unknown origin...
    renamed = _patched(blob, "name", b"cod")
    assert decode_snapshot(renamed).root_element.name == "a"
    # ... but the store asked for "doc" and the file says otherwise.
    with pytest.raises(SnapshotCorruptError, match="holds 'cod'") as excinfo:
        _stored(tmp_path, renamed).load("doc")
    assert excinfo.value.offset is not None
    for bad in (
        _patched(blob, "name", b"\xff"),  # not UTF-8
        _patched(blob, "name length", struct.pack("<I", 2**31)),  # past the blob
        _patched(blob, "name length", struct.pack("<I", 2)),  # mis-sized
    ):
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bad)
        with pytest.raises(SnapshotCorruptError):
            _stored(tmp_path, bad).load("doc")


def test_every_length_field_off_by_one_is_rejected(tmp_path):
    """Mis-sized sections, resealed: each length or count field moved by
    one in either direction desynchronizes the reader, which must say so
    with an offset — through ``decode_snapshot`` and through the store."""
    blob = encode_snapshot(parse_document(_NON_ASCII), "doc")
    fields = {
        "node count": "<Q", "name length": "<I", "id attribute length": "<I",
        "names blob length": "<Q", "values blob length": "<Q",
        "packed length": "<Q", "keys blob length": "<Q",
    }
    for section, form in fields.items():
        (value,) = struct.unpack(form, blob[slice(*snapshot_layout(blob)[section])])
        for moved in (value - 1, value + 1):
            bad = _patched(blob, section, struct.pack(form, moved))
            for decode in (decode_snapshot, lambda b: _stored(tmp_path, b).load("doc")):
                with pytest.raises(SnapshotCorruptError) as excinfo:
                    decode(bad)
                assert excinfo.value.offset is not None, (section, moved)
    # Key counts: one more key overall is a bounds failure for both...
    tags, attributes, pis = struct.unpack(
        "<III", blob[slice(*snapshot_layout(blob)["key counts"])]
    )
    bad = _patched(blob, "key counts", struct.pack("<III", tags + 1, attributes, pis))
    with pytest.raises(SnapshotCorruptError):
        decode_snapshot(bad)
    with pytest.raises(SnapshotCorruptError):
        _stored(tmp_path, bad).load("doc")
    # ... while a tag re-filed as an attribute name keeps every size and
    # is the full check's to find.
    bad = _patched(blob, "key counts", struct.pack("<III", tags - 1, attributes + 1, pis))
    with pytest.raises(SnapshotCorruptError, match="partitions disagree"):
        decode_snapshot(bad)


def test_span_directory_corruptions(tmp_path):
    blob = encode_snapshot(book_catalog(books=2), "doc")
    ends = _section_ints(blob, "span ends")
    members = len(_section_ints(blob, "packed"))
    past = ends[:-1] + [members + 1]  # last span runs past the array
    inverted = [ends[1], ends[0]] + ends[2:]  # lo > hi for the second span
    assert inverted != ends
    negative = [-1] + ends[1:]
    for spans in (past, inverted, negative):
        bad = _patched(blob, "span ends", ints(spans))
        with pytest.raises(SnapshotCorruptError, match="span directory") as excinfo:
            decode_snapshot(bad)
        assert excinfo.value.offset == snapshot_layout(blob)["span ends"][0]
        with pytest.raises(SnapshotCorruptError, match="span directory"):
            _stored(tmp_path, bad).load("doc")
    # A directory that tiles the array but cuts it elsewhere, and members
    # that are unsorted or out of range, are sound to the reader and
    # wrong to the full check.
    shifted = [ends[0] - 1] + ends[1:]
    packed = _section_ints(blob, "packed")
    swapped = [packed[1], packed[0]] + packed[2:]
    out_of_range = packed[:-1] + [10**9]
    for bad in (
        _patched(blob, "span ends", ints(shifted)),
        _patched(blob, "packed", ints(swapped)),
        _patched(blob, "packed", ints(out_of_range)),
    ):
        with pytest.raises(SnapshotCorruptError, match="partitions disagree"):
            decode_snapshot(bad)


def test_string_table_corruptions_never_leak_codec_or_index_errors(tmp_path):
    document = parse_document(_NON_ASCII)
    blob = encode_snapshot(document, "doc")
    layout = snapshot_layout(blob)
    offsets = _section_ints(blob, "values offsets")
    starts = [entry if entry >= 0 else ~entry for entry in offsets]
    # A value that opens with a multi-byte character: end it one byte in.
    victim = next(
        i for i, value in enumerate(document.columns.values)
        if value is not None and value[0] > "\x7f"
    )
    split = list(offsets)
    assert split[victim + 1] >= 0
    split[victim + 1] = starts[victim] + 1
    non_monotone = list(offsets)
    non_monotone[victim] = starts[-1]  # starts at the end, "ends" before it
    past_the_blob = list(offsets)
    past_the_blob[-1] += 1
    inner_past_the_blob = list(offsets)
    inner_past_the_blob[victim] = starts[-1] + 64
    for table in (split, non_monotone, past_the_blob, inner_past_the_blob):
        bad = _patched(blob, "values offsets", ints(table))
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bad)
        # The store either refuses the file (the reader's bounds saw it)
        # or hands out a document whose strings decode lazily — and then
        # every access is a string, None, or the typed error.
        try:
            loaded = _stored(tmp_path, bad).load("doc")
        except SnapshotCorruptError:
            assert table is past_the_blob
            continue
        for pre in range(len(loaded.columns)):
            try:
                value = loaded.columns.values[pre]
            except SnapshotCorruptError:
                continue
            assert value is None or isinstance(value, str)
    # The reader's own bound: a table must end where its blob does.
    with pytest.raises(SnapshotCorruptError, match="do not end at their blob") as excinfo:
        decode_snapshot(_patched(blob, "values offsets", ints(past_the_blob)))
    assert excinfo.value.offset == layout["values blob"][0]
    # Bytes that are not UTF-8 at all, in either blob or the key table.
    for section in ("names blob", "values blob", "keys blob"):
        bad = _patched(blob, section, b"\xff")
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bad)
    with pytest.raises(SnapshotCorruptError):
        _stored(tmp_path, _patched(blob, "keys blob", b"\xff")).load("doc")


def test_string_table_is_a_read_only_sequence_like_the_parsers_list(tmp_path):
    document = parse_document(_NON_ASCII)
    # The full check had to decode every string and keeps them...
    assert type(decode_snapshot(encode_snapshot(document)).columns.values) is list
    # ... a store load decodes none, and nobody can tell but by type.
    loaded = _stored(tmp_path, encode_snapshot(document, "doc")).load("doc")
    for column in ("names", "values"):
        parsed, table = getattr(document.columns, column), getattr(loaded.columns, column)
        assert isinstance(parsed, list) and not isinstance(table, list)
        assert len(table) == len(parsed) and list(table) == parsed
        assert [table[i] for i in range(len(parsed))] == parsed
        assert [table[-i] for i in range(1, len(parsed) + 1)] == parsed[::-1]
        assert list(reversed(table)) == parsed[::-1]
        assert (parsed[3] in table) and table.index(parsed[3]) == parsed.index(parsed[3])
        for index in (len(parsed), -len(parsed) - 1):
            with pytest.raises(IndexError):
                table[index]
    # Re-encoding a loaded document reads the tables like any sequence.
    assert encode_snapshot(loaded) == encode_snapshot(document)


def test_v2_blob_is_refused_naming_the_remedy(tmp_path):
    legacy = reseal(b"RXSNAP02" + struct.pack("<IQI", 2, 1, 2) + b"id" + b"D" + bytes(80))
    with pytest.raises(SnapshotCorruptError, match="no longer read.*PR 22.*save it again"):
        decode_snapshot(legacy)
    with pytest.raises(SnapshotCorruptError, match="no longer read"):
        _stored(tmp_path, legacy).load("doc")


def test_v3_blob_is_refused_naming_the_remedy(tmp_path):
    legacy = reseal(b"RXSNAP03" + struct.pack("<IQI", 3, 1, 0) + bytes(80))
    with pytest.raises(SnapshotCorruptError, match="v3.*no longer read.*save it"):
        decode_snapshot(legacy)
    with pytest.raises(SnapshotCorruptError, match="no longer read"):
        _stored(tmp_path, legacy).load("doc")


def test_a_shape_that_is_not_the_columns_is_refused_by_the_full_check(tmp_path):
    """Resealed, each persisted shape number moved by one is sound to the
    reader — the store trusts it, as it trusts the partitions — and wrong
    to the full check."""
    document = parse_document(_NON_ASCII)
    blob = encode_snapshot(document, "doc")
    shape = list(node_index(document).shape)
    assert _section_ints(blob, "shape") == shape
    assert decode_snapshot(blob).columns.values == document.columns.values
    for field in range(len(shape)):
        for moved in (shape[field] - 1, shape[field] + 1):
            wrong = list(shape)
            wrong[field] = moved
            bad = _patched(blob, "shape", ints(wrong))
            with pytest.raises(SnapshotCorruptError, match="shape disagrees"):
                decode_snapshot(bad)
            assert list(node_index(_stored(tmp_path, bad).load("doc")).shape) == wrong
