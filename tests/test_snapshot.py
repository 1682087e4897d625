"""Binary snapshot codec: corruption fuzzing and byte-identity (PR 6).

Three properties carry the snapshot path:

* **Every corruption is a DocumentStoreError** — truncation at any
  boundary, bad magic, wrong version, column lengths that disagree with
  their blob, checksum failure, and structurally illegal node tables
  that nonetheless carry a valid CRC.
* **flat ≡ Definition-1** — over the same corpus as
  ``tests/test_node_index.py``, the packed (memoryview) kernels and the
  paper's Definition-1 scans return identical node sets cell by cell.
* **Round-trip equality** — a decoded snapshot reproduces ``pre`` /
  ``post`` / ``size`` / ``depth`` / every partition exactly, and its
  index arrives adopted (``index_adoptions``), never rebuilt
  (``index_builds``).
"""

import random
import struct
import zlib

import pytest

from conftest import boxed_twin
from repro import stats
from repro.axes.axes import (
    ALL_AXES,
    INVERSE_INTERVAL_AXES,
    axis_set,
    kernel_mode_forced,
    matches_node_test,
)
from repro.axes.vec import forward_step, inverse_step
from repro.errors import DocumentStoreError
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
    cached_snapshot,
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


def _reseal(payload: bytes) -> bytes:
    """Append a fresh, *valid* CRC — for corruptions that must get past
    the checksum and be caught by structural validation."""
    return payload + struct.pack("<I", zlib.crc32(payload))


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
        decode_snapshot(_reseal(bytes(payload)))


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
        decode_snapshot(_reseal(bytes(payload)))
    payload = bytearray(blob[:-4])
    payload[12:20] = struct.pack("<Q", 0)
    with pytest.raises(DocumentStoreError):
        decode_snapshot(_reseal(bytes(payload)))


def _columns_payload(kinds, parent_pre, size, post, depth, names, values):
    """Assemble a structurally arbitrary (CRC-valid) snapshot."""
    from array import array

    def column(ints):
        return array("q", ints).tobytes()

    def strings(items):
        lengths, blob = [], b""
        for item in items:
            if item is None:
                lengths.append(-1)
            else:
                data = item.encode("utf-8")
                lengths.append(len(data))
                blob += data
        return column(lengths) + struct.pack("<Q", len(blob)) + blob

    payload = (
        SNAPSHOT_MAGIC
        + struct.pack("<I", SNAPSHOT_VERSION)
        + struct.pack("<Q", len(kinds))
        + struct.pack("<I", 2)
        + b"id"
        + kinds
        + column(parent_pre)
        + column(size)
        + column(post)
        + column(depth)
        + strings(names)
        + strings(values)
    )
    return _reseal(payload)


def test_structurally_illegal_tables_rejected_despite_valid_crc():
    base = dict(
        kinds=b"DEA",
        parent_pre=[-1, 0, 1],
        size=[3, 2, 1],
        post=[2, 1, 0],
        depth=[0, 1, 2],
        names=[None, "a", "id"],
        values=[None, None, "1"],
    )
    # The base itself decodes.
    good = decode_snapshot(_columns_payload(**base))
    assert serialize(good) == '<a id="1"/>'

    def variant(**overrides):
        merged = dict(base, **overrides)
        return _columns_payload(**merged)

    bad_blobs = [
        variant(kinds=b"EEA"),  # no document node first
        variant(kinds=b"DDA"),  # second document node
        variant(kinds=b"DEZ"),  # unknown kind
        variant(parent_pre=[-1, 0, 5]),  # parent out of range
        variant(parent_pre=[-1, 0, 0]),  # attribute owned by document
        variant(size=[3, 1, 1]),  # wrong subtree size
        variant(post=[2, 0, 1]),  # wrong post order
        variant(depth=[0, 1, 1]),  # wrong depth
        variant(names=[None, None, "id"]),  # unnamed element
        variant(names=["d", "a", "id"]),  # named document node
        variant(kinds=b"DTA", names=[None, None, "id"]),  # attr under text
    ]
    for blob in bad_blobs:
        with pytest.raises(DocumentStoreError):
            decode_snapshot(blob)


def test_attribute_contiguity_enforced():
    # Attribute numbered after a child of its element (not contiguous).
    blob = _columns_payload(
        kinds=b"DETA",
        parent_pre=[-1, 0, 1, 1],
        size=[4, 3, 1, 1],
        post=[3, 2, 0, 1],
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


def test_definition1_scan_agreement_on_snapshot_loaded_documents():
    rng = random.Random(SEED + 6)
    for document in _corpus():
        loaded = decode_snapshot(encode_snapshot(document))
        for axis in sorted(ALL_AXES):
            for test in rng.sample(_TESTS, 4):
                X = rng.sample(loaded.nodes, min(5, len(loaded.nodes)))
                pres = sorted({x.pre for x in X})
                fused = {
                    loaded.nodes[p] for p in forward_step(loaded, axis, pres, test)
                }
                scan = {
                    y
                    for y in axis_set(loaded, axis, X)
                    if matches_node_test(y, test, axis)
                }
                assert fused == scan, (axis, test)


def test_round_trip_columns_and_partitions_equal():
    """One index form: the index a boxed tree builds from its nodes is,
    column for column and partition for partition, the index its
    ``encode -> decode`` twin adopts from the snapshot columns."""
    for document in map(boxed_twin, _corpus()):
        original_index = node_index(document)
        loaded = decode_snapshot(encode_snapshot(document))
        loaded_index = node_index(loaded)
        for column in ("size", "post", "depth", "parent_pre"):
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
        loaded.validate()
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


def test_cached_snapshot_encodes_once_and_never_pins():
    import gc
    import weakref

    document = book_catalog(books=2)
    blob = cached_snapshot(document)
    assert cached_snapshot(document) is blob
    assert blob == encode_snapshot(document)
    ref = weakref.ref(document)
    del document
    gc.collect()
    assert ref() is None, "snapshot cache pinned the document"


def test_snapshot_preserves_custom_id_attribute():
    original = parse_document('<a key="k1"/>', id_attribute="key")
    loaded = decode_snapshot(encode_snapshot(original))
    assert loaded.id_attribute == "key"
    assert loaded.element_by_id("k1") is loaded.root_element


# ----------------------------------------------------------------------
# Typed corruption: SnapshotCorruptError with offset context (PR 10)
# ----------------------------------------------------------------------


def test_every_truncation_raises_typed_snapshot_corrupt_with_offset():
    """Truncation at every boundary surfaces the typed subclass with a
    byte offset — never a struct/checksum internal."""
    from repro.errors import SnapshotCorruptError

    blob = encode_snapshot(book_catalog(books=2))
    lengths = set(range(0, len(blob), max(1, len(blob) // 96)))
    lengths.update({0, 1, 7, 8, 11, 12, 19, 20, 23, 24, len(blob) - 5, len(blob) - 1})
    for length in sorted(lengths):
        with pytest.raises(SnapshotCorruptError) as excinfo:
            decode_snapshot(blob[:length])
        assert excinfo.value.offset is not None
        assert "at byte" in str(excinfo.value)


def test_bit_flip_fuzzing_raises_only_the_typed_error():
    """Byte-level corruption fuzzing: flip bytes everywhere (CRC catches
    them), and reseal a sample so deeper structural checks fire — every
    failure is SnapshotCorruptError, and no struct.error, ValueError,
    or UnicodeDecodeError ever leaks."""
    from repro.errors import SnapshotCorruptError

    rng = random.Random(20251008)
    blob = encode_snapshot(running_example_document())
    for _ in range(120):
        corrupted = bytearray(blob)
        offset = rng.randrange(len(corrupted))
        corrupted[offset] ^= 1 << rng.randrange(8)
        try:
            decode_snapshot(bytes(corrupted))
        except SnapshotCorruptError:
            pass  # the only acceptable failure type
    # Resealed corruption gets past the CRC; structural validation must
    # still classify it as SnapshotCorruptError.
    for _ in range(120):
        payload = bytearray(blob[:-4])
        offset = rng.randrange(len(SNAPSHOT_MAGIC), len(payload))
        payload[offset] ^= 1 << rng.randrange(8)
        try:
            decode_snapshot(_reseal(bytes(payload)))
        except SnapshotCorruptError:
            pass


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
