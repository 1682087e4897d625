"""Tests for the persistent document store (paper §7 future work)."""

import json
import random

import pytest

from repro import stats
from repro.engine import XPathEngine
from repro.workloads.documents import book_catalog, random_document, running_example_document
from repro.xml.columns import ColumnDocument
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.store import DocumentStore, DocumentStoreError


@pytest.fixture()
def store(tmp_path):
    return DocumentStore(tmp_path / "store.json")


def test_save_and_load_round_trip(store):
    original = parse_document('<a id="1"><b k="v">text<!--c--><?p d?></b></a>')
    store.save("doc", original)
    before = stats.axis_kernel_stats.snapshot()
    loaded = store.load("doc")
    after = stats.axis_kernel_stats.snapshot()
    # The one decoded form: columns only, index adopted, nothing boxed.
    assert type(loaded) is ColumnDocument and loaded.materialized_count() == 0
    assert after["nodes_materialized"] == before["nodes_materialized"]
    assert after["index_builds"] == before["index_builds"]
    assert after["index_adoptions"] == before["index_adoptions"] + 1
    assert serialize(loaded) == serialize(original)
    assert len(loaded) == len(original)
    # Pre-order numbering identical node for node.
    for a, b in zip(original.nodes, loaded.nodes):
        assert (a.kind, a.name, a.value, a.pre, a.size) == (b.kind, b.name, b.value, b.pre, b.size)


def test_loaded_document_queries_identically(store):
    original = running_example_document()
    store.save("paper", original)
    loaded = store.load("paper")
    query = "/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]"
    expected = [n.xml_id for n in XPathEngine(original).evaluate(query)]
    got = [n.xml_id for n in XPathEngine(loaded).evaluate(query)]
    assert got == expected == ["13", "14", "21", "22", "23", "24"]


def test_store_persists_across_instances(store, tmp_path):
    store.save("one", parse_document("<a/>"))
    reopened = DocumentStore(tmp_path / "store.json")
    assert "one" in reopened
    assert reopened.load("one").root_element.name == "a"


def test_multiple_documents(store):
    store.save("a", parse_document("<a/>"))
    store.save("b", parse_document("<b><c/></b>"))
    assert store.names() == ["a", "b"]
    assert len(store) == 2
    assert store.load("b").root_element.children[0].name == "c"


def test_overwrite(store):
    store.save("x", parse_document("<a/>"))
    store.save("x", parse_document("<b/>"))
    assert store.load("x").root_element.name == "b"
    assert len(store) == 1


def test_delete(store):
    store.save("x", parse_document("<a/>"))
    store.delete("x")
    assert "x" not in store
    with pytest.raises(DocumentStoreError):
        store.delete("x")


def test_missing_document(store):
    with pytest.raises(DocumentStoreError):
        store.load("nope")


def test_custom_id_attribute_preserved(store):
    original = parse_document('<a key="k1"/>', id_attribute="key")
    store.save("doc", original)
    loaded = store.load("doc")
    assert loaded.element_by_id("k1") is loaded.root_element


def test_corrupt_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(DocumentStoreError):
        DocumentStore(path)
    path.write_text('{"something": "else"}', encoding="utf-8")
    with pytest.raises(DocumentStoreError):
        DocumentStore(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"version": 99, "documents": {}}', encoding="utf-8")
    with pytest.raises(DocumentStoreError):
        DocumentStore(path)


def _write_v1_store(path, rows, id_attribute="id", version=1):
    """Hand-craft a legacy (format v1) store file with inline node rows."""
    payload = {
        "version": version,
        "documents": {"x": {"id_attribute": id_attribute, "nodes": rows}},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


_V1_ROWS = [
    ["D", None, None, -1],
    ["E", "a", None, 0],
    ["A", "id", "1", 1],
    ["T", None, "text", 1],
]


def test_v1_catalog_is_refused_at_open_naming_the_remedy(tmp_path):
    """Format v1 (inline node tables) is no longer read: opening such a
    catalog — also one a v2 save re-stamped while leaving inline entries
    behind — fails with the typed error, before any load."""
    path = tmp_path / "old.json"
    for stamped_version in (1, 2):
        _write_v1_store(path, _V1_ROWS, version=stamped_version)
        with pytest.raises(DocumentStoreError, match="written by format v1; migrate it"):
            DocumentStore(path)


def test_corrupt_node_table_rejected(tmp_path):
    rows = [list(row) for row in _V1_ROWS]
    rows[1][0] = "Z"  # unknown kind code
    path = tmp_path / "bad.json"
    _write_v1_store(path, rows)
    with pytest.raises(DocumentStoreError):
        DocumentStore(path).load("x")


def test_failed_write_leaves_no_temp_file(store, tmp_path):
    """Regression (bugfix b): a failing serialization mid-save used to
    strand ``store.json.tmp`` next to the catalog."""
    store.save("ok", parse_document("<a/>"))
    store._data["documents"]["bad"] = object()  # unserializable
    with pytest.raises(TypeError):
        store._write()
    debris = list(tmp_path.glob("*.tmp")) + list(tmp_path.glob("**/*.tmp"))
    assert debris == [], f"temp files stranded: {debris}"
    # The catalog on disk is still the last good state.
    assert "ok" in DocumentStore(tmp_path / "store.json")


def test_saving_one_document_does_not_rewrite_others(store, tmp_path):
    """Regression (bugfix c): every save used to rewrite the whole
    catalog JSON — O(total store) per document. Payloads now live in
    per-document sidecar files and the catalog stays small."""
    big = book_catalog(books=40)
    store.save("big", big)
    sidecars = sorted(store.sidecar_dir.iterdir())
    assert len(sidecars) == 1
    big_payload_mtime = sidecars[0].stat().st_mtime_ns
    big_payload_bytes = sidecars[0].read_bytes()
    store.save("small", parse_document("<a/>"))
    # The big document's payload file was not touched by the other save.
    assert sorted(store.sidecar_dir.iterdir())[0].stat().st_mtime_ns == (
        big_payload_mtime
    )
    assert sorted(store.sidecar_dir.iterdir())[0].read_bytes() == big_payload_bytes
    # The catalog itself holds references, not node tables: its size is
    # independent of document sizes.
    catalog = (tmp_path / "store.json").read_bytes()
    assert len(catalog) < 300
    assert b"nodes" not in catalog


def test_load_snapshot_round_trips_raw_blob(store):
    from repro.xml.snapshot import decode_snapshot

    original = running_example_document()
    store.save("paper", original)
    blob = store.load_snapshot("paper")
    assert isinstance(blob, bytes)
    assert serialize(decode_snapshot(blob)) == serialize(original)


def test_delete_removes_sidecar(store):
    store.save("x", parse_document("<a/>"))
    assert len(list(store.sidecar_dir.iterdir())) == 1
    store.delete("x")
    assert list(store.sidecar_dir.iterdir()) == []


def test_random_documents_round_trip(store):
    rng = random.Random(11)
    for index in range(10):
        doc = random_document(rng, max_nodes=25)
        store.save(f"doc{index}", doc)
        assert serialize(store.load(f"doc{index}")) == serialize(doc)


def test_catalog_round_trip_and_query(store):
    doc = book_catalog(books=4)
    store.save("catalog", doc)
    loaded = store.load("catalog")
    assert XPathEngine(loaded).evaluate("count(//book)") == 4.0
