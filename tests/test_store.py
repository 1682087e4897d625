"""Tests for the persistent document store (paper §7 future work):
one snapshot file per document, the directory as the catalog."""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import stats
from repro.engine import XPathEngine
from repro.errors import SnapshotCorruptError
from repro.workloads.documents import book_catalog, random_document, running_example_document
from repro.xml.columns import ColumnDocument
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import decode_snapshot
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
    """Nothing is ever written at the store's own path, so whatever file
    sits there is not this store's: refused, unread."""
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
    """The JSON catalogs of formats v1 (inline node tables) and v2
    (sidecar references) are no longer read: opening a store on one
    fails with the typed error and the remedy, before any load — and so
    does loading a v2 sidecar someone copied into the directory."""
    path = tmp_path / "old.json"
    remedy = "checkout at or before PR 22, save them with this one"
    _write_v1_store(path, _V1_ROWS)
    with pytest.raises(DocumentStoreError, match=remedy):
        DocumentStore(path)
    path.write_text(
        json.dumps({"version": 2, "documents": {"x": {"format": 2, "file": "ab.snap"}}}),
        encoding="utf-8",
    )
    with pytest.raises(DocumentStoreError, match=remedy):
        DocumentStore(path)
    path.unlink()
    store = DocumentStore(path)
    file = store.save_snapshot("x", parse_document("<a/>"))
    file.write_bytes(b"RXSNAP02" + bytes(64))
    for read in (store.names, lambda: store.load("x"), lambda: store.column_sizes("x")):
        with pytest.raises(SnapshotCorruptError, match="RXSNAP02.*PR 22.*save it again"):
            read()


def test_corrupt_node_table_rejected(tmp_path):
    rows = [list(row) for row in _V1_ROWS]
    rows[1][0] = "Z"  # unknown kind code
    path = tmp_path / "bad.json"
    _write_v1_store(path, rows)
    with pytest.raises(DocumentStoreError):
        DocumentStore(path).load("x")


def _debris(tmp_path):
    return sorted(tmp_path.glob("**/*.tmp"))


def test_failed_write_leaves_no_temp_file(store, tmp_path, monkeypatch):
    """Regression (bugfix b, re-aimed at the one-file layout): neither a
    failing encode nor a failing write strands ``<file>.tmp``."""
    store.save("ok", parse_document("<a/>"))
    from repro.xml.document import Document

    with pytest.raises(repro.ReproError):
        store.save("unfinalized", Document())  # fails before any file is touched
    assert _debris(tmp_path) == []

    def failing_fsync(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(DocumentStoreError, match="cannot write"):
        store.save("bad", parse_document("<b/>"))
    monkeypatch.undo()
    assert _debris(tmp_path) == [], "temp files stranded"
    # The store on disk is still the last good state.
    assert DocumentStore(tmp_path / "store.json").names() == ["ok"]


def test_saving_one_document_does_not_rewrite_others(store, tmp_path):
    """Regression (bugfix c, re-aimed): a put writes its own file and
    nothing else — no other document's payload, and no catalog, whose
    rewrite was O(documents) per put."""
    big = book_catalog(books=40)
    store.save("big", big)
    (big_file,) = store.sidecar_dir.iterdir()
    big_payload_mtime = big_file.stat().st_mtime_ns
    big_payload_bytes = big_file.read_bytes()
    small_file = store.save_snapshot("small", parse_document("<a/>"))
    # The big document's payload file was not touched by the other save.
    assert big_file.stat().st_mtime_ns == big_payload_mtime
    assert big_file.read_bytes() == big_payload_bytes
    # Two documents, two files, and nothing else anywhere near the store.
    assert sorted(store.sidecar_dir.iterdir()) == sorted([big_file, small_file])
    assert sorted(tmp_path.iterdir()) == [store.sidecar_dir]
    assert not (tmp_path / "store.json").exists()


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


# ----------------------------------------------------------------------
# The directory is the catalog (PR 24)
# ----------------------------------------------------------------------


def test_two_stores_on_one_path_see_each_others_puts_and_deletes(tmp_path):
    """Regression: each instance used to rewrite the catalog from its own
    in-memory copy, so the second put dropped the first from the catalog
    and orphaned its sidecar."""
    path = tmp_path / "store.json"
    a, b = DocumentStore(path), DocumentStore(path)
    a.save("x", parse_document("<x/>"))
    b.save("y", parse_document("<y><z/></y>"))
    for view in (a, b, DocumentStore(path)):
        assert view.names() == ["x", "y"] and len(view) == 2
        assert "x" in view and "y" in view
    assert a.load("y").root_element.name == "y"
    assert b.load("x").root_element.name == "x"
    b.delete("x")
    assert "x" not in a and a.names() == ["y"]
    with pytest.raises(DocumentStoreError, match="no document named 'x'"):
        a.load("x")
    # Debris of a killed writer is not a document.
    (a.sidecar_dir / "0123456789abcdef01234567.snap.tmp").write_bytes(b"half a blob")
    assert a.names() == b.names() == ["y"] and len(DocumentStore(path)) == 1


def test_names_are_read_off_the_headers_and_checked_against_the_file_names(store):
    store.save("naïve ☃/..", parse_document("<a/>"))
    file = store.save_snapshot("b", parse_document("<b/>"))
    assert store.names() == ["b", "naïve ☃/.."]
    assert {entry.name for entry in store.sidecar_dir.iterdir()} == {
        entry.name for entry in (file, store._file("naïve ☃/.."))
    }
    # A file that holds another document than its name says is corruption,
    # not a document.
    file.rename(file.with_name("f" * 24 + ".snap"))
    with pytest.raises(DocumentStoreError, match="holds a document named 'b'"):
        store.names()


class _Crash(BaseException):
    """A kill, as far as the code under test can tell: no handler of the
    store may swallow or clean up after it."""


def _failing(monkeypatch, point: str, failure: BaseException) -> None:
    """Arm one failure at ``point`` of the next put."""
    real_fsync, real_replace = os.fsync, os.replace
    fsyncs = []

    def fsync(fd):
        fsyncs.append(fd)
        if (point, len(fsyncs)) in (("file fsync", 1), ("directory fsync", 2)):
            raise failure
        return real_fsync(fd)

    def replace(source, target):
        if point == "rename":
            raise failure
        return real_replace(source, target)

    class HalfWriter:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[: len(data) // 2])
            self.handle.flush()
            raise failure

    def half_open(path, mode):
        return HalfWriter(open(path, mode))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    if point == "write":
        monkeypatch.setattr("repro.xml.store.open", half_open, raising=False)


@pytest.mark.parametrize("kill", [False, True], ids=["error", "kill"])
@pytest.mark.parametrize("point", ["write", "file fsync", "rename", "directory fsync"])
@pytest.mark.parametrize("existing", [True, False], ids=["overwrite", "first save"])
def test_a_put_that_fails_or_dies_leaves_the_old_document_or_the_new(
    tmp_path, monkeypatch, existing, point, kill
):
    """Fault injection at each step of the commit — mid-write, between
    write and file fsync, between file fsync and rename, between rename
    and directory fsync — as an ``OSError`` the store handles and as a
    kill it cannot: a fresh store then loads the old document or the new
    one in full, never neither, never a mixture."""
    path = tmp_path / "store.json"
    old, new = book_catalog(books=3), book_catalog(books=5)
    store = DocumentStore(path)
    store.save("other", parse_document("<other/>"))
    if existing:
        store.save("doc", old)
    _failing(monkeypatch, point, _Crash() if kill else OSError(5, "Input/output error"))
    renamed = point == "directory fsync"
    if kill:
        with pytest.raises(_Crash):
            store.save("doc", new)
    elif renamed:
        store.save("doc", new)  # a directory fsync that fails is not fatal
    else:
        with pytest.raises(DocumentStoreError, match="cannot write"):
            store.save("doc", new)
        assert _debris(tmp_path) == []  # the failing call cleaned up
    monkeypatch.undo()
    fresh = DocumentStore(path)
    survivor = new if renamed else old if existing else None
    if survivor is None:
        assert fresh.names() == ["other"] and "doc" not in fresh
    else:
        assert fresh.names() == ["doc", "other"]
        assert serialize(fresh.load("doc")) == serialize(survivor)
        assert serialize(decode_snapshot(fresh.load_snapshot("doc"))) == serialize(survivor)
    assert fresh.load("other").root_element.name == "other"
    # Whatever a kill left behind, the next put of that name replaces.
    fresh.save("doc", new)
    assert _debris(tmp_path) == []
    assert XPathEngine(fresh.load("doc")).evaluate("count(//book)") == 5.0


_SAVE_LOOP = """
import sys
from repro.xml.parser import parse_document
from repro.xml.store import DocumentStore
store = DocumentStore(sys.argv[1])
k = 0
while True:
    markup = "<r n='%d'>%s</r>" % (k, "<b>x</b>" * (k % 7 + 1) * 40)
    store.save("doc%d" % (k % 5), parse_document(markup))
    k += 1
    if k == 10:
        print("looping", flush=True)
"""


def test_sigkill_mid_save_loop_leaves_a_store_that_opens(tmp_path):
    """The drive from ``.claude/skills/verify``: SIGKILL a process that
    is overwriting five names in a loop; every name a fresh store lists
    then loads, passes the full check, and answers a query."""
    path = tmp_path / "store.json"
    source = os.path.dirname(os.path.dirname(repro.__file__))
    process = subprocess.Popen(
        [sys.executable, "-c", _SAVE_LOOP, str(path)],
        env={**os.environ, "PYTHONPATH": source},
        stdout=subprocess.PIPE,
    )
    try:
        assert process.stdout.readline().strip() == b"looping"
        time.sleep(0.05)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        process.stdout.close()
    store = DocumentStore(path)
    assert store.names() == [f"doc{i}" for i in range(5)]
    for name in store.names():
        document = store.load(name)
        decode_snapshot(store.load_snapshot(name))
        engine = XPathEngine(document)
        k = int(engine.evaluate("number(/r/@n)"))
        assert name == f"doc{k % 5}"
        assert engine.evaluate("count(//b)") == (k % 7 + 1) * 40


def test_store_counters_are_exact_and_their_identities_hold(tmp_path):
    """``store_stats``: every counter ticked where its event happens,
    the identities asserted over a mixed run — and the per-open zeros the
    one-file format exists for."""

    def delta(action):
        before = stats.store_stats.snapshot()
        result = action()
        after = stats.store_stats.snapshot()
        return result, {key: after[key] - before[key] for key in after if after[key] != before[key]}

    start = stats.store_stats.snapshot()
    store = DocumentStore(tmp_path / "deep" / "er" / "store")
    document, moved = delta(lambda: parse_document("<a><b/>text</a>"))
    assert moved == {"partition_passes": 1}
    file, moved = delta(lambda: store.save_snapshot("a", document))
    size = file.stat().st_size
    assert moved == {
        "puts": 1, "files_written": 1, "bytes_written": size,
        "directories_created": 1, "fsyncs": 3,
    }
    _, moved = delta(lambda: store.save("a", document))  # overwrite: no mkdir
    assert moved == {"puts": 1, "files_written": 1, "bytes_written": size, "fsyncs": 2}
    _, moved = delta(lambda: store.save("b", book_catalog(books=2)))  # boxed tree
    assert moved["partition_passes"] == 1 and moved["fsyncs"] == 2
    loaded, moved = delta(lambda: store.load("b"))
    assert moved == {"opens": 1}  # no partition pass, no structural check
    blob, moved = delta(lambda: store.load_snapshot("b"))
    assert moved == {}
    _, moved = delta(lambda: decode_snapshot(blob))
    assert moved == {"structural_checks": 1, "partition_passes": 1}
    _, moved = delta(lambda: store.delete("a"))
    assert moved == {"deletes": 1, "fsyncs": 1}
    with pytest.raises(DocumentStoreError):
        store.load("a")
    with pytest.raises(DocumentStoreError):
        store.delete("a")
    _, moved = delta(lambda: [store.names(), len(store), "b" in store, store.column_sizes("b")])
    assert moved == {}
    # The family, declared once; the identities, over this whole run (a
    # put that died after its rename, as in the crash tests above, is a
    # file written and no put — which is why these are checks).
    end = stats.store_stats.snapshot()
    assert tuple(end) == stats.StoreStats.COUNTERS
    totals = {key: end[key] - start[key] for key in end}
    assert totals["puts"] == 3 and totals["deletes"] == 1 and totals["opens"] == 1
    assert totals["files_written"] == totals["puts"]
    assert totals["fsyncs"] == (
        2 * totals["puts"] + totals["deletes"] + totals["directories_created"]
    )
    with pytest.raises(KeyError):
        stats.store_stats.tick("saves")
