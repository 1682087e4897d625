"""Persistent document store (the paper's §7 future-work direction).

The conclusion of the paper points at "using our techniques for XPath
processors that query XML documents stored in a database". This module
is the substrate for that: named documents kept as binary
snapshots (:mod:`repro.xml.snapshot`) that reopen with their document
order — and therefore every axis computation — intact and their
:class:`~repro.xml.index.NodeIndex` already in the file.

**The directory is the catalog.** ``DocumentStore(path)`` keeps one file
per document, ``<path>.d/<sha256(name)[:24]>.snap``, whose header names
the document. Nothing is written at ``path`` itself and no object holds
a copy of the name table, so:

* a **put** is one file: the blob is encoded first (a failing encode
  touches nothing), written to a temp file of its own (a fresh
  ``<file>.<random>.tmp``), fsynced, ``os.replace``d over the target,
  and the directory fsynced — two fsyncs, no other document's file
  touched. The rename *is* the commit: a crash before it leaves the
  previous document (or none), after it the new one, never a mixture; an
  error on the way removes the temp file. Two writers of one name —
  threads or processes — never share a temp file, so each commits a
  whole document and the last rename wins;
* ``names()`` / ``len`` / ``in`` read the directory (to list, also each
  file's header), so two ``DocumentStore`` objects on one path — or two
  processes — see each other's puts and deletes. ``*.tmp`` debris of a
  killed writer is never listed, and opening a store removes it. A put
  holds an exclusive ``flock`` on its temp file from creating it until
  the rename, and the kernel drops that lock when the writer dies, so
  the opener removes only the temp files it can lock: never one a live
  writer is still writing, whatever process namespace or (on a file
  system whose locks span hosts) host that writer runs in;
* a **load** goes straight to the file its name hashes to and trusts it
  as far as the snapshot module's docstring argues: CRC-32 over the whole
  blob, a header naming the document asked for, bounds-checked sections
  — and no per-node pass of any kind;
* a **delete** is an unlink plus the directory fsync.

Refused at open, with the remedy: a file at ``path`` — the JSON catalog
of store formats v1 and v2, which this layout has no use for. Refused at
load: an ``RXSNAP02`` file (a v2 sidecar). A checkout at or before PR 22
reads both; load the documents there and save them here.
:data:`repro.stats.store_stats` counts puts, deletes, opens, files
written, fsyncs and bytes, each where it happens.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import pathlib
import tempfile

from repro.errors import DocumentStoreError
from repro.stats import store_stats
from repro.xml.document import Document
from repro.xml.snapshot import (
    decode_stored,
    encode_snapshot,
    snapshot_column_sizes,
    snapshot_name,
)

__all__ = ["DocumentStore", "DocumentStoreError"]


def _same_file(fd: int, path: str | os.PathLike) -> bool:
    """Whether ``path`` still names the file open as ``fd``."""
    try:
        return os.path.samestat(os.fstat(fd), os.stat(path))
    except FileNotFoundError:
        return False


def _locked_temp_file(target: pathlib.Path) -> tuple[int, pathlib.Path]:
    """A new temp file beside ``target``, open for writing and under this
    put's exclusive lock. An opener may remove the file between its
    creation and the lock (it cannot tell it from a dead writer's); the
    put then finds its name gone and makes another."""
    while True:
        fd, name = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            kept = _same_file(fd, name)
        except BaseException:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(name)
            raise
        if kept:
            return fd, pathlib.Path(name)
        os.close(fd)


def _remove_if_abandoned(temp: pathlib.Path) -> None:
    """Remove a temp file no put holds locked: its writer died."""
    try:
        fd = os.open(temp, os.O_RDWR)
    except FileNotFoundError:
        return  # committed or removed since the listing
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        # A put renames its file away before it lets go of the lock: a
        # name still on the locked file is debris.
        if _same_file(fd, temp):
            temp.unlink()
    except (BlockingIOError, FileNotFoundError):
        pass  # a live put is writing it, or it was committed meanwhile
    finally:
        os.close(fd)


def _fsync_directory(path: pathlib.Path) -> None:
    try:
        directory_fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir open
        return
    try:
        os.fsync(directory_fd)
        store_stats.tick("fsyncs")
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(directory_fd)


class DocumentStore:
    """A named collection of persisted documents: one binary snapshot
    file per document in ``<path>.d/``, and nothing else."""

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        if self.path.exists():
            raise DocumentStoreError(
                f"{self.path} exists: a store keeps its documents in "
                f"{self.sidecar_dir} and no catalog file. If it is the JSON "
                "catalog of store format v1 or v2, load its documents with a "
                "checkout at or before PR 22, save them with this one, and "
                "remove it"
            )
        for temp in self.sidecar_dir.glob("*.tmp"):  # no directory, no files
            _remove_if_abandoned(temp)

    @property
    def sidecar_dir(self) -> pathlib.Path:
        """Directory holding the per-document snapshot files."""
        return self.path.with_name(self.path.name + ".d")

    def _file(self, name: str) -> pathlib.Path:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:24]
        return self.sidecar_dir / f"{digest}.snap"

    def _missing(self, name: str) -> DocumentStoreError:
        return DocumentStoreError(f"no document named {name!r} in {self.path}")

    def names(self) -> list[str]:
        """Stored document names, sorted — read off the directory: the
        header of every ``*.snap`` file, which must name the document
        the file name is the hash of."""
        names = []
        for file in self.sidecar_dir.glob("*.snap"):  # no directory, no files
            try:
                with open(file, "rb") as handle:
                    name = snapshot_name(handle.read)
            except FileNotFoundError:
                continue  # deleted since the listing
            except OSError as error:
                raise DocumentStoreError(f"cannot read snapshot {file}: {error}") from error
            if self._file(name) != file:
                raise DocumentStoreError(
                    f"corrupt store: {file} holds a document named {name!r}"
                )
            names.append(name)
        return sorted(names)

    def __contains__(self, name: str) -> bool:
        return self._file(name).exists()

    def __len__(self) -> int:
        return len(self.names())

    def save(self, name: str, document: Document) -> None:
        """Persist a document under ``name`` (overwrites)."""
        self.save_snapshot(name, document)

    def save_snapshot(self, name: str, document: Document) -> pathlib.Path:
        """:meth:`save`, returning the path of the snapshot file — the
        put of the module docstring."""
        blob = encode_snapshot(document, name)
        target = self._file(name)
        temp = None
        try:
            if not self.sidecar_dir.exists():
                # First put into a new store: the directory the puts are
                # committed into must itself be durable.
                self.sidecar_dir.mkdir(parents=True, exist_ok=True)
                store_stats.tick("directories_created")
                _fsync_directory(self.sidecar_dir.parent)
            fd, temp = _locked_temp_file(target)
            with open(fd, "wb") as handle:  # closing it releases the lock
                handle.write(blob)
                handle.flush()
                os.fsync(fd)
                store_stats.tick("fsyncs")
                os.replace(temp, target)
        except OSError as error:
            if temp is not None:
                try:
                    temp.unlink()
                except OSError:
                    pass
            raise DocumentStoreError(f"cannot write {target}: {error}") from error
        store_stats.tick("files_written")
        store_stats.tick("bytes_written", len(blob))
        _fsync_directory(self.sidecar_dir)
        store_stats.tick("puts")
        return target

    def load(self, name: str, lazy: bool = True) -> Document:
        """Reconstruct the document stored under ``name``: identical
        pre-order numbering, subtree sizes and string values — every
        axis computation answers as on the original — with its node
        index adopted from the file, no ``Node`` object created and no
        string decoded. ``lazy`` is accepted and selects nothing."""
        document = decode_stored(self.load_snapshot(name), name)
        store_stats.tick("opens")
        return document

    def load_snapshot(self, name: str) -> bytes:
        """The raw snapshot blob for ``name`` (decodable with
        :func:`repro.xml.snapshot.decode_snapshot`)."""
        file = self._file(name)
        try:
            return file.read_bytes()
        except FileNotFoundError:
            raise self._missing(name) from None
        except OSError as error:
            raise DocumentStoreError(f"cannot read snapshot {file}: {error}") from error

    def column_sizes(self, name: str) -> dict[str, int]:
        """Per-document storage accounting for ``store list``; see
        :func:`repro.xml.snapshot.snapshot_column_sizes`."""
        return snapshot_column_sizes(self.load_snapshot(name))

    def delete(self, name: str) -> None:
        """Remove a document from the store: unlink, directory fsync."""
        try:
            self._file(name).unlink()
        except FileNotFoundError:
            raise self._missing(name) from None
        except OSError as error:
            raise DocumentStoreError(f"cannot delete {name!r}: {error}") from error
        _fsync_directory(self.sidecar_dir)
        store_stats.tick("deletes")
