"""Persistent document store (the paper's §7 future-work direction).

The conclusion of the paper points at "using our techniques for XPath
processors that query XML documents stored in a database". This module
is the substrate for that: named, finalized documents kept as binary
snapshots (:mod:`repro.xml.snapshot`) that reopen with their document
order — and therefore every axis computation — intact and their
:class:`~repro.xml.index.NodeIndex` already in the file.

**The directory is the catalog.** ``DocumentStore(path)`` keeps one file
per document, ``<path>.d/<sha256(name)[:24]>.snap``, whose header names
the document. Nothing is written at ``path`` itself and no object holds
a copy of the name table, so:

* a **put** is one file: the blob is encoded first (a failing encode
  touches nothing), written to ``<file>.tmp``, fsynced, ``os.replace``d
  over the target, and the directory fsynced — two fsyncs, no other
  document's file touched. The rename *is* the commit: a crash before it
  leaves the previous document (or none), after it the new one, never a
  mixture; an error on the way removes the temp file;
* ``names()`` / ``len`` / ``in`` read the directory (to list, also each
  file's header), so two ``DocumentStore`` objects on one path — or two
  processes — see each other's puts and deletes. ``*.tmp`` debris of a
  killed process is never listed; the next put of that name replaces it;
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

import hashlib
import os
import pathlib

from repro.errors import DocumentStoreError
from repro.stats import store_stats
from repro.xml.columns import ColumnDocument
from repro.xml.document import Document
from repro.xml.snapshot import (
    decode_stored,
    encode_snapshot,
    snapshot_column_sizes,
    snapshot_name,
)

__all__ = ["DocumentStore", "DocumentStoreError"]


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
        """Persist a finalized document under ``name`` (overwrites)."""
        self.save_snapshot(name, document)

    def save_snapshot(self, name: str, document: Document) -> pathlib.Path:
        """:meth:`save`, returning the path of the snapshot file — the
        put of the module docstring."""
        blob = encode_snapshot(document, name)
        target = self._file(name)
        temp = target.with_name(target.name + ".tmp")
        try:
            if not self.sidecar_dir.exists():
                # First put into a new store: the directory the puts are
                # committed into must itself be durable.
                self.sidecar_dir.mkdir(parents=True, exist_ok=True)
                store_stats.tick("directories_created")
                _fsync_directory(self.sidecar_dir.parent)
            with open(temp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
                store_stats.tick("fsyncs")
            os.replace(temp, target)
        except OSError as error:
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

    def load(self, name: str, lazy: bool = True) -> ColumnDocument:
        """Reconstruct the document stored under ``name``: identical
        pre-order numbering, subtree sizes and string values — every
        axis computation answers as on the original — with its node
        index adopted from the file, no ``Node`` object boxed and no
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
