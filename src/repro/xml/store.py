"""Persistent document store (the paper's §7 future-work direction).

The conclusion of the paper points at "using our techniques for XPath
processors that query XML documents stored in a database". This module
provides the substrate for that: a named catalog of finalized documents
that reconstructs them with their document order (and therefore every
axis computation) intact.

**Format v2 (JSON catalog + binary sidecars).** The catalog file holds
only ``{"format": 2, "file": "<sidecar>"}`` entries; each document's
payload is a versioned binary snapshot (:mod:`repro.xml.snapshot`:
magic, version, flat ``parent_pre`` / ``size`` / ``post`` / ``depth``
columns, string tables, CRC-32) in its own file under ``<store>.d/``.
Saving one document touches one sidecar plus the small catalog — O(1)
in the number of *other* stored documents. Loaded documents are
:class:`~repro.xml.columns.ColumnDocument` instances with their
:class:`~repro.xml.index.NodeIndex` pre-seeded, which is why
:class:`~repro.service.scheduler.ProcessScheduler` workers consume
snapshots (via :meth:`DocumentStore.load_snapshot` or the scheduler's
in-memory blobs) instead of re-parsing markup.

A catalog written by format v1 (inline JSON node tables) is refused at
open with a :class:`DocumentStoreError` naming the remedy.

Writes are atomic *and durable*: content is serialized first (a failing
serialization can never leave debris), written to a temp file, fsynced,
``os.replace``d over the target, and the directory entry fsynced; the
temp file is removed on any error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.errors import DocumentStoreError
from repro.xml.columns import ColumnDocument
from repro.xml.document import Document
from repro.xml.snapshot import (
    decode_snapshot,
    encode_snapshot,
    snapshot_column_sizes,
)

__all__ = ["DocumentStore", "DocumentStoreError"]

_FORMAT_VERSION = 2


def _write_bytes_durably(path: pathlib.Path, data: bytes) -> None:
    """Atomic + durable file replacement: temp file, fsync, rename,
    directory fsync; the temp file never survives an error."""
    temp_path = path.with_name(path.name + ".tmp")
    try:
        with open(temp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as error:
        try:
            temp_path.unlink()
        except OSError:
            pass
        raise DocumentStoreError(f"cannot write {path}: {error}") from error
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir open
        return
    try:
        os.fsync(directory_fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(directory_fd)


class DocumentStore:
    """A named collection of persisted documents: one JSON catalog plus
    one binary snapshot sidecar per document."""

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        self._data = self._read()

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------

    @property
    def sidecar_dir(self) -> pathlib.Path:
        """Directory holding the per-document snapshot files."""
        return self.path.with_name(self.path.name + ".d")

    def _read(self) -> dict:
        if not self.path.exists():
            return {"version": _FORMAT_VERSION, "documents": {}}
        try:
            with open(self.path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise DocumentStoreError(f"cannot read store {self.path}: {error}") from error
        if not isinstance(data, dict) or not isinstance(data.get("documents"), dict):
            raise DocumentStoreError(f"{self.path} is not a document store file")
        version = data.get("version")
        # Inline node tables outlive the version field: saving into a v1
        # catalog stamped it 2 and left the other entries as they were.
        if version == 1 or any(
            isinstance(entry, dict) and "nodes" in entry
            for entry in data["documents"].values()
        ):
            raise DocumentStoreError(
                f"{self.path} was written by format v1; migrate it with a "
                "checkout at or before PR 18"
            )
        if version != _FORMAT_VERSION:
            raise DocumentStoreError(
                f"unsupported store version {version!r} in {self.path}"
            )
        return data

    def _write(self) -> None:
        # Serialize before touching the filesystem: a failing
        # json.dumps must not create (or strand) a temp file.
        payload = json.dumps(self._data, separators=(",", ":")).encode("utf-8")
        _write_bytes_durably(self.path, payload)

    def _sidecar_path(self, entry: dict) -> pathlib.Path:
        filename = entry.get("file")
        if not isinstance(filename, str) or os.sep in filename or filename in (
            "",
            ".",
            "..",
        ):
            raise DocumentStoreError(f"corrupt store: bad sidecar name {filename!r}")
        return self.sidecar_dir / filename

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Stored document names, sorted."""
        return sorted(self._data["documents"])

    def __contains__(self, name: str) -> bool:
        return name in self._data["documents"]

    def __len__(self) -> int:
        return len(self._data["documents"])

    def save(self, name: str, document: Document) -> None:
        """Persist a finalized document under ``name`` (overwrites).

        Writes the snapshot sidecar first (durably), then the small
        catalog — saving one document never rewrites another document's
        payload.
        """
        self.save_snapshot(name, document)

    def save_snapshot(self, name: str, document: Document) -> pathlib.Path:
        """Persist ``document`` as a binary snapshot sidecar; returns the
        sidecar path."""
        document._require_finalized()
        blob = encode_snapshot(document)
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:24]
        filename = f"{digest}.snap"
        self.sidecar_dir.mkdir(parents=True, exist_ok=True)
        sidecar = self.sidecar_dir / filename
        _write_bytes_durably(sidecar, blob)
        self._data["documents"][name] = {"format": _FORMAT_VERSION, "file": filename}
        self._write()
        return sidecar

    def _entry(self, name: str) -> dict:
        entry = self._data["documents"].get(name)
        if entry is None:
            raise DocumentStoreError(f"no document named {name!r} in {self.path}")
        if not isinstance(entry, dict):
            raise DocumentStoreError(f"corrupt store: malformed entry for {name!r}")
        return entry

    def load(self, name: str, lazy: bool = True) -> ColumnDocument:
        """Reconstruct the document stored under ``name``.

        The loaded :class:`~repro.xml.columns.ColumnDocument` has
        identical pre-order numbering, subtree sizes, and string values
        — every axis computation gives the same answers as on the
        original — and arrives with its node index pre-seeded and no
        ``Node`` object boxed. ``lazy`` is accepted and selects nothing.
        """
        return decode_snapshot(self.load_snapshot(name))

    def load_snapshot(self, name: str) -> bytes:
        """The raw snapshot blob for ``name`` (decodable with
        :func:`repro.xml.snapshot.decode_snapshot`)."""
        sidecar = self._sidecar_path(self._entry(name))
        try:
            return sidecar.read_bytes()
        except OSError as error:
            raise DocumentStoreError(
                f"cannot read snapshot {sidecar}: {error}"
            ) from error

    def column_sizes(self, name: str) -> dict[str, int]:
        """Per-document storage accounting for ``store list``: node
        count, bytes on disk (the blob as stored), and the decoded
        flat-column bytes a load keeps resident. See
        :func:`repro.xml.snapshot.snapshot_column_sizes`."""
        return snapshot_column_sizes(self.load_snapshot(name))

    def delete(self, name: str) -> None:
        """Remove a document (and its sidecar, if any) from the store."""
        entry = self._data["documents"].get(name)
        if entry is None:
            raise DocumentStoreError(f"no document named {name!r} in {self.path}")
        del self._data["documents"][name]
        self._write()
        if isinstance(entry, dict):
            try:
                self._sidecar_path(entry).unlink()
            except (OSError, DocumentStoreError):
                pass  # the catalog no longer references it; best effort
