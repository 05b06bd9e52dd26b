"""The sharded-store format shared by the toot corpus and the follower graph.

Both crawled datasets live on disk the same way: fixed-size ``.npz``
shards of integer columns, one intern-table archive (``tables.npz``) and
a JSON manifest naming them.  This module is that format's one
implementation; :mod:`repro.corpus.writer` / :mod:`repro.corpus.store`
(toots) and :mod:`repro.corpus.graph` (follower edges) supply only what
differs — spool columns, merge and interning rules, schema, column set
and count key, and column queries.

* :class:`ShardedWriter` — the crash-safe write lifecycle.  Each
  instance buffers into its own spool while it is crawled; a clean
  completion seals the spool to disk (temp + atomic rename) and
  journals it.  ``resume=True`` replays the journal of an interrupted
  run: journal-sealed spools that read back cleanly are trusted, and
  everything else (unsealed or unreadable spools, ``*.part`` files,
  shards and tables orphaned by a crash mid-merge) moves to
  ``quarantine/``.  :meth:`ShardedWriter.finalise`
  merges the spools in sorted-domain order into fixed-size shards,
  writes tables and manifest atomically, and removes spools and journal
  only after the manifest lands.
* :class:`ShardedStore` — the read side: manifest load and validation
  (the manifest is untrusted input: every malformed value is a
  :class:`DatasetError` naming the directory and key, and every file it
  names must be a plain file inside the store), shard bounds, the tables
  handle, :meth:`~ShardedStore.nbytes`, :attr:`~ShardedStore.coverage`
  and :meth:`~ShardedStore.content_digest`.  A shard or tables file
  that cannot be read is a :class:`DatasetError` naming it too.

Spools are a private format tuned for the merge: one file per instance,
``spool/<domain>.spool``.  The file holds the member arrays back to
back (each 8-byte aligned), then a JSON index (member name → dtype,
shape, offset, nbytes), then a fixed 16-byte trailer (index length +
magic).  String columns are two members each, newline-joined UTF-8
bytes plus an ``int64`` offset array, which is ~4× smaller than numpy's
fixed-width unicode arrays and sliceable by row range without decoding
the rest.  A *coded* string column, for values that repeat across rows,
is a per-spool table of its values (an ordinary string column with the
same framing checks) plus one ``int32`` code per row (``<name>_codes``),
so the merge compares and maps integers and decodes only the table.  A
seal writes each member as it is encoded, so it holds one encoded
column at a time; a read maps the file once and hands out zero-copy
member views.  The spool is read back as untrusted input:
:class:`SpoolReader` turns any malformed file (a code outside its
table included) into a :class:`DatasetError` naming it, and
``resume=True`` quarantines such a spool (or a spool of an older
layout) instead of merging it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import struct
import threading
import time
import weakref
import zipfile
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Mapping

import numpy as np

from repro.errors import DatasetError
from repro.corpus.journal import JOURNAL_NAME, CrawlJournal
from repro.corpus.npzmap import open_npz

_log = logging.getLogger("repro.corpus.sharded")

#: File and directory names inside a store.
MANIFEST_NAME = "manifest.json"
TABLES_NAME = "tables.npz"
SPOOL_DIR = "spool"
QUARANTINE_DIR = "quarantine"

#: A sealed spool is ``spool/<domain>`` plus this suffix.
SPOOL_SUFFIX = ".spool"

#: The last bytes of every spool file: ``<index length: u64 LE><magic>``.
SPOOL_TRAILER = struct.Struct("<Q8s")
SPOOL_MAGIC = b"RSPOOL01"

#: Every spool member starts at a multiple of this many bytes, so the
#: zero-copy views of ``int64`` members are aligned.
SPOOL_ALIGN = 8

#: Suffix of in-flight writes (spool seals, shards, manifests); anything
#: carrying it after a crash is, by construction, a partial write.
PARTIAL_SUFFIX = ".part"

#: Rows per merge chunk: bounds the decoded-string working set while
#: keeping the per-chunk numpy/dict overhead amortised.
MERGE_CHUNK_ROWS = 200_000

#: Manifest keys that vary per run without changing the store content
#: (timestamps, crawl-coverage accounting) — excluded from digests.
VOLATILE_MANIFEST_KEYS = ("created_at", "coverage")


# -- atomic files ---------------------------------------------------------------------


def atomic_savez(target: Path, **arrays: np.ndarray) -> None:
    """Write an ``.npz`` so it exists either completely or not at all.

    ``np.savez`` writes to an open file object (passing a path would
    append its own ``.npz`` suffix to the temp name); the final
    ``os.replace`` is atomic on POSIX, so a crash leaves only a
    ``*.part`` file that recovery quarantines.
    """
    tmp = target.with_name(target.name + PARTIAL_SUFFIX)
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
    os.replace(tmp, target)


def atomic_write_text(target: Path, text: str) -> None:
    """Write a text file via temp + atomic rename."""
    tmp = target.with_name(target.name + PARTIAL_SUFFIX)
    tmp.write_text(text)
    os.replace(tmp, target)


def quarantine(entry: Path, quarantine_dir: Path) -> None:
    """Move a partial write out of the way, never overwriting evidence."""
    quarantine_dir.mkdir(exist_ok=True)
    target = quarantine_dir / entry.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine_dir / f"{entry.name}.{suffix}"
    shutil.move(str(entry), str(target))


# -- spools and interning -------------------------------------------------------------


def string_array(values: list[str]) -> np.ndarray:
    return np.asarray(values, dtype=np.str_) if values else np.empty(0, dtype=np.str_)


class SpoolFile:
    """Writes one spool file, member by member (see the module docstring).

    Use as a context manager: :meth:`add` appends each member as soon as
    it is encoded (the caller can drop it right after), and a clean exit
    writes the index and trailer.
    """

    def __init__(self, path: Path) -> None:
        self._handle = open(path, "wb")
        self._index: dict[str, dict[str, Any]] = {}
        self._offset = 0

    def __enter__(self) -> "SpoolFile":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        try:
            if exc_type is None:
                index = json.dumps(self._index, sort_keys=True).encode("utf-8")
                self._handle.write(index)
                self._handle.write(SPOOL_TRAILER.pack(len(index), SPOOL_MAGIC))
        finally:
            self._handle.close()

    def add(self, name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        padding = -self._offset % SPOOL_ALIGN
        self._handle.write(b"\0" * padding)
        self._offset += padding
        self._handle.write(array.data)
        self._index[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": self._offset,
            "nbytes": array.nbytes,
        }
        self._offset += array.nbytes

    def add_strings(self, name: str, values: list[str]) -> None:
        """A string column as newline-joined UTF-8 bytes + offsets.

        ``{name}_offsets`` has ``len(values) + 1`` entries; row ``i``
        occupies ``data[offsets[i] : offsets[i + 1] - 1]`` (the trailing
        byte is the separator), so any row range decodes with one slice
        + split.
        """
        if not values:
            self.add(f"{name}_bytes", np.empty(0, dtype=np.uint8))
            self.add(f"{name}_offsets", np.zeros(1, dtype=np.int64))
            return
        try:
            encoded = "\n".join(values).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DatasetError(f"corpus {name} values must be valid Unicode: {exc}") from exc
        # shards and tables hold fixed-width unicode, which strips trailing
        # NULs: "x\0" would read back as "x" and collide with it
        if b"\0" in encoded:
            raise DatasetError(f"corpus {name} values must not contain NUL characters")
        data = np.frombuffer(encoded, dtype=np.uint8)
        separators = np.flatnonzero(data == ord("\n"))
        if separators.size != len(values) - 1:
            raise DatasetError(f"corpus {name} values must not contain newlines")
        self.add(f"{name}_bytes", data)
        offsets = np.empty(len(values) + 1, dtype=np.int64)
        offsets[0] = 0
        offsets[1:-1] = separators + 1
        offsets[-1] = data.size + 1
        del encoded, data, separators
        self.add(f"{name}_offsets", offsets)

    def add_coded(self, name: str, table: list[str], codes: np.ndarray) -> None:
        """A coded string column: its ``table`` of values plus a code per row."""
        self.add_strings(name, table)
        self.add(f"{name}_codes", codes.astype(np.int32, copy=False))


class SpoolReader:
    """Zero-copy, row-range access to one sealed spool file.

    The file is untrusted input.  It must hold exactly the ``strings``
    columns (a ``_bytes``/``_offsets`` member pair each), the ``coded``
    columns (that pair for the table plus an ``int32`` ``_codes``
    member) and the ``values`` members with their declared dtypes, every
    member range must lie inside the file and match its shape, every
    string column's offsets must frame its bytes, and every code must
    index its table.  Anything else is a :class:`DatasetError` naming the
    file.  The file is mapped once; :meth:`values`, :meth:`codes` and the
    string members are views of that mapping.
    """

    def __init__(
        self,
        path: Path,
        strings: Iterable[str],
        values: Mapping[str, Any],
        coded: Iterable[str] = (),
    ) -> None:
        self.path = path
        coded = tuple(coded)
        strings = tuple(strings) + coded
        expected = {name: np.dtype(dtype) for name, dtype in values.items()}
        for name in strings:
            expected[f"{name}_bytes"] = np.dtype(np.uint8)
            expected[f"{name}_offsets"] = np.dtype(np.int64)
        for name in coded:
            expected[f"{name}_codes"] = np.dtype(np.int32)
        try:
            mapped = np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray)
        except (OSError, ValueError) as exc:
            raise self.error(f"cannot be mapped ({exc})") from exc
        self._members = self._parse(mapped, expected)
        self._rows = {name: self._check_strings(name) for name in strings}
        for name in coded:
            codes = self.codes(name)
            if codes.size and (codes.min() < 0 or codes.max() >= self._rows[name]):
                raise self.error(
                    f"coded column {name!r} holds a code outside its table of "
                    f"{self._rows[name]}"
                )

    def error(self, problem: str) -> DatasetError:
        return DatasetError(f"corrupt spool {self.path}: {problem}")

    def _parse(
        self, mapped: np.ndarray, expected: Mapping[str, np.dtype]
    ) -> dict[str, np.ndarray]:
        size = mapped.size
        if size < SPOOL_TRAILER.size:
            raise self.error(f"{size} bytes is shorter than the trailer")
        index_size, magic = SPOOL_TRAILER.unpack(mapped[-SPOOL_TRAILER.size :].tobytes())
        if magic != SPOOL_MAGIC:
            raise self.error("bad trailer magic")
        data_end = size - SPOOL_TRAILER.size - index_size
        if data_end < 0:
            raise self.error(f"index of {index_size} bytes runs past the file start")
        try:
            index = json.loads(mapped[data_end : size - SPOOL_TRAILER.size].tobytes())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self.error("unreadable index") from exc
        if not isinstance(index, dict) or set(index) != set(expected):
            found = sorted(index) if isinstance(index, dict) else type(index).__name__
            raise self.error(f"unexpected members {found}")
        members: dict[str, np.ndarray] = {}
        for name, dtype in expected.items():
            entry = index[name]
            if not isinstance(entry, dict):
                raise self.error(f"member {name!r} has no index entry")
            shape, offset, nbytes = entry.get("shape"), entry.get("offset"), entry.get("nbytes")
            if entry.get("dtype") != dtype.str:
                raise self.error(
                    f"member {name!r} has dtype {entry.get('dtype')!r}, expected {dtype.str!r}"
                )
            if not (
                isinstance(shape, list)
                and len(shape) == 1
                and _has_type(shape[0], int)
                and shape[0] >= 0
                and _has_type(offset, int)
                and _has_type(nbytes, int)
                and shape[0] * dtype.itemsize == nbytes
            ):
                raise self.error(f"member {name!r} has a malformed shape or size")
            if offset < 0 or offset % SPOOL_ALIGN or offset + nbytes > data_end:
                raise self.error(
                    f"member {name!r} range [{offset}, {offset + nbytes}) lies outside "
                    f"the {data_end} data bytes"
                )
            members[name] = mapped[offset : offset + nbytes].view(dtype)
        return members

    def _check_strings(self, name: str) -> int:
        """Validate one string column's framing; returns its row count."""
        data, offsets = self._members[f"{name}_bytes"], self._members[f"{name}_offsets"]
        rows = offsets.size - 1
        if rows < 0 or offsets[0] != 0:
            raise self.error(f"string column {name!r} offsets do not start at 0")
        if rows == 0:
            framed = data.size == 0
        else:
            framed = (
                int(offsets[-1]) == data.size + 1
                and bool(np.all(offsets[1:] > offsets[:-1]))
                and bool(np.all(data[offsets[1:-1] - 1] == ord("\n")))
            )
        if not framed:
            raise self.error(f"string column {name!r} offsets do not frame its bytes")
        return rows

    def rows(self, name: str) -> int:
        """Rows in string column ``name`` (a coded column's table rows)."""
        return self._rows[name]

    def strings(self, name: str, start: int, stop: int) -> list[str]:
        """Decode rows ``[start, stop)`` of a string column."""
        if stop <= start:
            return []
        offsets = self._members[f"{name}_offsets"]
        blob = self._members[f"{name}_bytes"][int(offsets[start]) : int(offsets[stop]) - 1]
        try:
            parts = str(blob, "utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise self.error(f"string column {name!r} is not UTF-8") from exc
        if len(parts) != stop - start:
            raise self.error(f"string column {name!r} has a stray separator")
        return parts

    def values(self, name: str) -> np.ndarray:
        """A numeric member (a read-only view of the mapping)."""
        return self._members[name]

    def codes(self, name: str) -> np.ndarray:
        """A coded column's per-row codes into :meth:`table`."""
        return self._members[f"{name}_codes"]

    def table(self, name: str) -> list[str]:
        """A coded column's table, decoded."""
        return self.strings(name, 0, self._rows[name])


class Interner:
    """First-seen string interning."""

    def __init__(self) -> None:
        self.code: dict[str, int] = {}
        self.values: list[str] = []

    def __len__(self) -> int:
        return len(self.values)

    def intern_one(self, value: str) -> int:
        known = self.code.get(value)
        if known is None:
            known = self.code[value] = len(self.values)
            self.values.append(value)
        return known

    def intern(self, values: list[str]) -> np.ndarray:
        """Codes of ``values``, interning unseen ones first-seen in order.

        The lookups run in C (``map`` over ``dict.get``); only the misses
        take the Python loop.
        """
        codes = np.fromiter(
            map(self.code.get, values, repeat(-1)), np.int64, len(values)
        )
        for position in np.flatnonzero(codes < 0).tolist():
            codes[position] = self.intern_one(values[position])
        return codes


# -- shard flushing -------------------------------------------------------------------


def _take_rows(pending: dict[str, list[np.ndarray]], take: int) -> dict[str, np.ndarray]:
    """Split ``take`` rows off every pending column's chunk list."""
    shard: dict[str, np.ndarray] = {}
    for name, chunks in pending.items():
        merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        shard[name] = merged[:take]
        pending[name] = [merged[take:]]
    return shard


class ShardSink:
    """Merged rows waiting for a shard, flushed as ``<prefix>-NNNNN.npz``.

    The merge appends column chunks with :meth:`add`; every time a full
    ``shard_size`` rows are pending, ``take`` splits them off (per
    column, in declared column order) and the shard is written
    atomically.  :attr:`entries` is the manifest's ``shards`` list and
    :attr:`rows` the rows flushed so far.
    """

    def __init__(
        self,
        directory: Path,
        prefix: str,
        shard_size: int,
        columns: Iterable[str],
        take: Callable[[dict[str, list[np.ndarray]], int], dict[str, np.ndarray]],
    ) -> None:
        self._dir = directory
        self._prefix = prefix
        self._shard_size = shard_size
        self._take = take
        self.pending: dict[str, list[np.ndarray]] = {name: [] for name in columns}
        self.pending_rows = 0
        self.entries: list[dict[str, object]] = []
        self.rows = 0

    def add(self, rows: int, chunks: Mapping[str, np.ndarray]) -> None:
        """Queue one chunk per column (``rows`` rows) and flush full shards."""
        for name, chunk in chunks.items():
            self.pending[name].append(chunk)
        self.pending_rows += rows
        self.flush()

    def flush(self, everything: bool = False) -> None:
        """Write every full shard (and, with ``everything``, the ragged tail)."""
        while self.pending_rows >= self._shard_size or (everything and self.pending_rows):
            take = min(self._shard_size, self.pending_rows)
            shard_arrays = self._take(self.pending, take)
            file_name = f"{self._prefix}-{len(self.entries):05d}.npz"
            atomic_savez(self._dir / file_name, **shard_arrays)
            self.entries.append(
                {"file": file_name, "start": self.rows, "stop": self.rows + take}
            )
            self.rows += take
            self.pending_rows -= take


# -- the read side ----------------------------------------------------------------------


def _digest_array(digest: "hashlib._Hash", name: str, array: np.ndarray) -> None:
    """Fold one named array (dtype + shape + raw bytes) into a digest."""
    array = np.ascontiguousarray(array)
    digest.update(name.encode("utf-8"))
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(repr(array.shape).encode("utf-8"))
    digest.update(array.tobytes())


def _has_type(value: Any, expected: type) -> bool:
    """``isinstance`` where JSON ``true``/``false`` never pass for an int."""
    if expected is int and isinstance(value, bool):
        return False
    return isinstance(value, expected)


class ShardedStore:
    """Read-side handle on a sharded store directory.

    Subclasses declare the dataset: ``kind`` and ``unit`` (for messages),
    ``schema``, shard ``columns``, the ``count_key`` the shard ranges
    must add up to, ``table_names`` (in digest order), ``shard_prefix``,
    the dataset's own required ``manifest_keys``, and ``code_tables``:
    which shard columns hold integer codes into which intern table.
    """

    kind: ClassVar[str]
    unit: ClassVar[str]
    schema: ClassVar[str]
    columns: ClassVar[tuple[str, ...]]
    count_key: ClassVar[str]
    table_names: ClassVar[tuple[str, ...]]
    shard_prefix: ClassVar[str]
    manifest_keys: ClassVar[dict[str, type]]
    code_tables: ClassVar[dict[str, str]]

    def __init__(self, path: str | Path, *, mmap: bool = False) -> None:
        self.path = Path(path)
        self.mmap = bool(mmap)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise DatasetError(f"no {self.kind} manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetError(f"{manifest_path}: invalid JSON") from exc
        self.manifest = self._validated(manifest)
        self._tables: Any = None
        self._table_sizes: dict[str, int] = {}

    # -- manifest validation ---------------------------------------------------

    def _validated(self, manifest: Any) -> dict[str, Any]:
        kind = self.kind
        where = f"{self.path}: {kind} manifest"
        if not isinstance(manifest, dict):
            raise DatasetError(f"{where} must be a JSON object")
        required = {
            "schema": str,
            "shard_size": int,
            self.count_key: int,
            "crawl_minute": int,
            "columns": list,
            "tables": str,
            "shards": list,
            **self.manifest_keys,
        }
        for key, expected in required.items():
            if key not in manifest:
                raise DatasetError(f"{where} is missing {key!r}")
            if not _has_type(manifest[key], expected):
                raise DatasetError(
                    f"{where} key {key!r}: expected {expected.__name__}, "
                    f"got {manifest[key]!r}"
                )
        if manifest["schema"] != self.schema:
            raise DatasetError(
                f"{where} key 'schema': unsupported {kind} schema "
                f"{manifest['schema']!r} (expected {self.schema!r})"
            )
        if manifest["shard_size"] < 1:
            raise DatasetError(
                f"{where} key 'shard_size': must be a positive number of "
                f"{self.unit}, got {manifest['shard_size']}"
            )
        if list(manifest["columns"]) != list(self.columns):
            raise DatasetError(
                f"{where} key 'columns' declares an unexpected column set"
            )
        self._check_member(where, "tables", manifest["tables"], f"{kind} tables file")
        cursor = 0
        for entry in manifest["shards"]:
            if not isinstance(entry, dict) or {"file", "start", "stop"} - set(entry):
                raise DatasetError(
                    f"{where} key 'shards': {kind} shard entries need file/start/stop"
                )
            start, stop = entry["start"], entry["stop"]
            if not (_has_type(start, int) and _has_type(stop, int)):
                raise DatasetError(
                    f"{where} key 'shards': {kind} shard bounds must be integers, "
                    f"got start={start!r} stop={stop!r}"
                )
            if start != cursor or stop <= start:
                raise DatasetError(
                    f"{where} key 'shards': {kind} shard ranges must be "
                    f"contiguous from zero: [{start}, {stop}) after {cursor}"
                )
            self._check_member(where, "shards", entry["file"], f"{kind} shard file")
            cursor = stop
        if cursor != manifest[self.count_key]:
            raise DatasetError(
                f"{where} key {self.count_key!r}: {kind} shards cover {cursor} "
                f"{self.unit} but the manifest declares {manifest[self.count_key]}"
            )
        return manifest

    def _check_member(self, where: str, key: str, name: Any, what: str) -> None:
        """A manifest-named file must be a plain file name inside the store."""
        if (
            not isinstance(name, str)
            or name in ("", ".", "..")
            or Path(name).name != name
        ):
            raise DatasetError(
                f"{where} key {key!r}: {what} {name!r} is not a plain file "
                f"name inside the store"
            )
        if not (self.path / name).is_file():
            raise DatasetError(f"{where} key {key!r}: {what} {name!r} is missing")

    # -- structure -------------------------------------------------------------

    @property
    def crawl_minute(self) -> int:
        return self.manifest["crawl_minute"]

    @property
    def shard_size(self) -> int:
        return self.manifest["shard_size"]

    @property
    def n_shards(self) -> int:
        return len(self.manifest["shards"])

    def shard_bounds(self) -> list[tuple[int, int]]:
        """The ``[start, stop)`` row range of every shard, in order."""
        return [(entry["start"], entry["stop"]) for entry in self.manifest["shards"]]

    def nbytes(self) -> int:
        """Total on-disk footprint (shards + tables + manifest)."""
        names = [entry["file"] for entry in self.manifest["shards"]]
        names += [self.manifest["tables"], MANIFEST_NAME]
        return sum((self.path / name).stat().st_size for name in names)

    @property
    def coverage(self) -> dict[str, Any] | None:
        """The crawl-coverage accounting stamped at finalise (if any).

        ``None`` for stores written before coverage existed or built
        from non-crawl sources; see :class:`CrawlCoverage
        <repro.crawler.toot_crawler.CrawlCoverage>` for the keys.
        """
        return self.manifest.get("coverage")

    def content_digest(self) -> str:
        """SHA-256 over the store *content*, independent of file bytes.

        Hashes the intern tables, every decompressed shard column, and
        the manifest minus its volatile keys — ``.npz`` files embed zip
        member timestamps, so raw bytes differ between two writes of the
        same store while this digest does not.  The differential
        fault-injection suite compares exactly this.
        """
        digest = hashlib.sha256()
        for name in self.table_names:
            _digest_array(digest, name, self._table(name))
        for index in range(self.n_shards):
            for name, array in zip(self.columns, self._shard_arrays(index)):
                _digest_array(digest, f"shard{index}:{name}", array)
        stable = {
            key: value
            for key, value in self.manifest.items()
            if key not in VOLATILE_MANIFEST_KEYS
        }
        digest.update(json.dumps(stable, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def _shard_arrays(self, index: int) -> Iterable[np.ndarray]:
        """Shard ``index``'s columns in :attr:`columns` order (for digests)."""
        raise NotImplementedError

    def delete_when_collected(self) -> None:
        """Remove the store directory once this object is garbage-collected.

        For a store written to a temporary directory: the files live as
        long as this handle (or anything holding it) does, and are
        removed at interpreter exit at the latest.
        """
        weakref.finalize(self, shutil.rmtree, self.path, ignore_errors=True)

    # -- files -------------------------------------------------------------------

    def _table(self, name: str) -> np.ndarray:
        if self._tables is None:
            self._tables = _Archive(self, self.manifest["tables"], "tables")
        return self._tables[name]

    def _open_shard(self, index: int) -> "_Archive":
        """A fresh lazy ``.npz`` handle on shard ``index``."""
        return _Archive(self, self.manifest["shards"][index]["file"], "shard")

    def _checked_column(self, index: int, name: str, values: np.ndarray) -> np.ndarray:
        """Shard ``index``'s column ``name``, with its codes checked if it has any.

        Shards are untrusted input: a code outside its intern table
        (:attr:`code_tables`) would index the wrong entry (a negative
        one wraps) or raise a raw ``IndexError`` deep inside a query.
        One min/max per read of a code column; a code out of range is a
        :class:`DatasetError` naming the shard file and the column.
        """
        table = self.code_tables.get(name)
        if table is None or not values.size:
            return values
        size = self._table_sizes.get(table)
        if size is None:
            size = self._table_sizes[table] = len(self._table(table))
        low, high = int(values.min()), int(values.max())
        if low < 0 or high >= size:
            raise DatasetError(
                f"{self.path}: {self.kind} shard file "
                f"{self.manifest['shards'][index]['file']!r} column {name!r} holds "
                f"code {low if low < 0 else high}, outside its {table!r} table "
                f"of {size}"
            )
        return values


#: What a damaged ``.npz`` raises: truncation (``BadZipFile``, ``EOFError``),
#: a failed member CRC (``BadZipFile``), non-zip bytes (``ValueError``).
_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, OSError, ValueError)


class _Archive:
    """A store's shard or tables ``.npz`` whose read failures are named.

    Opening the file and reading a member both turn a damaged archive
    into a :class:`DatasetError` naming the store directory and the file,
    so callers that catch library errors (serve answers 400) never see a
    raw ``zipfile`` or ``numpy`` exception.  An eager archive holds no
    open file between reads: it lists the members and closes, then opens
    the file again for each member it reads (as :class:`MappedNpz
    <repro.corpus.npzmap.MappedNpz>` does), so a handle kept alive by a
    traceback or a cache never leaves a file for the garbage collector.
    """

    def __init__(self, store: ShardedStore, name: str, what: str) -> None:
        self._where = f"{store.path}: unreadable {store.kind} {what} file {name!r}"
        self._path = store.path / name
        self._mapped = None
        try:
            if store.mmap:
                self._mapped = open_npz(self._path, mmap=True)
                self.files = list(self._mapped.files)
            else:
                with open_npz(self._path) as handle:
                    self.files = list(handle.files)
        except _ARCHIVE_ERRORS as exc:
            raise DatasetError(f"{self._where}: {exc}") from exc

    def __getitem__(self, member: str) -> np.ndarray:
        try:
            if self._mapped is not None:
                return self._mapped[member]
            with open_npz(self._path) as handle:
                return handle[member]
        except _ARCHIVE_ERRORS as exc:
            raise DatasetError(f"{self._where} (member {member!r}): {exc}") from exc


# -- the write side ---------------------------------------------------------------------


class ShardedWriter:
    """Streams a per-instance crawl into a sharded store, crash-safely.

    Feed a spool per instance (the subclass's ingestion methods), then
    :meth:`end_instance` (sealed to disk) or :meth:`discard_instance`
    (dropped); :meth:`finalise` once every instance is in.  Ingestion is
    thread-safe at instance granularity (each instance is crawled by
    exactly one worker).

    Crash safety: spools seal via temp + atomic rename and are journaled,
    and shards/tables/manifest are written atomically.  ``resume=True``
    replays the journal of an interrupted run — journal-sealed spools
    that read back cleanly are trusted and reported via
    :meth:`sealed_domains` (crawlers skip them), while everything else
    (unsealed or unreadable spools, spool directories of the older
    layout, ``*.part`` files, orphaned shards and tables) is moved to a
    ``quarantine/`` subdirectory rather than silently merged, and its
    instance is crawled again.

    Subclasses set ``store_class`` (the format) and ``spool_class`` (one
    instance's buffers, with a ``seal(path)`` method writing the spool
    file and an ``open(path)`` classmethod returning its validated
    :class:`SpoolReader`), and implement :meth:`_merge`.
    """

    store_class: ClassVar[type[ShardedStore]]
    spool_class: ClassVar[type]

    def __init__(self, path: str | Path, shard_size: int, resume: bool = False) -> None:
        fmt = self.store_class
        if shard_size < 1:
            raise DatasetError(
                f"{fmt.kind} shard_size must be a positive number of {fmt.unit}"
            )
        self.path = Path(path)
        self.shard_size = shard_size
        self.path.mkdir(parents=True, exist_ok=True)
        self._spool_dir = self.path / SPOOL_DIR
        self._lock = threading.Lock()
        self._spools: dict[str, Any] = {}
        self._sealed: dict[str, Path] = {}
        self._resumed: set[str] = set()
        self._resumed_rows: dict[str, int] = {}
        self._finalised = False
        self._journal = CrawlJournal(self.path / JOURNAL_NAME)
        if resume:
            self._recover()
        elif self._journal.path.exists():
            raise DatasetError(
                f"{self.path} holds an interrupted crawl journal; "
                f"open the writer with resume=True or clear the directory"
            )
        self._spool_dir.mkdir(exist_ok=True)

    # -- crash recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Trust journal-sealed spools; quarantine every partial write."""
        replay = CrawlJournal.replay(self._journal.path)
        trusted = replay.sealed_domains()
        quarantine_dir = self.path / QUARANTINE_DIR
        if self._spool_dir.exists():
            for entry in sorted(self._spool_dir.iterdir()):
                domain = entry.name[: -len(SPOOL_SUFFIX)]
                if (
                    entry.name.endswith(SPOOL_SUFFIX)
                    and domain in trusted
                    and entry.is_file()
                    and self._readable(entry)
                ):
                    self._sealed[domain] = entry
                    self._resumed.add(domain)
                    progress = replay.progress.get(domain)
                    self._resumed_rows[domain] = progress.rows if progress else 0
                else:
                    quarantine(entry, quarantine_dir)
        # an interrupted finalise leaves orphaned output files behind
        if not (self.path / MANIFEST_NAME).exists():
            shards = f"{self.store_class.shard_prefix}-*.npz"
            for pattern in (shards, TABLES_NAME, f"*{PARTIAL_SUFFIX}"):
                for entry in sorted(self.path.glob(pattern)):
                    quarantine(entry, quarantine_dir)
        if self._resumed:
            self._journal.note("resumed", trusted=sorted(self._resumed))

    def _readable(self, path: Path) -> bool:
        """Whether a journal-sealed spool file reads back cleanly."""
        try:
            self.spool_class.open(path)
        except DatasetError as exc:
            _log.warning("quarantining unreadable spool: %s", exc)
            return False
        return True

    # -- streaming ingestion ---------------------------------------------------

    def _check_open(self) -> None:
        if self._finalised:
            raise DatasetError(
                f"the {self.store_class.kind} writer has already been finalised"
            )

    def _spool(self, domain: str) -> Any:
        self._check_open()
        with self._lock:
            spool = self._spools.get(domain)
            if spool is None:
                if domain in self._sealed:
                    raise DatasetError(f"instance {domain!r} was already sealed")
                spool = self._spools[domain] = self.spool_class(domain)
            return spool

    def sealed_domains(self) -> set[str]:
        """Instances whose spools are sealed on disk (resumed ones included)."""
        with self._lock:
            return set(self._sealed)

    def resumed_domains(self) -> set[str]:
        """Sealed instances recovered from a previous run's journal."""
        with self._lock:
            return set(self._resumed)

    def resumed_rows(self) -> dict[str, int]:
        """Journal-recorded row counts of the resumed instances."""
        with self._lock:
            return dict(self._resumed_rows)

    def end_instance(self, domain: str) -> None:
        """Seal ``domain``'s spool to disk (its crawl completed cleanly).

        An instance crawled without a single row still seals (empty), so
        it appears in the manifest's per-instance accounting with zero
        counts — exactly like the record path's empty list.
        """
        self._check_open()
        with self._lock:
            spool = self._spools.pop(domain, None)
            if spool is None:
                if domain in self._sealed:
                    return
                spool = self.spool_class(domain)
            target = self._spool_dir / f"{domain}{SPOOL_SUFFIX}"
            self._sealed[domain] = target
        try:
            self._seal(spool, target)
        except BaseException:
            with self._lock:  # nothing was sealed: finalise must not look for it
                del self._sealed[domain]
            raise
        self._journal.sealed(domain)

    def _seal(self, spool: Any, target: Path) -> None:
        staging = target.with_name(target.name + PARTIAL_SUFFIX)
        spool.seal(staging)
        os.replace(staging, target)

    def discard_instance(self, domain: str) -> None:
        """Drop everything buffered for ``domain`` (its crawl failed)."""
        with self._lock:
            self._spools.pop(domain, None)
            sealed = self._sealed.pop(domain, None)
            self._resumed.discard(domain)
        if sealed is not None:
            sealed.unlink(missing_ok=True)
        self._journal.discarded(domain)

    # -- the merge -------------------------------------------------------------

    def finalise(
        self,
        crawl_minute: int = 0,
        coverage: Mapping[str, Any] | None = None,
    ) -> ShardedStore:
        """Merge every sealed spool into shards + tables + manifest.

        ``coverage`` (a JSON-ready mapping, see :meth:`CrawlCoverage.as_dict
        <repro.crawler.toot_crawler.CrawlCoverage.as_dict>`) is stamped
        into the manifest so a partial crawl says so.  Returns the opened
        store.
        """
        self._begin_merge()
        self._write_store(crawl_minute, coverage)
        return self.store_class(self.path)

    def _begin_merge(self) -> None:
        """Refuse open spools, close the writer, and journal the merge start."""
        self._check_open()
        with self._lock:
            if self._spools:
                unsealed = ", ".join(sorted(self._spools))
                raise DatasetError(
                    f"cannot finalise with open instance spools: {unsealed}"
                )
            self._finalised = True
        self._journal.note("finalise_started")

    def _write_store(
        self, crawl_minute: int, coverage: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        """Merge, write tables and manifest, then clean up; returns the manifest.

        Spools and journal are deleted only after the manifest lands, so
        a crash anywhere in here stays fully resumable.
        """
        fmt = self.store_class
        sink = ShardSink(
            self.path, fmt.shard_prefix, self.shard_size, fmt.columns, self._take_shard
        )
        tables, fields = self._merge(sink)
        atomic_savez(self.path / TABLES_NAME, **tables)
        manifest = {
            "schema": fmt.schema,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "shard_size": self.shard_size,
            fmt.count_key: sink.rows,
            "crawl_minute": crawl_minute,
            "columns": list(fmt.columns),
            "tables": TABLES_NAME,
            "shards": sink.entries,
            **fields,
        }
        if coverage is not None:
            manifest["coverage"] = dict(coverage)
        atomic_write_text(
            self.path / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._journal.remove()
        return manifest

    #: How a full shard is split off the pending chunk lists.
    _take_shard = staticmethod(_take_rows)

    def _merge(
        self, sink: ShardSink
    ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Stream every sealed spool (sorted by domain) into ``sink``.

        Ends with ``sink.flush(everything=True)``; returns the intern
        tables and the dataset's own manifest fields.
        """
        raise NotImplementedError
