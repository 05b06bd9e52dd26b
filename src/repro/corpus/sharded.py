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
  run: journal-sealed spools are trusted, partial writes (unsealed
  spools, ``*.part`` files, shards and tables orphaned by a crash
  mid-merge) move to ``quarantine/``.  :meth:`ShardedWriter.finalise`
  merges the spools in sorted-domain order into fixed-size shards,
  writes tables and manifest atomically, and removes spools and journal
  only after the manifest lands.
* :class:`ShardedStore` — the read side: manifest load and validation
  (the manifest is untrusted input: every malformed value is a
  :class:`DatasetError` naming the directory and key, and every file it
  names must be a plain file inside the store), shard bounds, the tables
  handle, :meth:`~ShardedStore.nbytes`, :attr:`~ShardedStore.coverage`
  and :meth:`~ShardedStore.content_digest`.

Spools are a private format tuned for the merge: string columns are
stored as newline-joined UTF-8 bytes plus an ``int64`` offset array (one
``.npy`` pair per column, written and freed one column at a time), which
is ~4× smaller than numpy's fixed-width unicode arrays and sliceable by
row range without decoding the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Mapping

import numpy as np

from repro.errors import DatasetError
from repro.corpus.journal import JOURNAL_NAME, CrawlJournal
from repro.corpus.npzmap import open_npz

#: File and directory names inside a store.
MANIFEST_NAME = "manifest.json"
TABLES_NAME = "tables.npz"
SPOOL_DIR = "spool"
QUARANTINE_DIR = "quarantine"

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


def write_strings(directory: Path, name: str, values: list[str]) -> None:
    """Persist a string column as newline-joined UTF-8 bytes + offsets.

    ``offsets`` has ``len(values) + 1`` entries; row ``i`` occupies
    ``data[offsets[i] : offsets[i + 1] - 1]`` (the trailing byte is the
    separator), so any row range decodes with one slice + split.
    """
    if not values:
        np.save(directory / f"{name}_bytes.npy", np.empty(0, dtype=np.uint8))
        np.save(directory / f"{name}_offsets.npy", np.zeros(1, dtype=np.int64))
        return
    data = np.frombuffer("\n".join(values).encode("utf-8"), dtype=np.uint8)
    separators = np.flatnonzero(data == ord("\n"))
    if separators.size != len(values) - 1:
        raise DatasetError(f"corpus {name} values must not contain newlines")
    offsets = np.empty(len(values) + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:-1] = separators + 1
    offsets[-1] = data.size + 1
    np.save(directory / f"{name}_bytes.npy", data)
    np.save(directory / f"{name}_offsets.npy", offsets)


class SpoolReader:
    """Row-range access to one sealed spool without loading it whole.

    ``length_column`` names the string column whose offset table defines
    the spool's row count (``url`` for toot spools, ``follower`` for
    edge spools).
    """

    def __init__(self, directory: Path, length_column: str) -> None:
        self._dir = directory
        self._bytes: dict[str, np.ndarray] = {}
        self._offsets: dict[str, np.ndarray] = {}
        self.n_rows = int(self._offset_table(length_column).size - 1)

    def _offset_table(self, name: str) -> np.ndarray:
        if name not in self._offsets:
            self._offsets[name] = np.load(self._dir / f"{name}_offsets.npy")
        return self._offsets[name]

    def strings(self, name: str, start: int, stop: int) -> list[str]:
        """Decode rows ``[start, stop)`` of a string column."""
        if stop <= start:
            return []
        offsets = self._offset_table(name)
        if name not in self._bytes:
            self._bytes[name] = np.load(self._dir / f"{name}_bytes.npy", mmap_mode="r")
        blob = self._bytes[name][int(offsets[start]) : int(offsets[stop]) - 1]
        parts = np.asarray(blob).tobytes().decode("utf-8").split("\n")
        if len(parts) != stop - start:
            raise DatasetError(f"corrupt spool string column {name!r} in {self._dir}")
        return parts

    def values(self, name: str) -> np.ndarray:
        return np.load(self._dir / f"{name}.npy")


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
    must add up to, ``table_names`` (in digest order), ``shard_prefix``
    and the dataset's own required ``manifest_keys``.
    """

    kind: ClassVar[str]
    unit: ClassVar[str]
    schema: ClassVar[str]
    columns: ClassVar[tuple[str, ...]]
    count_key: ClassVar[str]
    table_names: ClassVar[tuple[str, ...]]
    shard_prefix: ClassVar[str]
    manifest_keys: ClassVar[dict[str, type]]

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

    # -- files -------------------------------------------------------------------

    def _table(self, name: str) -> np.ndarray:
        if self._tables is None:
            self._tables = open_npz(self.path / self.manifest["tables"], mmap=self.mmap)
        return self._tables[name]

    def _open_shard(self, index: int) -> Any:
        """A fresh lazy ``.npz`` handle on shard ``index``."""
        entry = self.manifest["shards"][index]
        return open_npz(self.path / entry["file"], mmap=self.mmap)


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
    replays the journal of an interrupted run — journal-sealed spools are
    trusted and reported via :meth:`sealed_domains` (crawlers skip them),
    while partial writes (unsealed spools, ``*.part`` files, orphaned
    shards and tables) are moved to a ``quarantine/`` subdirectory rather
    than silently merged.

    Subclasses set ``store_class`` (the format) and ``spool_class`` (one
    instance's buffers, with a ``seal(directory)`` method), and implement
    :meth:`_merge`.
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
                if entry.is_dir() and entry.name in trusted:
                    self._sealed[entry.name] = entry
                    self._resumed.add(entry.name)
                    progress = replay.progress.get(entry.name)
                    self._resumed_rows[entry.name] = progress.rows if progress else 0
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
            target = self._spool_dir / domain
            self._sealed[domain] = target
        self._seal(spool, target)
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
            shutil.rmtree(sealed, ignore_errors=True)
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
