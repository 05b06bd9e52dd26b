"""The streaming write path: crawl pages → column spools → corpus shards.

:class:`CorpusWriter` is the page sink behind
:class:`~repro.crawler.toot_crawler.TootCrawler`: each crawled page is
encoded into per-instance column buffers the moment it arrives (no
``TootRecord`` objects), each instance's buffers seal to a spool on
disk when its crawl completes, and :meth:`CorpusWriter.finalise` merges
the spools — instances in sorted-domain order, pages in crawl order,
first-seen URL wins — into fixed-size ``.npz`` shards plus intern
tables and a JSON manifest.  That merge order reproduces
``TootCrawlResult.unique_toots()`` of the crawler's record mode exactly,
which is the reference the corpus tests check the store against.

Memory model: while crawling, only the pages of in-flight instances are
buffered (sealed spools live on disk); the merge streams each spool in
bounded row chunks, so at any moment it holds one chunk of decoded
URLs, one spool's decoded account, domain and hashtag tables, the URL
intern table, and at most one pending shard of columns — the full
corpus never exists in memory, as Python objects or otherwise.  Spools
hold accounts, author domains and hashtags as per-spool codes, so the
merge tells home from remote rows by one gather over the domain codes
and maps only new rows' codes onto the store's intern tables; only URLs
are decoded row by row, for the exact first-seen dedup.  The spool
format, the journaled seal/resume lifecycle and the shard flushing are
shared with the follower graph (:mod:`repro.corpus.sharded`); this
module holds what is corpus-only: the toot spool columns and the
URL-dedup merge.
"""

from __future__ import annotations

import logging
import time
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import DatasetError
from repro.corpus.sharded import (
    MERGE_CHUNK_ROWS,
    Interner,
    ShardedWriter,
    ShardSink,
    SpoolFile,
    SpoolReader,
    string_array,
)
from repro.corpus.store import CorpusStore

_log = logging.getLogger("repro.corpus.writer")

#: Default toots per shard: aligned with the engine's streaming default
#: (:data:`repro.engine.sharding.DEFAULT_SHARD_SIZE`) so corpus shard
#: boundaries flow straight through to sweep evaluation.
DEFAULT_CORPUS_SHARD_SIZE = 250_000

_SPOOL_VALUE_COLUMNS = (
    "toot_id",
    "created_minute",
    "is_boost",
    "sensitive",
    "media_attachments",
    "favourites",
)


class _Growable:
    """An amortised-append int64 vector (replication / home-toot counts)."""

    def __init__(self) -> None:
        self._data = np.zeros(1024, dtype=np.int64)
        self.size = 0

    def ensure(self, size: int) -> None:
        if size > self._data.size:
            capacity = max(size, 2 * self._data.size)
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        self.size = max(self.size, size)

    def add_at(self, indices: np.ndarray) -> None:
        np.add.at(self._data, indices, 1)

    def values(self) -> np.ndarray:
        return self._data[: self.size].copy()


_SPOOL_DTYPES = dict(
    toot_id=np.int64,
    created_minute=np.int64,
    is_boost=np.bool_,
    sensitive=np.bool_,
    media_attachments=np.int32,
    favourites=np.int32,
)

#: The spool's coded string columns (a per-spool table of values plus one
#: ``int32`` code per row): one row per toot, except ``hashtag_flat`` (one
#: row per hashtag, framed by the ``hashtag_indptr`` member).  ``url``,
#: unique within a spool, stays a plain string column.
_SPOOL_CODED = ("account", "author_domain", "hashtag_flat")

#: A coded column as :meth:`_InstanceSpool.add_columns` takes it: a table
#: of values the caller owns, and one integer code into it per row.
CodedColumn = tuple[Sequence[str], np.ndarray]


def _intern_rows(values: list[str]) -> tuple[list[str], np.ndarray]:
    """A row-mode column as its distinct values (first seen first) and codes."""
    table = list(dict.fromkeys(values))
    code = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(code.__getitem__, values), np.int32, len(values))


def _used_entries(table: Sequence[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Column-mode codes into ``table``, narrowed to the entries they use.

    A presence mask and a running count renumber the used entries in
    table order, so the seal costs two passes over the codes and no sort.
    """
    used = np.zeros(len(table), dtype=np.bool_)
    used[codes] = True
    local = np.cumsum(used, dtype=np.int32) - 1
    return list(map(table.__getitem__, np.flatnonzero(used).tolist())), local[codes]


class _InstanceSpool:
    """Column buffers for one instance's federated-timeline crawl.

    Two ingestion styles share the buffers: row-at-a-time (``add_page``
    / ``add_records``, the crawler path) appends scalars and strings,
    while the vectorised path (``add_columns``, the scenario-to-corpus
    stream) appends whole numpy chunks, with the ``account``,
    ``author_domain`` and ``hashtag_flat`` columns as integer codes into
    tables the caller owns, so no per-toot Python object but the URL is
    ever built.  The seal writes those three as coded columns (see
    :mod:`repro.corpus.sharded`): row mode interns each column's strings
    per spool, column mode narrows the caller's table to the entries its
    codes use.  Value rows are ordered scalar rows first, then chunk
    rows, so mixing the two styles within one instance is rejected to
    keep row order well-defined.
    """

    def __init__(self, domain: str) -> None:
        self.domain = domain
        self.url: list[str] = []
        self.account: list[str] = []
        self.author_domain: list[str] = []
        self.toot_id: list[int] = []
        self.created_minute: list[int] = []
        self.is_boost: list[bool] = []
        self.sensitive: list[bool] = []
        self.media_attachments: list[int] = []
        self.favourites: list[int] = []
        self.hashtag_flat: list[str] = []
        self.hashtag_lengths: list[int] = []
        self._value_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in _SPOOL_VALUE_COLUMNS
        }
        self._length_chunks: list[np.ndarray] = []
        self._code_tables: dict[str, Sequence[str]] = {}
        self._code_chunks: dict[str, list[np.ndarray]] = {name: [] for name in _SPOOL_CODED}
        self._mode: str | None = None

    def _enter_mode(self, mode: str) -> None:
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise DatasetError(
                f"instance {self.domain!r} mixes row and column spool ingestion"
            )

    def add_page(self, payload: Iterable[Mapping[str, Any]]) -> int:
        """Encode one timeline-API page (the raw payload dicts)."""
        self._enter_mode("rows")
        added = 0
        for item in payload:
            self.url.append(str(item["url"]))
            self.account.append(str(item["account"]))
            self.author_domain.append(str(item["account_domain"]))
            self.toot_id.append(int(item["id"]))
            self.created_minute.append(int(item["created_at"]))
            self.is_boost.append(item.get("reblog_of_id") is not None)
            self.sensitive.append(bool(item.get("sensitive", False)))
            self.media_attachments.append(int(item.get("media_attachments", 0)))
            self.favourites.append(int(item.get("favourites_count", 0)))
            tags = item.get("tags", ())
            self.hashtag_flat.extend(str(tag) for tag in tags)
            self.hashtag_lengths.append(len(tags))
            added += 1
        return added

    def add_records(self, records: Iterable["TootRecord"]) -> int:
        """Encode already-built :class:`TootRecord` objects (export paths)."""
        self._enter_mode("rows")
        added = 0
        for record in records:
            self.url.append(record.url)
            self.account.append(record.account)
            self.author_domain.append(record.author_domain)
            self.toot_id.append(record.toot_id)
            self.created_minute.append(record.created_at)
            self.is_boost.append(record.is_boost)
            self.sensitive.append(record.sensitive)
            self.media_attachments.append(record.media_attachments)
            self.favourites.append(record.favourites)
            self.hashtag_flat.extend(record.hashtags)
            self.hashtag_lengths.append(len(record.hashtags))
            added += 1
        return added

    def add_columns(
        self,
        *,
        urls: list[str],
        accounts: CodedColumn,
        author_domains: CodedColumn,
        toot_id: np.ndarray,
        created_minute: np.ndarray,
        is_boost: np.ndarray,
        sensitive: np.ndarray,
        media_attachments: np.ndarray,
        favourites: np.ndarray,
        hashtag_flat: CodedColumn,
        hashtag_lengths: np.ndarray,
    ) -> int:
        """Append whole columns (the vectorised scenario-to-corpus path).

        ``urls`` arrive as a Python list (the spool's string format joins
        them once at seal time).  ``accounts``, ``author_domains`` and
        ``hashtag_flat`` arrive as ``(table, codes)`` pairs: a table of
        values the caller owns, the same one on every call for this
        instance, and an integer code into it per row (per hashtag).
        Value columns arrive as numpy arrays.  All are buffered as
        chunks — no per-toot scalars — after every column is checked.
        """
        self._enter_mode("columns")
        rows = len(urls)
        values = dict(
            toot_id=toot_id,
            created_minute=created_minute,
            is_boost=is_boost,
            sensitive=sensitive,
            media_attachments=media_attachments,
            favourites=favourites,
        )
        arrays = {}
        for name, column in values.items():
            array = np.asarray(column)
            if array.shape != (rows,):
                raise DatasetError(
                    f"column {name!r} has {array.shape[0] if array.ndim else 0} rows, "
                    f"expected {rows}"
                )
            arrays[name] = array.astype(_SPOOL_DTYPES[name], copy=False)
        lengths = np.asarray(hashtag_lengths)
        if lengths.shape != (rows,):
            raise DatasetError("hashtag_lengths must have one entry per row")
        coded = {
            "account": self._checked_codes("account", accounts, rows),
            "author_domain": self._checked_codes("author_domain", author_domains, rows),
            "hashtag_flat": self._checked_codes("hashtag_flat", hashtag_flat, int(lengths.sum())),
        }
        for name, array in arrays.items():
            self._value_chunks[name].append(array)
        for name, (table, codes) in coded.items():
            self._code_tables.setdefault(name, table)
            self._code_chunks[name].append(codes)
        self._length_chunks.append(lengths.astype(np.int64, copy=False))
        self.url.extend(urls)
        return rows

    def _checked_codes(self, name: str, column: CodedColumn, rows: int) -> CodedColumn:
        """One ``(table, codes)`` column, its ``rows`` codes checked against its table."""
        if not (isinstance(column, tuple) and len(column) == 2):
            raise DatasetError(f"column {name!r} must be a (table, codes) pair")
        table, codes = column
        codes = np.asarray(codes)
        if codes.shape != (rows,) or codes.dtype.kind not in "iu":
            raise DatasetError(f"column {name!r} needs {rows} integer codes")
        known = self._code_tables.get(name, table)
        if known is not table and list(known) != list(table):
            raise DatasetError(f"column {name!r} must code every call into one table")
        if codes.size and (codes.min() < 0 or codes.max() >= len(table)):
            raise DatasetError(
                f"column {name!r} holds a code outside its table of {len(table)}"
            )
        return table, codes

    def seal(self, path: Path) -> None:
        """Write the buffers to one spool file, one column at a time.

        Each column's buffer is dropped as soon as it is in the file, so
        the seal never holds more than one encoded column beyond the raw
        page buffers.
        """
        with SpoolFile(path) as spool:
            for name in _SPOOL_VALUE_COLUMNS:
                parts = [np.asarray(getattr(self, name), _SPOOL_DTYPES[name])]
                parts += self._value_chunks[name]
                spool.add(name, parts[0] if len(parts) == 1 else np.concatenate(parts))
                setattr(self, name, [])
                self._value_chunks[name] = []
            length_parts = [np.asarray(self.hashtag_lengths, np.int64)] + self._length_chunks
            lengths = (
                length_parts[0] if len(length_parts) == 1 else np.concatenate(length_parts)
            )
            indptr = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            spool.add("hashtag_indptr", indptr)
            self.hashtag_lengths = []
            self._length_chunks = []
            spool.add_strings("url", self.url)
            self.url = []
            for name in _SPOOL_CODED:
                chunks = self._code_chunks[name]
                if chunks:
                    codes = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                    table, local = _used_entries(self._code_tables[name], codes)
                else:
                    table, local = _intern_rows(getattr(self, name))
                spool.add_coded(name, table, local)
                setattr(self, name, [])
                self._code_chunks[name] = []

    @staticmethod
    def open(path: Path) -> SpoolReader:
        """Map a sealed spool file, checking that its columns agree."""
        spool = SpoolReader(
            path,
            ("url",),
            {**_SPOOL_DTYPES, "hashtag_indptr": np.int64},
            coded=_SPOOL_CODED,
        )
        rows = spool.rows("url")
        if (
            spool.codes("account").size != rows
            or spool.codes("author_domain").size != rows
            or any(spool.values(name).size != rows for name in _SPOOL_VALUE_COLUMNS)
        ):
            raise spool.error("columns disagree on the row count")
        indptr = spool.values("hashtag_indptr")
        if (
            indptr.size != rows + 1
            or indptr[0] != 0
            or indptr[-1] != spool.codes("hashtag_flat").size
            or bool(np.any(indptr[1:] < indptr[:-1]))
        ):
            raise spool.error("hashtag_indptr does not frame the hashtag column")
        return spool


class _SpoolCodes:
    """One coded spool column, its local codes mapped onto a store-wide table.

    A local code is interned, by its string, the first time a new row
    uses it, in the order the new rows first use them: exactly the codes
    :meth:`Interner.intern` would give over the new rows' decoded
    strings, with only the spool's table ever decoded.
    """

    def __init__(self, spool: SpoolReader, name: str, interner: Interner) -> None:
        self.local = spool.codes(name)
        self.table = spool.table(name)
        self._interner = interner
        self._global = np.full(len(self.table), -1, dtype=np.int64)

    def globalise(self, local: np.ndarray) -> np.ndarray:
        """The store-wide codes of ``local`` codes, interning unseen values."""
        codes = self._global[local]
        unseen = codes < 0
        if unseen.any():
            for code in dict.fromkeys(local[unseen].tolist()):
                self._global[code] = self._interner.intern_one(self.table[code])
            codes = self._global[local]
        return codes


class CorpusWriter(ShardedWriter):
    """Streams a toot crawl into an integer-coded columnar corpus.

    Use as the ``sink`` argument of :meth:`TootCrawler.crawl`; or feed it
    directly via :meth:`add_page` / :meth:`add_records` +
    :meth:`end_instance`, then :meth:`finalise` once every instance is
    in.  Every crawled page also appends to the crawl journal.  The
    lifecycle — thread safety, sealing, ``resume=True`` recovery and
    quarantine, the atomic shard/tables/manifest writes — is
    :class:`~repro.corpus.sharded.ShardedWriter`'s.
    """

    store_class = CorpusStore
    spool_class = _InstanceSpool

    def __init__(
        self,
        path: str | Path,
        shard_size: int = DEFAULT_CORPUS_SHARD_SIZE,
        resume: bool = False,
    ) -> None:
        super().__init__(path, shard_size, resume)

    # -- streaming ingestion ---------------------------------------------------

    def add_page(self, domain: str, payload: Iterable[Mapping[str, Any]]) -> int:
        """Encode one timeline page for ``domain``; returns toots added."""
        spool = self._spool(domain)
        added = spool.add_page(payload)
        max_id = min(spool.toot_id[-added:]) if added else None
        self._journal.page(domain, added, max_id=max_id)
        obs.count("repro_corpus_rows_total", added)
        return added

    def add_records(self, domain: str, records: Iterable["TootRecord"]) -> int:
        """Encode records observed on ``domain`` (non-crawler ingestion)."""
        return self._spool(domain).add_records(records)

    def add_columns(self, domain: str, **columns: Any) -> int:
        """Append whole columns observed on ``domain`` (vectorised ingestion).

        Accepts the keyword columns of :meth:`_InstanceSpool.add_columns`
        — URLs as a Python list; accounts, author domains and hashtags as
        ``(table, codes)`` pairs into tables the caller owns; value
        columns as numpy arrays — and is how
        :meth:`ColumnarScenario.write_corpus
        <repro.fediverse.columnar.ColumnarScenario.write_corpus>` streams
        generated timelines without building payload dicts or per-row
        account, domain and hashtag strings.
        """
        return self._spool(domain).add_columns(**columns)

    def _seal(self, spool: _InstanceSpool, target: Path) -> None:
        timed = obs.active()
        started = time.perf_counter() if timed else 0.0
        super()._seal(spool, target)
        if timed:
            obs.observe(
                "repro_corpus_seal_seconds", time.perf_counter() - started
            )
            obs.count("repro_corpus_spools_sealed_total")
        _log.debug("sealed spool for %s", spool.domain)

    # -- the merge -------------------------------------------------------------

    def finalise(
        self,
        crawl_minute: int = 0,
        coverage: Mapping[str, Any] | None = None,
    ) -> CorpusStore:
        """Merge every sealed spool into shards + tables + manifest.

        Instances merge in sorted-domain order with first-seen-URL
        dedup, reproducing ``unique_toots()`` exactly; duplicates only
        bump the replication counters.  ``coverage`` (a JSON-ready
        mapping, see :meth:`CrawlCoverage.as_dict
        <repro.crawler.toot_crawler.CrawlCoverage.as_dict>`) is stamped
        into the manifest so a partial corpus says so.  Spools are only
        deleted after the manifest lands — a crash mid-merge stays fully
        resumable.  Returns the opened
        :class:`~repro.corpus.store.CorpusStore`.
        """
        self._begin_merge()
        with obs.span("corpus/merge", instances=len(self._sealed)) as merge_span:
            merge_started = time.perf_counter() if obs.active() else 0.0
            manifest = self._write_store(crawl_minute, coverage)
            observed_rows = manifest["n_observations"]
            n_toots = manifest["n_toots"]
            n_shards = len(manifest["shards"])
            if obs.active():
                merge_seconds = time.perf_counter() - merge_started
                merge_span.set(rows=observed_rows, toots=n_toots, shards=n_shards)
                obs.count("repro_corpus_merge_seconds_total", merge_seconds)
                obs.count("repro_corpus_shards_written_total", n_shards)
                obs.count("repro_corpus_merged_rows_total", observed_rows)
                if merge_seconds > 0:
                    obs.set_gauge(
                        "repro_corpus_merge_rows_per_second",
                        observed_rows / merge_seconds,
                    )
            _log.info(
                "corpus finalised: %d observed rows -> %d unique toots in %d shards",
                observed_rows,
                n_toots,
                n_shards,
            )
            return CorpusStore(self.path)

    def _merge(self, sink: ShardSink) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        url_code: dict[str, int] = {}
        domains = Interner()
        authors = Interner()
        hashtags = Interner()
        replication = _Growable()
        home_toots = _Growable()
        observations: dict[str, tuple[int, int]] = {}
        boosts = 0
        observed_rows = 0

        for domain in sorted(self._sealed):
            spool = _InstanceSpool.open(self._sealed[domain])
            n_rows = spool.rows("url")
            observed_rows += n_rows
            if n_rows == 0:
                observations[domain] = (0, 0)
                continue
            collected = domains.intern_one(domain)
            home = _SpoolCodes(spool, "author_domain", domains)
            author = _SpoolCodes(spool, "account", authors)
            tag = _SpoolCodes(spool, "hashtag_flat", hashtags)
            # which author_domain codes name the collecting instance
            is_home = np.fromiter(map(domain.__eq__, home.table), np.bool_, len(home.table))
            tag_indptr = spool.values("hashtag_indptr")
            home_observed = 0

            for start in range(0, n_rows, MERGE_CHUNK_ROWS):
                stop = min(start + MERGE_CHUNK_ROWS, n_rows)
                rows = stop - start
                urls = spool.strings("url", start, stop)
                home_mask = is_home[home.local[start:stop]]
                home_observed += int(np.count_nonzero(home_mask))

                # URL dedup, first seen wins: known URLs resolve in C, and
                # only the misses (new URLs, and repeats of a URL that is
                # new in this chunk) take the Python loop, in row order
                codes = np.fromiter(map(url_code.get, urls, repeat(-1)), np.int64, rows)
                new_rows: list[int] = []
                for row in np.flatnonzero(codes < 0).tolist():
                    next_code = len(url_code)
                    codes[row] = code = url_code.setdefault(urls[row], next_code)
                    if code == next_code:
                        new_rows.append(row)
                replication.ensure(len(url_code))
                remote = ~home_mask
                if remote.any():
                    replication.add_at(codes[remote])
                if not new_rows:
                    continue
                new_count = len(new_rows)
                taken = np.asarray(new_rows, dtype=np.int64)
                spool_rows = taken + start
                home_codes = home.globalise(home.local[spool_rows])
                author_codes = author.globalise(author.local[spool_rows])

                # hashtags: the new rows' ranges of the flat tag codes
                starts = tag_indptr[spool_rows]
                lengths = tag_indptr[spool_rows + 1] - starts
                local_indptr = np.zeros(new_count + 1, dtype=np.int64)
                np.cumsum(lengths, out=local_indptr[1:])
                positions = np.repeat(starts - local_indptr[:-1], lengths) + np.arange(
                    local_indptr[-1], dtype=np.int64
                )
                flat_codes = tag.globalise(tag.local[positions])

                home_toots.ensure(len(domains))
                home_toots.add_at(home_codes)

                chunks = {
                    "url": string_array(list(map(urls.__getitem__, new_rows))),
                    "home_code": home_codes.astype(np.int32),
                    "author_code": author_codes.astype(np.int32),
                    "collected_code": np.full(new_count, collected, dtype=np.int32),
                    "hashtag_codes": flat_codes.astype(np.int32),
                    "hashtag_indptr": local_indptr,
                }
                for name in _SPOOL_VALUE_COLUMNS:
                    chunks[name] = spool.values(name)[start:stop][taken]
                boosts += int(chunks["is_boost"].sum())
                del urls
                sink.add(new_count, chunks)
            observations[domain] = (home_observed, n_rows - home_observed)
        sink.flush(everything=True)

        replication.ensure(sink.rows)
        tables = dict(
            domains=string_array(domains.values),
            authors=string_array(authors.values),
            hashtags=string_array(hashtags.values),
            replication_counts=replication.values(),
        )
        fields = {
            "n_observations": observed_rows,
            "n_boosts": boosts,
            "home_toot_counts": {
                domain: int(count)
                for domain, count in zip(domains.values, home_toots.values())
                if count
            },
            "observations": {
                domain: list(counts) for domain, counts in sorted(observations.items())
            },
        }
        return tables, fields

    @staticmethod
    def _take_shard(
        pending: dict[str, list[np.ndarray]], take: int
    ) -> dict[str, np.ndarray]:
        """Split ``take`` rows off the pending chunk lists as one shard.

        The hashtag CSR pair is re-based so every shard's ``hashtag_indptr``
        starts at zero; all other columns split by plain row count.
        """
        # merge chunk lists once, then slice (chunks rarely exceed a few spools)
        indptr_parts = pending["hashtag_indptr"]
        merged_indptr = indptr_parts[0]
        for part in indptr_parts[1:]:
            merged_indptr = np.concatenate([merged_indptr, merged_indptr[-1] + part[1:]])
        flat = (
            np.concatenate(pending["hashtag_codes"])
            if len(pending["hashtag_codes"]) > 1
            else pending["hashtag_codes"][0]
        )
        flat_take = int(merged_indptr[take])

        shard: dict[str, np.ndarray] = {}
        for name, chunks in pending.items():
            if name == "hashtag_indptr":
                shard[name] = merged_indptr[: take + 1].copy()
                pending[name] = [merged_indptr[take:] - merged_indptr[take]]
            elif name == "hashtag_codes":
                shard[name] = flat[:flat_take]
                pending[name] = [flat[flat_take:]]
            else:
                merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                shard[name] = merged[:take]
                pending[name] = [merged[take:]]
        return shard
