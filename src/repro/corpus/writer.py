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
strings, the URL intern table, and at most one pending shard of
columns — the full corpus never exists in memory, as Python objects or
otherwise.  The spool format, the journaled seal/resume lifecycle and
the shard flushing are shared with the follower graph
(:mod:`repro.corpus.sharded`); this module holds what is corpus-only:
the toot spool columns and the URL-dedup merge.
"""

from __future__ import annotations

import logging
import time
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Mapping

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

#: The spool's string columns: one row per toot, except ``hashtag_flat``
#: (one row per hashtag, framed by the ``hashtag_indptr`` member).
_SPOOL_STRINGS = ("url", "account", "author_domain", "hashtag_flat")


class _InstanceSpool:
    """Column buffers for one instance's federated-timeline crawl.

    Two ingestion styles share the buffers: row-at-a-time (``add_page``
    / ``add_records``, the crawler path) appends scalars, while the
    vectorised path (``add_columns``, the scenario-to-corpus stream)
    appends whole numpy chunks for the value columns so no per-toot
    Python object is ever built.  Value rows are ordered scalar rows
    first, then chunk rows, so mixing the two styles within one instance
    is rejected to keep row order well-defined.
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
        accounts: list[str],
        author_domains: list[str],
        toot_id: np.ndarray,
        created_minute: np.ndarray,
        is_boost: np.ndarray,
        sensitive: np.ndarray,
        media_attachments: np.ndarray,
        favourites: np.ndarray,
        hashtag_flat: list[str],
        hashtag_lengths: np.ndarray,
    ) -> int:
        """Append whole columns (the vectorised scenario-to-corpus path).

        String columns arrive as Python lists (the spool's string format
        joins them once at seal time); value columns arrive as numpy
        arrays and are buffered as chunks — no per-toot scalars.
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
        for name, column in values.items():
            array = np.asarray(column)
            if array.shape != (rows,):
                raise DatasetError(
                    f"column {name!r} has {array.shape[0] if array.ndim else 0} rows, "
                    f"expected {rows}"
                )
            self._value_chunks[name].append(array.astype(_SPOOL_DTYPES[name], copy=False))
        lengths = np.asarray(hashtag_lengths)
        if lengths.shape != (rows,):
            raise DatasetError("hashtag_lengths must have one entry per row")
        if int(lengths.sum()) != len(hashtag_flat):
            raise DatasetError("hashtag_lengths do not sum to len(hashtag_flat)")
        if len(accounts) != rows or len(author_domains) != rows:
            raise DatasetError("string columns must have one entry per row")
        self._length_chunks.append(lengths.astype(np.int64, copy=False))
        self.url.extend(urls)
        self.account.extend(accounts)
        self.author_domain.extend(author_domains)
        self.hashtag_flat.extend(hashtag_flat)
        return rows

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
            for name in _SPOOL_STRINGS:
                spool.add_strings(name, getattr(self, name))
                setattr(self, name, [])

    @staticmethod
    def open(path: Path) -> SpoolReader:
        """Map a sealed spool file, checking that its columns agree."""
        spool = SpoolReader(
            path, _SPOOL_STRINGS, {**_SPOOL_DTYPES, "hashtag_indptr": np.int64}
        )
        rows = spool.rows("url")
        if spool.rows("account") != rows or spool.rows("author_domain") != rows or any(
            spool.values(name).size != rows for name in _SPOOL_VALUE_COLUMNS
        ):
            raise spool.error("columns disagree on the row count")
        indptr = spool.values("hashtag_indptr")
        if (
            indptr.size != rows + 1
            or indptr[0] != 0
            or indptr[-1] != spool.rows("hashtag_flat")
            or bool(np.any(indptr[1:] < indptr[:-1]))
        ):
            raise spool.error("hashtag_indptr does not frame the hashtag column")
        return spool


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
        — string columns as Python lists, value columns as numpy arrays
        — and is how :meth:`ColumnarScenario.write_corpus
        <repro.fediverse.columnar.ColumnarScenario.write_corpus>` streams
        generated timelines without building payload dicts.
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
            tag_indptr = spool.values("hashtag_indptr")
            home_observed = 0

            for start in range(0, n_rows, MERGE_CHUNK_ROWS):
                stop = min(start + MERGE_CHUNK_ROWS, n_rows)
                rows = stop - start
                urls = spool.strings("url", start, stop)
                author_domains = spool.strings("author_domain", start, stop)
                home_mask = np.fromiter(map(domain.__eq__, author_domains), np.bool_, rows)
                home_observed += int(home_mask.sum())

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

                home_codes = domains.intern(list(map(author_domains.__getitem__, new_rows)))
                accounts = spool.strings("account", start, stop)
                author_codes = authors.intern(list(map(accounts.__getitem__, new_rows)))
                del accounts, author_domains

                # hashtags: decode the chunk's tag range, keep the new rows'
                chunk_ptr = tag_indptr[start : stop + 1]
                tag_lo = int(chunk_ptr[0])
                tags = spool.strings("hashtag_flat", tag_lo, int(chunk_ptr[-1]))
                lengths = (chunk_ptr[1:] - chunk_ptr[:-1])[taken]
                local_indptr = np.zeros(new_count + 1, dtype=np.int64)
                np.cumsum(lengths, out=local_indptr[1:])
                positions = np.repeat(
                    chunk_ptr[:-1][taken] - tag_lo - local_indptr[:-1], lengths
                ) + np.arange(local_indptr[-1], dtype=np.int64)
                flat_codes = hashtags.intern(list(map(tags.__getitem__, positions.tolist())))
                del tags

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
