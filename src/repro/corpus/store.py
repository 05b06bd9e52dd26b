"""The corpus read path: lazy, zero-object access to column shards.

:class:`CorpusStore` opens a corpus directory written by
:class:`~repro.corpus.writer.CorpusWriter`, validates the manifest, and
hands out columns on demand.  Shard ``.npz`` members load lazily — a
request for one column of one shard reads exactly that member — so the
working set of any shard-by-shard consumer is O(shard column), never
O(corpus).  ``TootRecord`` objects are only ever materialised by
:meth:`CorpusStore.iter_records`, which no analysis calls.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.corpus.columns import COLUMN_NAMES, CORPUS_SCHEMA, TootColumns
from repro.corpus.sharded import ShardedStore


class CorpusStore(ShardedStore):
    """Read-side handle on a columnar corpus directory.

    Manifest validation, shard bounds, ``nbytes``, ``coverage`` and
    ``content_digest`` are :class:`~repro.corpus.sharded.ShardedStore`'s;
    this class adds the toot columns and their queries.
    """

    kind = "corpus"
    unit = "toots"
    schema = CORPUS_SCHEMA
    columns = COLUMN_NAMES
    count_key = "n_toots"
    table_names = ("domains", "authors", "hashtags", "replication_counts")
    shard_prefix = "shard"
    code_tables = {
        "home_code": "domains",
        "collected_code": "domains",
        "author_code": "authors",
        "hashtag_codes": "hashtags",
    }
    manifest_keys = {
        "n_observations": int,
        "n_boosts": int,
        "home_toot_counts": dict,
        "observations": dict,
    }

    _cached_shard: tuple[int, Any] | None = None
    _observations: dict[str, tuple[int, int]] | None = None

    # -- structure -------------------------------------------------------------

    @property
    def n_toots(self) -> int:
        return self.manifest["n_toots"]

    @property
    def n_observations(self) -> int:
        return self.manifest["n_observations"]

    @property
    def n_boosts(self) -> int:
        return self.manifest["n_boosts"]

    def _shard_arrays(self, index: int) -> Iterator[np.ndarray]:
        return (self.shard_column(index, name) for name in COLUMN_NAMES)

    # -- intern tables ---------------------------------------------------------

    @property
    def domains(self) -> np.ndarray:
        """Every instance domain seen by the crawl (intern order)."""
        return self._table("domains")

    @property
    def authors(self) -> np.ndarray:
        """Every author handle among the unique toots (intern order)."""
        return self._table("authors")

    @property
    def hashtags(self) -> np.ndarray:
        """Every hashtag among the unique toots (intern order)."""
        return self._table("hashtags")

    def replication_counts(self) -> np.ndarray:
        """Observed remote copies per unique toot (aligned with toot index)."""
        return self._table("replication_counts")

    @property
    def home_toot_counts(self) -> dict[str, int]:
        """Home-toot count per authoring instance (unique toots only)."""
        return dict(self.manifest["home_toot_counts"])

    @property
    def observations(self) -> dict[str, tuple[int, int]]:
        """Per crawled instance: (home, remote) federated-timeline counts.

        Built from the manifest once and cached (per-instance lookups —
        ``timeline_composition`` over every instance — stay O(1)); treat
        the returned dict as read-only.
        """
        if self._observations is None:
            self._observations = {
                domain: (int(counts[0]), int(counts[1]))
                for domain, counts in self.manifest["observations"].items()
            }
        return self._observations

    # -- shard access ----------------------------------------------------------

    def _shard_file(self, index: int) -> Any:
        """The (cached) lazy ``NpzFile`` handle of shard ``index``."""
        cached = self._cached_shard  # one read: another thread may swap it
        if cached is not None and cached[0] == index:
            return cached[1]
        handle = self._open_shard(index)
        self._cached_shard = (index, handle)
        return handle

    def shard_column(self, index: int, name: str) -> np.ndarray:
        """One column of one shard (loads just that ``.npz`` member)."""
        if name not in COLUMN_NAMES:
            raise DatasetError(f"unknown corpus column {name!r}")
        handle = self._shard_file(index)
        if name not in handle.files:
            raise DatasetError(
                f"corpus shard {index} is missing columns: {name}"
            )
        return self._checked_column(index, name, handle[name])

    def shard_columns(self, index: int) -> TootColumns:
        """Every column of one shard, bundled and validated."""
        handle = self._shard_file(index)
        available = set(handle.files)
        return TootColumns.from_mapping(
            {
                name: self._checked_column(index, name, handle[name])
                for name in COLUMN_NAMES
                if name in available
            }
        )

    def iter_columns(self) -> Iterator[tuple[tuple[int, int], TootColumns]]:
        """Stream ``((start, stop), columns)`` over every shard in order."""
        for index, bounds in enumerate(self.shard_bounds()):
            yield bounds, self.shard_columns(index)

    def column(self, name: str) -> np.ndarray:
        """One column concatenated across every shard (O(corpus column))."""
        if self.n_shards == 0:
            if name == "url":
                return np.empty(0, dtype=np.str_)
            from repro.corpus.columns import COLUMN_DTYPES

            return np.empty(0, dtype=COLUMN_DTYPES[name] or np.str_)
        parts = [self.shard_column(i, name) for i in range(self.n_shards)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def urls(self) -> "CorpusUrls":
        """The corpus-wide toot-URL sequence, loaded shard by shard."""
        return CorpusUrls(self)

    # -- record compatibility --------------------------------------------------

    def iter_records(self) -> Iterator["TootRecord"]:
        """Materialise ``TootRecord`` objects, streaming shard by shard.

        No analysis calls it: it is the record-level view that the tests
        and reference loops compare the columns against.  Records
        reproduce every crawled field, hashtags included.
        """
        from repro.crawler.toot_crawler import TootRecord

        domains = self.domains.tolist()
        authors = self.authors.tolist()
        hashtags = self.hashtags.tolist()
        for _, columns in self.iter_columns():
            urls = columns.url.tolist()
            indptr = columns.hashtag_indptr
            tag_codes = columns.hashtag_codes.tolist()
            for row in range(columns.n_toots):
                lo, hi = int(indptr[row]), int(indptr[row + 1])
                yield TootRecord(
                    toot_id=int(columns.toot_id[row]),
                    url=urls[row],
                    account=authors[columns.author_code[row]],
                    author_domain=domains[columns.home_code[row]],
                    collected_from=domains[columns.collected_code[row]],
                    created_at=int(columns.created_minute[row]),
                    hashtags=tuple(hashtags[code] for code in tag_codes[lo:hi]),
                    media_attachments=int(columns.media_attachments[row]),
                    favourites=int(columns.favourites[row]),
                    is_boost=bool(columns.is_boost[row]),
                    sensitive=bool(columns.sensitive[row]),
                )


class CorpusUrls(Sequence):
    """A lazy, corpus-wide view of the toot URL column.

    Satisfies the ``Sequence`` shape :class:`PlacementArrays` expects
    for ``toot_urls`` without holding more than one shard's URLs at a
    time; ``tuple(urls)`` streams shard by shard.
    """

    def __init__(self, store: CorpusStore) -> None:
        self._store = store
        self._bounds = store.shard_bounds()
        self._cache: tuple[int, list[str]] | None = None

    def __len__(self) -> int:
        return self._store.n_toots

    def _shard_urls(self, index: int) -> list[str]:
        if self._cache is not None and self._cache[0] == index:
            return self._cache[1]
        urls = self._store.shard_column(index, "url").tolist()
        self._cache = (index, urls)
        return urls

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(position)
        for index, (start, stop) in enumerate(self._bounds):
            if start <= position < stop:
                return self._shard_urls(index)[position - start]
        raise IndexError(position)  # pragma: no cover - bounds always partition

    def __iter__(self) -> Iterator[str]:
        for index in range(len(self._bounds)):
            yield from self._shard_urls(index)
