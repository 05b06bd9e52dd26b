"""The columnar corpus store: the crawl as integer-coded column shards.

The paper's dataset is a 67M-toot de-duplicated union of every
instance's federated timeline.  With the availability sweeps streaming
(PR 4), the corpus itself — ``TootRecord`` lists held by
``TootCrawlResult``, the dict-based dedup in ``unique_toots()``, and
placement construction from record lists — became the memory/time
ceiling: every observed toot existed as a Python object before a single
placement array was built.  This package removes that ceiling by keeping
the corpus columnar from the first crawled page onward:

* :class:`CorpusWriter` — the streaming write path.  It sits behind
  :class:`~repro.crawler.toot_crawler.TootCrawler` as a page sink:
  crawled pages are encoded straight into per-instance column spools
  (no ``TootRecord`` objects), spools seal to disk as each instance
  completes, and ``finalise()`` merges them in sorted-domain order —
  interning instance domains, author handles, hashtags, and toot URLs
  (the URL intern table *is* the dedup, replacing the global
  ``unique_toots()`` dict of records) — flushing fixed-size shards to
  disk as ``.npz`` files under a small JSON manifest;
* :class:`CorpusStore` — the read path.  Shards load lazily (one
  ``.npz`` member at a time), so touching one column of one shard never
  materialises anything else; :class:`TootColumns` is the per-shard
  column bundle and :meth:`CorpusStore.urls` a corpus-wide lazy
  URL sequence;
* :class:`GraphWriter` / :class:`GraphStore` — the same treatment for
  the follower graph (:mod:`repro.corpus.graph`): the graph crawler
  streams edges into per-instance spools, ``finalise()`` interns the
  handles in first-appearance order and flushes integer edge shards, and
  the store answers the placement/resilience queries (follower-domain
  sets, adjacency matrices) without ever building a networkx graph;
* :mod:`repro.corpus.sharded` — the one store lifecycle both datasets
  share: the journaled spool-per-instance writer with crash recovery
  and quarantine, the sorted-domain merge into fixed-size shards with
  atomic tables and manifest, and the read side's manifest validation
  (untrusted input: a malformed value raises a :class:`DatasetError`
  naming the directory and key), shard bounds, ``nbytes``, ``coverage`` and ``content_digest``.  The
  corpus and graph classes add only their spool columns, merge and
  interning rules, schema, and column queries.

The package is the data plane and imports nothing above it: no engine,
crawler or simulator module.  Placements are built from its columns by
:meth:`PlacementArrays.from_corpus
<repro.engine.placement.PlacementArrays.from_corpus>` (home codes and
replica CSR arrays, shard by shard), and the corpus shard boundaries
flow through to :func:`~repro.engine.sharding.toot_ranges`, so by
default every fold runs over exactly the shards the crawl wrote.

The merge order (instances sorted by domain, pages in crawl order,
first-seen URL wins) reproduces ``TootCrawlResult.unique_toots()`` of
the crawler's record mode exactly; the corpus tests hold the store to
that reference.  Every dataset, placement and availability curve of the
pipeline is built from these stores.
"""

from repro.corpus.columns import COLUMN_NAMES, CORPUS_SCHEMA, TootColumns
from repro.corpus.journal import CrawlJournal, InstanceProgress, JournalReplay
from repro.corpus.graph import (
    DEFAULT_GRAPH_SHARD_SIZE,
    GRAPH_SCHEMA,
    GraphStore,
    GraphWriter,
)
from repro.corpus.store import CorpusStore, CorpusUrls
from repro.corpus.writer import DEFAULT_CORPUS_SHARD_SIZE, CorpusWriter

__all__ = [
    "COLUMN_NAMES",
    "CORPUS_SCHEMA",
    "CorpusStore",
    "CorpusUrls",
    "CorpusWriter",
    "CrawlJournal",
    "InstanceProgress",
    "JournalReplay",
    "DEFAULT_CORPUS_SHARD_SIZE",
    "DEFAULT_GRAPH_SHARD_SIZE",
    "GRAPH_SCHEMA",
    "GraphStore",
    "GraphWriter",
    "TootColumns",
]
