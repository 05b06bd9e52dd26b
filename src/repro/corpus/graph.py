"""The on-disk columnar follower graph: edge shards + node intern tables.

:class:`GraphWriter` / :class:`GraphStore` give the social graph the
same ``.npz``-shard treatment :class:`~repro.corpus.writer.CorpusWriter`
/ :class:`~repro.corpus.store.CorpusStore` give the toot corpus: the
graph crawl (or the columnar scenario generator) streams each
instance's follower edges into a per-instance spool, sealed on clean
completion, and :meth:`GraphWriter.finalise` merges the spools —
instances in sorted-domain order, accounts and followers in crawl
order — into fixed-size edge shards plus a node intern table and a
JSON manifest.

Node codes are assigned in first-appearance order over the merged edge
stream (follower before followed within each edge, self-loops skipped),
which is exactly the node insertion order of
:func:`repro.datasets.graphs.build_follower_graph` over the same edges.
That makes :meth:`GraphMatrix.from_graph_store
<repro.engine.resilience.GraphMatrix.from_graph_store>` bit-compatible
with the networkx round-trip, and lets
:meth:`GraphStore.follower_domain_sets` feed
:func:`~repro.engine.placement.subscription_arrays_from_columns`
without a ``networkx`` graph (or a ``FollowEdgeRecord`` list) ever
existing.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.corpus.sharded import (
    MERGE_CHUNK_ROWS,
    Interner,
    ShardedStore,
    ShardedWriter,
    ShardSink,
    SpoolFile,
    SpoolReader,
    string_array,
)
from repro.crawler.graph_crawler import split_handle

#: On-disk graph format version.
GRAPH_SCHEMA = "repro.graph/v1"

#: Default follower edges per shard.
DEFAULT_GRAPH_SHARD_SIZE = 1_000_000

#: The two integer columns every edge shard carries.
EDGE_COLUMNS = ("follower_code", "followed_code")


class _EdgeSpool:
    """Edge buffers for one instance's follower crawl."""

    def __init__(self, domain: str) -> None:
        self.domain = domain
        self.follower: list[str] = []
        self.followed: list[str] = []

    def add_edges(self, edges: Iterable[tuple[str, str]]) -> int:
        pairs = list(edges)
        self.follower.extend(map(str, map(itemgetter(0), pairs)))
        self.followed.extend(map(str, map(itemgetter(1), pairs)))
        return len(pairs)

    def seal(self, path: Path) -> None:
        with SpoolFile(path) as spool:
            for name in ("follower", "followed"):
                spool.add_strings(name, getattr(self, name))
                setattr(self, name, [])

    @staticmethod
    def open(path: Path) -> SpoolReader:
        """Map a sealed edge spool, checking that both columns agree."""
        spool = SpoolReader(path, ("follower", "followed"), {})
        if spool.rows("follower") != spool.rows("followed"):
            raise spool.error("follower and followed columns disagree on the row count")
        return spool


class GraphStore(ShardedStore):
    """Read-side handle on a columnar follower-graph directory."""

    kind = "graph"
    unit = "edges"
    schema = GRAPH_SCHEMA
    columns = EDGE_COLUMNS
    count_key = "n_edges"
    table_names = ("handles", "node_domains", "domains")
    shard_prefix = "edges"
    code_tables = {"follower_code": "handles", "followed_code": "handles"}
    manifest_keys = {"n_nodes": int, "n_self_loops": int, "edges_collected": dict}

    _node_index: dict[str, int] | None = None

    # -- structure -------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.manifest["n_edges"]

    @property
    def n_nodes(self) -> int:
        return self.manifest["n_nodes"]

    @property
    def n_self_loops(self) -> int:
        return self.manifest["n_self_loops"]

    def _shard_arrays(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.shard_edges(index)

    @property
    def edges_collected(self) -> dict[str, int]:
        """Edges observed per cleanly-crawled instance (zeroes included)."""
        return {domain: int(n) for domain, n in self.manifest["edges_collected"].items()}

    # -- intern tables ---------------------------------------------------------

    @property
    def handles(self) -> np.ndarray:
        """Every account handle in the graph (node intern order)."""
        return self._table("handles")

    @property
    def node_domain_codes(self) -> np.ndarray:
        """Per-node domain code into :attr:`domains` (node intern order)."""
        return self._table("node_domains")

    @property
    def domains(self) -> np.ndarray:
        """Every domain hosting at least one node (intern order)."""
        return self._table("domains")

    def node_index(self) -> dict[str, int]:
        """Handle → node code (built once, cached)."""
        if self._node_index is None:
            self._node_index = {
                handle: code for code, handle in enumerate(self.handles.tolist())
            }
        return self._node_index

    # -- shard access ----------------------------------------------------------

    def shard_edges(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard's ``(follower_code, followed_code)`` columns."""
        handle = self._open_shard(index)
        return tuple(
            self._checked_column(index, name, handle[name]) for name in EDGE_COLUMNS
        )

    def iter_edges(self) -> Iterator[tuple[tuple[int, int], np.ndarray, np.ndarray]]:
        """Stream ``((start, stop), follower_code, followed_code)`` per shard."""
        for index, bounds in enumerate(self.shard_bounds()):
            follower, followed = self.shard_edges(index)
            yield bounds, follower, followed

    def iter_edge_handles(self) -> Iterator[tuple[str, str]]:
        """Stream decoded ``(follower, followed)`` handle pairs, shard by shard.

        The compatibility escape hatch for networkx consumers
        (:meth:`GraphDataset.from_edges
        <repro.datasets.graphs.GraphDataset.from_edges>`); the scale
        paths use the integer columns directly.
        """
        handles = self.handles.tolist()
        for _, follower, followed in self.iter_edges():
            for src, dst in zip(follower.tolist(), followed.tolist()):
                yield handles[src], handles[dst]

    # -- columnar consumers ----------------------------------------------------

    def follower_domain_sets(self, authors: Sequence[str]) -> dict[str, set[str]]:
        """Author → follower-domain sets, straight from the edge columns.

        Equivalent to :func:`repro.engine.placement.follower_domain_sets`
        over the networkx graph of the same edges: keys keep
        first-appearance order over ``authors`` (duplicates collapse),
        authors absent from the graph get empty sets, and follower
        domains are *not* filtered against the author's own home (the
        subscription expansion drops those later).
        """
        result: dict[str, set[str]] = {author: set() for author in authors}
        if not result or self.n_nodes == 0:
            return result
        index = self.node_index()
        author_flag = np.zeros(self.n_nodes, dtype=bool)
        author_of_code: dict[int, str] = {}
        for author in result:
            code = index.get(author)
            if code is not None:
                author_flag[code] = True
                author_of_code[code] = author
        if not author_of_code:
            return result
        node_domains = self.node_domain_codes
        domain_values = self.domains.tolist()
        n_domains = max(1, len(domain_values))
        for _, follower, followed in self.iter_edges():
            mask = author_flag[followed]
            if not mask.any():
                continue
            keys = followed[mask].astype(np.int64) * n_domains + node_domains[
                follower[mask]
            ].astype(np.int64)
            for key in np.unique(keys).tolist():
                result[author_of_code[key // n_domains]].add(
                    domain_values[key % n_domains]
                )
        return result

    def users_per_instance(self) -> dict[str, int]:
        """Accounts observed in the graph per domain (node counts)."""
        counts = np.bincount(self.node_domain_codes, minlength=self.domains.shape[0])
        return {
            str(domain): int(count)
            for domain, count in zip(self.domains.tolist(), counts.tolist())
        }

    def federation_edge_counts(self) -> dict[tuple[str, str], int]:
        """Cross-instance follow counts ``(follower_domain, followed_domain)``.

        Same-domain edges are skipped, mirroring
        :func:`repro.datasets.graphs.build_federation_graph`.
        """
        domain_values = self.domains.tolist()
        n_domains = max(1, len(domain_values))
        node_domains = self.node_domain_codes
        totals: dict[int, int] = {}
        for _, follower, followed in self.iter_edges():
            src = node_domains[follower].astype(np.int64)
            dst = node_domains[followed].astype(np.int64)
            mask = src != dst
            if not mask.any():
                continue
            keys, counts = np.unique(src[mask] * n_domains + dst[mask], return_counts=True)
            for key, count in zip(keys.tolist(), counts.tolist()):
                totals[key] = totals.get(key, 0) + count
        return {
            (domain_values[key // n_domains], domain_values[key % n_domains]): count
            for key, count in totals.items()
        }


class GraphWriter(ShardedWriter):
    """Streams a follower-graph crawl into an integer-coded edge store.

    Use as the ``sink`` argument of :meth:`FollowerGraphCrawler.crawl
    <repro.crawler.graph_crawler.FollowerGraphCrawler.crawl>`; or feed
    it directly via :meth:`add_edges` + :meth:`end_instance`, then
    :meth:`finalise` once every instance is in.  The lifecycle is
    :class:`~repro.corpus.sharded.ShardedWriter`'s, shared with
    :class:`~repro.corpus.writer.CorpusWriter`.
    """

    store_class = GraphStore
    spool_class = _EdgeSpool

    def __init__(
        self,
        path: str | Path,
        shard_size: int = DEFAULT_GRAPH_SHARD_SIZE,
        resume: bool = False,
    ) -> None:
        super().__init__(path, shard_size, resume)

    def add_edges(self, domain: str, edges: Iterable[tuple[str, str]]) -> int:
        """Buffer ``(follower, followed)`` handle pairs observed on ``domain``."""
        added = self._spool(domain).add_edges(edges)
        self._journal.page(domain, added)
        return added

    def _merge(self, sink: ShardSink) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Intern nodes and flush edge shards (the body of :meth:`finalise`).

        Instances merge in sorted-domain order (the scheduler returns
        outcomes in that order too, so this reproduces the legacy
        ``GraphCrawlResult.edges`` stream); nodes intern first-seen,
        follower before followed, and self-loop edges are skipped with a
        count — exactly ``build_follower_graph``'s behaviour.
        """
        nodes = Interner()
        domains = Interner()
        node_domains: list[np.ndarray] = []
        edges_collected: dict[str, int] = {}
        self_loops = 0
        for domain in sorted(self._sealed):
            spool = _EdgeSpool.open(self._sealed[domain])
            n_rows = spool.rows("follower")
            edges_collected[domain] = n_rows
            for start in range(0, n_rows, MERGE_CHUNK_ROWS):
                stop = min(start + MERGE_CHUNK_ROWS, n_rows)
                followers = spool.strings("follower", start, stop)
                followed = spool.strings("followed", start, stop)
                kept = list(map(str.__ne__, followers, followed))
                n_kept = kept.count(True)
                self_loops += len(kept) - n_kept
                if not n_kept:
                    continue
                # follower before followed within each edge: intern the
                # interleaved handle sequence, first seen in order
                handles: list[str] = [""] * (2 * n_kept)
                handles[0::2] = compress(followers, kept)
                handles[1::2] = compress(followed, kept)
                del followers, followed
                known = len(nodes)
                codes = nodes.intern(handles)
                if len(nodes) > known:
                    node_domains.append(
                        domains.intern([split_handle(h)[1] for h in nodes.values[known:]])
                    )
                sink.add(
                    n_kept,
                    {
                        "follower_code": codes[0::2].astype(np.int32),
                        "followed_code": codes[1::2].astype(np.int32),
                    },
                )
        sink.flush(everything=True)

        tables = dict(
            handles=string_array(nodes.values),
            node_domains=(
                np.concatenate(node_domains) if node_domains else np.empty(0, np.int64)
            ).astype(np.int32),
            domains=string_array(domains.values),
        )
        fields = {
            "n_nodes": len(nodes),
            "n_self_loops": self_loops,
            "edges_collected": {
                domain: int(count) for domain, count in sorted(edges_collected.items())
            },
        }
        return tables, fields
