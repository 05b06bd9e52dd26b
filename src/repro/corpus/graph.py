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
stream (follower before followed within each edge, self-loops skipped;
:class:`EdgeInterner`), and domain codes in first-appearance order over
the nodes.  These integer columns are the one form of the follower
graph ``G(V, E)``: :class:`GraphColumns` answers every graph question
from them — per-instance users, follower-domain sets for the
subscription placement, and the federation graph ``GF(I, E)`` as a
``(source, target, weight)`` edge table over the domain codes — for the
store and for the in-memory :class:`~repro.datasets.graphs.GraphDataset`
alike, and the removal sweeps build their CSR adjacency from them
(:meth:`GraphMatrix.from_codes
<repro.engine.resilience.GraphMatrix.from_codes>`).
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

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
from repro.errors import DatasetError

def split_handle(handle: str) -> tuple[str, str]:
    """Split a ``user@domain`` handle into its username and domain parts.

    Malformed handles (no ``@``, or an empty side) raise
    :class:`~repro.errors.DatasetError` naming the offending handle, so
    corrupt crawl output fails loudly instead of silently passing the
    whole handle off as a "domain".
    """
    username, separator, domain = handle.rpartition("@")
    if not separator or not username or not domain:
        raise DatasetError(
            f"malformed account handle (expected 'user@domain'): {handle!r}"
        )
    return username, domain


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


class EdgeInterner:
    """Interns follower edges into node and domain codes, as the merge does.

    Nodes get codes in first-appearance order, follower before followed
    within each edge, and each new node's domain a code in
    first-appearance order over the nodes; self-loops are skipped and
    counted.  :meth:`GraphWriter._merge` feeds it each spool chunk, and
    :meth:`GraphDataset.from_edges
    <repro.datasets.graphs.GraphDataset.from_edges>` any handle list.
    """

    def __init__(self) -> None:
        self.nodes = Interner()
        self.domains = Interner()
        self.node_domains: list[np.ndarray] = []
        self.self_loops = 0

    def add(self, followers: list[str], followed: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The ``int32`` (follower, followed) codes of the non-loop edges."""
        kept = list(map(str.__ne__, followers, followed))
        n_kept = kept.count(True)
        self.self_loops += len(kept) - n_kept
        # follower before followed within each edge: intern the
        # interleaved handle sequence, first seen in order
        handles: list[str] = [""] * (2 * n_kept)
        handles[0::2] = compress(followers, kept)
        handles[1::2] = compress(followed, kept)
        del followers, followed  # free the decoded chunk before interning
        known = len(self.nodes)
        codes = self.nodes.intern(handles)
        if len(self.nodes) > known:
            self.node_domains.append(
                self.domains.intern([split_handle(h)[1] for h in self.nodes.values[known:]])
            )
        return codes[0::2].astype(np.int32), codes[1::2].astype(np.int32)

    def tables(self) -> dict[str, np.ndarray]:
        """The ``handles``, ``node_domains`` and ``domains`` intern tables."""
        return dict(
            handles=string_array(self.nodes.values),
            node_domains=(
                np.concatenate(self.node_domains)
                if self.node_domains
                else np.empty(0, np.int64)
            ).astype(np.int32),
            domains=string_array(self.domains.values),
        )


class GraphColumns:
    """The follower-graph questions, answered from the integer columns.

    A subclass provides the node tables (:attr:`handles`,
    :attr:`node_domain_codes`, :attr:`domains`) and :meth:`edge_codes`.
    :class:`GraphStore` reads them from its files and
    :class:`~repro.datasets.graphs.GraphDataset` holds them in memory, so
    both answer every question below with this one implementation.
    """

    handles: np.ndarray
    node_domain_codes: np.ndarray
    domains: np.ndarray

    _node_index: dict[str, int] | None = None
    _federation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def edge_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge's ``(follower_code, followed_code)``, in store order."""
        raise NotImplementedError

    def node_index(self) -> dict[str, int]:
        """Handle → node code (built once, cached)."""
        if self._node_index is None:
            self._node_index = {
                handle: code for code, handle in enumerate(self.handles.tolist())
            }
        return self._node_index

    def follower_domain_sets(self, authors: Sequence[str]) -> dict[str, set[str]]:
        """Author → the domains of the author's followers.

        Keys keep first-appearance order over ``authors`` (duplicates
        collapse), authors absent from the graph get empty sets, and
        follower domains are *not* filtered against the author's own home
        (the subscription expansion drops those later).
        """
        result: dict[str, set[str]] = {author: set() for author in authors}
        if not result or not len(self.handles):
            return result
        index = self.node_index()
        author_flag = np.zeros(len(self.handles), dtype=bool)
        author_of_code: dict[int, str] = {}
        for author in result:
            code = index.get(author)
            if code is not None:
                author_flag[code] = True
                author_of_code[code] = author
        if not author_of_code:
            return result
        follower, followed = self.edge_codes()
        mask = author_flag[followed]
        domain_values = self.domains.tolist()
        n_domains = max(1, len(domain_values))
        keys = followed[mask].astype(np.int64) * n_domains + self.node_domain_codes[
            follower[mask]
        ].astype(np.int64)
        for key in np.unique(keys).tolist():
            result[author_of_code[key // n_domains]].add(domain_values[key % n_domains])
        return result

    def users_per_instance(self) -> dict[str, int]:
        """Accounts observed in the graph per domain (node counts)."""
        counts = np.bincount(self.node_domain_codes, minlength=self.domains.shape[0])
        return {
            str(domain): int(count)
            for domain, count in zip(self.domains.tolist(), counts.tolist())
        }

    def federation_edge_codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The federation graph ``GF(I, E)`` as ``(source, target, weight)`` columns.

        One row per ordered pair of distinct domains with a follow edge
        between them: the follower's domain, the followed account's
        domain (both codes into :attr:`domains`) and the number of follow
        edges.  Rows run by source code, then by where the pair's first
        edge falls once the edges are stably sorted by follower code —
        the order in which a follower-keyed adjacency lists them.  Fig.
        6's flows keep first-seen order among equal link counts, so this
        order is part of the output.
        """
        if self._federation is None:
            follower, followed = self.edge_codes()
            source = self.node_domain_codes[follower].astype(np.int64)
            target = self.node_domain_codes[followed].astype(np.int64)
            cross = np.flatnonzero(source != target)
            n_domains = max(1, self.domains.shape[0])
            keys, pair, weight = np.unique(
                source[cross] * n_domains + target[cross],
                return_inverse=True,
                return_counts=True,
            )
            # an edge's place in the follower-sorted order ranks as its
            # (follower code, position) pair, so each pair's first edge
            # is its least follower * n_edges + position
            first = np.full(keys.size, np.iinfo(np.int64).max)
            np.minimum.at(first, pair, follower[cross].astype(np.int64) * follower.size + cross)
            order = np.lexsort((first, keys // n_domains))
            keys = keys[order]
            self._federation = (keys // n_domains, keys % n_domains, weight[order])
        return self._federation

    def federation_edge_counts(self) -> dict[tuple[str, str], int]:
        """``(follower_domain, followed_domain)`` → follow edges, in row order."""
        source, target, weight = self.federation_edge_codes()
        domains = self.domains.tolist()
        return {
            (domains[s], domains[t]): w
            for s, t, w in zip(source.tolist(), target.tolist(), weight.tolist())
        }

    def federation_degrees(self) -> dict[str, int]:
        """Domain → its distinct federation partners, counted in and out.

        The degree of the domain in ``GF(I, E)``: an instance-removal
        schedule ranks "by connections" on it.
        """
        source, target, _ = self.federation_edge_codes()
        n_domains = self.domains.shape[0]
        degrees = np.bincount(source, minlength=n_domains) + np.bincount(
            target, minlength=n_domains
        )
        return dict(zip(self.domains.tolist(), degrees.tolist()))


class GraphStore(GraphColumns, ShardedStore):
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

    # -- shard access ----------------------------------------------------------

    def shard_edges(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard's ``(follower_code, followed_code)`` columns."""
        handle = self._open_shard(index)
        return tuple(
            self._checked_column(index, name, handle[name]) for name in EDGE_COLUMNS
        )

    def edge_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge's ``(follower_code, followed_code)``, shards concatenated."""
        shards = [self.shard_edges(index) for index in range(self.n_shards)]
        if not shards:
            return np.empty(0, np.int32), np.empty(0, np.int32)
        follower, followed = zip(*shards)
        return np.concatenate(follower), np.concatenate(followed)


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
        ``GraphCrawlResult.edges`` stream); :class:`EdgeInterner` codes
        the nodes first-seen, follower before followed, and skips
        self-loop edges with a count.
        """
        interner = EdgeInterner()
        edges_collected: dict[str, int] = {}
        for domain in sorted(self._sealed):
            spool = _EdgeSpool.open(self._sealed[domain])
            n_rows = spool.rows("follower")
            edges_collected[domain] = n_rows
            for start in range(0, n_rows, MERGE_CHUNK_ROWS):
                stop = min(start + MERGE_CHUNK_ROWS, n_rows)
                follower, followed = interner.add(
                    spool.strings("follower", start, stop),
                    spool.strings("followed", start, stop),
                )
                if follower.size:
                    sink.add(
                        follower.size,
                        {"follower_code": follower, "followed_code": followed},
                    )
        sink.flush(everything=True)

        tables = interner.tables()
        fields = {
            "n_nodes": len(interner.nodes),
            "n_self_loops": interner.self_loops,
            "edges_collected": {
                domain: int(count) for domain, count in sorted(edges_collected.items())
            },
        }
        return tables, fields
