"""The graphs dataset: the follower graph and the induced federation graph.

The paper induces two graphs from its crawl:

* ``G(V, E)`` — the user-level follower graph: a directed edge from
  ``Vi`` to ``Vj`` when ``Vi`` follows ``Vj`` (853K accounts, 9.25M edges);
* ``GF(I, E)`` — the instance-level federation graph: a directed edge
  from instance ``Ia`` to ``Ib`` when at least one account on ``Ia``
  follows an account on ``Ib``.

:class:`GraphDataset` holds both as the graph store's integer columns:
node handles, per-node domain codes, the domain table and the edge
code columns.  ``GF`` is the ``(source, target, weight)`` edge table
over the domain codes that :class:`~repro.corpus.graph.GraphColumns`
derives from them, and the removal sweeps' CSR matrices are built from
the same columns on first use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.corpus.graph import EdgeInterner, GraphColumns, GraphStore
from repro.crawler.graph_crawler import FollowEdgeRecord
from repro.engine.resilience import GraphMatrix
from repro.errors import DatasetError


class GraphDataset(GraphColumns):
    """The follower graph and the induced federation graph, as columns.

    ``follower`` and ``followed`` code each follow edge into ``handles``,
    in the store's order; a repeated edge is kept once (its first copy),
    since ``G(V, E)`` is a simple graph.
    """

    def __init__(
        self,
        handles: np.ndarray,
        node_domain_codes: np.ndarray,
        domains: np.ndarray,
        follower: np.ndarray,
        followed: np.ndarray,
    ) -> None:
        if not len(handles):
            raise DatasetError("cannot build a graph dataset without edges")
        self.handles = handles
        self.node_domain_codes = node_domain_codes
        self.domains = domains
        keys = follower.astype(np.int64) * len(handles) + followed
        first = np.unique(keys, return_index=True)[1]
        if first.size < keys.size:
            first.sort()
            follower, followed = follower[first], followed[first]
        self.follower = follower
        self.followed = followed
        self._follower_matrix: GraphMatrix | None = None
        self._federation_matrix: GraphMatrix | None = None

    @classmethod
    def from_store(cls, store: GraphStore) -> "GraphDataset":
        """The graphs of a graph store, from its codes (no handle is decoded)."""
        return cls(store.handles, store.node_domain_codes, store.domains, *store.edge_codes())

    @classmethod
    def from_edges(cls, edges: Iterable[FollowEdgeRecord | tuple[str, str]]) -> "GraphDataset":
        """Both graphs from ``(follower, followed)`` pairs or edge records.

        The pairs are interned as the graph store's merge interns them:
        follower before followed, self-loops skipped.
        """
        followers: list[str] = []
        followed: list[str] = []
        for edge in edges:
            if isinstance(edge, FollowEdgeRecord):
                edge = (edge.follower, edge.followed)
            followers.append(edge[0])
            followed.append(edge[1])
        interner = EdgeInterner()
        codes = interner.add(followers, followed)
        tables = interner.tables()
        return cls(tables["handles"], tables["node_domains"], tables["domains"], *codes)

    def edge_codes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.follower, self.followed

    # -- user-level views -----------------------------------------------------

    def user_count(self) -> int:
        """Number of accounts in the follower graph."""
        return len(self.handles)

    def follow_edge_count(self) -> int:
        """Number of follow edges."""
        return len(self.follower)

    def out_degrees(self) -> list[int]:
        """Out-degree (number of accounts followed) of every account."""
        return np.bincount(self.follower, minlength=self.user_count()).tolist()

    def in_degrees(self) -> list[int]:
        """In-degree (number of followers) of every account."""
        return np.bincount(self.followed, minlength=self.user_count()).tolist()

    def users_on_instance(self, domain: str) -> list[str]:
        """Accounts hosted on ``domain`` (as observed in the graph)."""
        codes = np.flatnonzero(self.domains == domain)
        return self.handles[np.isin(self.node_domain_codes, codes)].tolist()

    @property
    def follower_matrix(self) -> GraphMatrix:
        """``G(V, E)`` as the removal sweeps' adjacency (built once)."""
        if self._follower_matrix is None:
            self._follower_matrix = GraphMatrix.from_codes(
                self.handles.tolist(), self.follower, self.followed
            )
        return self._follower_matrix

    # -- instance-level views ------------------------------------------------------

    def instance_count(self) -> int:
        """Number of instances in the federation graph."""
        return len(self.domains)

    def federation_edge_count(self) -> int:
        """Number of instance-to-instance subscription edges."""
        return len(self.federation_edge_codes()[0])

    def federation_out_degrees(self) -> list[int]:
        """Out-degree of every instance in the federation graph."""
        source = self.federation_edge_codes()[0]
        return np.bincount(source, minlength=self.instance_count()).tolist()

    def instance_degree_table(self) -> dict[str, dict[str, int]]:
        """Per-instance in/out degree and observed user count (Table 2 columns)."""
        source, target, _ = self.federation_edge_codes()
        n = self.instance_count()
        columns = zip(
            self.domains.tolist(),
            np.bincount(self.node_domain_codes, minlength=n).tolist(),
            np.bincount(source, minlength=n).tolist(),
            np.bincount(target, minlength=n).tolist(),
        )
        return {
            domain: {
                "users": users,
                "instance_out_degree": out_degree,
                "instance_in_degree": in_degree,
            }
            for domain, users, out_degree, in_degree in columns
        }

    @property
    def federation_matrix(self) -> GraphMatrix:
        """``GF(I, E)`` as the removal sweeps' adjacency over the domains."""
        if self._federation_matrix is None:
            source, target, _ = self.federation_edge_codes()
            self._federation_matrix = GraphMatrix.from_codes(
                self.domains.tolist(), source, target
            )
        return self._federation_matrix
