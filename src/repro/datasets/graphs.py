"""The graphs dataset: the follower graph and the induced federation graph.

The paper induces two graphs from its crawl:

* ``G(V, E)`` — the user-level follower graph: a directed edge from
  ``Vi`` to ``Vj`` when ``Vi`` follows ``Vj`` (853K accounts, 9.25M edges);
* ``GF(I, E)`` — the instance-level federation graph: a directed edge
  from instance ``Ia`` to ``Ib`` when at least one account on ``Ia``
  follows an account on ``Ib``.

Both are represented as :class:`networkx.DiGraph` objects; this module
provides the builders plus the handful of degree/LCC helpers the
resilience analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from repro.errors import DatasetError
from repro.crawler.graph_crawler import FollowEdgeRecord


def _domain_of(handle: str) -> str:
    if "@" not in handle:
        raise DatasetError(f"handle without a domain part: {handle!r}")
    return handle.rsplit("@", 1)[1]


def build_follower_graph(
    edges: Iterable[FollowEdgeRecord | tuple[str, str]],
) -> nx.DiGraph:
    """Build the user-level follower graph ``G(V, E)``.

    Accepts either :class:`FollowEdgeRecord` objects or plain
    ``(follower, followed)`` handle tuples.  Every node is annotated with
    its instance domain.
    """
    graph = nx.DiGraph()
    for edge in edges:
        if isinstance(edge, FollowEdgeRecord):
            follower, followed = edge.follower, edge.followed
        else:
            follower, followed = edge
        if follower == followed:
            continue
        graph.add_node(follower, domain=_domain_of(follower))
        graph.add_node(followed, domain=_domain_of(followed))
        graph.add_edge(follower, followed)
    return graph


def build_federation_graph(follower_graph: nx.DiGraph) -> nx.DiGraph:
    """Induce the instance-level federation graph ``GF(I, E)``.

    An edge ``(a, b)`` exists when at least one account on instance ``a``
    follows an account on instance ``b``.  Nodes carry ``users`` (number
    of accounts observed on the instance) and edges carry ``weight`` (the
    number of underlying follow relationships).
    """
    federation = nx.DiGraph()
    users_per_instance: dict[str, int] = {}
    for node, data in follower_graph.nodes(data=True):
        domain = data.get("domain") or _domain_of(node)
        users_per_instance[domain] = users_per_instance.get(domain, 0) + 1
    for domain, users in users_per_instance.items():
        federation.add_node(domain, users=users)
    for follower, followed in follower_graph.edges():
        source = follower_graph.nodes[follower].get("domain") or _domain_of(follower)
        target = follower_graph.nodes[followed].get("domain") or _domain_of(followed)
        if source == target:
            continue
        if federation.has_edge(source, target):
            federation[source][target]["weight"] += 1
        else:
            federation.add_edge(source, target, weight=1)
    return federation


@dataclass
class GraphDataset:
    """The follower graph, the induced federation graph and helpers."""

    follower_graph: nx.DiGraph
    federation_graph: nx.DiGraph

    @classmethod
    def from_edges(cls, edges: Iterable[FollowEdgeRecord | tuple[str, str]]) -> "GraphDataset":
        """Build both graphs from raw follower edges."""
        follower_graph = build_follower_graph(edges)
        if follower_graph.number_of_nodes() == 0:
            raise DatasetError("cannot build a graph dataset without edges")
        return cls(
            follower_graph=follower_graph,
            federation_graph=build_federation_graph(follower_graph),
        )

    # -- user-level views -----------------------------------------------------

    def user_count(self) -> int:
        """Number of accounts in the follower graph."""
        return self.follower_graph.number_of_nodes()

    def follow_edge_count(self) -> int:
        """Number of follow edges."""
        return self.follower_graph.number_of_edges()

    def out_degrees(self) -> list[int]:
        """Out-degree (number of accounts followed) of every account."""
        return [degree for _, degree in self.follower_graph.out_degree()]

    def in_degrees(self) -> list[int]:
        """In-degree (number of followers) of every account."""
        return [degree for _, degree in self.follower_graph.in_degree()]

    def users_on_instance(self, domain: str) -> list[str]:
        """Accounts hosted on ``domain`` (as observed in the graph)."""
        return [
            node
            for node, data in self.follower_graph.nodes(data=True)
            if data.get("domain") == domain
        ]

    def users_per_instance(self) -> dict[str, int]:
        """Number of observed accounts per instance."""
        counts: dict[str, int] = {}
        for _, data in self.follower_graph.nodes(data=True):
            domain = data.get("domain", "")
            counts[domain] = counts.get(domain, 0) + 1
        return counts

    # -- instance-level views ------------------------------------------------------

    def instance_count(self) -> int:
        """Number of instances in the federation graph."""
        return self.federation_graph.number_of_nodes()

    def federation_edge_count(self) -> int:
        """Number of instance-to-instance subscription edges."""
        return self.federation_graph.number_of_edges()

    def federation_out_degrees(self) -> list[int]:
        """Out-degree of every instance in the federation graph."""
        return [degree for _, degree in self.federation_graph.out_degree()]

    def instance_degree_table(self) -> dict[str, dict[str, int]]:
        """Per-instance in/out degree and observed user count (Table 2 columns)."""
        table: dict[str, dict[str, int]] = {}
        users = self.users_per_instance()
        for domain in self.federation_graph.nodes():
            table[domain] = {
                "users": users.get(domain, 0),
                "instance_out_degree": self.federation_graph.out_degree(domain),
                "instance_in_degree": self.federation_graph.in_degree(domain),
            }
        return table


# -- LCC helpers shared by the resilience analysis -----------------------------


def largest_connected_component_fraction(graph: nx.Graph | nx.DiGraph) -> float:
    """Fraction of nodes inside the largest weakly connected component."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    if graph.is_directed():
        components = nx.weakly_connected_components(graph)
    else:
        components = nx.connected_components(graph)
    return max((len(c) for c in components), default=0) / n


def connected_component_count(graph: nx.Graph | nx.DiGraph, strongly: bool = False) -> int:
    """Number of (weakly or strongly) connected components."""
    if graph.number_of_nodes() == 0:
        return 0
    if graph.is_directed():
        if strongly:
            return nx.number_strongly_connected_components(graph)
        return nx.number_weakly_connected_components(graph)
    return nx.number_connected_components(graph)


def top_nodes_by(graph: nx.Graph | nx.DiGraph, key: str = "degree", limit: int | None = None) -> list[str]:
    """Rank nodes by ``degree``, ``out_degree``, ``in_degree`` or an attribute."""
    if key == "degree":
        ranking = sorted(graph.degree(), key=lambda kv: kv[1], reverse=True)
    elif key == "out_degree" and graph.is_directed():
        ranking = sorted(graph.out_degree(), key=lambda kv: kv[1], reverse=True)
    elif key == "in_degree" and graph.is_directed():
        ranking = sorted(graph.in_degree(), key=lambda kv: kv[1], reverse=True)
    else:
        ranking = sorted(
            ((node, data.get(key, 0)) for node, data in graph.nodes(data=True)),
            key=lambda kv: kv[1],
            reverse=True,
        )
    nodes = [node for node, _ in ranking]
    return nodes if limit is None else nodes[:limit]
