"""The networkx follower and federation graphs the integer columns replaced.

Before :class:`~repro.datasets.graphs.GraphDataset` held the graph
store's columns, it decoded every edge's handles into a networkx
``DiGraph`` pair, and every removal sweep converted the pair back into
a CSR matrix.  The builders, that conversion, the instance ranking and
Table 2's degree loop live on here, verbatim apart from imports and
signatures, as the oracles ``tests/datasets_tests/test_graph_oracle.py``
holds the columns to.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import networkx as nx
import numpy as np
from scipy import sparse

from repro.crawler.graph_crawler import FollowEdgeRecord
from repro.engine.resilience import GraphMatrix
from repro.errors import AnalysisError, DatasetError
from repro.stats.distributions import sample_power_law


def _domain_of(handle: str) -> str:
    if "@" not in handle:
        raise DatasetError(f"handle without a domain part: {handle!r}")
    return handle.rsplit("@", 1)[1]


def edge_handles(graph) -> list[tuple[str, str]]:
    """A graph store's (or graphs dataset's) edges as handle pairs, in its order."""
    handles = graph.handles
    follower, followed = graph.edge_codes()
    return list(zip(handles[follower].tolist(), handles[followed].tolist()))


def build_follower_graph(
    edges: Iterable[FollowEdgeRecord | tuple[str, str]],
) -> nx.DiGraph:
    """The user-level follower graph ``G(V, E)``, nodes annotated with their domain."""
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
    """The instance-level federation graph ``GF(I, E)`` induced from ``G``."""
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


def matrix_from_networkx(graph: nx.Graph | nx.DiGraph) -> GraphMatrix:
    """The binary CSR adjacency of a networkx graph, nodes in insertion order."""
    nodes = tuple(graph.nodes())
    if not nodes:
        raise AnalysisError("cannot build a matrix from an empty graph")
    adjacency = sparse.csr_matrix(
        nx.to_scipy_sparse_array(graph, nodelist=list(nodes), weight=None, format="csr")
    )
    return GraphMatrix(
        adjacency=adjacency,
        nodes=nodes,
        index={node: i for i, node in enumerate(nodes)},
        directed=graph.is_directed(),
    )


def rank_instances(
    federation_graph: nx.DiGraph,
    users_per_instance: Mapping[str, int] | None = None,
    toots_per_instance: Mapping[str, int] | None = None,
    by: str = "users",
) -> list[str]:
    """The federation graph's nodes ranked for a removal schedule."""
    nodes = list(federation_graph.nodes())
    if by == "users":
        return sorted(nodes, key=lambda d: users_per_instance.get(d, 0), reverse=True)
    if by == "toots":
        return sorted(nodes, key=lambda d: toots_per_instance.get(d, 0), reverse=True)
    if by == "connections":
        return sorted(nodes, key=lambda d: federation_graph.degree(d), reverse=True)
    raise AnalysisError(f"unknown instance ranking: {by!r}")


def table2_degrees(
    follower_graph: nx.DiGraph,
    federation_graph: nx.DiGraph,
    domain: str,
    toots_per_author: Mapping[str, int],
) -> tuple[int, ...]:
    """Table 2's users, user, toot and instance out/in degrees of ``domain``."""
    local_accounts = {
        node for node, data in follower_graph.nodes(data=True) if data.get("domain") == domain
    }
    user_out = user_in = toot_out = toot_in = 0
    for account in local_accounts:
        for _, followed in follower_graph.out_edges(account):
            if follower_graph.nodes[followed].get("domain") != domain:
                user_out += 1
                toot_in += toots_per_author.get(followed, 0)
        for follower, _ in follower_graph.in_edges(account):
            if follower_graph.nodes[follower].get("domain") != domain:
                user_in += 1
                toot_out += toots_per_author.get(account, 0)
    present = federation_graph.has_node(domain)
    return (
        len(local_accounts),
        user_out,
        user_in,
        toot_out,
        toot_in,
        federation_graph.out_degree(domain) if present else 0,
        federation_graph.in_degree(domain) if present else 0,
    )


def twitter_follower_graph(
    n_users: int, mean_out_degree: float = 12.0, seed: int = 2011
) -> nx.DiGraph:
    """The Twitter baseline drawn by the same RNG calls, one ``add_edge`` at a time."""
    rng = np.random.default_rng(seed)
    graph = nx.DiGraph()
    nodes = [f"twitter_user_{i}" for i in range(n_users)]
    graph.add_nodes_from(nodes)
    attractiveness = sample_power_law(
        rng, n_users, exponent=2.0, minimum=1.0, maximum=float(n_users) / 4.0
    )
    probabilities = attractiveness / attractiveness.sum()
    out_degrees = sample_power_law(
        rng, n_users, exponent=2.2, minimum=1.0, maximum=float(min(1000, n_users - 1))
    )
    out_degrees = np.maximum(
        1, np.round(out_degrees * (mean_out_degree / out_degrees.mean()))
    ).astype(int)
    lurkers = set(int(i) for i in rng.choice(n_users, size=max(1, n_users // 20), replace=False))
    for index in range(n_users):
        if index in lurkers:
            continue
        k = int(min(out_degrees[index], n_users - 1))
        targets = rng.choice(n_users, size=k, replace=False, p=probabilities)
        for target in targets:
            target = int(target)
            if target != index and target not in lurkers:
                graph.add_edge(nodes[index], nodes[target])
    return graph
