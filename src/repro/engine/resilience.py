"""Graph removal attacks (Section 5.1: Figs. 12-13).

The paper measures how the follower graph and the instance federation
graph degrade when the most important users, instances or hosting ASes
disappear, using two metrics throughout: the size of the largest
(weakly) connected component and the number of connected components.
Each sweep returns one :class:`RemovalStep` per round.

Each graph is a binary CSR adjacency matrix (:class:`GraphMatrix`),
built once from integer edge columns (:meth:`GraphMatrix.from_codes`);
each round is a boolean mask, a submatrix slice, and one
:func:`scipy.sparse.csgraph.connected_components` call.  The networkx
loops these replaced live on in ``tests/reference/resilience.py``, and
``tests/engine/test_equivalence.py`` holds every sweep to the same
trajectory.  Exact equivalence (including tie-breaking when degrees are
equal) relies on two invariants:

* node columns follow the node codes, which are first-appearance order
  over the edges — the insertion order of a networkx graph built from
  the same edges, and so the iteration order :func:`sorted` saw in the
  reference loops;
* top-degree selection uses a *stable* descending argsort, matching
  Python's stable ``sorted(..., reverse=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class RemovalStep:
    """The state of a graph after one removal round."""

    removed_fraction: float
    removed_count: int
    lcc_fraction: float
    components: int


@dataclass
class GraphMatrix:
    """Binary CSR adjacency plus node indexing, built once per graph."""

    adjacency: sparse.csr_matrix
    nodes: tuple
    index: dict
    directed: bool

    @classmethod
    def from_codes(
        cls, nodes: Sequence, source: np.ndarray, target: np.ndarray
    ) -> "GraphMatrix":
        """The directed adjacency of the edges ``source[i] → target[i]``.

        ``source`` and ``target`` are codes into ``nodes``; a repeated
        edge is one entry of weight 1, as in a simple graph.
        """
        n = len(nodes)
        if n == 0:
            raise AnalysisError("cannot build a matrix from an empty graph")
        adjacency = sparse.coo_matrix(
            (
                np.ones(len(source), dtype=np.int64),
                (np.asarray(source, dtype=np.int64), np.asarray(target, dtype=np.int64)),
            ),
            shape=(n, n),
        ).tocsr()
        adjacency.data[:] = 1  # duplicate edges must not leave weights > 1
        nodes = tuple(nodes)
        return cls(
            adjacency=adjacency,
            nodes=nodes,
            index={node: i for i, node in enumerate(nodes)},
            directed=True,
        )

    @classmethod
    def from_graph_store(cls, store) -> "GraphMatrix":
        """The follower graph of an on-disk :class:`~repro.corpus.graph.GraphStore`."""
        return cls.from_codes(store.handles.tolist(), *store.edge_codes())

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def out_degrees(self) -> np.ndarray:
        """Each node's out-degree (its degree, undirected)."""
        return np.diff(self.adjacency.indptr)


def _lcc_and_components_from_sub(
    sub: sparse.csr_matrix, directed: bool, initial_nodes: int
) -> tuple[float, int]:
    """LCC fraction (of the initial node count) and component count."""
    if sub.shape[0] == 0:
        return 0.0, 0
    n_components, labels = csgraph.connected_components(
        sub, directed=directed, connection="weak"
    )
    largest = int(np.bincount(labels).max())
    return largest / initial_nodes, int(n_components)


def _lcc_and_components(
    graph: GraphMatrix, alive_index: np.ndarray, initial_nodes: int
) -> tuple[float, int]:
    sub = graph.adjacency[alive_index][:, alive_index]
    return _lcc_and_components_from_sub(sub, graph.directed, initial_nodes)


def _total_degrees(sub: sparse.csr_matrix, directed: bool) -> np.ndarray:
    """Total degrees, counted as networkx counts them (a self-loop twice)."""
    row = np.asarray(sub.sum(axis=1)).ravel()
    if directed:
        col = np.asarray(sub.sum(axis=0)).ravel()
        return row + col
    return row + sub.diagonal()


def _step(graph: GraphMatrix, alive: np.ndarray, removed: int, initial: int) -> RemovalStep:
    lcc, components = _lcc_and_components(graph, np.flatnonzero(alive), initial)
    return RemovalStep(
        removed_fraction=removed / initial,
        removed_count=removed,
        lcc_fraction=lcc,
        components=components,
    )


def user_removal_sweep_matrix(
    graph: GraphMatrix,
    rounds: int = 20,
    fraction_per_round: float = 0.01,
) -> list[RemovalStep]:
    """Iteratively remove the top ``fraction_per_round`` of accounts (Fig. 12).

    Each round removes the remaining accounts with the highest total
    degree and records the LCC fraction (relative to the original account
    count) and the component count — the paper's methodology for testing
    the social graph's attack tolerance.
    """
    if rounds < 1:
        raise AnalysisError("need at least one removal round")
    if not 0.0 < fraction_per_round <= 1.0:
        raise AnalysisError("fraction_per_round must be in (0, 1]")
    initial = graph.n_nodes
    alive = np.ones(initial, dtype=bool)

    # each round's end-of-round submatrix doubles as the next round's
    # degree source, so the alive×alive slice happens once per round
    sub = graph.adjacency
    alive_index = np.arange(initial)
    lcc, components = _lcc_and_components_from_sub(sub, graph.directed, initial)
    steps = [
        RemovalStep(
            removed_fraction=0.0, removed_count=0, lcc_fraction=lcc, components=components
        )
    ]
    removed_total = 0
    for _ in range(rounds):
        remaining = int(alive_index.size)
        if remaining == 0:
            break
        batch = max(1, int(round(float(fraction_per_round) * remaining)))
        degrees = _total_degrees(sub, graph.directed)
        order = np.argsort(-degrees, kind="stable")
        victims = alive_index[order[:batch]]
        alive[victims] = False
        removed_total += int(victims.size)
        alive_index = np.flatnonzero(alive)
        sub = graph.adjacency[alive_index][:, alive_index]
        lcc, components = _lcc_and_components_from_sub(sub, graph.directed, initial)
        steps.append(
            RemovalStep(
                removed_fraction=removed_total / initial,
                removed_count=removed_total,
                lcc_fraction=lcc,
                components=components,
            )
        )
    return steps


def ranked_removal_sweep_matrix(
    graph: GraphMatrix,
    ranking: Sequence[str],
    steps: int = 20,
    per_step: int = 1,
) -> list[RemovalStep]:
    """Remove nodes in the order given by ``ranking`` and track LCC/components.

    ``ranking`` lists node ids from most to least important (e.g. instances
    ranked by users hosted, Fig. 13a).  Nodes absent from the graph are
    skipped but still consume a slot in the removal schedule so that step
    indices stay aligned with the ranking.
    """
    if steps < 1 or per_step < 1:
        raise AnalysisError("steps and per_step must be positive")
    initial = graph.n_nodes
    alive = np.ones(initial, dtype=bool)

    results = [_step(graph, alive, 0, initial)]
    removed = 0
    cursor = 0
    ranking = list(ranking)
    for _ in range(steps):
        batch = ranking[cursor : cursor + per_step]
        cursor += per_step
        if not batch:
            break
        present = [
            graph.index[node] for node in batch if node in graph.index and alive[graph.index[node]]
        ]
        if present:
            alive[np.asarray(present, dtype=np.int64)] = False
        removed += len(present)
        results.append(_step(graph, alive, removed, initial))
    return results


def as_removal_sweep_matrix(
    graph: GraphMatrix,
    asn_of_instance: Mapping[str, int],
    as_ranking: Sequence[int],
    steps: int = 20,
) -> list[RemovalStep]:
    """Remove entire ASes (and every instance they host) from GF (Fig. 13b)."""
    if steps < 1:
        raise AnalysisError("steps must be positive")
    initial = graph.n_nodes
    alive = np.ones(initial, dtype=bool)
    domains_per_asn: dict[int, list[str]] = {}
    for domain, asn in asn_of_instance.items():
        domains_per_asn.setdefault(asn, []).append(domain)

    results = [_step(graph, alive, 0, initial)]
    removed = 0
    for asn in list(as_ranking)[:steps]:
        victims = [
            graph.index[d]
            for d in domains_per_asn.get(asn, [])
            if d in graph.index and alive[graph.index[d]]
        ]
        if victims:
            alive[np.asarray(victims, dtype=np.int64)] = False
        removed += len(victims)
        results.append(_step(graph, alive, removed, initial))
    return results
