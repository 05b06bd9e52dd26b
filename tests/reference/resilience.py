"""The networkx removal sweeps the sparse-matrix engine replaced.

Before :mod:`repro.engine.resilience` converted each graph once to a CSR
adjacency matrix, every removal sweep of Figs. 12-13 copied a
:mod:`networkx` graph, removed nodes round by round and re-ran a
pure-Python BFS for the LCC and the component count.  Those loops live
on here, verbatim apart from imports, as the references
``tests/engine/test_equivalence.py`` holds the engine's
``*_removal_sweep_matrix`` functions to, step for step.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import networkx as nx

from repro.engine.resilience import RemovalStep
from repro.errors import AnalysisError


def _lcc_fraction(graph: nx.Graph | nx.DiGraph, initial_nodes: int) -> float:
    if graph.number_of_nodes() == 0 or initial_nodes == 0:
        return 0.0
    if graph.is_directed():
        largest = max((len(c) for c in nx.weakly_connected_components(graph)), default=0)
    else:
        largest = max((len(c) for c in nx.connected_components(graph)), default=0)
    return largest / initial_nodes


def _component_count(graph: nx.Graph | nx.DiGraph) -> int:
    if graph.number_of_nodes() == 0:
        return 0
    if graph.is_directed():
        return nx.number_weakly_connected_components(graph)
    return nx.number_connected_components(graph)


def _user_removal_sweep_python(
    follower_graph: nx.DiGraph,
    rounds: int = 20,
    fraction_per_round: float = 0.01,
) -> list[RemovalStep]:
    """The original networkx loop — the engine's reference implementation."""
    if rounds < 1:
        raise AnalysisError("need at least one removal round")
    if not 0.0 < fraction_per_round <= 1.0:
        raise AnalysisError("fraction_per_round must be in (0, 1]")
    graph = follower_graph.copy()
    initial_nodes = graph.number_of_nodes()
    if initial_nodes == 0:
        raise AnalysisError("the follower graph is empty")

    steps = [
        RemovalStep(
            removed_fraction=0.0,
            removed_count=0,
            lcc_fraction=_lcc_fraction(graph, initial_nodes),
            components=_component_count(graph),
        )
    ]
    removed_total = 0
    for _ in range(rounds):
        remaining = graph.number_of_nodes()
        if remaining == 0:
            break
        batch = max(1, int(round(fraction_per_round * remaining)))
        by_degree = sorted(graph.degree(), key=lambda kv: kv[1], reverse=True)
        to_remove = [node for node, _ in by_degree[:batch]]
        graph.remove_nodes_from(to_remove)
        removed_total += len(to_remove)
        steps.append(
            RemovalStep(
                removed_fraction=removed_total / initial_nodes,
                removed_count=removed_total,
                lcc_fraction=_lcc_fraction(graph, initial_nodes),
                components=_component_count(graph),
            )
        )
    return steps


def _ranked_removal_sweep_python(
    graph: nx.Graph | nx.DiGraph,
    ranking: Sequence[str],
    steps: int = 20,
    per_step: int = 1,
) -> list[RemovalStep]:
    """The original networkx loop — the engine's reference implementation."""
    if steps < 1 or per_step < 1:
        raise AnalysisError("steps and per_step must be positive")
    working = graph.copy()
    initial_nodes = working.number_of_nodes()
    if initial_nodes == 0:
        raise AnalysisError("cannot run a removal sweep on an empty graph")

    results = [
        RemovalStep(
            removed_fraction=0.0,
            removed_count=0,
            lcc_fraction=_lcc_fraction(working, initial_nodes),
            components=_component_count(working),
        )
    ]
    removed = 0
    cursor = 0
    for _ in range(steps):
        batch = ranking[cursor : cursor + per_step]
        cursor += per_step
        if not batch:
            break
        present = [node for node in batch if working.has_node(node)]
        working.remove_nodes_from(present)
        removed += len(present)
        results.append(
            RemovalStep(
                removed_fraction=removed / initial_nodes,
                removed_count=removed,
                lcc_fraction=_lcc_fraction(working, initial_nodes),
                components=_component_count(working),
            )
        )
    return results


def _as_removal_sweep_python(
    federation_graph: nx.DiGraph,
    asn_of_instance: Mapping[str, int],
    as_ranking: Sequence[int],
    steps: int = 20,
) -> list[RemovalStep]:
    """The original networkx loop — the engine's reference implementation."""
    if steps < 1:
        raise AnalysisError("steps must be positive")
    working = federation_graph.copy()
    initial_nodes = working.number_of_nodes()
    if initial_nodes == 0:
        raise AnalysisError("cannot run a removal sweep on an empty graph")
    domains_per_asn: dict[int, list[str]] = {}
    for domain, asn in asn_of_instance.items():
        domains_per_asn.setdefault(asn, []).append(domain)

    results = [
        RemovalStep(
            removed_fraction=0.0,
            removed_count=0,
            lcc_fraction=_lcc_fraction(working, initial_nodes),
            components=_component_count(working),
        )
    ]
    removed = 0
    for step, asn in enumerate(as_ranking[:steps], start=1):
        victims = [d for d in domains_per_asn.get(asn, []) if working.has_node(d)]
        working.remove_nodes_from(victims)
        removed += len(victims)
        results.append(
            RemovalStep(
                removed_fraction=removed / initial_nodes,
                removed_count=removed,
                lcc_fraction=_lcc_fraction(working, initial_nodes),
                components=_component_count(working),
            )
        )
    return results
