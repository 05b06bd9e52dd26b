"""Tests for the graph-resilience analyses (Figs. 11-13).

The degree distributions and rankings are :mod:`repro.core.resilience`'s;
the removal sweeps are the engine's (:mod:`repro.engine.resilience`).
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import resilience
from repro.datasets import GraphDataset
from repro.engine import resilience as removal
from repro.engine.resilience import GraphMatrix
from repro.errors import AnalysisError

from tests.reference.graphs import matrix_from_networkx

EMPTY = ((), (), ())


def star_graph(leaves: int = 20) -> GraphMatrix:
    """A hub-and-spoke follower graph: removing the hub shatters it."""
    return GraphDataset.from_edges(
        [(f"leaf{index}@x.example", "hub@x.example") for index in range(leaves)]
    ).follower_matrix


def chain_graphs() -> GraphDataset:
    """Graphs whose federation graph is the chain i0 → i1 → ... → i5."""
    domains = [f"i{i}.example" for i in range(6)]
    return GraphDataset.from_edges(
        [(f"u@{first}", f"u@{second}") for first, second in zip(domains, domains[1:])]
    )


def chain_federation_graph() -> GraphMatrix:
    return chain_graphs().federation_matrix


class TestDegreeCDF:
    def test_basic(self):
        cdf = resilience.degree_cdf([1, 2, 3, 4])
        assert cdf.evaluate(2) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            resilience.degree_cdf([])


class TestUserRemoval:
    def test_star_graph_collapses_when_hub_removed(self):
        steps = removal.user_removal_sweep_matrix(
            star_graph(50), rounds=1, fraction_per_round=0.02
        )
        assert steps[0].lcc_fraction == 1.0
        # removing ~1 node (the hub) isolates every leaf
        assert steps[1].lcc_fraction < 0.1
        assert steps[1].components == 50

    def test_rounds_and_fractions_validated(self):
        with pytest.raises(AnalysisError):
            removal.user_removal_sweep_matrix(star_graph(), rounds=0)
        with pytest.raises(AnalysisError):
            removal.user_removal_sweep_matrix(
                star_graph(), rounds=1, fraction_per_round=0.0
            )
        with pytest.raises(AnalysisError):
            removal.user_removal_sweep_matrix(GraphMatrix.from_codes(*EMPTY), rounds=1)

    def test_lcc_fraction_monotonically_non_increasing(self):
        graph = nx.gnp_random_graph(200, 0.05, seed=3, directed=True)
        graph = nx.relabel_nodes(graph, {n: f"u{n}@x.example" for n in graph.nodes()})
        steps = removal.user_removal_sweep_matrix(
            matrix_from_networkx(graph), rounds=10, fraction_per_round=0.05
        )
        fractions = [step.lcc_fraction for step in steps]
        assert all(a >= b - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert steps[-1].removed_count > 0

    def test_pipeline_follower_graph_is_fragile(self, datasets):
        steps = removal.user_removal_sweep_matrix(
            datasets.graphs.follower_matrix, rounds=5, fraction_per_round=0.01
        )
        assert steps[0].lcc_fraction > 0.9
        assert steps[-1].lcc_fraction < steps[0].lcc_fraction


class TestRankings:
    def test_rank_instances_by_each_criterion(self):
        graph = chain_graphs()
        users = {f"i{i}.example": i for i in range(6)}
        toots = {f"i{i}.example": 100 - i for i in range(6)}
        assert resilience.rank_instances(graph, users, toots, by="users")[0] == "i5.example"
        assert resilience.rank_instances(graph, users, toots, by="toots")[0] == "i0.example"
        by_connections = resilience.rank_instances(graph, users, toots, by="connections")
        assert by_connections[0] in {"i1.example", "i2.example", "i3.example", "i4.example"}

    def test_rank_instances_requires_counts(self):
        graph = chain_graphs()
        with pytest.raises(AnalysisError):
            resilience.rank_instances(graph, by="users")
        with pytest.raises(AnalysisError):
            resilience.rank_instances(graph, by="nonsense")

    def test_rank_ases(self):
        asn_of = {"a.example": 1, "b.example": 1, "c.example": 2}
        users = {"a.example": 5, "b.example": 5, "c.example": 100}
        assert resilience.rank_ases(asn_of, by="instances")[0] == 1
        assert resilience.rank_ases(asn_of, users, by="users")[0] == 2
        with pytest.raises(AnalysisError):
            resilience.rank_ases(asn_of, by="users")
        with pytest.raises(AnalysisError):
            resilience.rank_ases(asn_of, by="nonsense")


class TestRankedRemoval:
    def test_chain_breaks_in_the_middle(self):
        graph = chain_federation_graph()
        steps = removal.ranked_removal_sweep_matrix(graph, ["i3.example"], steps=1)
        assert steps[0].components == 1
        assert steps[1].components == 2
        assert steps[1].lcc_fraction == pytest.approx(3 / 6)

    def test_missing_nodes_are_skipped(self):
        graph = chain_federation_graph()
        steps = removal.ranked_removal_sweep_matrix(
            graph, ["ghost.example", "i0.example"], steps=2
        )
        assert steps[-1].removed_count == 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            removal.ranked_removal_sweep_matrix(chain_federation_graph(), [], steps=0)
        with pytest.raises(AnalysisError):
            removal.ranked_removal_sweep_matrix(GraphMatrix.from_codes(*EMPTY), ["x"], steps=1)

    def test_as_removal_takes_out_all_hosted_instances(self):
        graph = chain_federation_graph()
        asn_of = {f"i{i}.example": (1 if i < 3 else 2) for i in range(6)}
        steps = removal.as_removal_sweep_matrix(graph, asn_of, [1], steps=1)
        assert steps[1].removed_count == 3
        assert steps[1].lcc_fraction == pytest.approx(0.5)

    def test_as_removal_validation(self):
        with pytest.raises(AnalysisError):
            removal.as_removal_sweep_matrix(GraphMatrix.from_codes(*EMPTY), {}, [1], steps=1)
        with pytest.raises(AnalysisError):
            removal.as_removal_sweep_matrix(chain_federation_graph(), {}, [1], steps=0)

    def test_pipeline_as_removal_hurts_more_than_instance_removal(self, datasets):
        graphs = datasets.graphs
        instances = datasets.instances
        users = instances.users_per_instance()
        ranking = resilience.rank_instances(graphs, users, by="users")
        instance_steps = removal.ranked_removal_sweep_matrix(
            graphs.federation_matrix, ranking, steps=5
        )
        asn_of = {d: instances.metadata_for(d).asn for d in instances.domains()}
        as_ranking = resilience.rank_ases(asn_of, users, by="users")
        as_steps = removal.as_removal_sweep_matrix(
            graphs.federation_matrix, asn_of, as_ranking, steps=5
        )
        assert as_steps[-1].lcc_fraction <= instance_steps[-1].lcc_fraction + 1e-9
