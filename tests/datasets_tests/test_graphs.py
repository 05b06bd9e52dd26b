"""Tests for the follower / federation graphs of the graphs dataset."""

from __future__ import annotations

import pytest

from repro.core import resilience
from repro.errors import AnalysisError, DatasetError
from repro.crawler.graph_crawler import FollowEdgeRecord
from repro.datasets.graphs import GraphDataset
from repro.engine import resilience as removal
from repro.engine.resilience import GraphMatrix

EDGES = [
    ("a1@alpha.example", "a2@alpha.example"),
    ("a1@alpha.example", "b1@beta.example"),
    ("a2@alpha.example", "b1@beta.example"),
    ("b1@beta.example", "c1@gamma.example"),
    ("c1@gamma.example", "a1@alpha.example"),
    ("d1@delta.example", "d2@delta.example"),
]


class TestFollowerGraph:
    def test_nodes_edges_and_domains(self):
        graph = GraphDataset.from_edges(EDGES)
        assert graph.user_count() == 6
        assert graph.follow_edge_count() == 6
        code = graph.handles.tolist().index("a1@alpha.example")
        assert graph.domains[graph.node_domain_codes[code]] == "alpha.example"

    def test_self_loops_dropped(self):
        graph = GraphDataset.from_edges(
            [("a@x.example", "a@x.example"), ("a@x.example", "b@y.example")]
        )
        assert graph.follow_edge_count() == 1
        with pytest.raises(DatasetError):
            GraphDataset.from_edges([("a@x.example", "a@x.example")])

    def test_accepts_edge_records(self):
        graph = GraphDataset.from_edges(
            [FollowEdgeRecord(follower="a@x.example", followed="b@y.example")]
        )
        assert graph.handles.tolist() == ["a@x.example", "b@y.example"]
        assert graph.follower.tolist() == [0] and graph.followed.tolist() == [1]

    def test_handle_without_domain_rejected(self):
        with pytest.raises(DatasetError):
            GraphDataset.from_edges([("nodomain", "b@y.example")])


class TestFederationGraph:
    def test_induced_edges_and_weights(self):
        graphs = GraphDataset.from_edges(EDGES)
        assert graphs.domains.tolist() == [
            "alpha.example",
            "beta.example",
            "gamma.example",
            "delta.example",
        ]
        # intra-instance follows do not create federation edges
        assert graphs.federation_edge_counts() == {
            ("alpha.example", "beta.example"): 2,
            ("beta.example", "gamma.example"): 1,
            ("gamma.example", "alpha.example"): 1,
        }

    def test_node_user_counts(self):
        users = GraphDataset.from_edges(EDGES).users_per_instance()
        assert users["alpha.example"] == 2
        assert users["delta.example"] == 2

    def test_repeated_edge_kept_once(self):
        graphs = GraphDataset.from_edges(EDGES + EDGES[:2])
        assert graphs.follow_edge_count() == 6
        assert graphs.federation_edge_counts()[("alpha.example", "beta.example")] == 2


class TestGraphDataset:
    def test_from_edges(self):
        dataset = GraphDataset.from_edges(EDGES)
        assert dataset.user_count() == 6
        assert dataset.follow_edge_count() == 6
        assert dataset.instance_count() == 4
        assert dataset.federation_edge_count() == 3
        assert sorted(dataset.users_on_instance("delta.example")) == [
            "d1@delta.example",
            "d2@delta.example",
        ]
        assert dataset.users_per_instance()["alpha.example"] == 2

    def test_degree_views(self):
        dataset = GraphDataset.from_edges(EDGES)
        assert len(dataset.out_degrees()) == dataset.user_count()
        assert sum(dataset.out_degrees()) == dataset.follow_edge_count()
        assert sum(dataset.in_degrees()) == dataset.follow_edge_count()
        assert len(dataset.federation_out_degrees()) == dataset.instance_count()

    def test_instance_degree_table(self):
        dataset = GraphDataset.from_edges(EDGES)
        table = dataset.instance_degree_table()
        assert table["alpha.example"]["users"] == 2
        assert table["alpha.example"]["instance_out_degree"] == 1
        assert table["alpha.example"]["instance_in_degree"] == 1

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            GraphDataset.from_edges([])

    def test_from_crawl_pipeline(self, datasets):
        graphs = datasets.graphs
        assert graphs.user_count() > 0
        assert graphs.instance_count() > 1
        assert graphs.follow_edge_count() > graphs.user_count()


class TestGraphHelpers:
    def test_lcc_fraction(self):
        dataset = GraphDataset.from_edges(EDGES)
        step = removal.user_removal_sweep_matrix(dataset.follower_matrix, rounds=1)[0]
        assert step.lcc_fraction == pytest.approx(4 / 6)

    def test_component_count(self):
        dataset = GraphDataset.from_edges(EDGES)
        step = removal.user_removal_sweep_matrix(dataset.follower_matrix, rounds=1)[0]
        assert step.components == 2

    def test_empty_graph_helpers(self):
        with pytest.raises(AnalysisError):
            GraphMatrix.from_codes([], [], [])

    def test_top_nodes_by_degree_and_attribute(self):
        dataset = GraphDataset.from_edges(EDGES)
        users = dataset.users_per_instance()
        by_users = resilience.rank_instances(dataset, users, by="users")
        assert by_users[0] in {"alpha.example", "delta.example"}
        by_connections = resilience.rank_instances(dataset, by="connections")
        assert by_connections[0] in {"alpha.example", "beta.example", "gamma.example"}
        assert dataset.federation_out_degrees() == [1, 1, 1, 0]
