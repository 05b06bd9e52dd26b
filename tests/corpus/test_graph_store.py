"""The on-disk follower graph: writer/store roundtrip, validation, and
equivalence with the networkx graph of the same crawl (the oracle in
``tests/reference/graphs.py``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus import DEFAULT_GRAPH_SHARD_SIZE, GRAPH_SCHEMA, GraphStore, GraphWriter
from repro.crawler import FollowerGraphCrawler, SimulatedTransport
from repro.datasets import GraphDataset
from repro.engine.resilience import GraphMatrix
from repro.errors import DatasetError

from tests.reference.graphs import build_follower_graph, edge_handles, matrix_from_networkx


@pytest.fixture(scope="module")
def graph_crawl(tiny_network):
    """The record-path follower crawl of the tiny fediverse."""
    return FollowerGraphCrawler(SimulatedTransport(tiny_network), threads=4).crawl()


@pytest.fixture(scope="module")
def graph_store(tiny_network, tmp_path_factory):
    """The same crawl streamed into an edge-shard store (multiple shards)."""
    writer = GraphWriter(tmp_path_factory.mktemp("tiny-graph"), shard_size=500)
    result = FollowerGraphCrawler(SimulatedTransport(tiny_network), threads=4).crawl(
        sink=writer
    )
    return writer.finalise(crawl_minute=result.crawl_minute)


@pytest.fixture(scope="module")
def graph_dataset(graph_crawl):
    return GraphDataset.from_edges(graph_crawl.edges)


@pytest.fixture(scope="module")
def networkx_graph(graph_crawl):
    return build_follower_graph(graph_crawl.edges)


class TestRoundtrip:
    def test_edge_and_node_counts(self, graph_store, graph_dataset):
        assert graph_store.n_edges == graph_dataset.follow_edge_count()
        assert graph_store.n_nodes == graph_dataset.user_count()
        assert graph_store.n_shards == -(-graph_store.n_edges // 500)

    def test_edge_stream_matches_the_record_path(self, graph_store, networkx_graph):
        decoded = edge_handles(graph_store)
        assert set(decoded) == set(networkx_graph.edges())
        # node intern order == networkx insertion order (the resilience
        # sweeps' tie-breaking depends on it)
        assert graph_store.handles.tolist() == list(networkx_graph.nodes())

    def test_edge_counts_recorded_per_instance(self, graph_store, graph_crawl):
        assert sum(graph_store.edges_collected.values()) == len(graph_crawl.edges)

    def test_shard_bounds_contiguous(self, graph_store):
        bounds = graph_store.shard_bounds()
        cursor = 0
        for start, stop in bounds:
            assert start == cursor
            cursor = stop
        assert cursor == graph_store.n_edges
        for (start, stop), (follower, followed) in zip(
            bounds, (graph_store.shard_edges(i) for i in range(graph_store.n_shards))
        ):
            assert follower.shape == followed.shape == (stop - start,)
            assert follower.dtype == followed.dtype == np.int32

    def test_node_domains_align_with_handles(self, graph_store):
        domains = graph_store.domains.tolist()
        for handle, code in zip(
            graph_store.handles.tolist(), graph_store.node_domain_codes.tolist()
        ):
            assert handle.rpartition("@")[2] == domains[code]

    def test_nbytes_positive(self, graph_store):
        assert graph_store.nbytes() > 0

    def test_reopen(self, graph_store):
        reopened = GraphStore(graph_store.path)
        assert reopened.n_edges == graph_store.n_edges
        assert reopened.manifest["schema"] == GRAPH_SCHEMA


class TestColumnarQueries:
    def test_follower_domain_sets_match_networkx(self, graph_store, networkx_graph):
        authors = graph_store.handles.tolist()[:200]
        authors += authors[:10]  # duplicates must collapse, order kept
        authors += ["ghost@nowhere.example"]  # absent authors get empty sets
        expected: dict[str, set[str]] = {author: set() for author in authors}
        for follower, followed in networkx_graph.edges():
            if followed in expected:
                expected[followed].add(networkx_graph.nodes[follower]["domain"])
        got = graph_store.follower_domain_sets(authors)
        assert list(got) == list(expected)
        assert got == expected

    def test_store_and_dataset_answer_alike(self, graph_store, graph_dataset):
        authors = graph_store.handles.tolist()[:50]
        assert graph_store.follower_domain_sets(authors) == (
            graph_dataset.follower_domain_sets(authors)
        )
        assert graph_store.federation_edge_counts() == graph_dataset.federation_edge_counts()

    def test_users_per_instance_match(self, graph_store, graph_dataset):
        assert graph_store.users_per_instance() == graph_dataset.users_per_instance()

    def test_federation_edge_counts_match(self, graph_store, networkx_graph):
        from tests.reference.graphs import build_federation_graph

        federation = build_federation_graph(networkx_graph)
        expected = [
            ((source, target), data["weight"])
            for source, target, data in federation.edges(data=True)
        ]
        # the order too: Fig. 6 keeps first-seen order among equal flows
        assert list(graph_store.federation_edge_counts().items()) == expected

    def test_graph_matrix_bit_compatible(self, graph_store, networkx_graph):
        from_nx = matrix_from_networkx(networkx_graph)
        from_store = GraphMatrix.from_graph_store(graph_store)
        assert from_store.nodes == from_nx.nodes
        assert from_store.directed is True
        assert (from_store.adjacency != from_nx.adjacency).nnz == 0

    def test_removal_sweep_over_the_store_matrix(self, graph_store, networkx_graph):
        from repro.engine.resilience import user_removal_sweep_matrix

        from_store = user_removal_sweep_matrix(
            GraphMatrix.from_graph_store(graph_store), rounds=3
        )
        from_nx = user_removal_sweep_matrix(matrix_from_networkx(networkx_graph), rounds=3)
        assert from_store == from_nx

    def test_empty_store_rejected_by_the_matrix(self, tmp_path):
        from repro.errors import AnalysisError

        writer = GraphWriter(tmp_path / "empty")
        writer.end_instance("quiet.example")
        store = writer.finalise()
        with pytest.raises(AnalysisError, match="empty graph"):
            GraphMatrix.from_graph_store(store)


class TestWriterBehaviour:
    def test_self_loops_skipped_but_counted(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.add_edges(
            "x.example",
            [("a@x.example", "b@x.example"), ("b@x.example", "b@x.example")],
        )
        writer.end_instance("x.example")
        store = writer.finalise()
        assert store.n_edges == 1
        assert store.n_self_loops == 1

    def test_malformed_handle_raises(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.add_edges("x.example", [("no-at-sign", "b@x.example")])
        writer.end_instance("x.example")
        with pytest.raises(DatasetError, match="malformed account handle"):
            writer.finalise()

    def test_discarded_instance_leaves_no_trace(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.add_edges("keep.example", [("a@other.example", "b@keep.example")])
        writer.end_instance("keep.example")
        writer.add_edges("drop.example", [("c@other.example", "d@drop.example")])
        writer.discard_instance("drop.example")
        store = writer.finalise()
        assert store.n_edges == 1
        assert "drop.example" not in store.edges_collected

    def test_empty_instance_still_collected(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.end_instance("quiet.example")
        store = writer.finalise()
        assert store.n_edges == 0
        assert store.edges_collected == {"quiet.example": 0}
        assert store.follower_domain_sets(["a@quiet.example"]) == {
            "a@quiet.example": set()
        }

    def test_finalise_refuses_open_spools(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.add_edges("open.example", [("a@x.example", "b@open.example")])
        with pytest.raises(DatasetError, match="open instance spools"):
            writer.finalise()

    def test_finalised_writer_rejects_further_use(self, tmp_path):
        writer = GraphWriter(tmp_path / "g")
        writer.end_instance("x.example")
        writer.finalise()
        with pytest.raises(DatasetError):
            writer.add_edges("x.example", [("a@y.example", "b@x.example")])
        with pytest.raises(DatasetError):
            writer.finalise()

    def test_invalid_shard_size(self, tmp_path):
        with pytest.raises(DatasetError):
            GraphWriter(tmp_path / "g", shard_size=0)

    def test_default_shard_size(self, tmp_path):
        assert GraphWriter(tmp_path / "g").shard_size == DEFAULT_GRAPH_SHARD_SIZE


class TestManifestValidation:
    def _write(self, tmp_path):
        writer = GraphWriter(tmp_path)
        writer.add_edges("x.example", [("a@y.example", "b@x.example")])
        writer.end_instance("x.example")
        return writer.finalise()

    def _mutate(self, store, **changes):
        manifest = json.loads((store.path / "manifest.json").read_text())
        manifest.update(changes)
        (store.path / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no graph manifest"):
            GraphStore(tmp_path)

    def test_wrong_schema(self, tmp_path):
        store = self._write(tmp_path)
        self._mutate(store, schema="repro.graph/v0")
        with pytest.raises(DatasetError, match="unsupported graph schema"):
            GraphStore(store.path)

    def test_missing_key(self, tmp_path):
        store = self._write(tmp_path)
        manifest = json.loads((store.path / "manifest.json").read_text())
        del manifest["n_edges"]
        (store.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="missing 'n_edges'"):
            GraphStore(store.path)

    def test_wrong_columns(self, tmp_path):
        store = self._write(tmp_path)
        self._mutate(store, columns=["a", "b"])
        with pytest.raises(DatasetError, match="unexpected column set"):
            GraphStore(store.path)

    def test_shard_coverage_mismatch(self, tmp_path):
        store = self._write(tmp_path)
        self._mutate(store, n_edges=99)
        with pytest.raises(DatasetError, match="declares 99"):
            GraphStore(store.path)

    def test_missing_shard_file(self, tmp_path):
        store = self._write(tmp_path)
        (store.path / "edges-00000.npz").unlink()
        with pytest.raises(DatasetError, match="is missing"):
            GraphStore(store.path)

    def test_invalid_json(self, tmp_path):
        store = self._write(tmp_path)
        (store.path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="invalid JSON"):
            GraphStore(store.path)
