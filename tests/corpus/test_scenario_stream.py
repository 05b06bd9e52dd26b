"""Differential proof: the scenario-to-disk stream equals the crawl.

``ColumnarScenario.write_corpus`` / ``write_graph`` claim to produce
exactly what the real crawlers collect from the materialised network at
the same minute.  These tests materialise the *same* columns through
``to_network()`` and run the actual ``TootCrawler`` /
``FollowerGraphCrawler`` in sink mode over it, then compare the two
on-disk stores byte for byte — manifests, intern tables, every column of
every shard.  Anything the streaming path gets wrong (gating order,
timeline membership, follower ordering, chunk boundaries) shows up here
as a concrete column mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import collect_datasets
from repro.corpus import CorpusWriter, GraphWriter
from repro.corpus.columns import COLUMN_NAMES
from repro.crawler import FollowerGraphCrawler, SimulatedTransport, TootCrawler
from repro.engine.sweep import StrategySpec
from repro.fediverse import build_columnar_scenario, build_scenario
from tests.conftest import TINY_SEED


@pytest.fixture(scope="module")
def scenario():
    return build_columnar_scenario("tiny", seed=TINY_SEED)


@pytest.fixture(scope="module")
def materialised(scenario):
    """The same columns replayed through a real FediverseNetwork."""
    return scenario.to_network()


def assert_same_corpus(streamed, crawled):
    streamed_manifest = {
        k: v for k, v in streamed.manifest.items() if k != "created_at"
    }
    crawled_manifest = {k: v for k, v in crawled.manifest.items() if k != "created_at"}
    assert streamed_manifest == crawled_manifest
    for table in ("domains", "authors", "hashtags", "replication_counts"):
        assert np.array_equal(streamed._table(table), crawled._table(table)), table
    assert list(streamed.urls()) == list(crawled.urls())
    for shard in range(streamed.n_shards):
        for name in COLUMN_NAMES:
            assert np.array_equal(
                streamed.shard_column(shard, name), crawled.shard_column(shard, name)
            ), f"shard {shard} column {name}"


def assert_same_graph(streamed, crawled):
    streamed_manifest = {
        k: v for k, v in streamed.manifest.items() if k != "created_at"
    }
    crawled_manifest = {k: v for k, v in crawled.manifest.items() if k != "created_at"}
    assert streamed_manifest == crawled_manifest
    assert np.array_equal(streamed.handles, crawled.handles)
    assert np.array_equal(streamed.node_domain_codes, crawled.node_domain_codes)
    assert np.array_equal(streamed.domains, crawled.domains)
    for shard in range(streamed.n_shards):
        for got, want in zip(streamed.shard_edges(shard), crawled.shard_edges(shard)):
            assert np.array_equal(got, want), f"shard {shard}"


class TestCorpusDifferential:
    def test_streamed_corpus_equals_the_crawled_one(
        self, scenario, materialised, tmp_path
    ):
        minute = scenario.config.window_minutes - 1
        streamer = CorpusWriter(tmp_path / "streamed", shard_size=700)
        scenario.write_corpus(streamer, at_minute=minute)
        streamed = streamer.finalise(crawl_minute=minute)

        sink = CorpusWriter(tmp_path / "crawled", shard_size=700)
        result = TootCrawler(SimulatedTransport(materialised), threads=4).crawl(
            at_minute=minute, sink=sink
        )
        crawled = sink.finalise(crawl_minute=result.crawl_minute)
        assert_same_corpus(streamed, crawled)

    def test_small_chunks_change_nothing(self, scenario, tmp_path):
        minute = scenario.config.window_minutes - 1
        coarse = CorpusWriter(tmp_path / "coarse", shard_size=700)
        scenario.write_corpus(coarse, at_minute=minute)
        fine = CorpusWriter(tmp_path / "fine", shard_size=700)
        scenario.write_corpus(fine, at_minute=minute, chunk_rows=97)
        assert_same_corpus(
            coarse.finalise(crawl_minute=minute), fine.finalise(crawl_minute=minute)
        )


class TestGraphDifferential:
    def test_streamed_graph_equals_the_crawled_one(
        self, scenario, materialised, tmp_path
    ):
        minute = scenario.config.window_minutes - 1
        streamer = GraphWriter(tmp_path / "streamed", shard_size=500)
        scenario.write_graph(streamer, at_minute=minute)
        streamed = streamer.finalise(crawl_minute=minute)

        sink = GraphWriter(tmp_path / "crawled", shard_size=500)
        result = FollowerGraphCrawler(SimulatedTransport(materialised), threads=4).crawl(
            at_minute=minute, sink=sink
        )
        crawled = sink.finalise(crawl_minute=result.crawl_minute)
        assert_same_graph(streamed, crawled)


class TestPlacementIdentity:
    """GraphStore-fed placements == GraphDataset-fed placements."""

    def test_subscription_placements_identical(self, tiny_network, tmp_path):
        data = collect_datasets(
            tiny_network,
            corpus_dir=tmp_path / "corpus",
            graph_dir=tmp_path / "graph",
        )
        assert data.graph_store is not None
        spec = StrategySpec.subscription()
        domains = data.instances.domains()
        from_store = spec.build_from_corpus(
            data.corpus, graphs=data.graph_store, candidate_domains=domains
        )
        from_nx = spec.build_from_corpus(
            data.corpus, graphs=data.graphs, candidate_domains=domains
        )
        assert from_store.domains == from_nx.domains
        assert np.array_equal(from_store.home, from_nx.home)
        assert np.array_equal(from_store.replica_indices, from_nx.replica_indices)
        assert np.array_equal(from_store.replica_indptr, from_nx.replica_indptr)

    def test_rebuilt_graph_dataset_identical(self, tiny_network, tmp_path):
        data = collect_datasets(
            tiny_network,
            corpus_dir=tmp_path / "corpus",
            graph_dir=tmp_path / "graph",
        )
        reference = collect_datasets(build_scenario("tiny", seed=TINY_SEED))
        assert data.graphs.handles.tolist() == reference.graphs.handles.tolist()
        for got, expected in zip(data.graphs.edge_codes(), reference.graphs.edge_codes()):
            assert np.array_equal(got, expected)
        assert data.graphs.federation_edge_counts() == reference.graphs.federation_edge_counts()


@pytest.mark.slow
class TestSmallDifferential:
    """The same differential at the `small` preset (more instances, more
    boosts, multi-shard merges on both sides)."""

    def test_small_corpus_and_graph(self, tmp_path):
        scenario = build_columnar_scenario("small", seed=TINY_SEED)
        materialised = scenario.to_network()
        minute = scenario.config.window_minutes - 1

        streamer = CorpusWriter(tmp_path / "streamed", shard_size=5_000)
        scenario.write_corpus(streamer, at_minute=minute)
        streamed = streamer.finalise(crawl_minute=minute)
        sink = CorpusWriter(tmp_path / "crawled", shard_size=5_000)
        transport = SimulatedTransport(materialised)
        result = TootCrawler(transport, threads=4).crawl(at_minute=minute, sink=sink)
        assert_same_corpus(streamed, sink.finalise(crawl_minute=result.crawl_minute))

        graph_streamer = GraphWriter(tmp_path / "graph-streamed", shard_size=5_000)
        scenario.write_graph(graph_streamer, at_minute=minute)
        graph_streamed = graph_streamer.finalise(crawl_minute=minute)
        graph_sink = GraphWriter(tmp_path / "graph-crawled", shard_size=5_000)
        graph_result = FollowerGraphCrawler(transport, threads=4).crawl(
            at_minute=minute, sink=graph_sink
        )
        assert_same_graph(
            graph_streamed, graph_sink.finalise(crawl_minute=graph_result.crawl_minute)
        )
