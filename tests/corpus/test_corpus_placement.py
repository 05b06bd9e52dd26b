"""Differential suite: corpus-built placements vs the crawl's own records.

`PlacementArrays.from_corpus` must match placements encoded by plain
Python from the record-mode crawl of the same network — same domain
universe, same home codes, same replica CSR, same seeded draws — and
the corpus shard boundaries must flow through the sweep without
changing a single curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import replication
from repro.datasets import TootsDataset
from repro.engine import (
    InstanceRemoval,
    PlacementArrays,
    ShardedIncidence,
    StrategySpec,
    availability_curves,
)
from repro.engine import sweep
from repro.engine.placement import (
    follower_domain_sets,
    random_arrays_from_columns,
    subscription_arrays_from_columns,
)
from repro.errors import AnalysisError, DatasetError
from repro.experiments import ExperimentContext


@pytest.fixture(scope="module")
def crawl_records(tiny_crawl):
    """The de-duplicated catalogue of the record-mode crawl."""
    return list(tiny_crawl.unique_toots().values())


@pytest.fixture(scope="module")
def candidate_domains(tiny_network):
    return tiny_network.domains()


def encoded_homes(records, extra_domains=()):
    """``(urls, home codes, domain universe)`` encoded record by record."""
    homes = [record.author_domain for record in records]
    domains = tuple(sorted(set(homes).union(extra_domains)))
    code = {domain: j for j, domain in enumerate(domains)}
    home = np.asarray([code[h] for h in homes], dtype=np.int64)
    return tuple(record.url for record in records), home, domains


def reference_random(records, candidate_domains, n_replicas, seed, weights=None):
    candidates = sorted(set(candidate_domains))
    urls, home, domains = encoded_homes(records, candidates)
    return random_arrays_from_columns(
        urls, home, domains, candidates, n_replicas, seed, weights
    )


def assert_arrays_equal(expected: PlacementArrays, got: PlacementArrays) -> None:
    assert got.strategy == expected.strategy
    assert got.domains == expected.domains
    assert list(got.toot_urls) == list(expected.toot_urls)
    assert np.array_equal(got.home, expected.home)
    assert np.array_equal(got.replica_indices, expected.replica_indices)
    assert np.array_equal(got.replica_indptr, expected.replica_indptr)
    got.validate()


class TestBuilderEquivalence:
    def test_no_replication(self, crawl_records, tiny_store):
        urls, home, domains = encoded_homes(crawl_records)
        expected = PlacementArrays(
            strategy="no-replication",
            toot_urls=urls,
            domains=domains,
            home=home,
            replica_indices=np.empty(0, dtype=np.int64),
            replica_indptr=np.zeros(len(urls) + 1, dtype=np.int64),
        )
        got = PlacementArrays.from_corpus(tiny_store, "none")
        assert_arrays_equal(expected, got)
        assert got.source_bounds == tuple(tiny_store.shard_bounds())

    def test_random_replication_same_seeded_draw(
        self, crawl_records, tiny_store, candidate_domains
    ):
        for seed in (0, 7):
            expected = reference_random(crawl_records, candidate_domains, 3, seed)
            got = PlacementArrays.from_corpus(
                tiny_store, "random", candidate_domains=candidate_domains,
                n_replicas=3, seed=seed,
            )
            assert_arrays_equal(expected, got)

    def test_weighted_random_replication(
        self, crawl_records, tiny_store, candidate_domains
    ):
        rng = np.random.default_rng(5)
        weights = {
            domain: float(value)
            for domain, value in zip(
                candidate_domains, rng.random(len(candidate_domains)) + 0.05
            )
        }
        expected = reference_random(crawl_records, candidate_domains, 2, 11, weights)
        got = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains,
            n_replicas=2, seed=11, weights=weights,
        )
        assert_arrays_equal(expected, got)

    def test_subscription_replication(self, crawl_records, tiny_store, datasets):
        accounts = [record.account for record in crawl_records]
        follower_domains = follower_domain_sets(accounts, datasets.graphs)
        urls, home, domains = encoded_homes(
            crawl_records, set().union(*follower_domains.values())
        )
        author_code = {author: i for i, author in enumerate(follower_domains)}
        expected = subscription_arrays_from_columns(
            urls,
            home,
            domains,
            np.asarray([author_code[a] for a in accounts], dtype=np.int64),
            follower_domains,
        )
        got = PlacementArrays.from_corpus(
            tiny_store, "subscription", graphs=datasets.graphs
        )
        assert_arrays_equal(expected, got)

    def test_invalid_requests(self, tiny_store, candidate_domains):
        with pytest.raises(AnalysisError, match="unknown placement strategy"):
            PlacementArrays.from_corpus(tiny_store, "mirror-everything")
        with pytest.raises(AnalysisError, match="graphs"):
            PlacementArrays.from_corpus(tiny_store, "subscription")
        with pytest.raises(AnalysisError, match="candidate"):
            PlacementArrays.from_corpus(tiny_store, "random", n_replicas=2)
        with pytest.raises(AnalysisError, match="negative"):
            PlacementArrays.from_corpus(
                tiny_store, "random", candidate_domains=candidate_domains, n_replicas=-1
            )

    def test_empty_corpus_refused(self, tmp_path):
        from repro.corpus import CorpusWriter

        store = CorpusWriter(tmp_path).finalise()
        with pytest.raises(DatasetError, match="no toots"):
            PlacementArrays.from_corpus(store, "none")


class TestSweepIdentity:
    @pytest.fixture(scope="class")
    def failure(self, candidate_domains):
        return InstanceRemoval(candidate_domains, steps=20, name="rank")

    def test_curves_identical_monolithic_and_corpus_sharded(
        self, crawl_records, tiny_store, candidate_domains, failure, monkeypatch
    ):
        reference = reference_random(crawl_records, candidate_domains, 3, seed=2)
        legacy = replication.PlacementMap(reference.strategy, arrays=reference)
        corpus_arrays = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains,
            n_replicas=3, seed=2,
        )
        expected = availability_curves(legacy, [failure])
        # monolithic evaluation of the corpus backend (lazy URL view feeds
        # TootIncidence.from_arrays)
        monolithic = availability_curves(
            replication.PlacementMap(corpus_arrays.strategy, arrays=corpus_arrays),
            [failure],
        )
        assert monolithic == expected
        # corpus-aligned shards: crawl boundaries flow through unchanged
        sharded = ShardedIncidence.from_arrays(
            corpus_arrays, bounds=corpus_arrays.source_bounds
        )
        assert sharded.shard_bounds() == list(tiny_store.shard_bounds())
        assert availability_curves(sharded, [failure]) == expected
        # automatic sharding streams over the corpus bounds
        folded: list[list[tuple[int, int]]] = []
        fold = sweep.streaming_losses

        def recording_fold(sharded, *args):
            folded.append(sharded.shard_bounds())
            return fold(sharded, *args)

        monkeypatch.setattr(sweep, "AUTO_SHARD_THRESHOLD", 1)
        monkeypatch.setattr(sweep, "streaming_losses", recording_fold)
        auto = availability_curves(
            replication.PlacementMap(corpus_arrays.strategy, arrays=corpus_arrays),
            [failure],
        )
        assert auto == expected
        assert folded == [list(tiny_store.shard_bounds())]

    def test_invalid_bounds_rejected(self, tiny_store, candidate_domains):
        arrays = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains, n_replicas=1
        )
        n = arrays.n_toots
        for bounds in ([(0, n - 1)], [(1, n)], [(0, 10), (11, n)], [(0, 0), (0, n)]):
            with pytest.raises(AnalysisError):
                ShardedIncidence.from_arrays(arrays, bounds=bounds)


class TestContextIntegration:
    def test_sharded_corpus_context_matches_pipeline_context(
        self, tiny_network, datasets, tiny_store
    ):
        from repro import CollectedDatasets

        pipeline_ctx = ExperimentContext.from_datasets(datasets, network=tiny_network)
        corpus_data = CollectedDatasets(
            instances=datasets.instances,
            toots=TootsDataset.from_corpus(tiny_store),
            graphs=datasets.graphs,
            network=tiny_network,
            corpus=tiny_store,
            graph_store=datasets.graph_store,
        )
        corpus_ctx = ExperimentContext.from_datasets(corpus_data, network=tiny_network)
        assert tiny_store.n_shards > datasets.corpus.n_shards

        specs = [StrategySpec.none(), StrategySpec.subscription(), StrategySpec.random(2, seed=3)]
        failures = pipeline_ctx.standard_failures()
        expected = pipeline_ctx.sweep(specs, failures)
        got = corpus_ctx.sweep(specs, failures)
        assert got.curves == expected.curves
        for spec in specs:
            assert corpus_ctx.placements_for(spec).arrays.source_bounds == tuple(
                tiny_store.shard_bounds()
            )
