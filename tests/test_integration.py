"""End-to-end integration tests: scenario -> crawl -> datasets -> analyses.

These tests assert the *shape-level* reproduction targets on the shared
tiny scenario: who wins, which direction the skew points, and that the
paper's qualitative findings hold on the synthetic fediverse.
"""

from __future__ import annotations

import gc
import tempfile

import pytest

from repro import CRAWL_THREADS, CrawlSession, build_scenario, collect_datasets
from repro.core import availability, centralisation, hosting, resilience
from repro.datasets import TwitterBaselines
from repro.engine import InstanceRemoval, StrategySpec, availability_curve
from repro.engine import resilience as removal
from repro.datasets.graphs import largest_connected_component_fraction


class TestPipeline:
    def test_collect_datasets_produces_consistent_views(self, datasets, tiny_network):
        instances = datasets.instances
        assert len(instances) == len(tiny_network)
        # the crawler recovers the bulk of registered users (some instances
        # are unreachable at crawl time, some toots are private)
        assert datasets.graphs.user_count() <= tiny_network.total_users()
        assert datasets.graphs.user_count() > 0.5 * tiny_network.total_users()
        assert len(datasets.toots) <= tiny_network.total_toots()
        assert len(datasets.toots) > 0.4 * tiny_network.total_toots()

    def test_crawled_coverage_matches_paper_methodology(self, datasets, tiny_network):
        # the paper could only collect ~62% of toots (private + blocked);
        # the synthetic pipeline shows the same kind of partial coverage
        coverage = datasets.toots.coverage(tiny_network.total_toots())
        assert 0.3 < coverage < 1.0

    def test_federation_graph_smaller_than_follower_graph(self, datasets):
        assert datasets.graphs.instance_count() < datasets.graphs.user_count()
        assert datasets.graphs.federation_edge_count() < datasets.graphs.follow_edge_count()


class TestCrawlWidth:
    def test_one_worker_when_no_request_can_wait(self, tiny_network):
        assert CrawlSession(tiny_network).crawl_options["threads"] == 1

    @pytest.mark.parametrize("knob", [{"politeness_delay": 0.001}, {"retry_policy": 2}])
    def test_crawl_threads_when_a_request_can_sleep(self, tiny_network, knob):
        assert CrawlSession(tiny_network, **knob).crawl_options["threads"] == CRAWL_THREADS


class TestTemporaryStores:
    def test_collect_without_directories_leaves_nothing_behind(
        self, tiny_network, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        data = collect_datasets(tiny_network, monitor_interval_minutes=12 * 60)
        assert {data.corpus.path, data.graph_store.path} == set(tmp_path.iterdir())
        toots = data.toots
        del data
        gc.collect()
        # the graph store went with the datasets; the corpus lives as long
        # as the toots dataset that reads it
        assert list(tmp_path.iterdir()) == [toots.corpus.path]
        assert len(list(toots.corpus.iter_records())) == len(toots) > 0
        del toots
        gc.collect()
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_crawl_leaves_nothing_behind(self, tiny_network, tmp_path, monkeypatch):
        from repro.crawler import FollowerGraphCrawler

        def fail(self, sink=None):
            raise RuntimeError("crawl interrupted")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(FollowerGraphCrawler, "crawl", fail)
        with pytest.raises(RuntimeError, match="interrupted"):
            collect_datasets(tiny_network, monitor_interval_minutes=12 * 60)
        gc.collect()
        assert list(tmp_path.iterdir()) == []


class TestPaperFindings:
    """Finding-by-finding qualitative checks (abstract / Section 7)."""

    def test_finding2_user_driven_centralisation(self, datasets):
        metrics = centralisation.concentration_metrics(datasets.instances)
        # "10% of instances host almost half of the users"
        assert metrics["top10pct_user_share"] > 0.4

    def test_finding3_infrastructure_centralisation(self, datasets):
        # a handful of ASes host a large share of users
        assert hosting.top_as_user_share(datasets.instances, top=5) > 0.4

    def test_finding3_as_failures_fragment_the_federation(self, datasets):
        instances = datasets.instances
        users = instances.users_per_instance()
        asn_of = {d: instances.metadata_for(d).asn for d in instances.domains()}
        as_ranking = resilience.rank_ases(asn_of, users, by="users")
        steps = removal.as_removal_sweep_matrix(
            datasets.graphs.federation_graph, asn_of, as_ranking, steps=5
        )
        assert steps[0].lcc_fraction > 0.85
        assert steps[-1].lcc_fraction < 0.7 * steps[0].lcc_fraction

    def test_finding4_content_centralisation_and_replication_fix(self, datasets):
        toots = datasets.toots
        ranking = resilience.rank_instances(
            datasets.graphs.federation_graph,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        steps = min(10, len(ranking))
        failure = InstanceRemoval(ranking, steps=steps)
        no_rep = availability_curve(StrategySpec.none().build_from_corpus(toots.corpus), failure)
        sub_rep = availability_curve(
            StrategySpec.subscription().build_from_corpus(toots.corpus, graphs=datasets.graphs),
            failure,
        )
        # removing the top instances erases a large share of toots without
        # replication, and replication recovers most of the loss
        assert no_rep[-1].availability < 0.6
        assert sub_rep[-1].availability > no_rep[-1].availability + 0.2

    def test_mastodon_less_available_than_twitter(self, datasets):
        twitter = TwitterBaselines.generate(days=60, n_users=300, seed=5)
        comparison = availability.twitter_downtime_comparison(
            datasets.instances, twitter.daily_downtime
        )
        assert comparison["ratio"] > 1.0

    def test_follower_graph_more_fragile_than_twitter(self, datasets):
        twitter = TwitterBaselines.generate(days=30, n_users=datasets.graphs.user_count(), seed=9)
        mastodon_steps = removal.user_removal_sweep_matrix(
            datasets.graphs.follower_graph, rounds=5, fraction_per_round=0.01
        )
        twitter_steps = removal.user_removal_sweep_matrix(
            twitter.follower_graph, rounds=5, fraction_per_round=0.01
        )
        drop_mastodon = mastodon_steps[0].lcc_fraction - mastodon_steps[-1].lcc_fraction
        drop_twitter = twitter_steps[0].lcc_fraction - twitter_steps[-1].lcc_fraction
        assert drop_mastodon > 0
        # Mastodon's social graph degrades at least as fast as the Twitter baseline
        assert drop_mastodon >= drop_twitter - 0.05


class TestReproducibilityAcrossRuns:
    def test_same_seed_same_datasets(self):
        first = collect_datasets(build_scenario("tiny", seed=123), monitor_interval_minutes=24 * 60)
        second = collect_datasets(build_scenario("tiny", seed=123), monitor_interval_minutes=24 * 60)
        assert first.instances.users_per_instance() == second.instances.users_per_instance()
        assert len(first.toots) == len(second.toots)
        assert first.graphs.follow_edge_count() == second.graphs.follow_edge_count()

    def test_follower_graph_is_nearly_fully_connected(self, datasets):
        assert largest_connected_component_fraction(datasets.graphs.follower_graph) > 0.9
