"""Tests for the synthetic Twitter baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.resilience import GraphMatrix, user_removal_sweep_matrix
from repro.errors import ConfigurationError
from repro.datasets.twitter import (
    TWITTER_2007_MEAN_DOWNTIME,
    TwitterBaselines,
    build_twitter_follower_graph,
    twitter_daily_downtime,
)

from tests.reference.graphs import matrix_from_networkx, twitter_follower_graph


def lcc_fraction(graph: GraphMatrix) -> float:
    return user_removal_sweep_matrix(graph, rounds=1)[0].lcc_fraction


class TestDowntimeBaseline:
    def test_mean_matches_published_value(self):
        series = twitter_daily_downtime(300, seed=1)
        assert np.mean(series) == pytest.approx(TWITTER_2007_MEAN_DOWNTIME, rel=0.05)

    def test_values_are_valid_fractions(self):
        series = twitter_daily_downtime(200, seed=2)
        assert all(0.0 <= value <= 0.95 for value in series)

    def test_custom_mean(self):
        series = twitter_daily_downtime(200, seed=3, mean_downtime=0.05)
        assert np.mean(series) == pytest.approx(0.05, rel=0.1)

    def test_reproducible(self):
        assert twitter_daily_downtime(50, seed=9) == twitter_daily_downtime(50, seed=9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            twitter_daily_downtime(0)
        with pytest.raises(ConfigurationError):
            twitter_daily_downtime(10, mean_downtime=1.5)


class TestFollowerGraphBaseline:
    def test_size_and_connectivity(self):
        graph = build_twitter_follower_graph(n_users=1200, seed=4)
        assert graph.n_nodes == 1200
        # the paper's Twitter LCC covers ~95% of accounts
        assert lcc_fraction(graph) > 0.9

    def test_heavy_tailed_in_degree(self):
        graph = build_twitter_follower_graph(n_users=1500, seed=5)
        in_degrees = sorted(np.bincount(graph.adjacency.indices, minlength=1500), reverse=True)
        assert in_degrees[0] > 10 * np.median([d for d in in_degrees if d > 0])

    def test_robust_to_removing_top_decile(self):
        graph = build_twitter_follower_graph(n_users=1000, seed=6)
        steps = user_removal_sweep_matrix(graph, rounds=1, fraction_per_round=0.1)
        fraction = steps[1].lcc_fraction * 1000 / (1000 - steps[1].removed_count)
        # the paper reports ~80% of users still connected after removing the top 10%
        assert fraction > 0.5

    @pytest.mark.parametrize(("n_users", "seed"), [(10, 0), (300, 1), (1200, 4)])
    def test_same_draws_as_the_networkx_builder(self, n_users, seed):
        """The arrays hold the graph the one-``add_edge``-per-draw builder drew."""
        graph = build_twitter_follower_graph(n_users=n_users, seed=seed)
        expected = matrix_from_networkx(twitter_follower_graph(n_users, seed=seed))
        assert graph.nodes == expected.nodes
        assert (graph.adjacency != expected.adjacency).nnz == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            build_twitter_follower_graph(n_users=5)
        with pytest.raises(ConfigurationError):
            build_twitter_follower_graph(n_users=100, mean_out_degree=0)


class TestBundle:
    def test_generate(self):
        baselines = TwitterBaselines.generate(days=60, n_users=500, seed=11)
        assert len(baselines.daily_downtime) == 60
        assert baselines.follower_matrix.n_nodes == 500
        assert baselines.mean_downtime == pytest.approx(TWITTER_2007_MEAN_DOWNTIME, rel=0.05)
