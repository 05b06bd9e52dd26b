"""Tests for toot replication strategies and availability curves (Figs. 15-16)."""

from __future__ import annotations

import pytest

from repro.core import replication
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.graphs import GraphDataset
from repro.datasets.toots import TootsDataset
from repro.errors import AnalysisError

from tests.conftest import corpus_toots
from tests.reference.replication import placement_dict


def record(toot_id: int, author: str, home: str) -> TootRecord:
    return TootRecord(
        toot_id=toot_id,
        url=f"https://{home}/@{author}/{toot_id}",
        account=f"{author}@{home}",
        author_domain=home,
        collected_from=home,
        created_at=toot_id,
    )


DOMAINS = ["big.example", "mid.example", "small.example", "spare.example"]


def make_toots() -> TootsDataset:
    records = (
        [record(i, "star", "big.example") for i in range(1, 11)]
        + [record(i, "mid", "mid.example") for i in range(11, 16)]
        + [record(16, "tiny", "small.example")]
    )
    return corpus_toots(records)


def make_graphs() -> GraphDataset:
    edges = [
        # star has followers on mid and small
        ("mid@mid.example", "star@big.example"),
        ("tiny@small.example", "star@big.example"),
        # mid has one follower on big
        ("star@big.example", "mid@mid.example"),
        # tiny has no followers at all
        ("tiny@small.example", "mid@mid.example"),
    ]
    return GraphDataset.from_edges(edges)


class TestPlacementStrategies:
    def test_no_replication_places_only_on_home(self):
        placements = replication.no_replication(make_toots())
        assert len(placements) == 16
        assert all(len(holders) == 1 for holders in placement_dict(placements.arrays).values())
        summary = placements.replication_summary()
        assert summary["share_without_replica"] == 1.0
        assert summary["mean_replicas"] == 0.0

    def test_subscription_replication_uses_follower_domains(self):
        placements = replication.subscription_replication(make_toots(), make_graphs())
        star_toot = placement_dict(placements.arrays)["https://big.example/@star/1"]
        assert star_toot == {"big.example", "mid.example", "small.example"}
        tiny_toot = placement_dict(placements.arrays)["https://small.example/@tiny/16"]
        assert tiny_toot == {"small.example"}
        summary = placements.replication_summary()
        assert summary["share_without_replica"] == pytest.approx(1 / 16)

    def test_random_replication_counts(self):
        placements = replication.random_replication(make_toots(), DOMAINS, n_replicas=2, seed=3)
        for holders in placement_dict(placements.arrays).values():
            # home + 2 replicas, minus any overlap with the home instance
            assert 2 <= len(holders) <= 3

    def test_random_replication_zero_replicas(self):
        placements = replication.random_replication(make_toots(), DOMAINS, n_replicas=0, seed=3)
        assert all(len(holders) == 1 for holders in placement_dict(placements.arrays).values())

    def test_random_replication_reproducible(self):
        first = replication.random_replication(make_toots(), DOMAINS, 2, seed=5)
        second = replication.random_replication(make_toots(), DOMAINS, 2, seed=5)
        assert placement_dict(first.arrays) == placement_dict(second.arrays)

    def test_weighted_replication_prefers_heavy_domains(self):
        weights = {"spare.example": 100.0, "mid.example": 0.01, "small.example": 0.01, "big.example": 0.01}
        placements = replication.random_replication(
            make_toots(), DOMAINS, n_replicas=1, seed=7, weights=weights
        )
        spare_hits = sum(
            1 for holders in placement_dict(placements.arrays).values() if "spare.example" in holders
        )
        assert spare_hits >= len(placements) * 0.8

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            replication.random_replication(make_toots(), [], 1)
        with pytest.raises(AnalysisError):
            replication.random_replication(make_toots(), DOMAINS, -1)
        with pytest.raises(AnalysisError):
            replication.random_replication(
                make_toots(), DOMAINS, 1, weights={d: 0.0 for d in DOMAINS}
            )


class TestAvailabilityCurves:
    def test_no_replication_loses_toots_with_home_instance(self):
        placements = replication.no_replication(make_toots())
        curve = replication.availability_under_instance_removal(
            placements, ["big.example", "mid.example"], steps=2
        )
        assert curve[0].availability == 1.0
        assert curve[1].availability == pytest.approx(6 / 16)
        assert curve[2].availability == pytest.approx(1 / 16)

    def test_subscription_replication_survives_home_failure(self):
        placements = replication.subscription_replication(make_toots(), make_graphs())
        curve = replication.availability_under_instance_removal(
            placements, ["big.example"], steps=1
        )
        # star's toots survive on mid and small
        assert curve[1].availability == 1.0

    def test_as_removal_curve(self):
        placements = replication.no_replication(make_toots())
        asn_of = {
            "big.example": 1,
            "mid.example": 1,
            "small.example": 2,
            "spare.example": 3,
        }
        curve = replication.availability_under_as_removal(placements, asn_of, [1, 2], steps=2)
        assert curve[1].availability == pytest.approx(1 / 16)
        assert curve[2].availability == 0.0

    def test_availability_at_and_compare(self):
        placements = replication.no_replication(make_toots())
        curve = replication.availability_under_instance_removal(
            placements, ["big.example"], steps=1
        )
        assert replication.availability_at(curve, 0) == 1.0
        assert replication.availability_at(curve, 5) == curve[-1].availability
        comparison = replication.compare_strategies({"no-rep": curve}, removed=1)
        assert comparison["no-rep"] == curve[1].availability
        with pytest.raises(AnalysisError):
            replication.availability_at([], 1)

    def test_validation(self):
        placements = replication.no_replication(make_toots())
        with pytest.raises(AnalysisError):
            replication.availability_under_instance_removal(placements, ["x"], steps=0)
        with pytest.raises(AnalysisError):
            replication.availability_under_as_removal(placements, {}, [1], steps=0)

    def test_random_replication_beats_no_replication(self):
        toots = make_toots()
        ranking = ["big.example", "mid.example"]
        no_rep = replication.availability_under_instance_removal(
            replication.no_replication(toots), ranking, steps=2
        )
        random_rep = replication.availability_under_instance_removal(
            replication.random_replication(toots, DOMAINS, 2, seed=11), ranking, steps=2
        )
        assert random_rep[-1].availability >= no_rep[-1].availability

    def test_pipeline_replication_ordering(self, datasets):
        """On the generated fediverse: random-rep >= subscription-rep >= no-rep."""
        from repro.core import resilience

        toots = datasets.toots
        graphs = datasets.graphs
        ranking = resilience.rank_instances(
            graphs.federation_graph,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        steps = min(10, len(ranking))
        curves = {
            "none": replication.availability_under_instance_removal(
                replication.no_replication(toots), ranking, steps=steps
            ),
            "subscription": replication.availability_under_instance_removal(
                replication.subscription_replication(toots, graphs), ranking, steps=steps
            ),
            "random3": replication.availability_under_instance_removal(
                replication.random_replication(
                    toots, datasets.instances.domains(), 3, seed=1
                ),
                ranking,
                steps=steps,
            ),
        }
        comparison = replication.compare_strategies(curves, removed=steps)
        assert comparison["subscription"] >= comparison["none"]
        assert comparison["random3"] >= comparison["subscription"] - 0.05
