"""Tests for toot replication strategies and availability curves (Figs. 15-16).

The strategies are :class:`~repro.engine.sweep.StrategySpec` recipes
built into :class:`~repro.engine.placement.PlacementArrays`; the curves
are the engine's :func:`~repro.engine.sweep.availability_curve` under
instance and AS removal.
"""

from __future__ import annotations

import pytest

from repro.core import resilience
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.graphs import GraphDataset
from repro.datasets.toots import TootsDataset
from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    StrategySpec,
    availability_at,
    availability_curve,
    run_availability_sweep,
)
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
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        assert placements.n_toots == 16
        assert all(len(holders) == 1 for holders in placement_dict(placements).values())
        summary = placements.replication_summary()
        assert summary["share_without_replica"] == 1.0
        assert summary["mean_replicas"] == 0.0

    def test_subscription_replication_uses_follower_domains(self):
        placements = StrategySpec.subscription().build_from_corpus(
            make_toots().corpus, graphs=make_graphs()
        )
        star_toot = placement_dict(placements)["https://big.example/@star/1"]
        assert star_toot == {"big.example", "mid.example", "small.example"}
        tiny_toot = placement_dict(placements)["https://small.example/@tiny/16"]
        assert tiny_toot == {"small.example"}
        summary = placements.replication_summary()
        assert summary["share_without_replica"] == pytest.approx(1 / 16)

    def test_random_replication_counts(self):
        placements = StrategySpec.random(2, seed=3).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        for holders in placement_dict(placements).values():
            # home + 2 replicas, minus any overlap with the home instance
            assert 2 <= len(holders) <= 3

    def test_random_replication_zero_replicas(self):
        placements = StrategySpec.random(0, seed=3).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        assert all(len(holders) == 1 for holders in placement_dict(placements).values())

    def test_random_replication_reproducible(self):
        spec = StrategySpec.random(2, seed=5)
        first = spec.build_from_corpus(make_toots().corpus, candidate_domains=DOMAINS)
        second = spec.build_from_corpus(make_toots().corpus, candidate_domains=DOMAINS)
        assert placement_dict(first) == placement_dict(second)

    def test_weighted_replication_prefers_heavy_domains(self):
        weights = {"spare.example": 100.0, "mid.example": 0.01, "small.example": 0.01, "big.example": 0.01}
        placements = StrategySpec.random(1, seed=7, weights=weights).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        spare_hits = sum(
            1 for holders in placement_dict(placements).values() if "spare.example" in holders
        )
        assert spare_hits >= placements.n_toots * 0.8

    def test_invalid_inputs(self):
        corpus = make_toots().corpus
        with pytest.raises(AnalysisError):
            StrategySpec.random(1).build_from_corpus(corpus, candidate_domains=[])
        with pytest.raises(AnalysisError):
            StrategySpec.random(-1).build_from_corpus(corpus, candidate_domains=DOMAINS)
        with pytest.raises(AnalysisError):
            StrategySpec.random(1, weights={d: 0.0 for d in DOMAINS}).build_from_corpus(
                corpus, candidate_domains=DOMAINS
            )


class TestAvailabilityCurves:
    def test_no_replication_loses_toots_with_home_instance(self):
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        curve = availability_curve(
            placements, InstanceRemoval(["big.example", "mid.example"], steps=2)
        )
        assert curve[0].availability == 1.0
        assert curve[1].availability == pytest.approx(6 / 16)
        assert curve[2].availability == pytest.approx(1 / 16)

    def test_subscription_replication_survives_home_failure(self):
        placements = StrategySpec.subscription().build_from_corpus(
            make_toots().corpus, graphs=make_graphs()
        )
        curve = availability_curve(placements, InstanceRemoval(["big.example"], steps=1))
        # star's toots survive on mid and small
        assert curve[1].availability == 1.0

    def test_as_removal_curve(self):
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        asn_of = {
            "big.example": 1,
            "mid.example": 1,
            "small.example": 2,
            "spare.example": 3,
        }
        curve = availability_curve(placements, ASRemoval(asn_of, [1, 2], steps=2))
        assert curve[1].availability == pytest.approx(1 / 16)
        assert curve[2].availability == 0.0

    def test_availability_at_and_compare(self):
        failure = InstanceRemoval(["big.example"], steps=1)
        result = run_availability_sweep(make_toots(), [StrategySpec.none()], [failure])
        curve = result.curve("no-rep", failure.name)
        assert availability_at(curve, 0) == 1.0
        assert availability_at(curve, 5) == curve[-1].availability
        comparison = result.compare(failure.name, removed=1)
        assert comparison["no-rep"] == curve[1].availability
        with pytest.raises(AnalysisError):
            availability_at([], 1)

    def test_validation(self):
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        with pytest.raises(AnalysisError):
            availability_curve(placements, InstanceRemoval(["x"], steps=0))
        with pytest.raises(AnalysisError):
            availability_curve(placements, ASRemoval({}, [1], steps=0))

    def test_random_replication_beats_no_replication(self):
        corpus = make_toots().corpus
        failure = InstanceRemoval(["big.example", "mid.example"], steps=2)
        no_rep = availability_curve(StrategySpec.none().build_from_corpus(corpus), failure)
        random_rep = availability_curve(
            StrategySpec.random(2, seed=11).build_from_corpus(
                corpus, candidate_domains=DOMAINS
            ),
            failure,
        )
        assert random_rep[-1].availability >= no_rep[-1].availability

    def test_pipeline_replication_ordering(self, datasets):
        """On the generated fediverse: random-rep >= subscription-rep >= no-rep."""
        toots = datasets.toots
        graphs = datasets.graphs
        ranking = resilience.rank_instances(
            graphs,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        steps = min(10, len(ranking))
        failure = InstanceRemoval(ranking, steps=steps)
        result = run_availability_sweep(
            toots,
            [
                StrategySpec.none(name="none"),
                StrategySpec.subscription(name="subscription"),
                StrategySpec.random(3, seed=1, name="random3"),
            ],
            [failure],
            graphs=graphs,
            candidate_domains=datasets.instances.domains(),
        )
        comparison = result.compare(failure.name, removed=steps)
        assert comparison["subscription"] >= comparison["none"]
        assert comparison["random3"] >= comparison["subscription"] - 0.05
