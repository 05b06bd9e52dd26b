"""Golden-number regression pins for the replication headline stats.

The paper reports that under subscription replication ~9.7% of toots
have no replica while ~23% have more than ten (Section 5.2).  Our seeded
tiny scenario (``build_scenario("tiny", seed=11)`` via the session
``datasets`` fixture) reproduces the *shape* of those headlines at 1/400
of the paper's 67M-toot scale; the exact values below were measured once
and pinned so that refactors of the replication/engine stack cannot
silently drift the numbers.  If a change legitimately alters them (e.g.
a new scenario generator), re-measure and update the pins deliberately.

The switch to the vectorised placement builders (PR 2,
:mod:`repro.engine.placement`) deliberately left every pin unchanged:
the strategies pinned here (no replication, subscription replication)
are deterministic and the arrays-backed builders reproduce the legacy
holder sets exactly — only seeded *random* placements differ, because
the batched draw consumes the RNG stream in a different order, and no
pin depends on those.
"""

from __future__ import annotations

import pytest

from repro.core import resilience
from repro.engine import InstanceRemoval, StrategySpec, availability_at, availability_curve

# Measured on the seeded tiny scenario; update only on deliberate changes.
GOLDEN_TOOTS = 5593
GOLDEN_WITHOUT_REPLICA = 1832
GOLDEN_MORE_THAN_10 = 637
GOLDEN_SHARE_WITHOUT = 0.32755229751475057  # paper headline: ~9.7%
GOLDEN_SHARE_GT10 = 0.11389236545682102  # paper headline: ~23%
GOLDEN_MEAN_REPLICAS = 3.3559806901484
GOLDEN_SUBSCRIPTION_AT_10 = 0.6622563919184695
GOLDEN_NO_REPLICATION_AT_10 = 0.16538530305739318

EXACT = dict(rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def subscription_placements(datasets):
    return StrategySpec.subscription().build_from_corpus(
        datasets.toots.corpus, graphs=datasets.graphs
    )


class TestReplicationHeadlines:
    def test_replica_counts_pinned(self, subscription_placements):
        counts = subscription_placements.replica_counts()
        assert len(counts) == GOLDEN_TOOTS
        assert sum(1 for c in counts if c == 0) == GOLDEN_WITHOUT_REPLICA
        assert sum(1 for c in counts if c > 10) == GOLDEN_MORE_THAN_10

    def test_replication_summary_pinned(self, subscription_placements):
        summary = subscription_placements.replication_summary()
        assert summary["share_without_replica"] == pytest.approx(
            GOLDEN_SHARE_WITHOUT, **EXACT
        )
        assert summary["share_with_more_than_10"] == pytest.approx(
            GOLDEN_SHARE_GT10, **EXACT
        )
        assert summary["mean_replicas"] == pytest.approx(GOLDEN_MEAN_REPLICAS, **EXACT)

    def test_summary_matches_paper_shape(self, subscription_placements):
        """The qualitative headline survives: some toots are un-replicated,
        a noticeable tail is heavily replicated (paper: 9.7% / 23%)."""
        summary = subscription_placements.replication_summary()
        assert 0.0 < summary["share_without_replica"] < 0.6
        assert 0.0 < summary["share_with_more_than_10"] < 0.5
        assert summary["mean_replicas"] > 1.0

    def test_availability_after_top10_removal_pinned(self, datasets, subscription_placements):
        ranking = resilience.rank_instances(
            datasets.graphs,
            toots_per_instance=datasets.toots.toots_per_instance(),
            by="toots",
        )
        failure = InstanceRemoval(ranking, steps=10)
        sub_curve = availability_curve(subscription_placements, failure)
        none_curve = availability_curve(
            StrategySpec.none().build_from_corpus(datasets.toots.corpus), failure
        )
        sub_at_10 = availability_at(sub_curve, 10)
        none_at_10 = availability_at(none_curve, 10)
        assert sub_at_10 == pytest.approx(GOLDEN_SUBSCRIPTION_AT_10, **EXACT)
        assert none_at_10 == pytest.approx(GOLDEN_NO_REPLICATION_AT_10, **EXACT)
        # the paper's direction: replication recovers most of the loss
        assert sub_at_10 > none_at_10 + 0.2
