"""Tests for the sweep API: strategy grids, batched curves, reporting glue."""

from __future__ import annotations

import pytest

from repro.core import resilience
from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    StrategySpec,
    availability_curve,
    random_strategy_grid,
    run_availability_sweep,
)
from repro.errors import AnalysisError
from repro.reporting import format_sweep_table

from tests.engine.test_equivalence import random_scenario


@pytest.fixture(scope="module")
def scenario():
    return random_scenario(5)


@pytest.fixture(scope="module")
def sweep(scenario):
    toots, graphs, domains, asn_of = scenario
    ranking = resilience.rank_instances(
        graphs,
        toots_per_instance=toots.toots_per_instance(),
        by="toots",
    )
    as_ranking = resilience.rank_ases(asn_of, by="instances")
    strategies = [
        StrategySpec.none(),
        StrategySpec.subscription(),
        *random_strategy_grid([1, 3], seeds=[7]),
    ]
    failures = [
        InstanceRemoval(ranking, steps=6, name="instances"),
        ASRemoval(asn_of, as_ranking, steps=2, name="ases"),
    ]
    result = run_availability_sweep(
        toots, strategies, failures, graphs=graphs, candidate_domains=domains
    )
    return result, ranking, as_ranking


class TestSweep:
    def test_grid_is_fully_populated(self, sweep):
        result, _, _ = sweep
        assert set(result.strategy_names) == {"no-rep", "s-rep", "n=1/seed=7", "n=3/seed=7"}
        assert result.failure_names == ("instances", "ases")
        for strategy in result.strategy_names:
            for failure in result.failure_names:
                assert result.curve(strategy, failure)[0].availability == 1.0

    def test_sweep_curves_match_individual_calls(self, scenario, sweep):
        toots, graphs, domains, asn_of = scenario
        result, ranking, as_ranking = sweep
        placements = StrategySpec.subscription().build_from_corpus(
            toots.corpus, graphs=graphs
        )
        assert result.curve("s-rep", "instances") == (
            availability_curve(placements, InstanceRemoval(ranking, steps=6))
        )
        random_placements = StrategySpec.random(1, seed=7).build_from_corpus(
            toots.corpus, candidate_domains=domains
        )
        assert result.curve("n=1/seed=7", "ases") == (
            availability_curve(random_placements, ASRemoval(asn_of, as_ranking, steps=2))
        )

    def test_compare_orders_strategies(self, sweep):
        result, ranking, _ = sweep
        removed = min(6, len(ranking))
        comparison = result.compare("instances", removed)
        assert comparison["s-rep"] >= comparison["no-rep"]
        assert comparison["n=3/seed=7"] >= comparison["n=1/seed=7"] - 0.05

    def test_unknown_curve_rejected(self, sweep):
        result, _, _ = sweep
        with pytest.raises(AnalysisError):
            result.curve("no-rep", "nonexistent")

    def test_availability_rows_and_formatting(self, sweep):
        result, _, _ = sweep
        rows = result.availability_rows("instances", (0, 2))
        assert [row[0] for row in rows] == list(result.strategy_names)
        assert all(row[1] == 1.0 for row in rows)
        table = format_sweep_table(result, "instances", (0, 2))
        assert "strategy" in table and "top 2 removed" in table and "100.0%" in table

    def test_seed_grid_names_are_distinct(self):
        grid = random_strategy_grid([2], seeds=[0, 1])
        assert {spec.name for spec in grid} == {"n=2", "n=2/seed=1"}

    def test_validation(self, scenario):
        toots, graphs, domains, _ = scenario
        failure = InstanceRemoval(["x"], steps=1)
        with pytest.raises(AnalysisError):
            run_availability_sweep(toots, [], [failure])
        with pytest.raises(AnalysisError):
            run_availability_sweep(
                toots, [StrategySpec.none(), StrategySpec.none()], [failure]
            )
        with pytest.raises(AnalysisError):
            run_availability_sweep(toots, [StrategySpec.subscription()], [failure])
        with pytest.raises(AnalysisError):
            run_availability_sweep(
                toots, [StrategySpec.random(1)], [failure]
            )  # no candidate domains

    def test_weighted_random_strategy_end_to_end(self, scenario):
        """A seeded weighted spec through the sweep: heavier-weighted domains
        must receive proportionally more replicas (no test exercised
        ``weights`` through the sweep path before)."""
        toots, graphs, domains, asn_of = scenario
        heavy = sorted(domains)[0]
        weights = {d: (40.0 if d == heavy else 1.0) for d in domains}
        spec = StrategySpec.random(2, seed=13, weights=weights, name="weighted")
        result = run_availability_sweep(
            toots,
            [StrategySpec.random(2, seed=13, name="uniform"), spec],
            [InstanceRemoval(sorted(domains), steps=3, name="instances")],
            candidate_domains=domains,
            keep_placements=True,
        )
        arrays = result.placements["weighted"]
        assert arrays.strategy == "random-replication-n2-weighted"
        load = {d: c for d, c in zip(arrays.domains, arrays.domain_replica_load())}
        others = [load.get(d, 0) for d in domains if d != heavy]
        # 40x the weight -> the heavy domain lands on almost every toot it
        # does not already host (draws hitting the home instance collapse)
        heavy_homed = int((arrays.home == arrays.domains.index(heavy)).sum())
        assert load[heavy] > 2 * max(others)
        assert load[heavy] > 0.9 * (len(toots) - heavy_homed)
        # both specs produced full curves through the same sweep call
        for name in ("uniform", "weighted"):
            curve = result.curve(name, "instances")
            assert curve[0].availability == 1.0
            assert len(curve) == 4

    def test_keep_placements_exposes_maps(self, scenario):
        toots, graphs, domains, _ = scenario
        result = run_availability_sweep(
            toots,
            [StrategySpec.none()],
            [InstanceRemoval(domains, steps=2)],
            keep_placements=True,
        )
        assert "no-rep" in result.placements
        assert result.placements["no-rep"].n_toots == len(toots)
