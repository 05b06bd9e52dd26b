"""Ablation — resource-weighted random replication.

The paper notes that a practical deployment would "weight replication
based on the resources available at the instance".  This ablation
compares uniform random replication against capacity-weighted placement
(replicas biased towards the largest instances) and shows the trade-off:
weighting concentrates replicas on exactly the instances most likely to
be targeted, so availability under targeted removal degrades back towards
the subscription strategy.
"""

from __future__ import annotations

from repro.core import resilience
from repro.engine import InstanceRemoval, StrategySpec, availability_at, run_availability_sweep
from repro.reporting import format_percentage, format_table

from benchmarks.conftest import emit

STEPS = 40


def test_ablation_weighted_replication(benchmark, data):
    ranking = resilience.rank_instances(
        data.graphs,
        toots_per_instance=data.toots.toots_per_instance(),
        by="toots",
    )
    domains = data.instances.domains()
    capacity = {d: 1.0 + users for d, users in data.instances.users_per_instance().items()}

    failure = InstanceRemoval(ranking, steps=STEPS)

    def run():
        result = run_availability_sweep(
            data.toots,
            [
                StrategySpec.random(2, seed=3, name="uniform"),
                StrategySpec.random(2, seed=3, weights=capacity, name="capacity-weighted"),
            ],
            [failure],
            candidate_domains=domains,
        )
        return {name: result.curve(name, failure.name) for name in result.strategy_names}

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            removed,
            format_percentage(availability_at(curves["uniform"], removed)),
            format_percentage(availability_at(curves["capacity-weighted"], removed)),
        ]
        for removed in (5, 10, 20, 40)
    ]
    emit(
        "Ablation — uniform vs capacity-weighted random replication (2 replicas)",
        format_table(["instances removed", "uniform", "capacity-weighted"], rows),
    )

    # weighting towards big instances cannot beat uniform placement under
    # targeted top-instance removal
    assert (
        availability_at(curves["capacity-weighted"], 20)
        <= availability_at(curves["uniform"], 20) + 0.02
    )
