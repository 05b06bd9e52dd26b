"""Replication study: keeping toots available through failures (Figs. 15-16).

Compares the three placement strategies from Section 5.2 — no
replication, subscription-based replication, and random replication with
n copies — under targeted removal of the top instances and ASes.

Run with::

    python examples/replication_study.py [preset] [seed]
"""

from __future__ import annotations

import sys

from repro import build_scenario, collect_datasets
from repro.core import resilience
from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    StrategySpec,
    availability_at,
    run_availability_sweep,
)
from repro.reporting import format_percentage, format_table


def main(preset: str = "tiny", seed: int = 55) -> None:
    network = build_scenario(preset, seed=seed)
    data = collect_datasets(network, monitor_interval_minutes=24 * 60)
    toots = data.toots
    instances = data.instances

    ranking = resilience.rank_instances(
        data.graphs,
        toots_per_instance=toots.toots_per_instance(),
        by="toots",
    )
    asn_of = {d: instances.metadata_for(d).asn for d in instances.domains()}
    as_ranking = resilience.rank_ases(asn_of, instances.users_per_instance(), by="users")
    steps = min(25, len(ranking))

    # one placement per strategy, both removal schedules folded over it
    result = run_availability_sweep(
        toots,
        [
            StrategySpec.none(name="no replication"),
            StrategySpec.subscription(name="subscription"),
            StrategySpec.random(1, seed=seed, name="random n=1"),
            StrategySpec.random(3, seed=seed, name="random n=3"),
        ],
        [
            InstanceRemoval(ranking, steps=steps, name="instances"),
            ASRemoval(asn_of, as_ranking, steps=10, name="ases"),
        ],
        graphs=data.graphs,
        candidate_domains=instances.domains(),
        keep_placements=True,
    )

    instance_rows = []
    as_rows = []
    for name in result.strategy_names:
        instance_curve = result.curve(name, "instances")
        as_curve = result.curve(name, "ases")
        instance_rows.append(
            [
                name,
                format_percentage(availability_at(instance_curve, 5)),
                format_percentage(availability_at(instance_curve, 10)),
                format_percentage(availability_at(instance_curve, steps)),
            ]
        )
        as_rows.append(
            [
                name,
                format_percentage(availability_at(as_curve, 3)),
                format_percentage(availability_at(as_curve, 10)),
            ]
        )

    print(
        format_table(
            ["strategy", "top 5 instances gone", "top 10 gone", f"top {steps} gone"],
            instance_rows,
            title="Fig. 15/16 — toot availability under instance removal",
        )
    )
    print()
    print(
        format_table(
            ["strategy", "top 3 ASes gone", "top 10 ASes gone"],
            as_rows,
            title="Fig. 15 — toot availability under AS removal",
        )
    )

    summary = result.placements["subscription"].replication_summary()
    print()
    print(
        format_table(
            ["metric", "value", "paper"],
            [
                ["toots with no replica (subscription)", format_percentage(summary["share_without_replica"]), "9.7%"],
                ["toots with >10 replicas (subscription)", format_percentage(summary["share_with_more_than_10"]), "23%"],
            ],
            title="Why subscription replication underperforms",
        )
    )


if __name__ == "__main__":
    preset_arg = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    seed_arg = int(sys.argv[2]) if len(sys.argv) > 2 else 55
    main(preset_arg, seed_arg)
