"""Resilience study: what breaks the federation (Figs. 11-13).

Removes the most important users, instances and hosting ASes from the
social and federation graphs and reports how the largest connected
component and the number of components evolve — the Section 5.1
experiments, including the Twitter comparison.

Run with::

    python examples/resilience_study.py [preset] [seed]
"""

from __future__ import annotations

import sys

from repro import build_scenario, collect_datasets
from repro.core import resilience
from repro.datasets import TwitterBaselines
from repro.engine import resilience as removal
from repro.reporting import format_percentage, format_table


def main(preset: str = "tiny", seed: int = 33) -> None:
    network = build_scenario(preset, seed=seed)
    data = collect_datasets(network, monitor_interval_minutes=24 * 60)
    graphs = data.graphs
    instances = data.instances

    print(
        f"follower graph: {graphs.user_count()} accounts / {graphs.follow_edge_count()} edges; "
        f"federation graph: {graphs.instance_count()} instances / "
        f"{graphs.federation_edge_count()} edges\n"
    )

    # -- Fig. 12: removing top user accounts -------------------------------------
    twitter = TwitterBaselines.generate(days=30, n_users=graphs.user_count(), seed=seed)
    mastodon_steps = removal.user_removal_sweep_matrix(
        graphs.follower_matrix, rounds=10, fraction_per_round=0.01
    )
    twitter_steps = removal.user_removal_sweep_matrix(
        twitter.follower_matrix, rounds=10, fraction_per_round=0.01
    )
    rows = [
        [
            format_percentage(m.removed_fraction),
            format_percentage(m.lcc_fraction),
            format_percentage(t.lcc_fraction),
        ]
        for m, t in zip(mastodon_steps, twitter_steps)
    ]
    print(
        format_table(
            ["accounts removed", "Mastodon LCC", "Twitter LCC"],
            rows,
            title="Fig. 12 — removing the most-followed accounts",
        )
    )

    # -- Fig. 13(a): removing top instances --------------------------------------
    users = instances.users_per_instance()
    toots = instances.toots_per_instance()
    ranking = resilience.rank_instances(graphs, users, toots, by="users")
    steps = removal.ranked_removal_sweep_matrix(graphs.federation_matrix, ranking, steps=20)
    rows = [
        [step.removed_count, format_percentage(step.lcc_fraction), step.components]
        for step in steps[::4]
    ]
    print()
    print(
        format_table(
            ["instances removed", "LCC", "components"],
            rows,
            title="Fig. 13(a) — removing top instances (by users) from GF",
        )
    )

    # -- Fig. 13(b): removing whole ASes ------------------------------------------
    asn_of = {d: instances.metadata_for(d).asn for d in instances.domains()}
    as_ranking = resilience.rank_ases(asn_of, users, by="users")
    as_steps = removal.as_removal_sweep_matrix(
        graphs.federation_matrix, asn_of, as_ranking, steps=8
    )
    rows = [
        [index, format_percentage(step.lcc_fraction), step.components]
        for index, step in enumerate(as_steps)
    ]
    print()
    print(
        format_table(
            ["ASes removed", "LCC", "components"],
            rows,
            title="Fig. 13(b) — removing top ASes (by users hosted) from GF",
        )
    )
    drop = as_steps[0].lcc_fraction - as_steps[min(5, len(as_steps) - 1)].lcc_fraction
    print(
        f"\nRemoving five ASes cuts the federation LCC by {format_percentage(drop)} "
        "(the paper reports a drop from 92% to 46% of users)."
    )


if __name__ == "__main__":
    preset_arg = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    seed_arg = int(sys.argv[2]) if len(sys.argv) > 2 else 33
    main(preset_arg, seed_arg)
