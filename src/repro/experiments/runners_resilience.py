"""Runners for the graph-resilience experiments (Figs. 11-14, Table 2).

Section 5.1's removal sweeps are the engine's
(:mod:`repro.engine.resilience`), called through the module so that a
wrapper installed on the module's names (perfbench's layer split) sees
every sweep; :mod:`repro.core.resilience` supplies the degree
distributions and the rankings.
"""

from __future__ import annotations

import numpy as np

from repro.core import federation_analysis, resilience
from repro.engine import resilience as removal
from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import register_runner
from repro.experiments.results import ExperimentResult, ResultSeries, ResultTable
from repro.reporting import format_percentage
from repro.stats.distributions import fit_power_law_exponent

FIG12_ROUNDS = 10
FIG13_INSTANCE_STEPS = 30
FIG13_AS_STEPS = 15
#: The removal round fig13's scalars read (its "after 5" values).
FIG13_SCALAR_ROUND = 5


@register_runner("fig11")
def run_fig11(ctx: ExperimentContext) -> ExperimentResult:
    follower_degrees = ctx.data.graphs.out_degrees()
    federation_degrees = ctx.data.graphs.federation_out_degrees()
    twitter_degrees = ctx.twitter.follower_matrix.out_degrees().tolist()
    cdfs = {
        "mastodon_users": resilience.degree_cdf([d for d in follower_degrees if d > 0]),
        "mastodon_instances": resilience.degree_cdf([d for d in federation_degrees if d > 0]),
        "twitter_users": resilience.degree_cdf([d for d in twitter_degrees if d > 0]),
    }
    rows = []
    scalars: dict[str, object] = {}
    series = []
    for name, cdf in cdfs.items():
        sample = list(cdf.values)
        median = float(np.median(sample))
        p99 = cdf.quantile(0.99)
        rows.append(
            [name, len(sample), round(median, 1), round(p99, 1),
             round(fit_power_law_exponent(sample), 2)]
        )
        scalars[f"{name}_nodes"] = len(sample)
        scalars[f"{name}_median_degree"] = median
        scalars[f"{name}_p99_degree"] = p99
        xs, ys = cdf.series()
        series.append(ResultSeries.build(name, xs, ys, x_label="out-degree", y_label="CDF"))
    return ExperimentResult.build(
        "fig11",
        "Degree distributions",
        tables=[
            ResultTable.build(
                "Fig. 11 — out-degree distributions",
                ["graph", "nodes", "median degree", "p99 degree", "power-law exponent"],
                rows,
            )
        ],
        series=series,
        scalars=scalars,
    )


@register_runner("fig12")
def run_fig12(ctx: ExperimentContext) -> ExperimentResult:
    mastodon_steps = removal.user_removal_sweep_matrix(
        ctx.data.graphs.follower_matrix, rounds=FIG12_ROUNDS, fraction_per_round=0.01
    )
    twitter_steps = removal.user_removal_sweep_matrix(
        ctx.twitter.follower_matrix, rounds=FIG12_ROUNDS, fraction_per_round=0.01
    )
    return ExperimentResult.build(
        "fig12",
        "Removing top user accounts",
        tables=[
            ResultTable.build(
                "Fig. 12 — removing the top 1% of accounts per round",
                ["removed", "Mastodon LCC", "Mastodon components",
                 "Twitter LCC", "Twitter components"],
                [
                    [format_percentage(m.removed_fraction), format_percentage(m.lcc_fraction),
                     m.components, format_percentage(t.lcc_fraction), t.components]
                    for m, t in zip(mastodon_steps, twitter_steps)
                ],
            )
        ],
        series=[
            ResultSeries.build(
                "mastodon_lcc",
                [step.removed_fraction for step in mastodon_steps],
                [step.lcc_fraction for step in mastodon_steps],
                x_label="removed fraction",
                y_label="LCC fraction",
            ),
            ResultSeries.build(
                "twitter_lcc",
                [step.removed_fraction for step in twitter_steps],
                [step.lcc_fraction for step in twitter_steps],
                x_label="removed fraction",
                y_label="LCC fraction",
            ),
        ],
        scalars={
            "mastodon_initial_lcc": mastodon_steps[0].lcc_fraction,
            "mastodon_final_lcc": mastodon_steps[-1].lcc_fraction,
            "mastodon_lcc_drop": mastodon_steps[0].lcc_fraction - mastodon_steps[-1].lcc_fraction,
            "twitter_lcc_drop": twitter_steps[0].lcc_fraction - twitter_steps[-1].lcc_fraction,
        },
    )


@register_runner("fig13")
def run_fig13(ctx: ExperimentContext) -> ExperimentResult:
    graphs = ctx.data.graphs
    federation = graphs.federation_matrix
    users = ctx.users_per_instance
    reported_toots = ctx.data.instances.toots_per_instance()

    instance_sweeps: dict[str, list[removal.RemovalStep]] = {}
    for criterion in ("users", "toots", "connections"):
        ranking = resilience.rank_instances(graphs, users, reported_toots, by=criterion)
        instance_sweeps[criterion] = removal.ranked_removal_sweep_matrix(
            federation, ranking, steps=FIG13_INSTANCE_STEPS, per_step=1
        )

    by_instances = removal.as_removal_sweep_matrix(
        federation, ctx.asn_of, ctx.as_ranking("instances"), steps=FIG13_AS_STEPS
    )
    by_users = removal.as_removal_sweep_matrix(
        federation, ctx.asn_of, ctx.as_ranking("users"), steps=FIG13_AS_STEPS
    )

    rounds = min(len(steps) for steps in (by_instances, by_users, *instance_sweeps.values()))
    if rounds <= FIG13_SCALAR_ROUND:
        raise AnalysisError(
            f"fig13 reads the graph after {FIG13_SCALAR_ROUND} removals, but a sweep "
            f"stopped after {rounds - 1}"
        )

    instance_rows = []
    for removed in (0, 5, 10, 20, 30):
        row: list[object] = [removed]
        for criterion in ("users", "toots", "connections"):
            steps = instance_sweeps[criterion]
            step = steps[min(removed, len(steps) - 1)]
            row.append(format_percentage(step.lcc_fraction))
        instance_rows.append(row)

    scalars: dict[str, object] = {
        "as_by_instances_initial_lcc": by_instances[0].lcc_fraction,
        "as_by_instances_lcc_after_5": by_instances[FIG13_SCALAR_ROUND].lcc_fraction,
        "as_by_instances_components_after_5": by_instances[FIG13_SCALAR_ROUND].components,
        "as_by_users_components_after_5": by_users[FIG13_SCALAR_ROUND].components,
    }
    for criterion, steps in instance_sweeps.items():
        fractions = [step.lcc_fraction for step in steps]
        scalars[f"instance_{criterion}_monotonic"] = all(
            a >= b - 1e-9 for a, b in zip(fractions, fractions[1:])
        )
        scalars[f"instance_{criterion}_initial_lcc"] = fractions[0]
        scalars[f"instance_{criterion}_lcc_after_5"] = fractions[FIG13_SCALAR_ROUND]

    return ExperimentResult.build(
        "fig13",
        "Removing top instances and ASes from the federation graph",
        tables=[
            ResultTable.build(
                "Fig. 13(a) — LCC of GF after removing top-N instances",
                ["instances removed", "by users", "by toots", "by connections"],
                instance_rows,
            ),
            ResultTable.build(
                "Fig. 13(b) — LCC/components of GF after removing top-N ASes",
                ["ASes removed", "LCC (rank by instances)", "components",
                 "LCC (rank by users)", "components"],
                [
                    [index, format_percentage(step_i.lcc_fraction), step_i.components,
                     format_percentage(step_u.lcc_fraction), step_u.components]
                    for index, (step_i, step_u) in enumerate(zip(by_instances, by_users))
                ],
            ),
        ],
        series=[
            ResultSeries.build(
                "as_removal_by_instances",
                list(range(len(by_instances))),
                [step.lcc_fraction for step in by_instances],
                x_label="ASes removed",
                y_label="LCC fraction",
            ),
            ResultSeries.build(
                "as_removal_by_users",
                list(range(len(by_users))),
                [step.lcc_fraction for step in by_users],
                x_label="ASes removed",
                y_label="LCC fraction",
            ),
        ],
        scalars=scalars,
    )


@register_runner("fig14")
def run_fig14(ctx: ExperimentContext) -> ExperimentResult:
    points = federation_analysis.home_remote_series(ctx.data.toots)
    summary = federation_analysis.feeder_summary(ctx.data.toots)
    sampled = points[:: max(1, len(points) // 12)]
    home_shares = [point.home_share for point in points]
    return ExperimentResult.build(
        "fig14",
        "Home vs remote toots",
        tables=[
            ResultTable.build(
                "Fig. 14 — home vs remote toots per federated timeline (ordered by home share)",
                ["instance", "home", "remote", "timeline toots"],
                [
                    [point.domain, format_percentage(point.home_share),
                     format_percentage(point.remote_share), point.total_toots]
                    for point in sampled
                ],
            ),
            ResultTable.build(
                "Fig. 14 — feeder summary",
                ["metric", "measured", "paper"],
                [
                    ["instances with <10% home toots",
                     format_percentage(summary["share_under_10pct_home"]), "78%"],
                    ["instances fully remote",
                     format_percentage(summary["share_fully_remote"]), "5%"],
                    ["toots vs replication correlation",
                     round(summary["toots_vs_replication_correlation"], 2), "0.97"],
                ],
            ),
        ],
        series=[
            ResultSeries.build(
                "home_share",
                list(range(len(points))),
                home_shares,
                x_label="instance rank",
                y_label="home toot share",
            )
        ],
        scalars={
            "instance_count": len(points),
            "home_shares_sorted": home_shares == sorted(home_shares),
            "share_under_10pct_home": summary["share_under_10pct_home"],
            "share_fully_remote": summary["share_fully_remote"],
            "toots_vs_replication_correlation": summary["toots_vs_replication_correlation"],
        },
    )


@register_runner("table2")
def run_table2(ctx: ExperimentContext) -> ExperimentResult:
    rows_data = federation_analysis.top_instances_report(
        ctx.data.toots, ctx.data.graphs, ctx.data.instances, top=10
    )
    home_toots = [row.home_toots for row in rows_data]
    return ExperimentResult.build(
        "table2",
        "Top-10 instances",
        tables=[
            ResultTable.build(
                "Table 2 — top 10 instances by home toots",
                ["Domain", "Home toots", "Users", "U-OD", "U-ID",
                 "T-OD", "T-ID", "I-OD", "I-ID", "Run by", "AS (country)"],
                [
                    [row.domain, row.home_toots, row.users,
                     row.user_out_degree, row.user_in_degree,
                     row.toot_out_degree, row.toot_in_degree,
                     row.instance_out_degree, row.instance_in_degree,
                     row.operator, f"{row.as_name} ({row.country})"]
                    for row in rows_data
                ],
            )
        ],
        scalars={
            "row_count": len(rows_data),
            "top_domain": rows_data[0].domain if rows_data else None,
            "home_toots_sorted_desc": home_toots == sorted(home_toots, reverse=True),
            "top_has_federation_degree": bool(
                rows_data
                and (rows_data[0].instance_out_degree > 0 or rows_data[0].instance_in_degree > 0)
            ),
            "all_as_names_present": all(bool(row.as_name) for row in rows_data),
        },
    )
