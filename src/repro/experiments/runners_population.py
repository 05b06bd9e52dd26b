"""Runners for the population/centralisation experiments (Figs. 1-6, headlines).

Each runner reproduces one figure of Section 4 (growth, registrations,
categories, activities, hosting, federation flows) from the shared
:class:`~repro.experiments.context.ExperimentContext` pipeline and
returns a structured :class:`~repro.experiments.results.ExperimentResult`.
"""

from __future__ import annotations

from repro.core import categories, centralisation, growth, hosting
from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import register_runner
from repro.experiments.results import ExperimentResult, ResultSeries, ResultTable
from repro.reporting import format_percentage


@register_runner("fig1")
def run_fig1(ctx: ExperimentContext) -> ExperimentResult:
    series = growth.growth_timeseries(ctx.data.instances)
    summary = growth.growth_summary(ctx.data.instances)
    sampled = series[:: max(1, len(series) // 12)]
    days = [point.day for point in series]
    return ExperimentResult.build(
        "fig1",
        "Instances, users and toots over time",
        tables=[
            ResultTable.build(
                "Fig. 1 — population growth (sampled days)",
                ["day", "instances", "users", "toots"],
                [[p.day, p.instances, p.users, p.toots] for p in sampled],
            ),
            ResultTable.build(
                "Fig. 1 — growth summary",
                ["metric", "value"],
                [[key, round(value, 3)] for key, value in summary.items()],
            ),
        ],
        series=[
            ResultSeries.build(name, days, [getattr(p, name) for p in series],
                               x_label="day", y_label=name)
            for name in ("instances", "users", "toots")
        ],
        scalars={
            "initial_instances": series[0].instances,
            "final_instances": series[-1].instances,
            "initial_users": series[0].users,
            "final_users": series[-1].users,
            "final_toots": series[-1].toots,
        },
    )


@register_runner("fig2")
def run_fig2(ctx: ExperimentContext) -> ExperimentResult:
    count_cdfs = centralisation.per_instance_count_cdfs(ctx.data.instances)
    split = centralisation.registration_split(ctx.data.instances)
    activity_cdfs = centralisation.activity_level_cdfs(ctx.data.instances)
    for group in ("open", "closed"):
        if f"users_{group}" not in count_cdfs or group not in activity_cdfs:
            raise AnalysisError(
                f"fig2 compares open and closed registrations, but no {group} "
                f"instance was observed"
            )
    return ExperimentResult.build(
        "fig2",
        "Open vs closed registrations",
        tables=[
            ResultTable.build(
                "Fig. 2(a) — users/toots per instance by registration policy",
                ["series", "instances", "median", "p95"],
                [
                    [name, len(cdf), round(cdf.quantile(0.5), 1), round(cdf.quantile(0.95), 1)]
                    for name, cdf in sorted(count_cdfs.items())
                ],
            ),
            ResultTable.build(
                "Fig. 2(b) — share of instances/users/toots by registration policy",
                ["registration", "instances", "users", "toots", "toots per user"],
                [
                    ["open", split.open_instances, split.open_users, split.open_toots,
                     round(split.toots_per_user_open, 1)],
                    ["closed", split.closed_instances, split.closed_users, split.closed_toots,
                     round(split.toots_per_user_closed, 1)],
                ],
            ),
            ResultTable.build(
                "Fig. 2(c) — per-instance activity levels (max weekly active share)",
                ["group", "median", "p90"],
                [
                    [name, round(cdf.quantile(0.5), 2), round(cdf.quantile(0.9), 2)]
                    for name, cdf in sorted(activity_cdfs.items())
                ],
            ),
        ],
        scalars={
            "users_open_median": count_cdfs["users_open"].quantile(0.5),
            "users_closed_median": count_cdfs["users_closed"].quantile(0.5),
            "open_user_share": split.open_user_share,
            "mean_users_open": split.mean_users_open,
            "mean_users_closed": split.mean_users_closed,
            "toots_per_user_open": split.toots_per_user_open,
            "toots_per_user_closed": split.toots_per_user_closed,
            "activity_median_open": activity_cdfs["open"].quantile(0.5),
            "activity_median_closed": activity_cdfs["closed"].quantile(0.5),
        },
    )


@register_runner("fig3")
def run_fig3(ctx: ExperimentContext) -> ExperimentResult:
    shares = categories.category_breakdown(ctx.data.instances)
    coverage = categories.tagging_coverage(ctx.data.instances)
    by_category = {share.category: share for share in shares}
    scalars: dict[str, object] = {
        "category_count": len(shares),
        "largest_instance_share": shares[0].instance_share,
        "smallest_instance_share": shares[-1].instance_share,
        "instance_coverage": coverage["instance_coverage"],
    }
    if "adult" in by_category:
        scalars["adult_instance_share"] = by_category["adult"].instance_share
        scalars["adult_user_share"] = by_category["adult"].user_share
    if "tech" in by_category:
        scalars["tech_instance_share"] = by_category["tech"].instance_share
    return ExperimentResult.build(
        "fig3",
        "Instance categories",
        tables=[
            ResultTable.build(
                "Fig. 3 — category shares (of the tagged subset)",
                ["category", "instances", "toots", "users"],
                [
                    [s.category, format_percentage(s.instance_share),
                     format_percentage(s.toot_share), format_percentage(s.user_share)]
                    for s in shares
                ],
            ),
            ResultTable.build(
                "Fig. 3 — tagging coverage",
                ["metric", "value"],
                [[key, round(value, 3)] for key, value in coverage.items()],
            ),
        ],
        scalars=scalars,
    )


@register_runner("fig4")
def run_fig4(ctx: ExperimentContext) -> ExperimentResult:
    shares = categories.activity_breakdown(ctx.data.instances)
    coverage = categories.policy_coverage(ctx.data.instances)
    by_prohibited = sorted(shares, key=lambda s: s.prohibit_instance_share, reverse=True)
    spam = next((share for share in shares if share.activity == "spam"), None)
    scalars: dict[str, object] = {
        "activity_count": len(shares),
        "allow_all_share": coverage["allow_all_share"],
    }
    if spam is not None:
        scalars["spam_prohibit_share"] = spam.prohibit_instance_share
        scalars["spam_prohibit_rank"] = by_prohibited.index(spam) + 1
    return ExperimentResult.build(
        "fig4",
        "Prohibited and allowed activities",
        tables=[
            ResultTable.build(
                "Fig. 4 — prohibited/allowed activities",
                ["activity", "prohibited (instances)", "allowed (instances)",
                 "allowed (users)", "allowed (toots)"],
                [
                    [s.activity, format_percentage(s.prohibit_instance_share),
                     format_percentage(s.allow_instance_share),
                     format_percentage(s.allow_user_share),
                     format_percentage(s.allow_toot_share)]
                    for s in shares
                ],
            ),
            ResultTable.build(
                "Fig. 4 — activity-policy coverage",
                ["metric", "value"],
                [[key, round(value, 3)] for key, value in coverage.items()],
            ),
        ],
        scalars=scalars,
    )


@register_runner("fig5")
def run_fig5(ctx: ExperimentContext) -> ExperimentResult:
    countries = hosting.country_breakdown(ctx.data.instances, top=5)
    ases = hosting.asn_breakdown(ctx.data.instances, top=5)
    top3_as = hosting.top_as_user_share(ctx.data.instances, top=3)

    def share_rows(shares):
        return [
            [s.key, format_percentage(s.instance_share),
             format_percentage(s.toot_share), format_percentage(s.user_share)]
            for s in shares
        ]

    return ExperimentResult.build(
        "fig5",
        "Hosting countries and ASes",
        tables=[
            ResultTable.build(
                "Fig. 5 (top) — top-5 countries",
                ["country", "instances", "toots", "users"],
                share_rows(countries),
            ),
            ResultTable.build(
                "Fig. 5 (bottom) — top-5 ASes",
                ["AS", "instances", "toots", "users"],
                share_rows(ases),
            ),
        ],
        scalars={
            "top_country": countries[0].key,
            "top_country_instance_share": countries[0].instance_share,
            "top_country_user_share": countries[0].user_share,
            "top_as_instance_share": ases[0].instance_share,
            "top_as_user_share": ases[0].user_share,
            "top3_as_user_share": top3_as,
        },
    )


@register_runner("fig6")
def run_fig6(ctx: ExperimentContext) -> ExperimentResult:
    federation = ctx.data.graphs.federation_edge_counts()
    flows = hosting.country_federation_flows(federation, ctx.data.instances, top_sources=5)
    metrics = hosting.federation_homophily(federation, ctx.data.instances)
    return ExperimentResult.build(
        "fig6",
        "Cross-country federation flows",
        tables=[
            ResultTable.build(
                "Fig. 6 — cross-country federation flows (top sources)",
                ["from", "to", "links", "share of source"],
                [
                    [flow.source_country, flow.target_country, flow.links,
                     format_percentage(flow.share_of_source)]
                    for flow in flows[:20]
                ],
            ),
            ResultTable.build(
                "Fig. 6 — homophily summary",
                ["metric", "value", "paper"],
                [
                    ["same-country link share",
                     format_percentage(metrics["same_country_share"]), "32%"],
                    ["top-5 country link share",
                     format_percentage(metrics["top5_country_link_share"]), "93.7%"],
                    ["total federated links", int(metrics["total_links"]), "-"],
                ],
            ),
        ],
        scalars={
            "flow_count": len(flows),
            "same_country_share": metrics["same_country_share"],
            "top5_country_link_share": metrics["top5_country_link_share"],
            "total_links": int(metrics["total_links"]),
        },
    )


@register_runner("headline")
def run_headline(ctx: ExperimentContext) -> ExperimentResult:
    metrics = centralisation.concentration_metrics(ctx.data.instances)
    half_fraction = centralisation.smallest_fraction_hosting_share(ctx.data.instances, share=0.5)
    return ExperimentResult.build(
        "headline",
        "Section 4.1 concentration headlines",
        tables=[
            ResultTable.build(
                "Section 4.1 — concentration headlines",
                ["metric", "measured", "paper"],
                [
                    ["top 5% instances: user share",
                     format_percentage(metrics["top5pct_user_share"]), "90.6%"],
                    ["top 5% instances: toot share",
                     format_percentage(metrics["top5pct_toot_share"]), "94.8%"],
                    ["top 10% instances: user share",
                     format_percentage(metrics["top10pct_user_share"]), ">=50%"],
                    ["instances needed for 50% of users",
                     format_percentage(half_fraction), "<=10%"],
                    ["user Gini coefficient", round(metrics["user_gini"], 2), "-"],
                    ["toot Gini coefficient", round(metrics["toot_gini"], 2), "-"],
                ],
            )
        ],
        scalars={
            "top5pct_user_share": metrics["top5pct_user_share"],
            "top5pct_toot_share": metrics["top5pct_toot_share"],
            "top10pct_user_share": metrics["top10pct_user_share"],
            "half_user_fraction": half_fraction,
            "user_gini": metrics["user_gini"],
            "toot_gini": metrics["toot_gini"],
        },
    )
