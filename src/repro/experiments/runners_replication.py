"""Runners for the replication experiments (Figs. 15-16).

Both figures are engine sweeps (:meth:`ExperimentContext.sweep`): one
placement per strategy, every removal schedule folded over it by the
kill kernel.  The context memoises the
:class:`~repro.engine.placement.PlacementArrays` per
:class:`~repro.engine.sweep.StrategySpec` and the failure models of the
standard grid, so fig15 and fig16 share the ``no-rep``/``s-rep``
placements and the ``instances/by_toots`` curves instead of rebuilding
them.
"""

from __future__ import annotations

from repro.engine import StrategySpec, availability_at
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import register_runner
from repro.experiments.results import ExperimentResult, ResultSeries, ResultTable
from repro.reporting import format_percentage

FIG16_REPLICA_COUNTS = (1, 2, 3, 4, 7, 9)
FIG16_SEED = 7


def _curve_series(name: str, curve) -> ResultSeries:
    return ResultSeries.build(
        name,
        [point.removed for point in curve],
        [point.availability for point in curve],
        x_label="removed",
        y_label="availability",
    )


@register_runner("fig15")
def run_fig15(ctx: ExperimentContext) -> ExperimentResult:
    failures = ctx.standard_failures()
    result = ctx.sweep(
        [StrategySpec.none(), StrategySpec.subscription()],
        failures,
        keep_placements=True,
    )

    def at(strategy: str, failure: str, removed: int) -> float:
        return availability_at(result.curve(strategy, failure), removed)

    instance_rows = [
        [removed,
         format_percentage(at("no-rep", "instances/by_toots", removed)),
         format_percentage(at("no-rep", "instances/by_users", removed)),
         format_percentage(at("no-rep", "instances/by_connections", removed))]
        for removed in (0, 5, 10, 25, 50)
    ]
    as_rows = [
        [removed,
         format_percentage(at("no-rep", "ases/by_instances", removed)),
         format_percentage(at("no-rep", "ases/by_users", removed))]
        for removed in (0, 3, 5, 10, 15)
    ]
    srep_rows = [
        [removed,
         format_percentage(at("no-rep", "instances/by_toots", removed)),
         format_percentage(at("s-rep", "instances/by_toots", removed))]
        for removed in (0, 5, 10, 25, 50)
    ]
    summary = result.placements["s-rep"].replication_summary()

    return ExperimentResult.build(
        "fig15",
        "Toot availability without and with subscription replication",
        tables=[
            ResultTable.build(
                "Fig. 15(a,b) — toot availability, no replication (instance removal)",
                ["instances removed", "rank by toots", "rank by users", "rank by connections"],
                instance_rows,
            ),
            ResultTable.build(
                "Fig. 15(a) — toot availability, no replication (AS removal)",
                ["ASes removed", "rank by instances", "rank by users"],
                as_rows,
            ),
            ResultTable.build(
                "Fig. 15(c,d) — subscription replication vs no replication "
                "(instance removal by toots)",
                ["instances removed", "no replication", "subscription replication"],
                srep_rows,
            ),
            ResultTable.build(
                "Fig. 15 — subscription replication placement summary",
                ["metric", "measured", "paper"],
                [
                    ["toots without any replica",
                     format_percentage(summary["share_without_replica"]), "9.7%"],
                    ["toots with >10 replicas",
                     format_percentage(summary["share_with_more_than_10"]), "23%"],
                    ["mean replicas per toot", round(summary["mean_replicas"], 2), "-"],
                ],
            ),
        ],
        series=[
            _curve_series("no-rep/instances_by_toots",
                          result.curve("no-rep", "instances/by_toots")),
            _curve_series("s-rep/instances_by_toots",
                          result.curve("s-rep", "instances/by_toots")),
            _curve_series("no-rep/ases_by_users", result.curve("no-rep", "ases/by_users")),
            _curve_series("s-rep/ases_by_users", result.curve("s-rep", "ases/by_users")),
        ],
        scalars={
            "no_rep_top10_instances_by_toots": at("no-rep", "instances/by_toots", 10),
            "no_rep_top10_ases_by_users": at("no-rep", "ases/by_users", 10),
            "s_rep_top10_instances_by_toots": at("s-rep", "instances/by_toots", 10),
            "s_rep_top10_ases_by_users": at("s-rep", "ases/by_users", 10),
            "share_without_replica": summary["share_without_replica"],
            "share_with_more_than_10": summary["share_with_more_than_10"],
            "mean_replicas": summary["mean_replicas"],
        },
    )


@register_runner("fig16")
def run_fig16(ctx: ExperimentContext) -> ExperimentResult:
    capacity = {domain: 1.0 + users for domain, users in ctx.users_per_instance.items()}
    strategies = [
        StrategySpec.none(name="no-rep"),
        StrategySpec.subscription(name="s-rep"),
        *(StrategySpec.random(n, seed=FIG16_SEED, name=f"n={n}") for n in FIG16_REPLICA_COUNTS),
        StrategySpec.random(2, seed=FIG16_SEED, weights=capacity, name="n=2/weighted"),
    ]
    # the same removal schedule fig15 uses, so the sweep shares its failure model
    failure = next(f for f in ctx.standard_failures() if f.name == "instances/by_toots")
    result = ctx.sweep(strategies, [failure])

    removals = (5, 10, 25, 50)
    rows = [
        [row[0]] + [format_percentage(value) for value in row[1:]]
        for row in result.availability_rows(failure.name, removals)
    ]
    at25 = result.compare(failure.name, 25)

    return ExperimentResult.build(
        "fig16",
        "Random replication",
        tables=[
            ResultTable.build(
                "Fig. 16 — toot availability when removing top instances (by toots)",
                ["strategy"] + [f"top {r} removed" for r in removals],
                rows,
            )
        ],
        series=[
            _curve_series(name, result.curve(name, failure.name))
            for name in result.strategy_names
        ],
        scalars={f"at25[{name}]": value for name, value in at25.items()},
    )
