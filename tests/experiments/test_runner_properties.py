"""Every runner, on any drawn micro scenario, answers or names what is missing.

For each drawn config (:func:`tests.strategies.micro_configs`) the
scenario is collected at a 2-hour monitor interval, and then each
registered runner must either return a result whose float scalars are
all finite or raise :class:`~repro.errors.AnalysisError` or
:class:`~repro.errors.DatasetError`.  Collect itself may refuse the
scenario with a ``DatasetError`` (no toot, or no follow edge, was
crawled).  The Twitter baseline is one small shared graph, so each
example pays only for its own scenario.  Two fixed examples make sure
the graph's empty paths run on every pass: a scenario whose follow
edges never cross instances (fig 6 has no flow), and one whose crawl
finds no follow edge at all (collect refuses the graph).
"""

from __future__ import annotations

import math
from functools import cache

from hypothesis import HealthCheck, example, given, settings

from repro.collect import collect_datasets
from repro.datasets import TwitterBaselines
from repro.errors import AnalysisError, DatasetError
from repro.experiments import ExperimentContext, run_experiment, runnable_ids
from repro.fediverse.workload import ScenarioConfig, ScenarioGenerator

from tests.strategies import micro_configs

MONITOR_INTERVAL = 120


@cache
def twitter() -> TwitterBaselines:
    return TwitterBaselines.generate(days=30, n_users=200, seed=3)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=micro_configs())
@example(
    config=ScenarioConfig(
        seed=0, label="micro", n_instances=2, total_users=4,
        mean_toots_per_user=3.0, window_days=5,
    )
)
@example(
    config=ScenarioConfig(
        seed=0, label="micro", n_instances=11, total_users=11,
        mean_toots_per_user=0.2, window_days=2,
        crawl_blocked_fraction=0.0, permanently_down_fraction=0.0,
    )
)
def test_every_runner_answers_or_raises_a_named_error(config):
    network = ScenarioGenerator(config).generate()
    try:
        data = collect_datasets(network, monitor_interval_minutes=MONITOR_INTERVAL)
    except DatasetError:
        return
    ctx = ExperimentContext.from_datasets(
        data,
        twitter=twitter(),
        preset="micro",
        seed=config.seed,
        monitor_interval_minutes=MONITOR_INTERVAL,
    )
    for experiment_id in runnable_ids():
        try:
            result = run_experiment(experiment_id, ctx)
        except (AnalysisError, DatasetError):
            continue
        for name, value in result.scalars.items():
            if isinstance(value, float):
                assert math.isfinite(value), (experiment_id, name, value)
