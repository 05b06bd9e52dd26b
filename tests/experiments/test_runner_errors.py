"""Runners fail with a named error on scenarios too small for their figure.

Each case is a fixed micro scenario (3 instances, 60 users, 10 days)
collected at a 2-hour monitor interval, on which a runner used to crash
with an unnamed error: fig13's sweeps stop before the fifth removal its
scalars read, fig11's degree tails sit entirely at ``xmin``, and fig2
sees no closed instance to compare with the open ones.  fig7's case is
smaller still (2 instances, 2 users, 2 days): no instance that came
back had an outage, so there is no failure impact to report.
"""

from __future__ import annotations

import pytest

from repro.collect import collect_datasets
from repro.errors import AnalysisError
from repro.experiments import ExperimentContext, run_experiment
from repro.fediverse.workload import ScenarioConfig, ScenarioGenerator


def micro_context(seed: int, **sizes: object) -> ExperimentContext:
    config = ScenarioConfig(
        **{
            "seed": seed,
            "label": "micro",
            "n_instances": 3,
            "total_users": 60,
            "mean_toots_per_user": 3.0,
            "window_days": 10,
            **sizes,
        }
    )
    network = ScenarioGenerator(config).generate()
    data = collect_datasets(network, monitor_interval_minutes=120)
    return ExperimentContext.from_datasets(
        data, preset="micro", seed=seed, monitor_interval_minutes=120
    )


@pytest.mark.parametrize(
    ("experiment_id", "seed", "problem"),
    [
        ("fig13", 1, "after 5 removals"),
        ("fig11", 1, "every tail value equals xmin"),
        ("fig2", 5, "no closed instance"),
    ],
)
def test_runner_names_what_the_scenario_lacks(experiment_id, seed, problem):
    with pytest.raises(AnalysisError, match=problem):
        run_experiment(experiment_id, micro_context(seed))


def test_fig7_names_a_scenario_without_a_recovered_outage():
    ctx = micro_context(
        123,
        n_instances=2,
        total_users=2,
        mean_toots_per_user=0.5,
        window_days=2,
        crawl_blocked_fraction=0.0,
        permanently_down_fraction=0.0,
    )
    with pytest.raises(AnalysisError, match="no instance that came back had an outage"):
        run_experiment("fig7", ctx)
