"""Runners fail with a named error on scenarios too small for their figure.

Each case is a fixed micro scenario (3 instances, 60 users, 10 days)
collected at a 2-hour monitor interval, on which a runner used to crash
with an unnamed error: fig13's sweeps stop before the fifth removal its
scalars read, fig11's degree tails sit entirely at ``xmin``, and fig2
sees no closed instance to compare with the open ones.
"""

from __future__ import annotations

import pytest

from repro.collect import collect_datasets
from repro.errors import AnalysisError
from repro.experiments import ExperimentContext, run_experiment
from repro.fediverse.workload import ScenarioConfig, ScenarioGenerator


def micro_context(seed: int) -> ExperimentContext:
    config = ScenarioConfig(
        seed=seed,
        label="micro",
        n_instances=3,
        total_users=60,
        mean_toots_per_user=3.0,
        window_days=10,
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
