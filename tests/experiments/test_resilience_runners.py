"""fig12 and fig13 reach the engine's removal sweeps through the module.

The runners call ``repro.engine.resilience.*_removal_sweep_matrix`` as
attributes of the module, looked up at call time, so a wrapper installed
on those names (as perfbench's layer split installs its timers) sees
every sweep.  A name bound at import time (``from ... import``) would
bypass the wrapper, and the per-layer ``engine.graph_sweep`` time would
read zero.
"""

from __future__ import annotations

from repro.datasets import TwitterBaselines
from repro.engine import resilience as removal
from repro.experiments import ExperimentContext, run_experiment

# imported before any patch is installed, as in a process that has run
# experiments already: a name bound at import time then misses the patch
from repro.experiments import runners_resilience  # noqa: F401

SWEEPS = ("user_removal_sweep_matrix", "ranked_removal_sweep_matrix", "as_removal_sweep_matrix")


def test_fig12_and_fig13_call_every_patched_sweep(datasets, monkeypatch):
    calls = {name: 0 for name in SWEEPS}

    def counting(name, sweep):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return sweep(*args, **kwargs)

        return wrapper

    for name in SWEEPS:
        monkeypatch.setattr(removal, name, counting(name, getattr(removal, name)))
    twitter = TwitterBaselines.generate(days=30, n_users=300, seed=5)
    ctx = ExperimentContext.from_datasets(datasets, twitter=twitter, preset="tiny", seed=11)
    for experiment_id in ("fig12", "fig13"):
        run_experiment(experiment_id, ctx)
    assert calls == {
        "user_removal_sweep_matrix": 2,
        "ranked_removal_sweep_matrix": 3,
        "as_removal_sweep_matrix": 2,
    }
