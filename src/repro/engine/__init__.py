"""The failure-simulation engine: array kernels for Figs. 12-16.

Every resilience and replication result of the paper is computed here:

* :class:`PlacementArrays` — integer-coded placements (per-toot home
  codes plus replica CSR arrays) built from a columnar corpus
  (:mod:`repro.engine.placement`); :class:`StrategySpec` names the
  no, subscription and random replication strategies that build them;
* one kill kernel (:mod:`repro.engine.kernels`): a toot dies at the
  latest removal step among its holders, read straight from the arrays,
  one toot range at a time (:class:`ShardedIncidence`,
  :mod:`repro.engine.sharding`); every availability curve (a list of
  :class:`AvailabilityPoint`), temporal series and serve kill vector is
  a fold of additive loss counts over those ranges, bit-identical at
  any split;
* :class:`GraphMatrix` and whole LCC/component removal trajectories (a
  list of :class:`RemovalStep`, :mod:`repro.engine.resilience`), and
  (strategy × failure × seed) grids in one call (:mod:`repro.engine.sweep`).

The engine imports nothing from :mod:`repro.core`, whose analyses
(degree distributions, instance and AS rankings) feed it removal
orders.  ``tests/engine/test_equivalence.py`` holds the engine to
*bit-identical* outputs against the reference loops and the CSR
incidence kept in ``tests/reference/``.  New failure models subclass
:class:`FailureModel` — see :mod:`repro.engine.failures`.

The names below resolve on first use (a module-level ``__getattr__``,
PEP 562), each by importing the module that defines it: the placement,
kernel and sweep modules need only numpy, and networkx and
``scipy.sparse.csgraph`` load with :mod:`repro.engine.resilience` alone.
"""

from __future__ import annotations

import importlib

#: The module that defines each name re-exported here; ``__getattr__``
#: imports it the first time the name is looked up.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ASRemoval",
            "CountryRemoval",
            "FailureModel",
            "GroupedRemoval",
            "HosterRemoval",
            "InstanceRemoval",
            "ScheduledDowntime",
            "TemporalChurn",
            "TemporalFailureModel",
        ),
        "repro.engine.failures",
    ),
    **dict.fromkeys(("DomainLookup", "NEVER_REMOVED"), "repro.engine.incidence"),
    **dict.fromkeys(
        (
            "DEFAULT_SHARD_SIZE",
            "IncidenceShard",
            "ShardedIncidence",
            "kill_vector",
            "streaming_losses",
        ),
        "repro.engine.sharding",
    ),
    "PlacementArrays": "repro.engine.placement",
    **dict.fromkeys(
        (
            "availability_from_losses",
            "losses_per_step",
            "losses_per_step_batch",
            "temporal_availability_from_counts",
            "temporal_removal_matrix",
        ),
        "repro.engine.kernels",
    ),
    **dict.fromkeys(
        (
            "GraphMatrix",
            "RemovalStep",
            "as_removal_sweep_matrix",
            "ranked_removal_sweep_matrix",
            "user_removal_sweep_matrix",
        ),
        "repro.engine.resilience",
    ),
    **dict.fromkeys(
        (
            "AvailabilityPoint",
            "StrategySpec",
            "SweepResult",
            "availability_at",
            "availability_curve",
            "availability_curves",
            "random_strategy_grid",
            "run_availability_sweep",
        ),
        "repro.engine.sweep",
    ),
}

__all__ = [
    "ASRemoval",
    "AvailabilityPoint",
    "CountryRemoval",
    "DEFAULT_SHARD_SIZE",
    "DomainLookup",
    "FailureModel",
    "GraphMatrix",
    "GroupedRemoval",
    "HosterRemoval",
    "IncidenceShard",
    "InstanceRemoval",
    "NEVER_REMOVED",
    "ScheduledDowntime",
    "TemporalChurn",
    "TemporalFailureModel",
    "PlacementArrays",
    "RemovalStep",
    "ShardedIncidence",
    "StrategySpec",
    "SweepResult",
    "as_removal_sweep_matrix",
    "availability_at",
    "availability_curve",
    "availability_curves",
    "availability_from_losses",
    "kill_vector",
    "losses_per_step",
    "losses_per_step_batch",
    "random_strategy_grid",
    "ranked_removal_sweep_matrix",
    "run_availability_sweep",
    "streaming_losses",
    "temporal_availability_from_counts",
    "temporal_removal_matrix",
    "user_removal_sweep_matrix",
]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
