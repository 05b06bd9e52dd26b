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
"""

from repro.engine.failures import (
    ASRemoval,
    CountryRemoval,
    FailureModel,
    GroupedRemoval,
    HosterRemoval,
    InstanceRemoval,
    ScheduledDowntime,
    TemporalChurn,
    TemporalFailureModel,
)
from repro.engine.incidence import DomainLookup, NEVER_REMOVED
from repro.engine.sharding import (
    DEFAULT_SHARD_SIZE,
    IncidenceShard,
    ShardedIncidence,
    kill_vector,
    streaming_losses,
)
from repro.engine.placement import PlacementArrays
from repro.engine.kernels import (
    availability_from_losses,
    losses_per_step,
    losses_per_step_batch,
    temporal_availability_from_counts,
    temporal_removal_matrix,
)
from repro.engine.resilience import (
    GraphMatrix,
    RemovalStep,
    as_removal_sweep_matrix,
    ranked_removal_sweep_matrix,
    user_removal_sweep_matrix,
)
from repro.engine.sweep import (
    AvailabilityPoint,
    StrategySpec,
    SweepResult,
    availability_at,
    availability_curve,
    availability_curves,
    random_strategy_grid,
    run_availability_sweep,
)

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
