"""The failure-simulation engine: sparse-matrix kernels for Figs. 11-16.

The engine is the vectorised substrate under :mod:`repro.core.replication`
and :mod:`repro.core.resilience`.  It models the expensive objects once —

* :class:`PlacementArrays` — integer-coded placements (per-toot home
  codes plus replica CSR arrays) built from a columnar corpus by
  :meth:`PlacementArrays.from_corpus` (:mod:`repro.engine.placement`):
  batched random draws (Gumbel top-k for the weighted case) and a
  one-pass subscription expansion;
* :class:`TootIncidence` — a toot×instance CSR incidence matrix built
  from a :class:`~repro.core.replication.PlacementMap` (plus an
  instance→AS assignment vector), assembled directly from the arrays
  backend and memoised per placement map;
* :class:`GraphMatrix` — a binary CSR adjacency matrix with the node
  ordering of the source :mod:`networkx` graph —

and then answers whole experiments with batch numpy/scipy reductions:
entire availability curves per failure schedule
(:mod:`repro.engine.kernels`), whole LCC/component removal trajectories
(:mod:`repro.engine.resilience`), and full (strategy × failure × seed)
grids in one call (:mod:`repro.engine.sweep`).  Past the auto-shard
threshold — or on request via ``shard_size`` — evaluation streams
through :class:`ShardedIncidence` (:mod:`repro.engine.sharding`):
per-toot-range incidence shards assembled lazily and reduced to additive
loss tables, so peak memory is O(shard) with bit-identical output.

The public functions in :mod:`repro.core` remain the stable API; they
dispatch here and are held to *bit-identical* outputs by the
differential suite in ``tests/engine/test_equivalence.py``.  New failure
models subclass :class:`FailureModel` — see :mod:`repro.engine.failures`.
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
from repro.engine.incidence import DomainLookup, NEVER_REMOVED, TootIncidence
from repro.engine.sharding import (
    AUTO_SHARD_THRESHOLD,
    DEFAULT_SHARD_SIZE,
    IncidenceShard,
    ShardedIncidence,
    kill_vector,
    sharded_availability_curves,
    streaming_losses,
)
from repro.engine.placement import PlacementArrays
from repro.engine.kernels import (
    availability_curve_array,
    availability_curves_batch,
    availability_from_losses,
    kill_steps,
    kill_steps_batch,
    losses_per_step,
    losses_per_step_batch,
    temporal_availability_from_counts,
    temporal_removal_matrix,
)
from repro.engine.resilience import (
    GraphMatrix,
    as_removal_sweep_matrix,
    ranked_removal_sweep_matrix,
    user_removal_sweep_matrix,
)
from repro.engine.sweep import (
    StrategySpec,
    SweepResult,
    availability_curve,
    availability_curves,
    random_strategy_grid,
    run_availability_sweep,
)

__all__ = [
    "ASRemoval",
    "AUTO_SHARD_THRESHOLD",
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
    "ShardedIncidence",
    "StrategySpec",
    "SweepResult",
    "TootIncidence",
    "as_removal_sweep_matrix",
    "availability_curve",
    "availability_curve_array",
    "availability_curves",
    "availability_curves_batch",
    "availability_from_losses",
    "kill_steps",
    "kill_steps_batch",
    "kill_vector",
    "losses_per_step",
    "losses_per_step_batch",
    "random_strategy_grid",
    "ranked_removal_sweep_matrix",
    "run_availability_sweep",
    "sharded_availability_curves",
    "streaming_losses",
    "temporal_availability_from_counts",
    "temporal_removal_matrix",
    "user_removal_sweep_matrix",
]
