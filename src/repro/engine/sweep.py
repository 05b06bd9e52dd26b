"""The sweep API: many (strategy, failure, seed) combinations in one call.

The expensive part of an availability experiment is the per-strategy
incidence matrix; every failure schedule after that is a cheap batched
reduction.  ``run_availability_sweep`` exploits exactly that: one
:class:`~repro.engine.incidence.TootIncidence` per placement strategy,
then one :func:`~repro.engine.kernels.kill_steps_batch` pass covering
every failure model.  Every strategy builds from the columns of the
toot corpus (:meth:`StrategySpec.build_from_corpus`).  Seeds are just
more strategies (:meth:`StrategySpec.random` embeds the seed in the
spec), so a (strategy × ranking × seed) grid is a single call that
returns every curve, ready for :mod:`repro.reporting`.

Incidence matrices are memoised per placement map
(:meth:`TootIncidence.from_placements`), so repeated
:func:`availability_curves` calls on the same :class:`PlacementMap` —
across sweeps, wrappers, or ad-hoc experiments — rebuild nothing.

Past a million toots the full incidence matrix itself becomes the
memory ceiling, so :func:`availability_curves` and
:func:`run_availability_sweep` take a ``shard_size`` knob:
arrays-backed placements are then evaluated shard by shard through
:mod:`repro.engine.sharding` (bit-identical curves, O(shard) peak
memory), over the corpus's own shard boundaries when automatic.
Corpora at or above :data:`~repro.engine.sharding.AUTO_SHARD_THRESHOLD`
toots shard automatically; ``shard_size=0`` forces the monolithic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.core.replication import AvailabilityPoint, PlacementMap
from repro.engine.failures import FailureModel
from repro.engine.incidence import TootIncidence
from repro.engine.kernels import (
    availability_from_losses,
    losses_per_step_batch,
    temporal_availability_from_counts,
    temporal_removal_matrix,
)
from repro.engine.sharding import (
    AUTO_SHARD_THRESHOLD,
    DEFAULT_SHARD_SIZE,
    ShardedIncidence,
    streaming_losses,
)


def _to_points(curve: np.ndarray) -> list[AvailabilityPoint]:
    return [
        AvailabilityPoint(removed=step, availability=float(value))
        for step, value in enumerate(curve)
    ]


def availability_curve(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
    failure: FailureModel,
    *,
    shard_size: int | None = None,
) -> list[AvailabilityPoint]:
    """One availability curve for one placement map and one failure model."""
    curves = availability_curves(placements, [failure], shard_size=shard_size)
    return curves[failure.name]


def _resolve_sharding(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
    shard_size: int | None,
) -> ShardedIncidence | None:
    """Decide whether — and over what backing store — to shard.

    ``shard_size=None`` is automatic: arrays-backed corpora at or above
    :data:`AUTO_SHARD_THRESHOLD` toots shard at :data:`DEFAULT_SHARD_SIZE`.
    Backends built from a columnar corpus carry their crawl shard
    boundaries (``PlacementArrays.source_bounds``); automatic sharding
    streams over exactly those shards, so the on-disk layout and the
    evaluation working set line up.  ``shard_size=0`` opts out entirely;
    any other explicit size forces (uniform) sharding.  Arrays-backed
    placements shard without ever building the full incidence matrix;
    built matrices and dict-backed maps shard by row-range views.
    """
    if isinstance(placements, ShardedIncidence):
        return placements
    if shard_size is not None and shard_size < 0:
        raise AnalysisError("shard_size must be a positive number of toots (or 0)")
    if shard_size == 0:
        return None
    arrays = (
        None
        if isinstance(placements, TootIncidence)
        else getattr(placements, "arrays", None)
    )
    if shard_size is None:
        if arrays is None or arrays.n_toots < AUTO_SHARD_THRESHOLD:
            return None
        source_bounds = getattr(arrays, "source_bounds", None)
        if source_bounds:
            return ShardedIncidence.from_arrays(arrays, bounds=source_bounds)
        shard_size = DEFAULT_SHARD_SIZE
    if arrays is not None:
        return ShardedIncidence.from_arrays(arrays, shard_size)
    incidence = (
        placements
        if isinstance(placements, TootIncidence)
        else TootIncidence.from_placements(placements)
    )
    return ShardedIncidence.from_incidence(incidence, shard_size)


def availability_curves(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
    failures: Sequence[FailureModel],
    *,
    shard_size: int | None = None,
) -> dict[str, list[AvailabilityPoint]]:
    """Curves for many failure models over one shared incidence matrix.

    ``shard_size`` routes the evaluation through the streaming sharded
    engine (:mod:`repro.engine.sharding`); the curves are bit-identical
    either way, so the knob trades peak memory and wall time only.

    Cumulative models contribute one removal column each; temporal
    models (``failure.temporal``) contribute one single-step column per
    tick, built by :func:`~repro.engine.kernels.temporal_removal_matrix`.
    Both column kinds flow through the same batched loss reduction —
    monolithic or streaming-sharded — before being reassembled into
    cumulative curves and availability time series respectively.
    """
    if not failures:
        raise AnalysisError("need at least one failure model")
    names = [failure.name for failure in failures]
    if len(set(names)) != len(names):
        raise AnalysisError("failure models must have distinct names")
    sharded = _resolve_sharding(placements, shard_size)
    if sharded is not None:
        target: ShardedIncidence | TootIncidence = sharded
    else:
        target = (
            placements
            if isinstance(placements, TootIncidence)
            else TootIncidence.from_placements(placements)
        )
    with obs.span(
        "engine/availability_curves",
        failures=len(failures),
        n_toots=target.n_toots,
        sharded=sharded is not None,
    ):
        lookup = target.lookup
        blocks: list[np.ndarray] = []
        col_steps: list[int] = []
        spans: list[tuple[FailureModel, int, int]] = []  # (model, first column, n columns)
        for failure in failures:
            start = len(col_steps)
            if failure.temporal:
                block = temporal_removal_matrix(failure.down_matrix(lookup))
                blocks.append(block)
                col_steps.extend([1] * block.shape[1])
            else:
                failure_steps = failure.effective_steps()
                blocks.append(
                    lookup.removal_vector(failure.removal_index(), failure_steps)[:, None]
                )
                col_steps.append(failure_steps)
            spans.append((failure, start, len(col_steps) - start))
        removal_matrix = np.concatenate(blocks, axis=1)
        steps = np.asarray(col_steps, dtype=np.int64)
        if sharded is not None:
            losses = streaming_losses(sharded, removal_matrix, steps)
            total = sharded.n_toots
        else:
            losses = losses_per_step_batch(target.matrix, removal_matrix, steps)
            total = target.n_toots
    curves: dict[str, list[AvailabilityPoint]] = {}
    for failure, start, n_cols in spans:
        if failure.temporal:
            curve = temporal_availability_from_counts(
                losses[start : start + n_cols, 1], total
            )
        else:
            curve = availability_from_losses(
                losses[start, : int(steps[start]) + 1], total
            )
        curves[failure.name] = _to_points(curve)
    return curves


# -- placement strategies as declarative specs -----------------------------------


@dataclass(frozen=True)
class StrategySpec:
    """A named recipe for building a :class:`PlacementMap`."""

    name: str
    kind: str  # "none" | "subscription" | "random"
    n_replicas: int = 0
    seed: int = 0
    weights: tuple[tuple[str, float], ...] | None = None

    @classmethod
    def none(cls, name: str = "no-rep") -> "StrategySpec":
        return cls(name=name, kind="none")

    @classmethod
    def subscription(cls, name: str = "s-rep") -> "StrategySpec":
        return cls(name=name, kind="subscription")

    @classmethod
    def random(
        cls,
        n_replicas: int,
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
        name: str | None = None,
    ) -> "StrategySpec":
        if name is None:
            name = f"n={n_replicas}" if seed == 0 else f"n={n_replicas}/seed={seed}"
        frozen_weights = tuple(sorted(weights.items())) if weights is not None else None
        return cls(
            name=name, kind="random", n_replicas=n_replicas, seed=seed, weights=frozen_weights
        )

    def build_from_corpus(
        self,
        store: "CorpusStore",
        graphs: "GraphDataset | GraphStore | None" = None,
        candidate_domains: Sequence[str] | None = None,
    ) -> PlacementMap:
        """Build this strategy's placement map from a columnar corpus.

        Dispatches through :meth:`PlacementArrays.from_corpus
        <repro.engine.placement.PlacementArrays.from_corpus>`, so no
        record is materialised.  ``graphs`` (the networkx-backed dataset
        or the on-disk graph store) is needed by the subscription
        strategy, ``candidate_domains`` by the random ones.
        """
        from repro.engine.placement import PlacementArrays

        arrays = PlacementArrays.from_corpus(
            store,
            self.kind,
            graphs=graphs,
            candidate_domains=candidate_domains,
            n_replicas=self.n_replicas,
            seed=self.seed,
            weights=dict(self.weights) if self.weights is not None else None,
        )
        return PlacementMap(strategy=arrays.strategy, arrays=arrays)


def random_strategy_grid(
    replica_counts: Sequence[int], seeds: Sequence[int] = (0,)
) -> list[StrategySpec]:
    """The (n_replicas × seed) grid as strategy specs."""
    return [
        StrategySpec.random(n_replicas=n, seed=seed)
        for n in replica_counts
        for seed in seeds
    ]


# -- the sweep itself ------------------------------------------------------------


@dataclass
class SweepResult:
    """Every curve of a sweep, keyed by (strategy name, failure name)."""

    curves: dict[tuple[str, str], list[AvailabilityPoint]]
    strategy_names: tuple[str, ...]
    failure_names: tuple[str, ...]
    placements: dict[str, PlacementMap] = field(default_factory=dict)

    def curve(self, strategy: str, failure: str) -> list[AvailabilityPoint]:
        try:
            return self.curves[(strategy, failure)]
        except KeyError as exc:
            raise AnalysisError(f"no curve for {strategy!r} under {failure!r}") from exc

    def compare(self, failure: str, removed: int) -> dict[str, float]:
        """Availability of every strategy after ``removed`` removals."""
        from repro.core.replication import availability_at

        return {
            strategy: availability_at(self.curve(strategy, failure), removed)
            for strategy in self.strategy_names
        }

    def availability_rows(
        self, failure: str, removals: Sequence[int]
    ) -> list[list[object]]:
        """One row per strategy: ``[name, avail@removals[0], ...]`` (raw floats)."""
        from repro.core.replication import availability_at

        return [
            [strategy]
            + [availability_at(self.curve(strategy, failure), r) for r in removals]
            for strategy in self.strategy_names
        ]


def run_availability_sweep(
    toots: "TootsDataset",
    strategies: Sequence[StrategySpec],
    failures: Sequence[FailureModel],
    *,
    graphs: "GraphDataset | GraphStore | None" = None,
    candidate_domains: Sequence[str] | None = None,
    keep_placements: bool = False,
    shard_size: int | None = None,
) -> SweepResult:
    """Evaluate every (strategy, failure) combination in one call.

    Builds each strategy's placement map (from the columns of
    ``toots.corpus``) and incidence matrix once, then batch-evaluates
    all failure schedules against it.  Random strategies
    carry their own seeds, so a seed sweep is just more
    :class:`StrategySpec` entries.  ``shard_size`` streams
    each strategy's evaluation through the sharded engine (automatic at
    :data:`~repro.engine.sharding.AUTO_SHARD_THRESHOLD` toots) — same
    curves, bounded memory.
    """
    if not strategies:
        raise AnalysisError("need at least one placement strategy")
    names = [spec.name for spec in strategies]
    if len(set(names)) != len(names):
        raise AnalysisError("placement strategies must have distinct names")
    curves: dict[tuple[str, str], list[AvailabilityPoint]] = {}
    placements_by_name: dict[str, PlacementMap] = {}
    for spec in strategies:
        placements = spec.build_from_corpus(
            toots.corpus, graphs=graphs, candidate_domains=candidate_domains
        )
        if keep_placements:
            placements_by_name[spec.name] = placements
        strategy_curves = availability_curves(placements, failures, shard_size=shard_size)
        for failure_name, curve in strategy_curves.items():
            curves[(spec.name, failure_name)] = curve
    return SweepResult(
        curves=curves,
        strategy_names=tuple(names),
        failure_names=tuple(failure.name for failure in failures),
        placements=placements_by_name,
    )
