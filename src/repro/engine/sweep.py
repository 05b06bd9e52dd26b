"""The sweep API: many (strategy, failure, seed) combinations in one call.

The expensive part of an availability experiment is the per-strategy
placement; every failure schedule after that is one cheap fold of the
kill kernel (:mod:`repro.engine.kernels`) over the placement arrays.
``run_availability_sweep`` exploits exactly that: one
:class:`~repro.engine.placement.PlacementArrays` per placement strategy,
then one :func:`~repro.engine.sharding.streaming_losses` fold covering
every failure model.  Every strategy builds from the columns of the
toot corpus (:meth:`StrategySpec.build_from_corpus`).  Seeds are just
more strategies (:meth:`StrategySpec.random` embeds the seed in the
spec), so a (strategy × ranking × seed) grid is a single call that
returns every curve, ready for :mod:`repro.reporting`.  A curve is a
list of :class:`AvailabilityPoint` (availability after ``removed``
removals); :func:`availability_at` reads it at any removal count.

The fold runs over toot ranges of the arrays
(:func:`~repro.engine.sharding.toot_ranges`): the corpus's own shard
bounds by default, uniform ranges of ``shard_size`` toots, or one range
at ``shard_size=0``.  Curves are bit-identical at every split, so the
knob trades only the working set of one range against per-range call
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.engine.failures import FailureModel
from repro.engine.kernels import (
    availability_from_losses,
    temporal_availability_from_counts,
    temporal_removal_matrix,
)
from repro.engine.placement import PlacementArrays
from repro.engine.sharding import ShardedIncidence, streaming_losses, toot_ranges

# perfbench's layer split wraps this name in this module; it stays
# importable here, and no fold calls it through this module's name.
from repro.engine.kernels import losses_per_step_batch  # noqa: F401


@dataclass(frozen=True, slots=True)
class AvailabilityPoint:
    """Toot availability after removing the top-N entities."""

    removed: int
    availability: float


def availability_at(curve: Iterable[AvailabilityPoint], removed: int) -> float:
    """Availability after exactly ``removed`` removals (convenience accessor)."""
    if removed < 0:
        raise AnalysisError(
            f"the number of removed entities cannot be negative (got {removed})"
        )
    best = None
    empty = True
    for point in curve:
        empty = False
        if point.removed <= removed:
            best = point
    if best is None:
        if empty:
            raise AnalysisError("the availability curve is empty")
        raise AnalysisError(
            f"the availability curve has no point at or before removed={removed}"
        )
    return best.availability


def _to_points(curve: np.ndarray) -> list[AvailabilityPoint]:
    return [
        AvailabilityPoint(removed=step, availability=float(value))
        for step, value in enumerate(curve)
    ]


def availability_curve(
    placements: PlacementArrays | ShardedIncidence,
    failure: FailureModel,
    *,
    shard_size: int | None = None,
) -> list[AvailabilityPoint]:
    """One availability curve for one placement and one failure model."""
    curves = availability_curves(placements, [failure], shard_size=shard_size)
    return curves[failure.name]


def availability_curves(
    placements: PlacementArrays | ShardedIncidence,
    failures: Sequence[FailureModel],
    *,
    shard_size: int | None = None,
) -> dict[str, list[AvailabilityPoint]]:
    """Curves for many failure models, folded over the placement arrays.

    ``shard_size`` picks the toot ranges of the fold
    (:func:`~repro.engine.sharding.toot_ranges`); a
    :class:`ShardedIncidence` brings its own.  The curves are
    bit-identical at every split.

    Cumulative models contribute one removal column each; temporal
    models (``failure.temporal``) contribute one single-step column per
    tick, built by :func:`~repro.engine.kernels.temporal_removal_matrix`.
    Both column kinds flow through the same streaming loss fold before
    being reassembled into cumulative curves and availability time
    series respectively.
    """
    if not failures:
        raise AnalysisError("need at least one failure model")
    names = [failure.name for failure in failures]
    if len(set(names)) != len(names):
        raise AnalysisError("failure models must have distinct names")
    sharded = (
        placements
        if isinstance(placements, ShardedIncidence)
        else toot_ranges(placements, shard_size)
    )
    with obs.span(
        "engine/availability_curves",
        failures=len(failures),
        n_toots=sharded.n_toots,
        shards=sharded.n_shards,
    ):
        lookup = sharded.lookup
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
        losses = streaming_losses(sharded, removal_matrix, steps)
    total = sharded.n_toots
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
    """A named recipe for building a :class:`PlacementArrays`."""

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
        graphs: "GraphColumns | None" = None,
        candidate_domains: Sequence[str] | None = None,
    ) -> PlacementArrays:
        """Build this strategy's placement arrays from a columnar corpus.

        Dispatches through :meth:`PlacementArrays.from_corpus
        <repro.engine.placement.PlacementArrays.from_corpus>`, so no
        record is materialised.  ``graphs`` (the graph store, or the
        graphs dataset over its columns) is needed by the subscription
        strategy, ``candidate_domains`` by the random ones.
        """
        return PlacementArrays.from_corpus(
            store,
            self.kind,
            graphs=graphs,
            candidate_domains=candidate_domains,
            n_replicas=self.n_replicas,
            seed=self.seed,
            weights=dict(self.weights) if self.weights is not None else None,
        )


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
    placements: dict[str, PlacementArrays] = field(default_factory=dict)

    def curve(self, strategy: str, failure: str) -> list[AvailabilityPoint]:
        try:
            return self.curves[(strategy, failure)]
        except KeyError as exc:
            raise AnalysisError(f"no curve for {strategy!r} under {failure!r}") from exc

    def compare(self, failure: str, removed: int) -> dict[str, float]:
        """Availability of every strategy after ``removed`` removals."""
        return {
            strategy: availability_at(self.curve(strategy, failure), removed)
            for strategy in self.strategy_names
        }

    def availability_rows(
        self, failure: str, removals: Sequence[int]
    ) -> list[list[object]]:
        """One row per strategy: ``[name, avail@removals[0], ...]`` (raw floats)."""
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
    graphs: "GraphColumns | None" = None,
    candidate_domains: Sequence[str] | None = None,
    keep_placements: bool = False,
    shard_size: int | None = None,
) -> SweepResult:
    """Evaluate every (strategy, failure) combination in one call.

    Builds each strategy's placement arrays (from the columns of
    ``toots.corpus``) once, then folds all failure schedules over it.
    Random strategies carry their own seeds, so a seed sweep is just
    more :class:`StrategySpec` entries.  ``shard_size`` picks the toot
    ranges of every fold (see :func:`availability_curves`) — same
    curves at every split.
    """
    if not strategies:
        raise AnalysisError("need at least one placement strategy")
    names = [spec.name for spec in strategies]
    if len(set(names)) != len(names):
        raise AnalysisError("placement strategies must have distinct names")
    curves: dict[tuple[str, str], list[AvailabilityPoint]] = {}
    placements_by_name: dict[str, PlacementArrays] = {}
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
