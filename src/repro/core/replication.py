"""Toot replication strategies and content availability (Figs. 15-16).

The paper asks how many toots survive instance or AS failures under three
placement strategies:

* **no replication** — every toot lives only on its home instance;
* **subscription replication** — a toot is also stored (and globally
  indexed) on every instance hosting a follower of its author, i.e. the
  instances that already receive it through federation;
* **random replication** — a toot is copied onto ``n`` random instances.

A toot is considered available as long as at least one instance holding a
copy is still up (the paper assumes a global index such as a DHT to find
replicas).

Both placements and curves come from the failure-simulation engine: each
strategy builds an integer-coded :class:`~repro.engine.placement.PlacementArrays`
from the toots dataset's corpus columns (one batched draw for every
toot), and each removal schedule is one fold of the engine's kill kernel
over it.  The pure-Python loops these replaced are the references in
``tests/reference/replication.py``; seeded *random* placements differ
from them toot-by-toot (the batched draw consumes the RNG stream in
another order) but follow the same distribution.  For parameter sweeps
use :func:`repro.engine.run_availability_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.datasets.graphs import GraphDataset
from repro.datasets.toots import TootsDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.placement import PlacementArrays


class PlacementMap:
    """For every toot, the set of instances holding a copy.

    A named :class:`~repro.engine.placement.PlacementArrays`: toot
    ``t`` lives on its home instance ``arrays.home[t]`` plus its replica
    codes, all indexing ``arrays.domains``.
    """

    def __init__(self, strategy: str, arrays: "PlacementArrays") -> None:
        self.strategy = strategy
        self.arrays = arrays

    def __repr__(self) -> str:
        return f"PlacementMap(strategy={self.strategy!r}, toots={len(self)})"

    def __len__(self) -> int:
        return self.arrays.n_toots

    def replica_counts(self) -> list[int]:
        """Number of copies *beyond the home instance* for every toot."""
        return self.arrays.replica_counts().tolist()

    def replication_summary(self) -> dict[str, float]:
        """Share of toots with no replica and with more than ten replicas.

        The paper reports that under subscription replication 9.7% of
        toots have no replica while 23% have more than ten.
        """
        counts = self.arrays.replica_counts()
        if counts.size == 0:
            raise AnalysisError("the placement map is empty")
        return {
            "mean_replicas": float(np.mean(counts)),
            "share_without_replica": int((counts == 0).sum()) / counts.size,
            "share_with_more_than_10": int((counts > 10).sum()) / counts.size,
        }


def _from_corpus(toots: TootsDataset, kind: str, **options) -> PlacementMap:
    """The placement map of one strategy ``kind``, built from the corpus columns."""
    from repro.engine.placement import PlacementArrays

    arrays = PlacementArrays.from_corpus(toots.corpus, kind, **options)
    return PlacementMap(strategy=arrays.strategy, arrays=arrays)


def no_replication(toots: TootsDataset) -> PlacementMap:
    """Each toot is stored only on its author's home instance."""
    return _from_corpus(toots, "none")


def subscription_replication(toots: TootsDataset, graphs: GraphDataset) -> PlacementMap:
    """Each toot is replicated to the instances hosting the author's followers.

    Built in one pass over the follower graph plus array expansion per
    toot; the differential suite holds it to identical placements with
    the original per-record loop in ``tests/reference/replication.py``.
    """
    return _from_corpus(toots, "subscription", graphs=graphs)


def random_replication(
    toots: TootsDataset,
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementMap:
    """Each toot is replicated onto ``n_replicas`` random instances.

    ``weights`` optionally biases the replica placement (e.g. towards
    instances with more storage capacity) — the resource-weighted variant
    discussed at the end of Section 5.2.  Placement is one batched draw
    for all toots (Gumbel top-k for the weighted case); see
    :func:`repro.engine.placement.random_arrays_from_columns`.  Seeded
    output is deterministic but differs from the reference loop in
    ``tests/reference/replication.py``, which consumes the RNG stream
    one toot at a time.
    """
    return _from_corpus(
        toots,
        "random",
        candidate_domains=candidate_domains,
        n_replicas=n_replicas,
        seed=seed,
        weights=weights,
    )


# -- availability under failures -------------------------------------------------


@dataclass(frozen=True, slots=True)
class AvailabilityPoint:
    """Toot availability after removing the top-N entities."""

    removed: int
    availability: float


def availability_under_instance_removal(
    placements: PlacementMap,
    instance_ranking: Sequence[str],
    steps: int = 100,
) -> list[AvailabilityPoint]:
    """Toot availability while removing the top-N instances (Figs. 15b/d, 16)."""
    from repro.engine.failures import InstanceRemoval
    from repro.engine.sweep import availability_curve

    return availability_curve(placements, InstanceRemoval(instance_ranking, steps=steps))


def availability_under_as_removal(
    placements: PlacementMap,
    asn_of_instance: Mapping[str, int],
    as_ranking: Sequence[int],
    steps: int = 25,
) -> list[AvailabilityPoint]:
    """Toot availability while removing the top-N ASes (Figs. 15a/c, 16)."""
    from repro.engine.failures import ASRemoval
    from repro.engine.sweep import availability_curve

    return availability_curve(placements, ASRemoval(asn_of_instance, as_ranking, steps=steps))


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


def compare_strategies(
    curves: Mapping[str, Sequence[AvailabilityPoint]], removed: int
) -> dict[str, float]:
    """Availability of every strategy after ``removed`` removals (Fig. 16)."""
    return {name: availability_at(curve, removed) for name, curve in curves.items()}
