"""Streaming availability over toot ranges of the placement arrays.

Per-step loss counts are **additive across disjoint toot ranges**: a
curve is ``1 - cumsum(losses) / total`` and ``losses`` a sum of integer
bincounts, so folding the corpus range by range reconstructs every
curve exactly, bit-identical at any split.

:class:`ShardedIncidence` is the toot-range view over the integer-coded
:class:`~repro.engine.placement.PlacementArrays`: :meth:`~ShardedIncidence.shard`
hands out zero-copy slices and assembles nothing, and
:func:`toot_ranges` is the one range policy.  :func:`streaming_losses`
folds the ranges into one ``(k, max_steps + 1)`` loss table;
:func:`kill_vector` keeps one schedule's per-toot kill steps instead, so
the losses of any toot subset are a gather and one count (serve's
per-query path).  Both run the kill kernel of :mod:`repro.engine.kernels`.
``benchmarks/bench_shard_scale.py`` gates the identity and memory
claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.engine.incidence import DomainLookup
from repro.engine.kernels import (
    _int32_safe_columns,
    _schedules,
    kill_column,
    losses_per_step_batch,
    replica_segments,
    step_table,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.placement import PlacementArrays

#: Range size for arrays that carry no corpus shard bounds: large enough
#: to amortise per-range numpy call overhead, small enough that one
#: range's gathers and kill vector stay a few megabytes.
DEFAULT_SHARD_SIZE = 250_000


@dataclass(frozen=True)
class IncidenceShard:
    """Toots ``[start, stop)`` of the placement arrays, as zero-copy slices.

    ``replica_indptr`` is the range's slice of the pointers, one entry
    per toot plus one and **not rebased**: toot ``start + i``'s replicas
    are ``replica_indices[replica_indptr[i] - replica_indptr[0] :
    replica_indptr[i + 1] - replica_indptr[0]]``.
    """

    start: int
    stop: int
    home: np.ndarray
    replica_indices: np.ndarray
    replica_indptr: np.ndarray


class ShardedIncidence:
    """The placement arrays as a sequence of contiguous toot ranges.

    Ranges share the full domain universe, so any per-domain removal
    vector applies to every range unchanged.  Build one with
    :meth:`from_arrays`, or with :func:`toot_ranges`, which picks the
    split.
    """

    def __init__(self, arrays: "PlacementArrays", bounds: Sequence[tuple[int, int]]) -> None:
        self.arrays = arrays
        self.n_toots = arrays.n_toots
        self.domains = tuple(arrays.domains)
        self._bounds = list(bounds)
        self._lookup: DomainLookup | None = None

    @classmethod
    def from_arrays(
        cls,
        arrays: "PlacementArrays",
        shard_size: int | None = None,
        *,
        bounds: Sequence[tuple[int, int]] | None = None,
    ) -> "ShardedIncidence":
        """Split the placement arrays into uniform ranges of ``shard_size`` toots.

        ``bounds`` overrides the uniform split with explicit ranges
        (e.g. the corpus shard boundaries recorded in
        ``arrays.source_bounds``), so crawl shards flow through to the
        fold unchanged.  The final uniform range is ragged whenever
        ``shard_size`` does not divide the toot count.
        """
        n_toots = arrays.n_toots
        if n_toots <= 0:
            raise AnalysisError("the placement map is empty")
        if bounds is not None:
            bounds = [(int(start), int(stop)) for start, stop in bounds]
            if not bounds or bounds[0][0] != 0 or bounds[-1][1] != n_toots:
                raise AnalysisError("shard bounds must cover toots 0..n exactly")
            if any(start >= stop for start, stop in bounds) or any(
                prev[1] != cur[0] for prev, cur in zip(bounds, bounds[1:])
            ):
                raise AnalysisError("shard bounds must be contiguous ascending ranges")
        elif shard_size is None or shard_size < 1:
            raise AnalysisError("shard_size must be a positive number of toots")
        else:
            edges = list(range(0, n_toots, shard_size)) + [n_toots]
            bounds = list(zip(edges[:-1], edges[1:]))
        return cls(arrays, bounds)

    # -- structure ------------------------------------------------------------

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def n_shards(self) -> int:
        return len(self._bounds)

    @property
    def lookup(self) -> DomainLookup:
        """The vectorised domain resolver shared by every range."""
        if self._lookup is None:
            self._lookup = DomainLookup(self.domains)
        return self._lookup

    def shard_bounds(self) -> list[tuple[int, int]]:
        """The ``[start, stop)`` toot range of every shard, in order."""
        return list(self._bounds)

    def shard(self, start: int, stop: int) -> IncidenceShard:
        """Toots ``[start, stop)`` as zero-copy slices of the placement arrays."""
        if not 0 <= start < stop <= self.n_toots:
            raise AnalysisError(
                f"shard range [{start}, {stop}) falls outside 0..{self.n_toots}"
            )
        arrays = self.arrays
        indptr = arrays.replica_indptr[start : stop + 1]
        return IncidenceShard(
            start=start,
            stop=stop,
            home=arrays.home[start:stop],
            replica_indices=arrays.replica_indices[int(indptr[0]) : int(indptr[-1])],
            replica_indptr=indptr,
        )

    # -- per-domain vectors ---------------------------------------------------

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Per-domain removal steps (see :meth:`DomainLookup.removal_vector`)."""
        return self.lookup.removal_vector(removal_index, steps)

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS assignment vector (see :meth:`DomainLookup.as_assignment`)."""
        return self.lookup.as_assignment(asn_of_instance)


def toot_ranges(arrays: "PlacementArrays", shard_size: int | None = None) -> ShardedIncidence:
    """The range split every fold runs over: the one range policy.

    ``shard_size=0`` is one range over every toot, and ``N`` uniform
    ranges of ``N`` toots.  ``None`` follows the corpus's own shard
    bounds (``arrays.source_bounds``), so the on-disk layout and the
    fold's working set line up, or :data:`DEFAULT_SHARD_SIZE` ranges for
    arrays that carry none.  Curves are bit-identical at every split.
    """
    if shard_size is not None and shard_size < 0:
        raise AnalysisError("shard_size must be a positive number of toots (or 0)")
    if shard_size == 0:
        return ShardedIncidence.from_arrays(arrays, bounds=[(0, arrays.n_toots)])
    if shard_size is None:
        if arrays.source_bounds:
            return ShardedIncidence.from_arrays(arrays, bounds=arrays.source_bounds)
        shard_size = DEFAULT_SHARD_SIZE
    return ShardedIncidence.from_arrays(arrays, shard_size)


# -- streaming evaluation ---------------------------------------------------------


def streaming_losses(
    sharded: ShardedIncidence,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> np.ndarray:
    """Accumulate per-(schedule, step) loss counts across every range.

    Each range contributes one ``(k, max_steps + 1)`` int64 table
    (:func:`~repro.engine.kernels.losses_per_step_batch`); integer counts
    over disjoint ranges sum to the one-range table exactly.
    """
    removal_matrix, steps = _schedules(removal_matrix, steps_per_schedule)
    if removal_matrix.shape[0] != sharded.n_domains:
        raise AnalysisError("removal_matrix needs one row per domain")
    n_schedules = removal_matrix.shape[1]
    max_steps = int(steps.max()) if n_schedules else 0
    losses = np.zeros((n_schedules, max_steps + 1), dtype=np.int64)

    def evaluate(bounds: tuple[int, int]) -> np.ndarray:
        return losses_per_step_batch(sharded.shard(*bounds), removal_matrix, steps)

    bounds = sharded.shard_bounds()

    # when somebody is watching, wrap each fold in a span and time it;
    # the inactive path pays exactly one obs.active() check
    observing = obs.active()
    if observing:
        plain_evaluate = evaluate

        def evaluate(bounds: tuple[int, int]) -> np.ndarray:
            with obs.span("engine/shard", start=bounds[0], stop=bounds[1]):
                fold_started = time.perf_counter()
                table = plain_evaluate(bounds)
                fold_seconds = time.perf_counter() - fold_started
            obs.observe("repro_engine_fold_seconds", fold_seconds)
            return table

    with obs.span(
        "engine/streaming_losses", shards=len(bounds), schedules=n_schedules
    ):
        for shard_bounds in bounds:
            losses += evaluate(shard_bounds)

    if observing:
        obs.count("repro_engine_shard_folds_total", len(bounds))
        obs.count("repro_engine_toots_folded_total", sharded.n_toots)
    return losses


def kill_vector(
    sharded: ShardedIncidence, removal_column: np.ndarray
) -> tuple[np.ndarray, int | None]:
    """Every toot's kill step under one removal column, range by range.

    Returns ``(kill, sentinel)`` in the shapes of
    :func:`~repro.engine.kernels.losses_per_step`: an int32 vector with
    ``sentinel`` marking survivors, or — when a removal step does not fit
    under the int32 sentinel — a float64 vector with ``np.inf``
    survivors and ``sentinel`` None.  It runs the kernel of
    :func:`streaming_losses`, so ``losses_per_step(kill[rows], steps,
    sentinel)`` equals the loss table of any row subset.
    """
    column = np.asarray(removal_column, dtype=np.float64).reshape(-1)
    if column.shape != (sharded.n_domains,):
        raise AnalysisError("the removal column needs one step per domain")
    table, sentinel = step_table(column, bool(_int32_safe_columns(column[:, None])[0]))
    kill = np.empty(sharded.n_toots, dtype=table.dtype)
    bounds = sharded.shard_bounds()
    with obs.span("engine/kill_vector", shards=len(bounds)):
        for start, stop in bounds:
            shard = sharded.shard(start, stop)
            segments = replica_segments(shard.replica_indptr)
            kill[start:stop] = kill_column(shard, segments, table)
    return kill, sentinel
