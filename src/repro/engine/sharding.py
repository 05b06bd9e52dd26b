"""Sharded streaming availability: constant-memory evaluation at paper scale.

The monolithic pipeline builds one toot×instance CSR matrix for the
whole corpus and (historically) one dense ``(n_toots, k)`` kill matrix
per sweep, so peak memory grows linearly with the corpus — the binding
constraint on the road to the paper's 67M-toot scale.  This module
removes it by exploiting one algebraic fact: per-step **loss counts are
additive across disjoint toot ranges**.  A schedule's availability curve
is ``1 - cumsum(losses) / total``, and ``losses`` is a sum of integer
bincounts, so evaluating the corpus shard by shard and summing the
per-shard loss tables reconstructs every curve *exactly* — bit-identical
to the unsharded reduction — while only ever holding one shard's
incidence structure in memory.

:class:`ShardedIncidence` slices the integer-coded
:class:`~repro.engine.placement.PlacementArrays` backend by toot range
and assembles each shard's CSR matrix lazily (generator-based, so peak
incidence memory is O(shard), not O(corpus)); for placements that only
exist as a built :class:`~repro.engine.incidence.TootIncidence`,
:meth:`ShardedIncidence.from_incidence` shards the existing matrix by
row range instead.  :func:`streaming_losses` folds the shards, in shard
order, into one small ``(k, max_steps + 1)`` loss table;
:func:`kill_vector` keeps one schedule's per-toot kill steps instead, so
the losses of any toot subset are a gather and one count (the serving
layer's per-query path).

``availability_curves`` / ``run_availability_sweep``
(:mod:`repro.engine.sweep`) expose this via a ``shard_size`` knob with
an auto-shard threshold; the CLI forwards it as ``--shard-size``.
``benchmarks/bench_shard_scale.py`` gates the identity and memory
claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy import sparse

from repro import obs
from repro.errors import AnalysisError
from repro.engine.incidence import DomainLookup, TootIncidence
from repro.engine.kernels import (
    _check_rows,
    _int32_safe_columns,
    _kill_column,
    curves_from_loss_table,
    losses_per_step_batch,
)

#: Corpora at or above this many toots are sharded automatically when the
#: integer-coded arrays backend is available (see ``_resolve_sharding``
#: in :mod:`repro.engine.sweep`).
AUTO_SHARD_THRESHOLD = 1_000_000

#: Shard size used when sharding is requested (or auto-triggered)
#: without an explicit size: large enough to amortise per-shard numpy
#: call overhead, small enough that a shard's CSR structure plus the
#: reduction buffers stay tens of megabytes.
DEFAULT_SHARD_SIZE = 250_000


@dataclass(frozen=True)
class IncidenceShard:
    """One contiguous toot range of the corpus, as its own CSR matrix."""

    start: int
    stop: int
    matrix: sparse.csr_matrix

    @property
    def n_toots(self) -> int:
        return self.stop - self.start


class ShardedIncidence:
    """A toot×instance incidence matrix sliced into row-range shards.

    Shards share the full domain universe (columns), so any per-domain
    removal vector applies to every shard unchanged; only the toot rows
    are partitioned.  Shard matrices are **assembled lazily** — iterate
    :meth:`shards` and each CSR materialises on demand, to be dropped as
    soon as the caller moves on — which is what keeps streaming
    evaluation at O(shard) peak memory.

    Build one with :meth:`from_arrays` (straight from the integer-coded
    placement backend, never materialising the full matrix) or
    :meth:`from_incidence` (row-range views over an already-built
    matrix, for dict-backed placement maps).
    """

    def __init__(
        self,
        *,
        n_toots: int,
        domains: tuple[str, ...],
        shard_size: int | None = None,
        assemble: Callable[[int, int], sparse.csr_matrix],
        bounds: Sequence[tuple[int, int]] | None = None,
    ) -> None:
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
            shard_size = max(stop - start for start, stop in bounds)
        elif shard_size is None or shard_size < 1:
            raise AnalysisError("shard_size must be a positive number of toots")
        self.n_toots = n_toots
        self.domains = domains
        self.shard_size = shard_size
        self._bounds = bounds
        self._assemble = assemble
        self._lookup: DomainLookup | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        arrays: "PlacementArrays",
        shard_size: int | None = None,
        *,
        bounds: Sequence[tuple[int, int]] | None = None,
    ) -> "ShardedIncidence":
        """Shard the integer-coded placement backend by toot range.

        Each shard's CSR structure is assembled independently from
        slices of the backend's home/replica arrays — the same
        interleaving :meth:`TootIncidence.from_arrays` uses, applied to
        rows ``[start, stop)`` only — so the full corpus matrix never
        exists.  ``bounds`` overrides the uniform ``shard_size`` split
        with explicit ranges (e.g. the corpus shard boundaries recorded
        in ``arrays.source_bounds``), so crawl shards flow through to
        the sweep unchanged.
        """
        if arrays.n_toots == 0:
            raise AnalysisError("the placement map is empty")
        home = arrays.home
        replica_indices = arrays.replica_indices
        replica_indptr = arrays.replica_indptr
        n_domains = arrays.n_domains

        def assemble(start: int, stop: int) -> sparse.csr_matrix:
            rows = stop - start
            lengths = np.diff(replica_indptr[start : stop + 1]) + 1  # +1: home copy
            indptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int64)
            home_slots = indptr[:-1]
            indices[home_slots] = home[start:stop]
            replica_slots = np.ones(total, dtype=bool)
            replica_slots[home_slots] = False
            lo = int(replica_indptr[start])
            hi = int(replica_indptr[stop])
            indices[replica_slots] = replica_indices[lo:hi]
            matrix = sparse.csr_matrix(
                (np.ones(total, dtype=np.int8), indices, indptr),
                shape=(rows, n_domains),
            )
            matrix.sort_indices()
            return matrix

        return cls(
            n_toots=arrays.n_toots,
            domains=tuple(arrays.domains),
            shard_size=shard_size,
            assemble=assemble,
            bounds=bounds,
        )

    @classmethod
    def from_incidence(
        cls, incidence: TootIncidence, shard_size: int
    ) -> "ShardedIncidence":
        """Shard an already-built incidence matrix by row range.

        The incidence memory is already paid here; sharding still caps
        the *evaluation* working set per shard.  Shard CSR structures are
        zero-copy views over the parent matrix's ``indices``/``data`` plus
        a rebased ``indptr``.
        """
        matrix = incidence.matrix
        indptr = matrix.indptr

        def assemble(start: int, stop: int) -> sparse.csr_matrix:
            lo, hi = int(indptr[start]), int(indptr[stop])
            shard = sparse.csr_matrix(
                (matrix.data[lo:hi], matrix.indices[lo:hi], indptr[start : stop + 1] - lo),
                shape=(stop - start, matrix.shape[1]),
                copy=False,
            )
            return shard

        sharded = cls(
            n_toots=incidence.n_toots,
            domains=incidence.domains,
            shard_size=shard_size,
            assemble=assemble,
        )
        sharded._lookup = incidence.lookup
        return sharded

    # -- structure ------------------------------------------------------------

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def n_shards(self) -> int:
        if self._bounds is not None:
            return len(self._bounds)
        return (self.n_toots + self.shard_size - 1) // self.shard_size

    @property
    def lookup(self) -> DomainLookup:
        """The vectorised domain resolver shared by every shard."""
        if self._lookup is None:
            self._lookup = DomainLookup(self.domains)
        return self._lookup

    def shard_bounds(self) -> list[tuple[int, int]]:
        """The ``[start, stop)`` toot range of every shard, in order.

        Explicit ``bounds`` (corpus-aligned shards) are returned as
        given; otherwise the uniform split, whose final shard is ragged
        whenever ``shard_size`` does not divide ``n_toots``.
        """
        if self._bounds is not None:
            return list(self._bounds)
        edges = list(range(0, self.n_toots, self.shard_size)) + [self.n_toots]
        return list(zip(edges[:-1], edges[1:]))

    def shard(self, start: int, stop: int) -> IncidenceShard:
        """Assemble the shard covering toots ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_toots:
            raise AnalysisError(
                f"shard range [{start}, {stop}) falls outside 0..{self.n_toots}"
            )
        return IncidenceShard(start=start, stop=stop, matrix=self._assemble(start, stop))

    def shards(self) -> Iterator[IncidenceShard]:
        """Lazily assemble every shard in toot order (generator)."""
        for start, stop in self.shard_bounds():
            yield self.shard(start, stop)

    # -- per-domain vectors (identical to the unsharded incidence) ------------

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Per-domain removal steps (see :meth:`TootIncidence.removal_vector`)."""
        return self.lookup.removal_vector(removal_index, steps)

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS assignment vector (see :meth:`TootIncidence.as_assignment`)."""
        return self.lookup.as_assignment(asn_of_instance)

    def rows_holding(self, domain: str) -> np.ndarray:
        """Global row indices of every toot with a copy on ``domain``.

        Streams the shards (one CSC transpose per shard, dropped as the
        scan moves on), so the working set stays O(shard) — but each call
        is a full pass over the corpus; callers that repeat instance
        queries should cache the result.  Rows come back ascending, and
        identical to :meth:`TootIncidence.rows_holding` over the
        monolithic matrix.
        """
        code = int(self.lookup.codes([domain])[0])
        if code < 0:
            return np.empty(0, dtype=np.int64)
        parts: list[np.ndarray] = []
        for shard in self.shards():
            columns = shard.matrix.tocsc()
            columns.sort_indices()
            start, stop = columns.indptr[code], columns.indptr[code + 1]
            if stop > start:
                parts.append(
                    columns.indices[start:stop].astype(np.int64) + shard.start
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


# -- streaming evaluation ---------------------------------------------------------


def streaming_losses(
    sharded: ShardedIncidence,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> np.ndarray:
    """Accumulate per-(schedule, step) loss counts across every shard.

    Each shard contributes one small ``(k, max_steps + 1)`` int64 loss
    table (:func:`~repro.engine.kernels.losses_per_step_batch` over the
    shard's rows); tables are integer counts over disjoint toot ranges,
    so their sum equals the unsharded table exactly — no floating-point
    reassociation anywhere.  Shards are assembled one at a time, so peak
    memory holds one shard's incidence structure.
    """
    removal_matrix = np.asarray(removal_matrix, dtype=np.float64)
    if removal_matrix.ndim != 2:
        raise AnalysisError("removal_matrix must be 2-D (n_domains, k)")
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    n_schedules = removal_matrix.shape[1]
    if steps.shape != (n_schedules,):
        raise AnalysisError("steps_per_schedule must give one length per schedule")
    max_steps = int(steps.max()) if n_schedules else 0
    losses = np.zeros((n_schedules, max_steps + 1), dtype=np.int64)

    def evaluate(bounds: tuple[int, int]) -> np.ndarray:
        shard = sharded.shard(*bounds)
        return losses_per_step_batch(shard.matrix, removal_matrix, steps)

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
    """Every toot's kill step under one removal column, shard by shard.

    Returns ``(kill, sentinel)`` in the shapes of
    :func:`~repro.engine.kernels.losses_per_step`: an int32 vector with
    ``sentinel`` marking survivors, or — when a removal step does not fit
    under the int32 sentinel — a float64 vector with ``np.inf``
    survivors and ``sentinel`` None.  Each shard runs the same gather +
    ``reduceat`` pass as :func:`streaming_losses`, so
    ``losses_per_step(kill[rows], steps, sentinel)`` equals the loss
    table of any row subset, the whole corpus included.  Memory is one
    value per toot: 4 bytes on the int32 path.
    """
    column = np.asarray(removal_column, dtype=np.float64).reshape(-1)
    if column.shape != (sharded.n_domains,):
        raise AnalysisError("the removal column needs one step per domain")
    safe = bool(_int32_safe_columns(column[:, None])[0])
    kill = np.empty(sharded.n_toots, dtype=np.int32 if safe else np.float64)
    sentinel = None
    bounds = sharded.shard_bounds()
    with obs.span("engine/kill_vector", shards=len(bounds)):
        for start, stop in bounds:
            matrix = sharded.shard(start, stop).matrix
            _check_rows(matrix)
            kill[start:stop], sentinel = _kill_column(matrix, column, safe)
    return kill, sentinel


def sharded_availability_curves(
    sharded: ShardedIncidence,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> list[np.ndarray]:
    """Availability curves over shards — the streaming counterpart of
    :func:`~repro.engine.kernels.availability_curves_batch`.

    The ``(n_toots, k)`` kill matrix never exists: each curve is rebuilt
    from the accumulated loss table and the corpus size, so the output
    is bit-identical to the unsharded batch for any shard size.
    """
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    losses = streaming_losses(sharded, removal_matrix, steps)
    return curves_from_loss_table(losses, steps, sharded.n_toots)
