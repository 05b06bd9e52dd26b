"""The CSR incidence matrix and the kernels that folded it, kept as oracles.

Before the kill kernel read the placement arrays directly
(:mod:`repro.engine.kernels`), every fold went through a binary
toot×instance CSR matrix: :class:`TootIncidence` (memoised per
placement map in a weak cache), row-range views of it
(:func:`csr_shards`), and per-row ``np.maximum.reduceat`` over its
``indptr``/``indices``.  That code lives on here, verbatim apart from
imports, so the tests can hold the array kernel to exact equality with
it: kill vectors (values, dtype and sentinel) and loss tables.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Mapping

import numpy as np
from scipy import sparse

from repro.engine.incidence import DomainLookup
from repro.engine.placement import PlacementArrays
from repro.engine.kernels import (
    _INT32_SENTINEL,
    _int32_safe_columns,
    availability_from_losses,
    losses_per_step,
)
from repro.errors import AnalysisError

#: Per-placement-object memo: placement map -> built incidence matrix.
#: Weak keys mean dropping the map also drops the cached matrix.
_INCIDENCE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class TootIncidence:
    """Binary toot×instance incidence matrix plus its index maps."""

    matrix: sparse.csr_matrix
    toot_urls: tuple[str, ...]
    domains: tuple[str, ...]
    domain_index: dict[str, int]
    _lookup: DomainLookup | None = field(default=None, repr=False, compare=False)
    _columns: sparse.csc_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def n_toots(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_domains(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_placements(cls, placements) -> "TootIncidence":
        """Build (or fetch the memoised) incidence matrix for a placement map.

        :class:`~repro.engine.placement.PlacementArrays` (the vectorised
        builders in :mod:`repro.engine.placement`) go through
        :meth:`from_arrays`; dict-built maps take the legacy mapping
        path.  Either way the result is cached per placement *object*,
        so repeated curves over the same map pay for the matrix exactly
        once.
        """
        try:
            cached = _INCIDENCE_CACHE.get(placements)
        except TypeError:  # unhashable / non-weakrefable placement container
            cached = None
        if cached is not None:
            return cached
        if isinstance(placements, PlacementArrays):
            incidence = cls.from_arrays(placements)
        else:
            incidence = cls._from_mapping(placements.placements)
        try:
            _INCIDENCE_CACHE[placements] = incidence
        except TypeError:
            pass
        return incidence

    @classmethod
    def from_arrays(cls, arrays) -> "TootIncidence":
        """Assemble the CSR structure straight from integer-coded placements.

        Every row interleaves the home code with the replica codes of the
        backend's CSR arrays — no per-toot Python loop and no intermediate
        dict of frozensets.  Columns are the backend's (sorted) domain
        universe; domains that end up holding no toot simply have empty
        columns, which the kernels ignore.
        """
        n_toots = arrays.n_toots
        if n_toots == 0:
            raise AnalysisError("the placement map is empty")
        lengths = np.diff(arrays.replica_indptr) + 1  # +1 for the home copy
        indptr = np.zeros(n_toots + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        home_slots = indptr[:-1]
        indices[home_slots] = arrays.home
        replica_slots = np.ones(total, dtype=bool)
        replica_slots[home_slots] = False
        indices[replica_slots] = arrays.replica_indices
        data = np.ones(total, dtype=np.int8)
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(n_toots, arrays.n_domains)
        )
        matrix.sort_indices()
        domains = tuple(arrays.domains)
        return cls(
            matrix=matrix,
            toot_urls=tuple(arrays.toot_urls),
            domains=domains,
            domain_index={domain: j for j, domain in enumerate(domains)},
        )

    @classmethod
    def _from_mapping(cls, mapping: Mapping[str, frozenset[str]]) -> "TootIncidence":
        """The legacy dict-of-frozensets construction path.

        Rows follow the mapping's insertion order; columns are the
        sorted union of all holding domains, so the layout is
        deterministic for a given map.
        """
        if not mapping:
            raise AnalysisError("the placement map is empty")
        domains = tuple(sorted(set(chain.from_iterable(mapping.values()))))
        domain_index = {domain: j for j, domain in enumerate(domains)}

        n_toots = len(mapping)
        lengths = np.fromiter(map(len, mapping.values()), dtype=np.int64, count=n_toots)
        if n_toots and lengths.min() == 0:
            raise AnalysisError("every toot needs at least one holding instance")
        indptr = np.zeros(n_toots + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # chain + map stay in C; this is the only full pass over the holder sets
        flat_domains = chain.from_iterable(mapping.values())
        indices = np.fromiter(
            map(domain_index.__getitem__, flat_domains),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        data = np.ones(len(indices), dtype=np.int8)
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(n_toots, len(domains))
        )
        matrix.sort_indices()
        toot_urls = list(mapping)
        return cls(
            matrix=matrix,
            toot_urls=tuple(toot_urls),
            domains=domains,
            domain_index=domain_index,
        )

    @property
    def lookup(self) -> DomainLookup:
        """The vectorised domain resolver (built lazily, once per matrix)."""
        if self._lookup is None:
            self._lookup = DomainLookup(self.domains)
        return self._lookup

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Per-domain removal steps as a dense float vector.

        ``removal_index[d] = k`` means domain ``d`` disappears at step
        ``k`` (1-based).  Domains absent from the mapping — or removed
        after ``steps`` — get :data:`NEVER_REMOVED`, exactly mirroring the
        legacy per-toot loop's survival rule.  Removed domains unknown to
        the matrix are ignored: they cannot affect any toot.
        """
        return self.lookup.removal_vector(removal_index, steps)

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS assignment vector aligned with the matrix columns.

        Instances without a known AS get ``-1``.
        """
        return self.lookup.as_assignment(asn_of_instance)

    def rows_holding(self, domain: str) -> np.ndarray:
        """Row indices of every toot with a copy on ``domain`` (ascending).

        The per-instance column access of the serving layer: the CSC
        transpose is built lazily on first call and cached, so repeated
        instance queries are one indptr slice each.  Unknown domains get
        an empty index array.
        """
        code = int(self.lookup.codes([domain])[0])
        if code < 0:
            return np.empty(0, dtype=np.int64)
        if self._columns is None:
            columns = self.matrix.tocsc()
            columns.sort_indices()
            self._columns = columns
        start, stop = self._columns.indptr[code], self._columns.indptr[code + 1]
        return self._columns.indices[start:stop].astype(np.int64)


# -- the CSR kernels ----------------------------------------------------------------


def _check_rows(matrix: sparse.csr_matrix) -> None:
    if matrix.shape[0] == 0:
        raise AnalysisError("the placement map is empty")
    if np.any(np.diff(matrix.indptr) == 0):
        raise AnalysisError("every toot needs at least one holding instance")


def _kill_column(
    matrix: sparse.csr_matrix,
    column: np.ndarray,
    safe: bool,
    values: np.ndarray | None = None,
    killed: np.ndarray | None = None,
) -> tuple[np.ndarray, int | None]:
    """Per-row kill steps for one schedule column (the shared inner pass).

    Returns ``(kill, sentinel)``: on the int32 fast path ``kill`` is an
    int32 vector with ``sentinel`` marking survivors (written into the
    reusable ``values``/``killed`` buffers when given); on the float
    fallback (steps too large for the sentinel) ``kill`` is float64 with
    ``np.inf`` survivors and ``sentinel`` is ``None``.
    """
    if not safe:
        return np.maximum.reduceat(column[matrix.indices], matrix.indptr[:-1]), None
    # int32 with a "never removed" sentinel halves the gather/reduceat
    # traffic vs float64; removal steps are small integers
    lookup = np.where(np.isfinite(column), column, float(_INT32_SENTINEL)).astype(np.int32)
    if values is None or killed is None:
        return np.maximum.reduceat(lookup[matrix.indices], matrix.indptr[:-1]), _INT32_SENTINEL
    np.take(lookup, matrix.indices, out=values)
    np.maximum.reduceat(values, matrix.indptr[:-1], out=killed)
    return killed, _INT32_SENTINEL


def kill_steps(matrix: sparse.csr_matrix, removal_steps: np.ndarray) -> np.ndarray:
    """Per-toot kill step: the max removal step over its holding domains.

    ``removal_steps`` is a dense per-domain vector (``np.inf`` for domains
    that never fail).  Returns a float vector with ``np.inf`` for toots
    that survive the whole schedule.
    """
    _check_rows(matrix)
    values = np.asarray(removal_steps, dtype=np.float64)[matrix.indices]
    return np.maximum.reduceat(values, matrix.indptr[:-1])


def kill_steps_batch(matrix: sparse.csr_matrix, removal_matrix: np.ndarray) -> np.ndarray:
    """Kill steps for many removal schedules at once.

    ``removal_matrix`` has shape ``(n_domains, k)`` — one column per
    schedule.  Returns ``(n_toots, k)``.  Each schedule is one contiguous
    1-D gather + ``reduceat`` pass over the shared CSR structure (faster
    than a single 2-D pass: the per-domain table stays cache-resident).
    """
    _check_rows(matrix)
    removal_matrix = np.asarray(removal_matrix, dtype=np.float64)
    if removal_matrix.ndim != 2:
        raise AnalysisError("removal_matrix must be 2-D (n_domains, k)")
    kill = np.empty((matrix.shape[0], removal_matrix.shape[1]), dtype=np.float64)
    safe = _int32_safe_columns(removal_matrix)
    for j in range(removal_matrix.shape[1]):
        killed, sentinel = _kill_column(matrix, removal_matrix[:, j], bool(safe[j]))
        if sentinel is None:
            kill[:, j] = killed
        else:
            out = killed.astype(np.float64)
            out[killed == sentinel] = np.inf
            kill[:, j] = out
    return kill


def losses_per_step_batch(
    matrix: sparse.csr_matrix,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> np.ndarray:
    """Per-step loss counts for many schedules without the kill matrix.

    Streams one schedule at a time: each column is one gather +
    ``reduceat`` pass into reusable buffers, immediately reduced to its
    ``bincount`` of per-step losses.  Returns a dense
    ``(k, max_steps + 1)`` int64 array (``losses[j, s]`` toots die at
    step ``s`` of schedule ``j``; columns beyond a schedule's own length
    stay zero), so peak memory is O(nnz) buffers plus the small loss
    table instead of the ``(n_toots, k)`` kill matrix.

    Losses are raw integer counts, which makes them **additive across
    disjoint row ranges** — the composition law the sharded engine in
    :mod:`repro.engine.sharding` is built on.
    """
    _check_rows(matrix)
    removal_matrix = np.asarray(removal_matrix, dtype=np.float64)
    if removal_matrix.ndim != 2:
        raise AnalysisError("removal_matrix must be 2-D (n_domains, k)")
    n_schedules = removal_matrix.shape[1]
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    if steps.shape != (n_schedules,):
        raise AnalysisError("steps_per_schedule must give one length per schedule")
    max_steps = int(steps.max()) if n_schedules else 0
    losses = np.zeros((n_schedules, max_steps + 1), dtype=np.int64)
    safe = _int32_safe_columns(removal_matrix)
    # gather/kill buffers allocated once and reused for every int32-safe
    # schedule; the float fallback is rare enough to allocate ad hoc
    values = np.empty(matrix.indices.size, dtype=np.int32)
    buffer = np.empty(matrix.shape[0], dtype=np.int32)
    for j in range(n_schedules):
        schedule_steps = int(steps[j])
        killed, sentinel = _kill_column(
            matrix, removal_matrix[:, j], bool(safe[j]), values, buffer
        )
        losses[j, : schedule_steps + 1] = losses_per_step(killed, schedule_steps, sentinel)
    return losses


def availability_curve_array(
    matrix: sparse.csr_matrix, removal_steps: np.ndarray, steps: int
) -> np.ndarray:
    """Availability after 0..``steps`` removals, as one dense vector."""
    kill = kill_steps(matrix, removal_steps)
    losses = losses_per_step(kill, steps)
    return availability_from_losses(losses, matrix.shape[0])


# -- the row-range shards and their fold -----------------------------------------


def csr_shards(
    incidence: TootIncidence, shard_size: int
) -> Iterator[tuple[int, int, sparse.csr_matrix]]:
    """``(start, stop, matrix)`` row-range views of a built incidence matrix.

    Shard CSR structures are zero-copy views over the parent matrix's
    ``indices``/``data`` plus a rebased ``indptr``.
    """
    if shard_size < 1:
        raise AnalysisError("shard_size must be a positive number of toots")
    matrix = incidence.matrix
    indptr = matrix.indptr
    for start in range(0, incidence.n_toots, shard_size):
        stop = min(start + shard_size, incidence.n_toots)
        lo, hi = int(indptr[start]), int(indptr[stop])
        yield start, stop, sparse.csr_matrix(
            (matrix.data[lo:hi], matrix.indices[lo:hi], indptr[start : stop + 1] - lo),
            shape=(stop - start, matrix.shape[1]),
            copy=False,
        )


def sharded_availability_curves(
    incidence: TootIncidence,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
    shard_size: int,
) -> list[np.ndarray]:
    """Availability curves from loss tables summed over row-range shards."""
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    losses = np.zeros((steps.size, int(steps.max()) + 1), dtype=np.int64)
    for _, _, matrix in csr_shards(incidence, shard_size):
        losses += losses_per_step_batch(matrix, removal_matrix, steps)
    return [
        availability_from_losses(losses[j, : int(steps[j]) + 1], incidence.n_toots)
        for j in range(steps.size)
    ]


def kill_vector(
    incidence: TootIncidence, removal_column: np.ndarray
) -> tuple[np.ndarray, int | None]:
    """Every toot's kill step under one column, as ``kill_vector`` returns it."""
    column = np.asarray(removal_column, dtype=np.float64).reshape(-1)
    safe = bool(_int32_safe_columns(column[:, None])[0])
    _check_rows(incidence.matrix)
    return _kill_column(incidence.matrix, column, safe)
