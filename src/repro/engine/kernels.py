"""Batch reduction kernels over toot×instance incidence matrices.

Each kernel replaces a per-toot Python loop with one vectorised pass:

* a toot's **kill step** is the maximum removal step over the domains
  holding a copy (it dies only when its *last* replica disappears);
* per-row maxima over the CSR structure come from
  :func:`numpy.maximum.reduceat` on the ``indptr``/``indices`` arrays;
* losses per step are a single :func:`numpy.bincount`, and the
  availability curve is one cumulative sum.

The arithmetic mirrors the legacy loops operation-for-operation, so the
results are bit-identical — the differential suite in
``tests/engine/test_equivalence.py`` holds the engine to exact equality.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import AnalysisError


#: Per-domain removal steps at or above this value cannot use the int32
#: fast path (the sentinel itself must stay the unique "never removed"
#: marker).
_INT32_SENTINEL = np.iinfo(np.int32).max


def _check_rows(matrix: sparse.csr_matrix) -> None:
    if matrix.shape[0] == 0:
        raise AnalysisError("the placement map is empty")
    if np.any(np.diff(matrix.indptr) == 0):
        raise AnalysisError("every toot needs at least one holding instance")


def _int32_safe_columns(removal_matrix: np.ndarray) -> np.ndarray:
    """Classify every schedule column in one vectorised pass.

    ``safe[j]`` is true when column ``j``'s finite removal steps all fit
    under the int32 sentinel, i.e. the gather/reduceat pass can run in
    int32.  Infinite entries ("never removed") are masked to ``-inf`` so
    they cannot veto the fast path.
    """
    masked = np.where(np.isfinite(removal_matrix), removal_matrix, -np.inf)
    return masked.max(axis=0) < float(_INT32_SENTINEL)


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


def losses_per_step(
    kill: np.ndarray, steps: int, sentinel: int | None = None
) -> np.ndarray:
    """Count the toots dying at each step (index 0 is always zero).

    ``kill`` is either a float vector with ``np.inf`` survivors
    (``sentinel`` None) or an int32 vector whose survivors hold
    ``sentinel`` — the two shapes
    :func:`~repro.engine.sharding.kill_vector` returns.  Any subset of a
    kill vector is again a kill vector, so one gather plus this count
    answers the losses of any row subset.
    """
    if sentinel is None:
        killed = kill[np.isfinite(kill)].astype(np.int64)
    else:
        killed = kill[kill != sentinel]
    if killed.size and (killed.min() < 1 or killed.max() > steps):
        raise AnalysisError("kill steps fall outside the removal schedule")
    return np.bincount(killed, minlength=steps + 1)[: steps + 1]


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


def temporal_removal_matrix(down: np.ndarray) -> np.ndarray:
    """Encode a per-tick down matrix as single-step schedule columns.

    ``down`` is boolean ``(n_domains, ticks)``; the result maps down
    domains to removal step ``1`` and up domains to ``np.inf``, one
    column per tick.  Each column is then an ordinary one-step schedule:
    the per-row max rule yields a finite kill step **iff every holder is
    down at that tick** (any live holder contributes ``inf``), so
    ``losses[:, 1]`` from :func:`losses_per_step_batch` counts the toots
    unavailable at each tick.  Because the counts stay plain additive
    integers, the sharded streaming fold evaluates temporal schedules
    unchanged — and bit-identically.
    """
    down = np.asarray(down)
    if down.ndim != 2:
        raise AnalysisError("the down matrix must be 2-D (n_domains, ticks)")
    return np.where(down, 1.0, np.inf)


def temporal_availability_from_counts(counts: np.ndarray, total: int) -> np.ndarray:
    """Availability time series from per-tick unavailable counts.

    Index 0 is the no-outage baseline (1.0); index ``t`` is the fraction
    of toots with at least one live holder at tick ``t``.  Unlike the
    cumulative curves there is no running sum — ticks are independent
    snapshots, and the series is not monotone.
    """
    if total <= 0:
        raise AnalysisError("the placement map is empty")
    counts = np.asarray(counts, dtype=np.int64)
    return np.concatenate(([1.0], 1.0 - counts / total))


def availability_from_losses(losses: np.ndarray, total: int) -> np.ndarray:
    """Availability curve (length ``steps + 1``) from per-step losses."""
    if total <= 0:
        raise AnalysisError("the placement map is empty")
    lost = np.cumsum(losses.astype(np.int64))
    return 1.0 - lost / total


def curves_from_loss_table(
    losses: np.ndarray, steps_per_schedule: np.ndarray, total: int
) -> list[np.ndarray]:
    """One availability curve per schedule from a ``(k, max_steps+1)`` table.

    Each curve is cut to its own schedule length — the shared final step
    of :func:`availability_curves_batch` and the sharded streaming path.
    """
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    return [
        availability_from_losses(losses[j, : int(steps[j]) + 1], total)
        for j in range(steps.size)
    ]


def availability_curve_array(
    matrix: sparse.csr_matrix, removal_steps: np.ndarray, steps: int
) -> np.ndarray:
    """Availability after 0..``steps`` removals, as one dense vector."""
    kill = kill_steps(matrix, removal_steps)
    losses = losses_per_step(kill, steps)
    return availability_from_losses(losses, matrix.shape[0])


def availability_curves_batch(
    matrix: sparse.csr_matrix,
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> list[np.ndarray]:
    """Availability curves for many schedules sharing one incidence matrix.

    ``steps_per_schedule[j]`` is the schedule length of column ``j``; the
    returned list holds one curve of length ``steps_per_schedule[j] + 1``
    per schedule.

    Only the curves are needed here, so the reduction streams through
    :func:`losses_per_step_batch` — one schedule at a time over reused
    gather buffers — instead of materialising the full ``(n_toots, k)``
    kill matrix.
    """
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    losses = losses_per_step_batch(matrix, removal_matrix, steps)
    return curves_from_loss_table(losses, steps, matrix.shape[0])
