"""The kill kernel and the loss counts every availability answer rests on.

A toot dies at the latest removal step among its holders, so with a
per-domain step table its **kill step** is ``max(step[home[t]],
max(step[replicas(t)]))``.  :func:`kill_column` evaluates that for one
toot range of the integer-coded
:class:`~repro.engine.placement.PlacementArrays`: a gather of
``step[home]``, and a :func:`numpy.maximum.reduceat` of the gathered
replica steps over the rows that have replicas, maxed into those rows.
Losses per step are one :func:`numpy.bincount`, and a curve one
cumulative sum.  Every fold — sweep loss tables, temporal columns,
serve's kill vectors — runs this kernel; maxima and integer counts are
exact, so it equals the per-toot loops and the CSR kernels it replaced
(kept as oracles in ``tests/reference/``) bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharding import IncidenceShard


#: Per-domain removal steps at or above this value cannot use the int32
#: fast path (the sentinel itself must stay the unique "never removed"
#: marker).
_INT32_SENTINEL = np.iinfo(np.int32).max


def _int32_safe_columns(removal_matrix: np.ndarray) -> np.ndarray:
    """Classify every schedule column in one vectorised pass.

    ``safe[j]`` is true when column ``j``'s finite removal steps all fit
    under the int32 sentinel, i.e. the gather/reduceat pass can run in
    int32.  Infinite entries ("never removed") are masked to ``-inf`` so
    they cannot veto the fast path.
    """
    masked = np.where(np.isfinite(removal_matrix), removal_matrix, -np.inf)
    return masked.max(axis=0) < float(_INT32_SENTINEL)


def step_table(column: np.ndarray, safe: bool) -> tuple[np.ndarray, int | None]:
    """The per-domain table the kernel gathers from, and its survivor marker.

    On the int32 path (``safe``, see :func:`_int32_safe_columns`) the
    table is int32 with :data:`_INT32_SENTINEL` for "never removed",
    which halves the gather traffic of float64; removal steps are small
    integers.  Otherwise the float64 column itself, with ``np.inf``
    survivors and a ``None`` marker.
    """
    if not safe:
        return column, None
    table = np.where(np.isfinite(column), column, float(_INT32_SENTINEL))
    return table.astype(np.int32), _INT32_SENTINEL


def replica_segments(replica_indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a toot range that hold replicas, and their ``reduceat`` offsets.

    ``replica_indptr`` is the range's slice of the placement pointers
    (one entry per toot plus one, not rebased).  Rows without replicas
    are left out, so every offset opens a non-empty segment and
    ``reduceat`` yields exactly each listed row's maximum.  Offsets are
    relative to the range's first replica.  A fold computes them once
    per range and reuses them for every column.
    """
    rows = np.flatnonzero(np.diff(replica_indptr))
    return rows, replica_indptr[rows] - replica_indptr[0]


def kill_column(
    shard: "IncidenceShard",
    segments: tuple[np.ndarray, np.ndarray],
    table: np.ndarray,
) -> np.ndarray:
    """Every toot's kill step in one range under one removal column.

    ``segments`` is :func:`replica_segments` of the range and ``table``
    the column's :func:`step_table`.  The result has the table's dtype:
    int32 with the sentinel marking survivors, or float64 with ``inf``.
    """
    kill = table[shard.home]
    rows, offsets = segments
    if rows.size:
        latest = np.maximum.reduceat(table[shard.replica_indices], offsets)
        np.maximum(latest, kill[rows], out=latest)
        kill[rows] = latest
    return kill


def _schedules(
    removal_matrix: np.ndarray, steps_per_schedule: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The removal matrix as float64 ``(n_domains, k)`` and one length per column."""
    removal_matrix = np.asarray(removal_matrix, dtype=np.float64)
    if removal_matrix.ndim != 2:
        raise AnalysisError("removal_matrix must be 2-D (n_domains, k)")
    steps = np.asarray(steps_per_schedule, dtype=np.int64)
    if steps.shape != (removal_matrix.shape[1],):
        raise AnalysisError("steps_per_schedule must give one length per schedule")
    return removal_matrix, steps


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
    shard: "IncidenceShard",
    removal_matrix: np.ndarray,
    steps_per_schedule: np.ndarray,
) -> np.ndarray:
    """Per-step loss counts of one toot range for many schedules.

    One :func:`kill_column` pass per schedule, each reduced at once to
    its ``bincount`` of per-step losses, so no kill matrix is kept.
    Returns a dense ``(k, max_steps + 1)`` int64 array (``losses[j, s]``
    toots of the range die at step ``s`` of schedule ``j``; columns
    beyond a schedule's own length stay zero).

    Losses are raw integer counts, which makes them **additive across
    disjoint toot ranges** — the composition law
    :func:`~repro.engine.sharding.streaming_losses` folds by.
    """
    removal_matrix, steps = _schedules(removal_matrix, steps_per_schedule)
    n_schedules = removal_matrix.shape[1]
    max_steps = int(steps.max()) if n_schedules else 0
    losses = np.zeros((n_schedules, max_steps + 1), dtype=np.int64)
    safe = _int32_safe_columns(removal_matrix)
    segments = replica_segments(shard.replica_indptr)
    for j in range(n_schedules):
        schedule_steps = int(steps[j])
        table, sentinel = step_table(removal_matrix[:, j], bool(safe[j]))
        kill = kill_column(shard, segments, table)
        losses[j, : schedule_steps + 1] = losses_per_step(kill, schedule_steps, sentinel)
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
    integers, the streaming fold evaluates temporal schedules
    unchanged — and bit-identically at any range split.
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
