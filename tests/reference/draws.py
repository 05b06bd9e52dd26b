"""The batched random draw as first written: an O(rounds²) repeat scan.

:func:`batch_distinct_draws` is the kernel that
:func:`repro.engine.placement._batch_distinct_draws` replaced, kept
verbatim apart from reading the chunk size and the dense continuation
from :mod:`repro.engine.placement` at call time, so a test that
monkeypatches either changes both kernels alike.  It flags every
repeat by comparing each round with all earlier rounds of its row, and
maps weighted variates to candidates with ``searchsorted``.  The fast
kernel must return exactly the same ``(n, k)`` array for every input.
"""

from __future__ import annotations

import numpy as np

from repro.engine import placement


def batch_distinct_draws(
    rng: np.random.Generator,
    n: int,
    m: int,
    k: int,
    log_weights: np.ndarray | None,
) -> np.ndarray:
    """``(n, k)`` distinct candidate indices per row, one batched pass.

    The lazy Gumbel top-k race: draw ``k + 5`` i.i.d. categorical
    rounds per row and keep the first k distinct candidates — the
    arrival order of an i.i.d. race is exactly the descending order of
    Gumbel-perturbed keys, so resolved rows already hold the Gumbel
    top-k sample.  Rows that fail to resolve (likelier under heavy
    weight skew) are *continued*, not redrawn: their partial distinct
    picks are kept and forced into a dense Gumbel top-k over the
    remaining candidates.  By memorylessness of the race, the
    continuation conditioned on any prefix is a fresh race on the
    not-yet-drawn candidates, so the combined draw is exact for any
    skew.  (A fresh redraw of stragglers would *not* be: keeping only
    rows that resolved within the truncated race conditions them on
    fast resolution and under-represents collision-prone heavy
    candidates.)
    """
    out = np.empty((n, k), dtype=np.int64)
    rounds = k + 5
    if 2 * rounds >= m:
        # the race would cost as much as the dense keys — go dense directly
        placement._dense_gumbel_top_k(rng, np.arange(n), out, m, k, log_weights)
        return out
    cumulative = None
    if log_weights is not None:
        cumulative = np.cumsum(np.exp(log_weights))
        # pin the tail to exactly 1.0 *from the last positive-weight
        # candidate on*, so cumsum float error can neither lose the final
        # mass nor hand it to a zero-weight candidate
        last_positive = int(np.nonzero(np.isfinite(log_weights))[0][-1])
        cumulative[last_positive:] = 1.0
    unresolved_rows: list[np.ndarray] = []
    partial_rows: list[np.ndarray] = []  # row id repeated per found pick
    partial_picks: list[np.ndarray] = []
    chunk_rows = max(1, placement._CHUNK_ELEMENTS // rounds)
    for start in range(0, n, chunk_rows):
        rows = min(chunk_rows, n - start)
        if cumulative is None:
            draws = rng.integers(0, m, size=(rows, rounds))
        else:
            draws = cumulative.searchsorted(rng.random((rows, rounds)), side="right")
        repeat = np.zeros((rows, rounds), dtype=bool)
        for j in range(1, rounds):
            repeat[:, j] = (draws[:, :j] == draws[:, j : j + 1]).any(axis=1)
        rank = np.cumsum(~repeat, axis=1)
        resolved = rank[:, -1] >= k
        first_k = (~repeat) & (rank <= k)
        out[start : start + rows][resolved] = draws[resolved][
            first_k[resolved]
        ].reshape(-1, k)
        bad = ~resolved
        if bad.any():
            bad_ids = np.nonzero(bad)[0] + start
            unresolved_rows.append(bad_ids)
            found = ~repeat[bad]  # every non-repeat pick of an unresolved row
            partial_rows.append(np.repeat(bad_ids, found.sum(axis=1)))
            partial_picks.append(draws[bad][found])
    stragglers = (
        np.concatenate(unresolved_rows) if unresolved_rows else np.empty(0, np.int64)
    )
    if stragglers.size:
        placement._dense_gumbel_top_k(
            rng,
            stragglers,
            out,
            m,
            k,
            log_weights,
            partial_rows=np.concatenate(partial_rows),
            partial_picks=np.concatenate(partial_picks),
        )
    return out
