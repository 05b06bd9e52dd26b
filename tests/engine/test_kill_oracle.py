"""The kill kernel against the CSR incidence it replaced, exactly.

:func:`repro.engine.sharding.kill_vector` and
:func:`repro.engine.sharding.streaming_losses` read the placement arrays
range by range; ``tests/reference/incidence.py`` folds the binary CSR
incidence matrix of the same arrays in one piece.  For drawn arrays —
rows and whole ranges without replicas, any range bounds, cumulative and
temporal columns, and removal steps at ``2**31 - 1``, ``2**31`` and
``inf`` — the kill vectors must agree in values, dtype and sentinel, and
the loss tables must be the same integers (or both folds must refuse the
same schedule with the same error).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import temporal_removal_matrix
from repro.engine.placement import PlacementArrays
from repro.engine.sharding import ShardedIncidence, kill_vector, streaming_losses
from repro.errors import AnalysisError

from tests.reference import incidence as csr

#: Steps at the edges of the int32 path: the last value under the
#: sentinel, the sentinel itself, and the first value past int32.
EDGE_STEPS = (float(2**31 - 2), float(2**31 - 1), float(2**31))


@st.composite
def placement_arrays(draw) -> PlacementArrays:
    """Valid arrays: distinct replicas per row, never the home code.

    A share of the rows (sometimes all of them) holds no replica, so
    whole ranges can be replica-free.
    """
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 12))
    empty_share = draw(st.sampled_from((0.0, 0.3, 0.8, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    home = rng.integers(0, m, size=n).astype(np.int64)
    counts = rng.integers(0, min(m - 1, 4) + 1, size=n)
    counts[rng.random(n) < empty_share] = 0
    replicas = [
        rng.permutation(np.delete(np.arange(m), home[t]))[: counts[t]] for t in range(n)
    ]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return PlacementArrays(
        strategy="drawn",
        toot_urls=[f"t{t}" for t in range(n)],
        domains=tuple(f"d{j:02d}.example" for j in range(m)),
        home=home,
        replica_indices=np.concatenate(replicas).astype(np.int64),
        replica_indptr=indptr,
    ).validate()


@st.composite
def range_bounds(draw, n: int) -> list[tuple[int, int]]:
    """Any contiguous split of ``0..n`` into non-empty ranges."""
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, n - 1)), max_size=8))) - {n})
    edges = [0] + cuts + [n]
    return list(zip(edges[:-1], edges[1:]))


@st.composite
def removal_column(draw, m: int, steps: int) -> np.ndarray:
    """Per-domain removal steps: in-schedule, never removed, or at the int32 edge."""
    values = st.one_of(
        st.integers(1, steps).map(float),
        st.just(np.inf),
        st.sampled_from(EDGE_STEPS),
    )
    return np.asarray(draw(st.lists(values, min_size=m, max_size=m)), dtype=np.float64)


@st.composite
def oracle_cases(draw):
    """``(arrays, bounds, removal_matrix, steps_per_schedule)``."""
    arrays = draw(placement_arrays())
    m = arrays.n_domains
    bounds = draw(range_bounds(arrays.n_toots))
    columns, lengths = [], []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.integers(1, 20))
        columns.append(draw(removal_column(m, steps))[:, None])
        lengths.append(steps)
    ticks = draw(st.integers(0, 3))
    if ticks:
        down = np.asarray(
            draw(st.lists(st.booleans(), min_size=m * ticks, max_size=m * ticks))
        ).reshape(m, ticks)
        columns.append(temporal_removal_matrix(down))
        lengths.extend([1] * ticks)
    return arrays, bounds, np.concatenate(columns, axis=1), np.asarray(lengths)


def outcome(compute):
    """The loss table as a list, or the error a fold refused it with."""
    try:
        return compute().tolist()
    except AnalysisError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(case=oracle_cases())
def test_kill_vectors_equal_the_csr_reference(case):
    arrays, bounds, removal_matrix, _ = case
    sharded = ShardedIncidence.from_arrays(arrays, bounds=bounds)
    incidence = csr.TootIncidence.from_arrays(arrays)
    for j in range(removal_matrix.shape[1]):
        column = removal_matrix[:, j]
        kill, sentinel = kill_vector(sharded, column)
        expected, expected_sentinel = csr.kill_vector(incidence, column)
        assert sentinel == expected_sentinel
        assert kill.dtype == expected.dtype
        assert np.array_equal(kill, expected)


@settings(max_examples=400, deadline=None)
@given(case=oracle_cases())
def test_loss_tables_equal_the_csr_reference(case):
    arrays, bounds, removal_matrix, steps = case
    sharded = ShardedIncidence.from_arrays(arrays, bounds=bounds)
    incidence = csr.TootIncidence.from_arrays(arrays)
    assert outcome(lambda: streaming_losses(sharded, removal_matrix, steps)) == outcome(
        lambda: csr.losses_per_step_batch(incidence.matrix, removal_matrix, steps)
    )
