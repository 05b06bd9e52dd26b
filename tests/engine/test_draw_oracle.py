"""The random draw kernel against its reference, exactly.

``repro.engine.placement._batch_distinct_draws`` must return the same
``(n, k)`` array as the O(rounds²) repeat scan it replaced
(``tests/reference/draws.py``) for every input: any seed, uniform or
weighted draws, zero weights, extreme skew that sends rows to the dense
continuation, ``2·(k+5) ≥ m`` and ``k = m`` (which skip the race), and
chunk budgets small enough to split the race into many chunks.  The
guide table that maps weighted variates to candidates must agree with
``searchsorted(..., side="right")`` everywhere, bucket edges and ties
between zero-weight candidates included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import placement
from repro.errors import AnalysisError

from tests.reference.draws import batch_distinct_draws


def candidate_names(m: int) -> list[str]:
    return [f"c{j:03d}.example" for j in range(m)]


@st.composite
def weight_vectors(draw, m: int, k: int):
    """Weights over ``m`` candidates with at least ``k`` positive.

    Positive weights span 60 orders of magnitude, so some draws are
    dominated by one or two candidates; up to ``m - k`` are zero.
    """
    exponents = draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))
    weights = [10.0**e for e in exponents]
    order = draw(st.permutations(range(m)))
    for j in order[: draw(st.integers(0, m - k))]:
        weights[j] = 0.0
    return weights


@st.composite
def draw_cases(draw):
    """``(n, m, k, seed, log_weights, chunk_elements)``."""
    m = draw(st.integers(2, 150))
    # k = m (one case in ten) and 2·(k+5) ≥ m go straight to the dense keys
    k = m if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, min(m, 12)))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    log_weights = None
    if draw(st.booleans()):
        weights = draw(weight_vectors(m, k))
        names = candidate_names(m)
        log_weights = placement._normalised_log_weights(
            names, dict(zip(names, weights)), k
        )
    chunk_elements = draw(st.sampled_from((placement._CHUNK_ELEMENTS, 40, 7)))
    return n, m, k, seed, log_weights, chunk_elements


@settings(max_examples=300, deadline=None)
@given(draw_cases())
def test_kernel_equals_reference(case):
    n, m, k, seed, log_weights, chunk_elements = case
    with mock.patch.object(placement, "_CHUNK_ELEMENTS", chunk_elements):
        got = placement._batch_distinct_draws(
            np.random.default_rng(seed), n, m, k, log_weights
        )
        want = batch_distinct_draws(np.random.default_rng(seed), n, m, k, log_weights)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("weighted", (False, True))
def test_three_chunks_equal_reference(weighted):
    """600,000 rows at k = 9 are drawn in three chunks of the default budget."""
    n, m, k = 600_000, 381, 9
    log_weights = None
    if weighted:
        names = candidate_names(m)
        skew = 1.0 / np.arange(1, m + 1) ** 1.2
        skew[::7] = 0.0
        log_weights = placement._normalised_log_weights(
            names, dict(zip(names, skew.tolist())), k
        )
    assert n > 2 * (placement._CHUNK_ELEMENTS // (k + 5))
    got = placement._batch_distinct_draws(np.random.default_rng(8), n, m, k, log_weights)
    want = batch_distinct_draws(np.random.default_rng(8), n, m, k, log_weights)
    assert np.array_equal(got, want)


# -- the guide table ----------------------------------------------------------


@st.composite
def guide_cases(draw):
    """``(cumulative, variates)`` with ties, bucket edges and their neighbours."""
    m = draw(st.integers(1, 80))
    weights = draw(weight_vectors(m, 1))
    names = candidate_names(m)
    log_weights = placement._normalised_log_weights(names, dict(zip(names, weights)), 1)
    cumulative = placement._cumulative_weights(log_weights)
    buckets = np.asarray(
        draw(st.lists(st.integers(0, placement._GUIDE_BUCKETS - 1), min_size=1)),
        dtype=np.float64,
    )
    edges = buckets / placement._GUIDE_BUCKETS
    below = np.nextafter(edges, -1.0)
    below = below[below >= 0.0]
    free = np.asarray(
        draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20)),
        dtype=np.float64,
    )
    inner = cumulative[cumulative < 1.0]  # u exactly on a candidate's boundary
    extremes = np.asarray([0.0, np.nextafter(1.0, 0.0)])
    variates = np.concatenate((edges, below, free, inner, np.nextafter(inner, 0.0), extremes))
    return cumulative, variates


@settings(max_examples=300, deadline=None)
@given(guide_cases())
def test_guide_table_equals_searchsorted(case):
    cumulative, variates = case
    got = placement._weighted_draws(cumulative, variates)
    assert np.array_equal(got, cumulative.searchsorted(variates, side="right"))


def test_guide_table_skips_zero_weight_ties():
    """Candidates with zero weight share a cumulative value and are never drawn."""
    names = candidate_names(6)
    weights = dict(zip(names, (1.0, 0.0, 0.0, 2.0, 0.0, 1.0)))
    cumulative = placement._cumulative_weights(
        placement._normalised_log_weights(names, weights, 1)
    )
    variates = np.linspace(0.0, np.nextafter(1.0, 0.0), 10_001)
    drawn = set(placement._weighted_draws(cumulative, variates).tolist())
    assert drawn == {0, 3, 5}


# -- weights that cannot be normalised ----------------------------------------


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", (float("inf"), float("nan"), float("-inf")))
    def test_rejected_naming_the_domain(self, bad):
        names = candidate_names(3)
        weights = {names[0]: 1.0, names[1]: bad, names[2]: 2.0}
        with pytest.raises(AnalysisError, match=names[1]):
            placement._normalised_log_weights(names, weights, 1)

    def test_overflowing_total_rejected(self):
        names = candidate_names(2)
        with pytest.raises(AnalysisError, match="not finite"):
            placement._normalised_log_weights(names, dict.fromkeys(names, 1e308), 1)

    @pytest.mark.parametrize("bad", (float("inf"), float("nan")))
    def test_random_builder_raises_analysis_error(self, bad):
        names = candidate_names(40)
        weights = dict.fromkeys(names, 1.0)
        weights[names[7]] = bad
        home = np.zeros(50, dtype=np.int64)
        with pytest.raises(AnalysisError, match=names[7]):
            placement.random_arrays_from_columns(
                range(50), home, tuple(names), names, 2, seed=1, weights=weights
            )
