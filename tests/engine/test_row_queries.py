"""Row-subset query kernels: exact equality with slicing the full matrix.

These are the per-query primitives the serving layer composes —
``PlacementArrays.rows_incidence``, ``TootIncidence.rows_holding`` /
``ShardedIncidence.rows_holding`` — each checked against the
brute-force equivalent over the monolithic incidence matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import replication
from repro.engine.incidence import TootIncidence
from repro.engine.sharding import ShardedIncidence

from tests.engine.test_equivalence import random_scenario


def scenario_incidences(seed: int):
    """(arrays, monolithic incidence, sharded incidence) for one scenario."""
    toots, graphs, domains, _ = random_scenario(seed)
    placements = replication.subscription_replication(toots, graphs)
    incidence = TootIncidence.from_placements(placements)
    sharded = ShardedIncidence.from_arrays(placements.arrays, 17)
    return placements.arrays, incidence, sharded


class TestRowsIncidence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_matrix_rows(self, seed):
        arrays, incidence, _ = scenario_incidences(seed)
        rng = np.random.default_rng(seed + 200)
        n = incidence.matrix.shape[0]
        for size in (1, 4, n):
            rows = np.unique(rng.integers(0, n, size=size)).astype(np.int64)
            subset = arrays.rows_incidence(rows)
            want = incidence.matrix[rows]
            assert subset.shape == want.shape
            assert (subset != want).nnz == 0

    def test_preserves_row_order_and_repeats(self):
        arrays, incidence, _ = scenario_incidences(2)
        rows = np.asarray([7, 1, 7, 3], dtype=np.int64)
        subset = arrays.rows_incidence(rows)
        want = incidence.matrix[rows]
        assert (subset != want).nnz == 0


class TestRowsHolding:
    @pytest.mark.parametrize("seed", range(5))
    def test_monolithic_equals_sharded_equals_dense_column(self, seed):
        _, incidence, sharded = scenario_incidences(seed)
        dense = np.asarray(incidence.matrix.todense())
        for code, domain in enumerate(incidence.domains):
            want = np.flatnonzero(dense[:, code]).astype(np.int64)
            got_mono = incidence.rows_holding(domain)
            got_sharded = sharded.rows_holding(domain)
            assert np.array_equal(got_mono, want), domain
            assert np.array_equal(got_sharded, want), domain

    def test_unknown_domain_is_empty(self):
        _, incidence, sharded = scenario_incidences(3)
        assert incidence.rows_holding("nowhere.example").size == 0
        assert sharded.rows_holding("nowhere.example").size == 0

    def test_rows_ascend(self):
        _, incidence, _ = scenario_incidences(4)
        for domain in list(incidence.domains)[:5]:
            rows = incidence.rows_holding(domain)
            assert (np.diff(rows) > 0).all()
