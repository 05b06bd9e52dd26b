"""Row-subset query kernels: exact equality with slicing the full matrix.

These are the per-query primitives the serving layer composes —
``PlacementArrays.rows_incidence``, ``PlacementArrays.rows_holding``,
and the kill vector whose gathers answer every subset query — each
checked against the brute-force equivalent over the CSR incidence
matrix of ``tests/reference/incidence.py`` or the batch fold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import losses_per_step
from repro.engine.placement import PlacementArrays
from repro.engine.sharding import ShardedIncidence, kill_vector, streaming_losses
from repro.engine.sweep import StrategySpec
from repro.errors import AnalysisError

from tests.engine.test_equivalence import random_scenario
from tests.reference.incidence import TootIncidence, losses_per_step_batch


def scenario_incidences(seed: int):
    """(arrays, monolithic incidence, sharded incidence) for one scenario."""
    toots, graphs, domains, _ = random_scenario(seed)
    arrays = StrategySpec.subscription().build_from_corpus(toots.corpus, graphs=graphs)
    incidence = TootIncidence.from_placements(arrays)
    sharded = ShardedIncidence.from_arrays(arrays, 17)
    return arrays, incidence, sharded


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
    def test_monolithic_equals_arrays_equals_dense_column(self, seed):
        arrays, incidence, _ = scenario_incidences(seed)
        dense = np.asarray(incidence.matrix.todense())
        for code, domain in enumerate(incidence.domains):
            want = np.flatnonzero(dense[:, code]).astype(np.int64)
            got_mono = incidence.rows_holding(domain)
            got_arrays = arrays.rows_holding(domain)
            assert np.array_equal(got_mono, want), domain
            assert np.array_equal(got_arrays, want), domain
            assert got_arrays.dtype == np.int64

    @pytest.mark.parametrize("seed", range(3))
    def test_random_placements_with_empty_rows(self, seed):
        """Toots whose only draw hit their home hold no replica row at all."""
        toots, _, domains, _ = random_scenario(seed)
        arrays = StrategySpec.random(1, seed=seed).build_from_corpus(
            toots.corpus, candidate_domains=domains
        )
        assert (np.diff(arrays.replica_indptr) == 0).any()
        incidence = TootIncidence.from_arrays(arrays)
        for domain in arrays.domains:
            assert np.array_equal(
                arrays.rows_holding(domain), incidence.rows_holding(domain)
            ), domain

    def test_unknown_domain_is_empty(self):
        arrays, incidence, _ = scenario_incidences(3)
        assert incidence.rows_holding("nowhere.example").size == 0
        assert arrays.rows_holding("nowhere.example").size == 0

    def test_rows_ascend(self):
        _, incidence, _ = scenario_incidences(4)
        for domain in list(incidence.domains)[:5]:
            rows = incidence.rows_holding(domain)
            assert (np.diff(rows) > 0).all()


#: Finite removal steps that do not fit under the int32 sentinel, so a
#: column holding one takes the float64 fallback.
BIG_STEPS = (2**31 - 1, 2**31, 2**40)


@st.composite
def kill_cases(draw):
    """``(arrays, shard bounds, removal column, steps, rows)``."""
    n_domains = draw(st.integers(1, 6))
    n_toots = draw(st.integers(1, 30))
    domain = st.integers(0, n_domains - 1)
    home = np.asarray(draw(st.lists(domain, min_size=n_toots, max_size=n_toots)))
    replica_rows = [
        sorted(set(draw(st.lists(domain, max_size=n_domains))) - {int(home[t])})
        for t in range(n_toots)
    ]
    arrays = PlacementArrays(
        strategy="drawn",
        toot_urls=[f"t{t}" for t in range(n_toots)],
        domains=tuple(f"d{j}.example" for j in range(n_domains)),
        home=home.astype(np.int64),
        replica_indices=np.asarray(
            [code for row in replica_rows for code in row], dtype=np.int64
        ),
        replica_indptr=np.concatenate(
            ([0], np.cumsum([len(row) for row in replica_rows]))
        ).astype(np.int64),
    ).validate()
    cuts = draw(st.lists(st.integers(1, n_toots - 1), max_size=4)) if n_toots > 1 else []
    edges = [0, *sorted(set(cuts)), n_toots]
    bounds = list(zip(edges[:-1], edges[1:]))
    steps = draw(st.integers(1, 12))
    step = st.one_of(
        st.just(np.inf), st.integers(1, steps).map(float), st.sampled_from(BIG_STEPS).map(float)
    )
    column = np.asarray(draw(st.lists(step, min_size=n_domains, max_size=n_domains)))
    rows = np.asarray(
        draw(st.lists(st.integers(0, n_toots - 1), min_size=1, max_size=2 * n_toots)),
        dtype=np.int64,
    )
    return arrays, bounds, column, steps, rows


def outcome(compute):
    """The losses a computation returns, or the error it raises."""
    try:
        return compute().tolist()
    except AnalysisError as exc:
        return str(exc)


class TestKillVector:
    """``kill[rows]`` and one count equal the batch fold over those rows."""

    @settings(max_examples=300, deadline=None)
    @given(case=kill_cases())
    def test_gathers_equal_the_batch_kernels(self, case):
        arrays, bounds, column, steps, rows = case
        sharded = ShardedIncidence.from_arrays(arrays, bounds=bounds)
        kill, sentinel = kill_vector(sharded, column)
        finite = column[np.isfinite(column)]
        assert (sentinel is None) == bool(finite.size and finite.max() >= BIG_STEPS[0])
        schedule = np.asarray([steps], dtype=np.int64)
        assert outcome(lambda: losses_per_step(kill[rows], steps, sentinel)) == outcome(
            lambda: losses_per_step_batch(
                arrays.rows_incidence(rows), column[:, None], schedule
            )[0]
        )
        assert outcome(lambda: losses_per_step(kill, steps, sentinel)) == outcome(
            lambda: streaming_losses(sharded, column[:, None], schedule)[0]
        )

    def test_float_fallback_counts_survivors_of_a_big_step(self):
        # d1's removal step does not fit in int32, but every toot it holds
        # is also held by d2, which is never removed
        arrays = PlacementArrays(
            strategy="fixed",
            toot_urls=["a", "b", "c"],
            domains=("d0", "d1", "d2"),
            home=np.asarray([0, 1, 0], dtype=np.int64),
            replica_indices=np.asarray([2], dtype=np.int64),
            replica_indptr=np.asarray([0, 0, 1, 1], dtype=np.int64),
        ).validate()
        column = np.asarray([3.0, float(2**40), np.inf])
        sharded = ShardedIncidence.from_arrays(arrays, bounds=[(0, 2), (2, 3)])
        kill, sentinel = kill_vector(sharded, column)
        assert sentinel is None and kill.dtype == np.float64
        assert kill.tolist() == [3.0, np.inf, 3.0]
        assert losses_per_step(kill, 4, sentinel).tolist() == [0, 0, 0, 2, 0]
        assert losses_per_step(kill[[1, 2, 2]], 4, sentinel).tolist() == [0, 0, 0, 2, 0]

    def test_int32_path_marks_survivors_with_the_sentinel(self):
        arrays, _, sharded = scenario_incidences(1)
        column = np.full(arrays.n_domains, np.inf)
        column[0] = 1.0
        kill, sentinel = kill_vector(sharded, column)
        assert kill.dtype == np.int32 and sentinel == np.iinfo(np.int32).max
        assert set(np.unique(kill).tolist()) <= {1, sentinel}

    def test_column_must_cover_the_domains(self):
        _, _, sharded = scenario_incidences(0)
        with pytest.raises(AnalysisError, match="one step per domain"):
            kill_vector(sharded, np.ones(sharded.n_domains + 1))
