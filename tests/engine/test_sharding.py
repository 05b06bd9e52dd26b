"""Differential suite for the streaming fold over toot ranges.

Folding range by range must be **bit-identical** to one range over the
whole corpus for every split — the composition law (per-step losses are
additive integer counts across toot ranges) admits no tolerance.  The
grid here crosses shard sizes {1, a prime, n_toots, n_toots + 7} (the
prime forces a ragged tail range) with every placement strategy —
no-replication, unweighted and weighted random, subscription — and holds
the kernel to the CSR incidence and the dict-backed maps of
``tests/reference/``.  No fold may build a CSR matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.engine import (
    ASRemoval,
    DEFAULT_SHARD_SIZE,
    InstanceRemoval,
    ShardedIncidence,
    availability_curves,
    kill_vector,
    losses_per_step,
    run_availability_sweep,
    streaming_losses,
)
from repro.engine.sharding import toot_ranges
from repro.engine.sweep import StrategySpec
from repro.errors import AnalysisError

from tests.engine.test_equivalence import random_scenario
from tests.engine.test_placement import flat_toots
from tests.reference import incidence as csr
from tests.reference.incidence import TootIncidence, kill_steps_batch
from tests.reference.replication import as_dict_map

N_TOOTS = 97
PRIME_SHARD = 13  # 97 = 7 * 13 + 6: ragged tail shard of 6 toots
SHARD_SIZES = (1, PRIME_SHARD, N_TOOTS, N_TOOTS + 7)


@pytest.fixture(scope="module")
def corpus():
    """One small corpus shared by the grid: toots, domains, weights, failures."""
    domains = [f"d{i}.example" for i in range(17)]
    toots = flat_toots(N_TOOTS, domains, seed=5)
    rng = np.random.default_rng(5)
    weights = {domain: float(w) for domain, w in zip(domains, rng.random(len(domains)) + 0.05)}
    asn_of = {domain: int(asn) for domain, asn in zip(domains, rng.integers(1, 6, len(domains)))}
    failures = [
        InstanceRemoval(domains, steps=10, name="forward"),
        InstanceRemoval(domains[::-1], steps=17, name="reverse"),
        ASRemoval(asn_of, sorted(set(asn_of.values())), steps=4, name="ases"),
    ]
    return toots, domains, weights, failures


def backends(corpus):
    """Every placement backend the engine supports, freshly built."""
    toots, domains, weights, _ = corpus
    return {
        "no-rep": StrategySpec.none().build_from_corpus(toots.corpus),
        "random": StrategySpec.random(3, seed=2).build_from_corpus(
            toots.corpus, candidate_domains=domains
        ),
        "weighted-random": StrategySpec.random(3, seed=2, weights=weights).build_from_corpus(
            toots.corpus, candidate_domains=domains
        ),
    }


# -- shard geometry ---------------------------------------------------------------


class TestShardGeometry:
    def test_bounds_partition_the_corpus(self, corpus):
        toots, domains, _, _ = corpus
        arrays = StrategySpec.none().build_from_corpus(toots.corpus)
        for shard_size in SHARD_SIZES:
            sharded = ShardedIncidence.from_arrays(arrays, shard_size)
            bounds = sharded.shard_bounds()
            assert bounds[0][0] == 0 and bounds[-1][1] == N_TOOTS
            assert all(a < b for a, b in bounds)
            assert all(prev[1] == cur[0] for prev, cur in zip(bounds, bounds[1:]))
            assert sharded.n_shards == len(bounds) == -(-N_TOOTS // shard_size)

    def test_prime_shard_size_leaves_ragged_tail(self, corpus):
        toots, _, _, _ = corpus
        arrays = StrategySpec.none().build_from_corpus(toots.corpus)
        sharded = ShardedIncidence.from_arrays(arrays, PRIME_SHARD)
        *full, tail = [stop - start for start, stop in sharded.shard_bounds()]
        assert set(full) == {PRIME_SHARD}
        assert tail == N_TOOTS % PRIME_SHARD

    def test_shards_are_zero_copy_slices_that_tile_the_arrays(self, corpus):
        toots, domains, _, _ = corpus
        arrays = StrategySpec.random(2, seed=9).build_from_corpus(
            toots.corpus, candidate_domains=domains
        )
        sharded = ShardedIncidence.from_arrays(arrays, PRIME_SHARD)
        shards = [sharded.shard(*bounds) for bounds in sharded.shard_bounds()]
        for shard in shards:
            assert np.shares_memory(shard.home, arrays.home)
            assert np.shares_memory(shard.replica_indptr, arrays.replica_indptr)
            if shard.replica_indices.size:
                assert np.shares_memory(shard.replica_indices, arrays.replica_indices)
        assert np.array_equal(np.concatenate([s.home for s in shards]), arrays.home)
        assert np.array_equal(
            np.concatenate([s.replica_indices for s in shards]), arrays.replica_indices
        )
        for shard in shards:
            assert np.array_equal(
                shard.replica_indptr, arrays.replica_indptr[shard.start : shard.stop + 1]
            )

    def test_invalid_geometry_raises(self, corpus):
        toots, _, _, _ = corpus
        arrays = StrategySpec.none().build_from_corpus(toots.corpus)
        with pytest.raises(AnalysisError):
            ShardedIncidence.from_arrays(arrays, 0)
        sharded = ShardedIncidence.from_arrays(arrays, PRIME_SHARD)
        with pytest.raises(AnalysisError):
            sharded.shard(-1, 5)
        with pytest.raises(AnalysisError):
            sharded.shard(0, N_TOOTS + 1)


# -- differential grid: sharded == unsharded, bit for bit -------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_every_backend_matches_unsharded(self, corpus, shard_size):
        _, _, _, failures = corpus
        for label, placements in backends(corpus).items():
            expected = availability_curves(placements, failures, shard_size=0)
            got = availability_curves(placements, failures, shard_size=shard_size)
            assert got == expected, (label, shard_size)

    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_subscription_backend_matches_unsharded(self, shard_size):
        toots, graphs, domains, asn_of = random_scenario(3)
        placements = StrategySpec.subscription().build_from_corpus(
            toots.corpus, graphs=graphs
        )
        failures = [
            InstanceRemoval(domains, steps=min(10, len(domains)), name="rank"),
            ASRemoval(asn_of, sorted(set(asn_of.values())), steps=3, name="ases"),
        ]
        expected = availability_curves(placements, failures, shard_size=0)
        got = availability_curves(placements, failures, shard_size=shard_size)
        assert got == expected

    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_reference_dict_curves_equal_the_kernel(self, corpus, shard_size):
        """The dict-backed map, folded as CSR shards, gives the kernel's curves."""
        _, _, _, failures = corpus
        placements = backends(corpus)["random"]
        got = availability_curves(placements, failures, shard_size=shard_size)
        incidence = TootIncidence.from_placements(as_dict_map(placements))
        steps = np.asarray([f.effective_steps() for f in failures], dtype=np.int64)
        removal_matrix = np.column_stack(
            [
                incidence.removal_vector(failure.removal_index(), int(steps[j]))
                for j, failure in enumerate(failures)
            ]
        )
        expected = csr.sharded_availability_curves(
            incidence, removal_matrix, steps, shard_size
        )
        for failure, curve in zip(failures, expected):
            assert [p.availability for p in got[failure.name]] == curve.tolist()

    def test_sweep_api_threads_the_knobs(self, corpus):
        toots, domains, _, failures = corpus
        strategies = [StrategySpec.none(), StrategySpec.random(2, seed=4)]
        baseline = run_availability_sweep(
            toots, strategies, failures, candidate_domains=domains
        )
        sharded = run_availability_sweep(
            toots,
            strategies,
            failures,
            candidate_domains=domains,
            shard_size=PRIME_SHARD,
        )
        assert sharded.curves == baseline.curves


# -- the range policy and knob validation ---------------------------------------


class TestResolution:
    def test_range_policy(self, corpus):
        toots, _, _, _ = corpus
        arrays = StrategySpec.none().build_from_corpus(toots.corpus)
        assert toot_ranges(arrays, 0).shard_bounds() == [(0, N_TOOTS)]
        assert toot_ranges(arrays, PRIME_SHARD).shard_bounds() == (
            ShardedIncidence.from_arrays(arrays, PRIME_SHARD).shard_bounds()
        )
        # the corpus's own shards, else DEFAULT_SHARD_SIZE ranges
        assert toot_ranges(arrays).shard_bounds() == [
            tuple(bounds) for bounds in arrays.source_bounds
        ]
        arrays.source_bounds = None
        assert toot_ranges(arrays).shard_bounds() == (
            ShardedIncidence.from_arrays(arrays, DEFAULT_SHARD_SIZE).shard_bounds()
        )

    def test_negative_shard_size_raises(self, corpus):
        _, _, _, failures = corpus
        placements = backends(corpus)["random"]
        with pytest.raises(AnalysisError):
            availability_curves(placements, failures, shard_size=-1)


# -- new failure models: correlated groups and temporal schedules -----------------


def new_models(corpus):
    """Correlated, scheduled and temporal models over the corpus domains."""
    from repro.engine import CountryRemoval, HosterRemoval, ScheduledDowntime, TemporalChurn

    toots, domains, _, _ = corpus
    rng = np.random.default_rng(7)
    asn_of = {d: int(a) for d, a in zip(domains, rng.integers(1, 6, len(domains)))}
    hoster_of = {d: f"H{a % 3}" for d, a in asn_of.items()}
    country_of = {d: ("JP", "US", "FR")[i % 3] for i, d in enumerate(domains)}
    return [
        HosterRemoval(hoster_of, sorted(set(hoster_of.values())), steps=3, name="hosters"),
        CountryRemoval(country_of, ("JP", "US", "FR"), steps=3, name="countries"),
        ScheduledDowntime(
            # non-monotone: overlapping outages with recoveries
            {
                domains[0]: [(1, 4), (8, 11)],
                domains[1]: [(2, 3)],
                domains[5]: [(5, 12)],
                domains[9]: [(3, 6), (7, 9)],
            },
            steps=12,
            name="scheduled",
        ),
        TemporalChurn(
            domains,
            (0.5, 1.0, 2.0, 4.0),
            {d: 0.1 + 0.04 * i for i, d in enumerate(domains)},
            steps=15,
            horizon_days=20.0,
            seed=4,
            name="churn",
        ),
    ]


class TestNewModelSharding:
    """The additive loss fold covers the correlated/temporal models too.

    Temporal schedules are non-monotone — domains go down and come back —
    yet each tick is one single-step column of integer losses, so the
    sharded streaming path must stay bit-identical at every shard size.
    """

    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_every_backend_matches_unsharded(self, corpus, shard_size):
        models = new_models(corpus)
        for label, placements in backends(corpus).items():
            expected = availability_curves(placements, models, shard_size=0)
            got = availability_curves(placements, models, shard_size=shard_size)
            assert got == expected, (label, shard_size)

    def test_temporal_loss_table_matches_monolithic(self, corpus):
        """streaming_losses over tick columns == the monolithic batch, bit for bit."""
        from repro.engine import temporal_removal_matrix
        from tests.reference.incidence import losses_per_step_batch

        models = new_models(corpus)
        temporal = [m for m in models if m.temporal]
        placements = backends(corpus)["random"]
        incidence = TootIncidence.from_placements(placements)
        sharded = ShardedIncidence.from_arrays(placements, PRIME_SHARD)
        for model in temporal:
            removal_matrix = temporal_removal_matrix(model.down_matrix(incidence.lookup))
            steps = np.ones(removal_matrix.shape[1], dtype=np.int64)
            expected = losses_per_step_batch(incidence.matrix, removal_matrix, steps)
            got = streaming_losses(sharded, removal_matrix, steps)
            assert np.array_equal(got, expected), model.name


# -- streaming losses: the additive composition law -------------------------------


class TestStreamingLosses:
    def test_accumulated_losses_match_monolithic_kill_matrix(self, corpus):
        _, _, _, failures = corpus
        placements = backends(corpus)["weighted-random"]
        incidence = TootIncidence.from_placements(placements)
        steps = np.asarray([f.effective_steps() for f in failures], dtype=np.int64)
        removal_matrix = np.column_stack(
            [
                incidence.removal_vector(failure.removal_index(), int(steps[j]))
                for j, failure in enumerate(failures)
            ]
        )
        kill = kill_steps_batch(incidence.matrix, removal_matrix)
        sharded = ShardedIncidence.from_arrays(placements, PRIME_SHARD)
        losses = streaming_losses(sharded, removal_matrix, steps)
        assert losses.shape == (len(failures), int(steps.max()) + 1)
        for j in range(len(failures)):
            expected = losses_per_step(kill[:, j], int(steps[j]))
            assert np.array_equal(losses[j, : int(steps[j]) + 1], expected)
            assert not losses[j, int(steps[j]) + 1 :].any()

    def test_domain_vectors_match_the_unsharded_incidence(self, corpus):
        _, domains, _, _ = corpus
        placements = backends(corpus)["random"]
        incidence = TootIncidence.from_placements(placements)
        sharded = ShardedIncidence.from_arrays(placements, PRIME_SHARD)
        removal_index = {domains[0]: 1, domains[3]: 2, "unknown.example": 1, domains[5]: 99}
        assert np.array_equal(
            sharded.removal_vector(removal_index, steps=10),
            incidence.removal_vector(removal_index, steps=10),
        )
        asn_of = {domains[0]: 64512, domains[4]: 64513, "unknown.example": 7}
        assert np.array_equal(
            sharded.as_assignment(asn_of), incidence.as_assignment(asn_of)
        )


# -- no fold builds a CSR matrix --------------------------------------------------


@pytest.fixture
def no_csr(monkeypatch):
    """``scipy.sparse.csr_matrix`` raises for the rest of the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a fold built a CSR matrix")

    monkeypatch.setattr(sparse, "csr_matrix", forbidden)


class TestNoFoldBuildsACSR:
    @pytest.mark.parametrize("shard_size", (None, 0) + SHARD_SIZES)
    def test_availability_curves(self, corpus, shard_size, request):
        _, _, _, failures = corpus
        models = new_models(corpus) + failures
        placements = backends(corpus)["weighted-random"]
        expected = availability_curves(placements, models, shard_size=0)
        request.getfixturevalue("no_csr")
        assert availability_curves(placements, models, shard_size=shard_size) == expected

    def test_kill_vector(self, corpus, request):
        _, domains, _, _ = corpus
        placements = backends(corpus)["random"]
        incidence = TootIncidence.from_arrays(placements)
        column = incidence.removal_vector({d: i + 1 for i, d in enumerate(domains)}, 9)
        expected, expected_sentinel = csr.kill_vector(incidence, column)
        request.getfixturevalue("no_csr")
        kill, sentinel = kill_vector(
            ShardedIncidence.from_arrays(placements, PRIME_SHARD), column
        )
        assert sentinel == expected_sentinel
        assert kill.dtype == expected.dtype
        assert np.array_equal(kill, expected)
