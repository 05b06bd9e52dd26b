"""Differential/statistical suite for the vectorised placement builders.

Deterministic strategies (none, subscription) must match the retained
``_*_python`` loops *exactly*.  The batched random draws consume the RNG
stream in a different order than the legacy one-``rng.choice``-per-toot
loop, so they are held to the same replica-count distribution and
per-candidate selection frequencies instead of bit-identity — plus
determinism per seed, the structural invariants of the arrays backend,
and the incidence memoisation semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import replication
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.toots import TootsDataset
from repro.engine import InstanceRemoval, TootIncidence, availability_curves
from repro.engine.placement import PlacementArrays
from repro.errors import AnalysisError

from tests.conftest import corpus_toots
from tests.engine.test_equivalence import random_scenario

SEEDS = (0, 1, 2)


def flat_toots(n: int, domains: list[str], seed: int = 0) -> TootsDataset:
    """``n`` toots spread over ``domains`` — bulk input for the statistics."""
    rng = np.random.default_rng(seed)
    homes = rng.integers(0, len(domains), size=n)
    return corpus_toots(
        TootRecord(
            toot_id=i,
            url=f"https://{domains[homes[i]]}/toots/{i}",
            account=f"u{homes[i]}@{domains[homes[i]]}",
            author_domain=domains[homes[i]],
            collected_from=domains[homes[i]],
            created_at=i,
        )
        for i in range(n)
    )


def domain_shares(placements: replication.PlacementMap) -> dict[str, float]:
    """Share of all replicas landing on each domain."""
    arrays = placements.arrays
    if arrays is not None:
        load = arrays.domain_replica_load()
        total = max(1, int(load.sum()))
        return {d: load[j] / total for j, d in enumerate(arrays.domains)}
    counts: dict[str, int] = {}
    total = 0
    for url, holders in placements.placements.items():
        home = url.split("/")[2]
        for domain in holders:
            if domain != home:
                counts[domain] = counts.get(domain, 0) + 1
                total += 1
    return {d: c / max(1, total) for d, c in counts.items()}


# -- deterministic builders: exact equality --------------------------------------


class TestDeterministicBuilders:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_replication_matches_python(self, seed):
        toots, _, _, _ = random_scenario(seed)
        fast = replication.no_replication(toots)
        legacy = replication._no_replication_python(toots)
        assert fast.placements == legacy.placements
        assert fast.strategy == legacy.strategy
        assert fast.replica_counts() == legacy.replica_counts()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subscription_matches_python_exactly(self, seed):
        toots, graphs, _, _ = random_scenario(seed)
        fast = replication.subscription_replication(toots, graphs)
        legacy = replication._subscription_replication_python(toots, graphs)
        assert fast.placements == legacy.placements
        assert fast.replica_counts() == legacy.replica_counts()
        assert fast.replication_summary() == legacy.replication_summary()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrays_invariants_hold(self, seed):
        toots, graphs, domains, _ = random_scenario(seed)
        store = toots.corpus
        for arrays in (
            PlacementArrays.from_corpus(store, "none"),
            PlacementArrays.from_corpus(store, "subscription", graphs=graphs),
            PlacementArrays.from_corpus(
                store, "random", candidate_domains=domains, n_replicas=2, seed=seed
            ),
            PlacementArrays.from_corpus(
                store,
                "random",
                candidate_domains=domains,
                n_replicas=3,
                seed=seed,
                weights={d: 1.0 for d in domains},
            ),
        ):
            assert isinstance(arrays, PlacementArrays)
            arrays.validate()


# -- random builders: determinism + distribution ---------------------------------


class TestRandomDeterminism:
    def test_same_seed_same_placements(self):
        toots, _, domains, _ = random_scenario(3)
        first = replication.random_replication(toots, domains, 2, seed=5)
        second = replication.random_replication(toots, domains, 2, seed=5)
        assert np.array_equal(first.arrays.replica_indices, second.arrays.replica_indices)
        assert np.array_equal(first.arrays.replica_indptr, second.arrays.replica_indptr)
        assert first.placements == second.placements

    def test_different_seeds_differ(self):
        toots, _, domains, _ = random_scenario(3)
        first = replication.random_replication(toots, domains, 2, seed=5)
        second = replication.random_replication(toots, domains, 2, seed=6)
        assert first.placements != second.placements

    def test_weighted_same_seed_same_placements(self):
        toots, _, domains, _ = random_scenario(4)
        weights = {d: float(i + 1) for i, d in enumerate(domains)}
        first = replication.random_replication(toots, domains, 2, seed=9, weights=weights)
        second = replication.random_replication(toots, domains, 2, seed=9, weights=weights)
        assert first.placements == second.placements

    def test_replica_count_structure_matches_legacy_rule(self):
        """Each toot gets exactly k distinct picks; home collisions collapse."""
        domains = [f"d{i}.example" for i in range(8)]
        toots = flat_toots(500, domains)
        k = 3
        placements = replication.random_replication(toots, domains, k, seed=1)
        counts = np.asarray(placements.replica_counts())
        # homes are drawn from the candidate pool, so rows lose at most one pick
        assert set(np.unique(counts)) <= {k - 1, k}
        legacy = replication._random_replication_python(toots, domains, k, seed=1)
        assert set(np.unique(legacy.replica_counts())) <= {k - 1, k}


class TestRandomDistribution:
    def test_uniform_selection_frequencies_match_legacy(self):
        domains = [f"d{i}.example" for i in range(8)]
        toots = flat_toots(4000, domains)
        fast = domain_shares(replication.random_replication(toots, domains, 2, seed=0))
        legacy = domain_shares(
            replication._random_replication_python(toots, domains, 2, seed=0)
        )
        for domain in domains:
            assert fast[domain] == pytest.approx(legacy[domain], abs=0.02)
            assert fast[domain] == pytest.approx(1 / len(domains), abs=0.02)

    def test_weighted_selection_frequencies_match_legacy(self):
        domains = [f"d{i}.example" for i in range(6)]
        weights = {d: float(2 ** i) for i, d in enumerate(domains)}
        toots = flat_toots(4000, domains)
        fast = domain_shares(
            replication.random_replication(toots, domains, 2, seed=0, weights=weights)
        )
        legacy = domain_shares(
            replication._random_replication_python(
                toots, domains, 2, seed=0, weights=weights
            )
        )
        for domain in domains:
            assert fast[domain] == pytest.approx(legacy[domain], abs=0.03)
        # heavier weights must see monotonically larger selection shares
        shares = [fast[d] for d in domains]
        assert shares == sorted(shares)

    def test_mean_replica_counts_match_legacy(self):
        domains = [f"d{i}.example" for i in range(10)]
        toots = flat_toots(3000, domains)
        for weights in (None, {d: float(i + 1) for i, d in enumerate(domains)}):
            fast = replication.random_replication(
                toots, domains, 3, seed=2, weights=weights
            ).replication_summary()
            legacy = replication._random_replication_python(
                toots, domains, 3, seed=2, weights=weights
            ).replication_summary()
            assert fast["mean_replicas"] == pytest.approx(
                legacy["mean_replicas"], abs=0.05
            )


# -- availability equivalence over the arrays backend ----------------------------


class TestCurveEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrays_and_dict_backends_produce_identical_curves(self, seed):
        toots, graphs, domains, _ = random_scenario(seed)
        ranking = sorted(domains)
        for fast in (
            replication.no_replication(toots),
            replication.subscription_replication(toots, graphs),
            replication.random_replication(toots, domains, 2, seed=seed),
        ):
            via_dict = replication.PlacementMap(
                strategy=fast.strategy, placements=fast.placements
            )
            for steps in (1, 3, len(ranking)):
                assert replication.availability_under_instance_removal(
                    fast, ranking, steps=steps
                ) == replication.availability_under_instance_removal(
                    via_dict, ranking, steps=steps
                ), (seed, fast.strategy, steps)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrays_backend_matches_python_curve(self, seed):
        toots, graphs, domains, _ = random_scenario(seed)
        placements = replication.random_replication(toots, domains, 2, seed=seed)
        removal_index = {domain: i + 1 for i, domain in enumerate(sorted(domains))}
        engine = replication._availability_curve(
            placements, removal_index, len(domains)
        )
        legacy = replication._availability_curve_python(
            placements, removal_index, len(domains)
        )
        assert engine == legacy


# -- incidence memoisation -------------------------------------------------------


class TestIncidenceCache:
    def test_from_placements_is_memoised_per_object(self):
        toots, _, domains, _ = random_scenario(1)
        placements = replication.random_replication(toots, domains, 2, seed=0)
        assert TootIncidence.from_placements(placements) is (
            TootIncidence.from_placements(placements)
        )
        # a distinct map object (same content) gets its own matrix
        clone = replication.PlacementMap(
            strategy=placements.strategy, placements=placements.placements
        )
        assert TootIncidence.from_placements(clone) is not (
            TootIncidence.from_placements(placements)
        )

    def test_repeated_availability_curves_hit_the_cache(self, monkeypatch):
        toots, graphs, _, _ = random_scenario(2)
        placements = replication.subscription_replication(toots, graphs)
        builds = {"arrays": 0, "mapping": 0}
        real_from_arrays = TootIncidence.from_arrays.__func__
        real_from_mapping = TootIncidence._from_mapping.__func__

        def counting_from_arrays(cls, arrays):
            builds["arrays"] += 1
            return real_from_arrays(cls, arrays)

        def counting_from_mapping(cls, mapping):
            builds["mapping"] += 1
            return real_from_mapping(cls, mapping)

        monkeypatch.setattr(
            TootIncidence, "from_arrays", classmethod(counting_from_arrays)
        )
        monkeypatch.setattr(
            TootIncidence, "_from_mapping", classmethod(counting_from_mapping)
        )
        failure = InstanceRemoval(sorted(placements.arrays.domains), steps=3)
        first = availability_curves(placements, [failure])
        second = availability_curves(placements, [failure])
        third = availability_curves(placements, [failure])
        assert first == second == third
        assert builds == {"arrays": 1, "mapping": 0}

    def test_dict_backed_maps_are_cached_too(self, monkeypatch):
        toots, _, _, _ = random_scenario(0)
        placements = replication._no_replication_python(toots)
        assert placements.arrays is None
        assert TootIncidence.from_placements(placements) is (
            TootIncidence.from_placements(placements)
        )

    def test_cache_entry_dies_with_the_map(self):
        import gc
        import weakref

        toots, _, domains, _ = random_scenario(1)
        placements = replication.random_replication(toots, domains, 1, seed=3)
        incidence = TootIncidence.from_placements(placements)
        map_ref = weakref.ref(placements)
        incidence_ref = weakref.ref(incidence)
        del placements, incidence
        gc.collect()
        # the weak cache must not keep either the map or its matrix alive
        assert map_ref() is None
        assert incidence_ref() is None


# -- regression tests for the replication bug-queue ------------------------------


class TestWeightedSupportRegression:
    """Weighted draws with too little positive mass used to raise a raw
    ``ValueError`` from ``rng.choice(..., replace=False, p=...)``."""

    def setup_method(self):
        self.domains = ["a.example", "b.example", "c.example"]
        self.toots = flat_toots(4, ["home.example"])
        self.weights = {"a.example": 1.0}  # b and c carry zero weight

    def test_vectorised_path_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="positive weight"):
            replication.random_replication(
                self.toots, self.domains, 2, weights=self.weights
            )

    def test_python_reference_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="positive weight"):
            replication._random_replication_python(
                self.toots, self.domains, 2, weights=self.weights
            )

    def test_exact_support_still_works(self):
        placements = replication.random_replication(
            self.toots, self.domains, 1, weights=self.weights
        )
        for holders in placements.placements.values():
            assert holders == {"home.example", "a.example"}


class TestAvailabilityAtRegression:
    """``availability_at(curve, -1)`` used to report "the availability
    curve is empty" even for a non-empty curve."""

    def test_negative_removed_gets_accurate_message(self):
        curve = [replication.AvailabilityPoint(removed=0, availability=1.0)]
        with pytest.raises(AnalysisError, match="cannot be negative"):
            replication.availability_at(curve, -1)

    def test_empty_curve_message_is_reserved_for_empty_curves(self):
        with pytest.raises(AnalysisError, match="empty"):
            replication.availability_at([], 0)

    def test_non_negative_accessor_still_works(self):
        curve = [
            replication.AvailabilityPoint(removed=0, availability=1.0),
            replication.AvailabilityPoint(removed=2, availability=0.5),
        ]
        assert replication.availability_at(curve, 0) == 1.0
        assert replication.availability_at(curve, 1) == 1.0
        assert replication.availability_at(curve, 2) == 0.5
