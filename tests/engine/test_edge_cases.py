"""Edge cases for the replication strategies, curve accessors and kernels."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.crawler.toot_crawler import TootRecord
from repro.datasets.toots import TootsDataset
from repro.engine import (
    ASRemoval,
    AvailabilityPoint,
    FailureModel,
    GraphMatrix,
    InstanceRemoval,
    PlacementArrays,
    ShardedIncidence,
    StrategySpec,
    availability_at,
    availability_curve,
    availability_curves,
)
from repro.engine.kernels import losses_per_step
from repro.engine.sharding import toot_ranges
from repro.errors import AnalysisError

from tests.conftest import corpus_toots
from tests.reference.incidence import TootIncidence, kill_steps
from tests.reference import replication as reference
from tests.reference.replication import DictPlacementMap, placement_dict


def record(toot_id: int, author: str, home: str) -> TootRecord:
    return TootRecord(
        toot_id=toot_id,
        url=f"https://{home}/@{author}/{toot_id}",
        account=f"{author}@{home}",
        author_domain=home,
        collected_from=home,
        created_at=toot_id,
    )


def make_toots(n: int = 6) -> TootsDataset:
    return corpus_toots(record(i, "a", "home.example") for i in range(n))


DOMAINS = ["one.example", "two.example", "three.example"]


class TestRandomReplicationEdges:
    def test_zero_replicas_leaves_only_home(self):
        placements = StrategySpec.random(0).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        holder_sets = placement_dict(placements).values()
        assert all(holders == {"home.example"} for holders in holder_sets)

    def test_zero_replicas_with_weights_still_only_home(self):
        weights = {d: 1.0 for d in DOMAINS}
        placements = StrategySpec.random(0, weights=weights).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        assert all(len(holders) == 1 for holders in placement_dict(placements).values())

    def test_more_replicas_than_candidates_uses_every_candidate(self):
        placements = StrategySpec.random(50).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        expected = set(DOMAINS) | {"home.example"}
        assert all(holders == expected for holders in placement_dict(placements).values())

    def test_zero_mass_weights_rejected(self):
        with pytest.raises(AnalysisError):
            StrategySpec.random(1, weights={d: 0.0 for d in DOMAINS}).build_from_corpus(
                make_toots().corpus, candidate_domains=DOMAINS
            )

    def test_negative_weights_are_clamped_not_propagated(self):
        weights = {"one.example": -5.0, "two.example": 1.0, "three.example": -1.0}
        placements = StrategySpec.random(1, seed=2, weights=weights).build_from_corpus(
            make_toots().corpus, candidate_domains=DOMAINS
        )
        for holders in placement_dict(placements).values():
            assert holders - {"home.example"} == {"two.example"}

    def test_negative_replicas_and_empty_candidates_rejected(self):
        with pytest.raises(AnalysisError):
            StrategySpec.random(-1).build_from_corpus(
                make_toots().corpus, candidate_domains=DOMAINS
            )
        with pytest.raises(AnalysisError):
            StrategySpec.random(1).build_from_corpus(make_toots().corpus, candidate_domains=[])


class TestAvailabilityAtEdges:
    def test_empty_curve_rejected(self):
        with pytest.raises(AnalysisError):
            availability_at([], 0)

    def test_removed_before_first_point_rejected(self):
        curve = [AvailabilityPoint(removed=0, availability=1.0)]
        with pytest.raises(AnalysisError):
            availability_at(curve, -1)

    def test_short_curve_saturates_at_last_point(self):
        curve = [
            AvailabilityPoint(removed=0, availability=1.0),
            AvailabilityPoint(removed=1, availability=0.25),
        ]
        assert availability_at(curve, 1_000) == 0.25

    def test_single_point_curve(self):
        curve = [AvailabilityPoint(removed=0, availability=1.0)]
        assert availability_at(curve, 0) == 1.0


class TestEngineEdges:
    def test_empty_placement_map_rejected(self):
        with pytest.raises(AnalysisError):
            TootIncidence.from_placements(DictPlacementMap(strategy="x", placements={}))
        with pytest.raises(AnalysisError):
            reference.availability_curve(
                DictPlacementMap(strategy="x", placements={}), {}, 1
            )
        empty = PlacementArrays(
            strategy="x",
            toot_urls=(),
            domains=("a.example",),
            home=np.empty(0, dtype=np.int64),
            replica_indices=np.empty(0, dtype=np.int64),
            replica_indptr=np.zeros(1, dtype=np.int64),
        )
        for shard_size in (None, 0, 1):
            with pytest.raises(AnalysisError, match="empty"):
                toot_ranges(empty, shard_size)
        with pytest.raises(AnalysisError, match="empty"):
            ShardedIncidence.from_arrays(empty, bounds=[(0, 1)])

    def test_holderless_toot_rejected(self):
        placements = DictPlacementMap(strategy="x", placements={"u": frozenset()})
        with pytest.raises(AnalysisError):
            TootIncidence.from_placements(placements)

    def test_empty_csr_row_rejected_by_kernel(self):
        matrix = sparse.csr_matrix((2, 3))  # two all-zero rows
        with pytest.raises(AnalysisError):
            kill_steps(matrix, np.ones(3))

    def test_out_of_schedule_kill_steps_rejected(self):
        with pytest.raises(AnalysisError):
            losses_per_step(np.asarray([5.0]), steps=3)

    def test_unknown_removed_domains_are_ignored(self):
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        curve = availability_curve(
            placements, InstanceRemoval(["ghost.example", "home.example"], steps=2)
        )
        assert curve[1].availability == 1.0  # ghost removal is a no-op
        assert curve[2].availability == 0.0

    def test_removal_vector_marks_unremoved_as_infinite(self):
        incidence = toot_ranges(StrategySpec.none().build_from_corpus(make_toots().corpus))
        vector = incidence.removal_vector({"home.example": 7}, steps=3)
        assert np.all(np.isinf(vector))  # step 7 is beyond the 3-step schedule

    def test_as_assignment_defaults_to_minus_one(self):
        incidence = toot_ranges(StrategySpec.none().build_from_corpus(make_toots().corpus))
        assignment = incidence.as_assignment({})
        assert np.all(assignment == -1)

    def test_failure_model_validation(self):
        with pytest.raises(AnalysisError):
            InstanceRemoval(["a"], steps=0)
        with pytest.raises(AnalysisError):
            ASRemoval({}, [1], steps=-1)
        with pytest.raises(NotImplementedError):
            FailureModel("custom", steps=1).removal_index()

    def test_short_ranking_shrinks_effective_steps(self):
        model = InstanceRemoval(["a.example"], steps=50)
        assert model.effective_steps() == 1
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        curve = availability_curve(placements, InstanceRemoval(["a.example"], steps=50))
        assert len(curve) == 2  # step 0 + the single realised removal

    def test_duplicate_or_missing_failures_rejected(self):
        placements = StrategySpec.none().build_from_corpus(make_toots().corpus)
        duplicated = [
            InstanceRemoval(["a"], steps=1, name="same"),
            InstanceRemoval(["b"], steps=1, name="same"),
        ]
        with pytest.raises(AnalysisError):
            availability_curves(placements, duplicated)
        with pytest.raises(AnalysisError):
            availability_curves(placements, [])

    def test_graph_matrix_rejects_empty_graph(self):
        with pytest.raises(AnalysisError):
            GraphMatrix.from_codes([], [], [])
