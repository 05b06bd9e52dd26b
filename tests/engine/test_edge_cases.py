"""Edge cases for the replication strategies, curve accessors and kernels."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core import replication
from repro.core.replication import AvailabilityPoint, PlacementMap
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.toots import TootsDataset
from repro.engine import (
    ASRemoval,
    FailureModel,
    GraphMatrix,
    InstanceRemoval,
    TootIncidence,
    availability_curves,
)
from repro.engine.kernels import kill_steps, losses_per_step
from repro.errors import AnalysisError

from tests.conftest import corpus_toots


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
        placements = replication.random_replication(make_toots(), DOMAINS, n_replicas=0)
        assert all(holders == {"home.example"} for holders in placements.placements.values())

    def test_zero_replicas_with_weights_still_only_home(self):
        weights = {d: 1.0 for d in DOMAINS}
        placements = replication.random_replication(
            make_toots(), DOMAINS, n_replicas=0, weights=weights
        )
        assert all(len(holders) == 1 for holders in placements.placements.values())

    def test_more_replicas_than_candidates_uses_every_candidate(self):
        placements = replication.random_replication(make_toots(), DOMAINS, n_replicas=50)
        expected = set(DOMAINS) | {"home.example"}
        assert all(holders == expected for holders in placements.placements.values())

    def test_zero_mass_weights_rejected(self):
        with pytest.raises(AnalysisError):
            replication.random_replication(
                make_toots(), DOMAINS, 1, weights={d: 0.0 for d in DOMAINS}
            )

    def test_negative_weights_are_clamped_not_propagated(self):
        weights = {"one.example": -5.0, "two.example": 1.0, "three.example": -1.0}
        placements = replication.random_replication(
            make_toots(), DOMAINS, n_replicas=1, seed=2, weights=weights
        )
        for holders in placements.placements.values():
            assert holders - {"home.example"} == {"two.example"}

    def test_negative_replicas_and_empty_candidates_rejected(self):
        with pytest.raises(AnalysisError):
            replication.random_replication(make_toots(), DOMAINS, -1)
        with pytest.raises(AnalysisError):
            replication.random_replication(make_toots(), [], 1)


class TestAvailabilityAtEdges:
    def test_empty_curve_rejected(self):
        with pytest.raises(AnalysisError):
            replication.availability_at([], 0)

    def test_removed_before_first_point_rejected(self):
        curve = [AvailabilityPoint(removed=0, availability=1.0)]
        with pytest.raises(AnalysisError):
            replication.availability_at(curve, -1)

    def test_short_curve_saturates_at_last_point(self):
        curve = [
            AvailabilityPoint(removed=0, availability=1.0),
            AvailabilityPoint(removed=1, availability=0.25),
        ]
        assert replication.availability_at(curve, 1_000) == 0.25

    def test_single_point_curve(self):
        curve = [AvailabilityPoint(removed=0, availability=1.0)]
        assert replication.availability_at(curve, 0) == 1.0


class TestEngineEdges:
    def test_empty_placement_map_rejected(self):
        with pytest.raises(AnalysisError):
            TootIncidence.from_placements(PlacementMap(strategy="x", placements={}))
        with pytest.raises(AnalysisError):
            replication._availability_curve(
                PlacementMap(strategy="x", placements={}), {}, 1
            )

    def test_holderless_toot_rejected(self):
        placements = PlacementMap(strategy="x", placements={"u": frozenset()})
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
        placements = replication.no_replication(make_toots())
        curve = replication.availability_under_instance_removal(
            placements, ["ghost.example", "home.example"], steps=2
        )
        assert curve[1].availability == 1.0  # ghost removal is a no-op
        assert curve[2].availability == 0.0

    def test_removal_vector_marks_unremoved_as_infinite(self):
        incidence = TootIncidence.from_placements(replication.no_replication(make_toots()))
        vector = incidence.removal_vector({"home.example": 7}, steps=3)
        assert np.all(np.isinf(vector))  # step 7 is beyond the 3-step schedule

    def test_as_assignment_defaults_to_minus_one(self):
        incidence = TootIncidence.from_placements(replication.no_replication(make_toots()))
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
        placements = replication.no_replication(make_toots())
        curve = replication.availability_under_instance_removal(
            placements, ["a.example"], steps=50
        )
        assert len(curve) == 2  # step 0 + the single realised removal

    def test_duplicate_or_missing_failures_rejected(self):
        placements = replication.no_replication(make_toots())
        duplicated = [
            InstanceRemoval(["a"], steps=1, name="same"),
            InstanceRemoval(["b"], steps=1, name="same"),
        ]
        with pytest.raises(AnalysisError):
            availability_curves(placements, duplicated)
        with pytest.raises(AnalysisError):
            availability_curves(placements, [])

    def test_graph_matrix_rejects_empty_graph(self):
        import networkx as nx

        with pytest.raises(AnalysisError):
            GraphMatrix.from_networkx(nx.DiGraph())
