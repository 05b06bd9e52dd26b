"""The service's bit-identity contract against the batch sweep.

Every availability the service answers must equal the equivalent batch
computation float for float: full-corpus curves against
:func:`~repro.engine.sweep.availability_curves` (over one toot range
*and* over the corpus's shards), subset queries against slicing
the CSR incidence matrix of ``tests/reference/incidence.py``, across
strategies × failure models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernels import availability_from_losses
from repro.engine.sweep import StrategySpec, availability_curves
from repro.errors import AnalysisError
from repro.serve import AvailabilityService, parse_strategy
from repro.serve.service import DEFAULT_REMOVAL_STEPS

from tests.reference.incidence import TootIncidence, losses_per_step_batch
from tests.serve.conftest import CORPUS_SHARD_TOOTS

STRATEGIES = ["no-rep", "s-rep", "n=2"]


def batch_curve(service, strategy, failure_name, shard_size):
    """The batch sweep's curve over the service's own placement arrays."""
    state = service.state_for(strategy)
    failure = service.failure(failure_name)
    points = availability_curves(state.arrays, [failure], shard_size=shard_size)
    return np.asarray([p.availability for p in points[failure.name]])


class TestFullCorpusIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_monolithic(self, service, strategy):
        for failure_name in service.failures():
            served = service.curve(strategy, failure_name)
            batch = batch_curve(service, strategy, failure_name, shard_size=0)
            assert served.shape == batch.shape
            assert (served == batch).all(), (strategy, failure_name)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sharded(self, service, strategy):
        for failure_name in service.failures():
            served = service.curve(strategy, failure_name)
            batch = batch_curve(
                service, strategy, failure_name, shard_size=CORPUS_SHARD_TOOTS
            )
            assert (served == batch).all(), (strategy, failure_name)

    def test_curve_starts_at_full_availability(self, service):
        curve = service.curve("no-rep", "instances/by_toots")
        failure = service.failure("instances/by_toots")
        assert curve[0] == 1.0
        assert curve.size == failure.effective_steps() + 1
        assert failure.effective_steps() == min(
            DEFAULT_REMOVAL_STEPS, len(failure.ranking)
        )
        assert (np.diff(curve) <= 0).all()  # cumulative removals only lose


class TestSubsetIdentity:
    """Per-user / per-instance answers vs slicing the full matrix."""

    def subset_value(self, service, strategy, rows, failure_name, k):
        state = service.state_for(strategy)
        failure = service.failure(failure_name)
        matrix = TootIncidence.from_arrays(state.arrays).matrix[np.asarray(rows)]
        column = state.sharded.lookup.removal_vector(
            failure.removal_index(), failure.effective_steps()
        )[:, None]
        losses = losses_per_step_batch(
            matrix, column, np.asarray([failure.effective_steps()], dtype=np.int64)
        )
        curve = availability_from_losses(
            losses[0, : failure.effective_steps() + 1], len(rows)
        )
        return float(curve[min(k, curve.size - 1)])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_user_queries(self, service, strategy):
        authors = [str(a) for a in service.corpus.authors.tolist()]
        for user in authors[:5] + authors[-3:]:
            rows = service.rows_authored_by(user)
            for failure_name in service.failures():
                for k in (0, 1, 10, DEFAULT_REMOVAL_STEPS):
                    answer = service.availability(
                        user=user, strategy=strategy, failure=failure_name, k=k
                    )
                    expected = self.subset_value(
                        service, strategy, rows, failure_name, k
                    )
                    assert answer["availability"] == expected
                    assert answer["toots"] == rows.size
                    assert answer["user"] == user
                    assert answer["k"] == k

    def test_instance_queries(self, service):
        for instance in [str(d) for d in service.corpus.domains.tolist()][:4]:
            rows = service.rows_homed_on(instance)
            if rows.size == 0:
                continue
            answer = service.availability(
                instance=instance, strategy="s-rep", failure="instances/by_users", k=5
            )
            expected = self.subset_value(
                service, "s-rep", rows, "instances/by_users", 5
            )
            assert answer["availability"] == expected
            assert answer["toots"] == rows.size

    def test_held_on_matches_home_selector_under_no_rep(self, service):
        """Without replication, holding a toot == homing it."""
        instance = str(service.corpus.domains.tolist()[0])
        held = service.rows_held_on("no-rep", instance)
        homed = service.rows_homed_on(instance)
        assert (held == homed).all()
        a = service.availability(held_on=instance, strategy="no-rep", k=7)
        b = service.availability(instance=instance, strategy="no-rep", k=7)
        assert a["availability"] == b["availability"]

    def test_held_on_superset_under_replication(self, service):
        instance = str(service.corpus.domains.tolist()[0])
        held = set(service.rows_held_on("s-rep", instance).tolist())
        homed = set(service.rows_homed_on(instance).tolist())
        assert homed <= held

    def test_unknown_held_on_names_are_not_cached(self, serve_corpus_dir, serve_graph_dir):
        """Client-chosen names that hold nothing leave the row cache as it was."""
        cold = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
        for index in range(50):
            with pytest.raises(AnalysisError, match=f"nowhere-{index}"):
                cold.availability(held_on=f"nowhere-{index}.example", k=3)
        assert cold.state_for("no-rep").holder_rows == {}

    def test_full_corpus_query_equals_curve(self, service):
        answer = service.availability(strategy="no-rep", k=10)
        assert answer["scope"] == "corpus"
        assert answer["toots"] == service.corpus.n_toots
        assert answer["availability"] == float(
            service.curve("no-rep", "instances/by_toots")[10]
        )

    def test_k_clamps_past_the_schedule(self, service):
        curve = service.curve("no-rep", "instances/by_toots")
        answer = service.availability(strategy="no-rep", k=10_000)
        assert answer["availability"] == float(curve[-1])


class TestTimeline:
    def test_timeline_is_own_plus_followed_rows(self, service):
        handles = [str(h) for h in service.graph.handles.tolist()]
        node_index = service.graph.node_index()
        followed_codes, indptr = service._followed_index()
        checked = 0
        for user in handles:
            node = node_index[user]
            followed = {
                handles[c]
                for c in followed_codes[indptr[node] : indptr[node + 1]].tolist()
            }
            authors = {user} | followed
            expected_rows = []
            for author in authors:
                try:
                    expected_rows.append(service.rows_authored_by(author))
                except AnalysisError:
                    pass  # followed accounts with no crawled toots
            if not expected_rows:
                continue
            expected = np.unique(np.concatenate(expected_rows))
            assert (service.timeline_rows(user) == expected).all()
            checked += 1
            if checked >= 5:
                break
        assert checked

    def test_timeline_availability_matches_subset(self, service):
        user = str(service.corpus.authors.tolist()[0])
        rows = service.timeline_rows(user)
        answer = service.timeline_availability(user, strategy="s-rep", k=10)
        expected = TestSubsetIdentity().subset_value(
            service, "s-rep", rows, "instances/by_toots", 10
        )
        assert answer["availability"] == expected
        assert answer["toots"] == rows.size

    def test_timeline_without_graph_is_rejected(self, serve_corpus_dir):
        graphless = AvailabilityService(serve_corpus_dir, mmap=True)
        with pytest.raises(AnalysisError, match="need a graph store"):
            graphless.timeline_rows("anyone")


class TestBestPlacement:
    def test_replicas_survive_longest(self, service):
        model = service.failure("instances/by_toots")
        removal = model.removal_index()
        home = model.ranking[0]  # the first instance the schedule kills
        answer = service.best_placement(home=home, n_replicas=2)
        assert answer["home"] == home
        assert len(answer["replicas"]) == 2
        survivors = [
            d
            for d in (str(x) for x in service.corpus.domains.tolist())
            if d != home and removal.get(d, removal[home] + 10_000) > model.effective_steps()
        ]
        if survivors:
            assert answer["kill_step"] is None
            assert set(answer["replicas"]) <= set(survivors)
        else:
            assert answer["kill_step"] is not None

    def test_zero_replicas_kill_step_is_homes(self, service):
        model = service.failure("instances/by_toots")
        home = model.ranking[0]
        answer = service.best_placement(home=home, n_replicas=0)
        assert answer["replicas"] == []
        assert answer["kill_step"] == model.removal_index()[home]

    def test_unknown_home_rejected(self, service):
        with pytest.raises(AnalysisError, match="unknown instance"):
            service.best_placement(home="nowhere.example")


class TestFailureRegistry:
    def test_store_derived_rankings_present(self, service):
        assert set(service.failures()) == {
            "instances/by_toots",
            "instances/by_users",
            "instances/by_connections",
        }

    def test_by_toots_ranking_is_batch_exact(self, service, datasets):
        """Graph node order + corpus counts == the batch fig15 ranking."""
        from repro.core.resilience import rank_instances

        batch = rank_instances(
            datasets.graphs,
            toots_per_instance=datasets.toots.toots_per_instance(),
            by="toots",
        )
        served = service.failure("instances/by_toots").ranking
        assert list(served) == list(batch)

    def test_by_connections_ranking_is_batch_exact(self, service, datasets):
        from repro.core.resilience import rank_instances

        batch = rank_instances(datasets.graphs, by="connections")
        served = service.failure("instances/by_connections").ranking
        assert list(served) == list(batch)

    def test_temporal_models_rejected(self, service):
        class FakeTemporal:
            name = "nope"
            temporal = True

        with pytest.raises(AnalysisError, match="temporal failure models"):
            service.add_failure(FakeTemporal())

    def test_unknown_failure_lists_known(self, service):
        with pytest.raises(AnalysisError, match="unknown failure model .*by_toots"):
            service.failure("bogus")


class TestBuildOnce:
    def test_repeat_queries_do_not_rebuild(self, service):
        service.warm(STRATEGIES)
        before = dict(service.build_counters)
        user = str(service.corpus.authors.tolist()[0])
        for strategy in STRATEGIES:
            service.curve(strategy, "instances/by_toots")
            service.availability(user=user, strategy=strategy, k=3)
        assert service.build_counters == before

    def test_strategy_built_once_per_name(self, service):
        first = service.state_for("no-rep")
        again = service.state_for(StrategySpec.none())
        assert again is first

    def test_warm_builds_no_csr(self, service, serve_corpus_dir, serve_graph_dir, monkeypatch):
        from scipy import sparse

        expected = {
            (strategy, name): service.curve(strategy, name)
            for strategy in ("no-rep", "s-rep")
            for name in service.failures()
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("warm built a CSR matrix")

        monkeypatch.setattr(sparse, "csr_matrix", forbidden)
        fresh = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
        fresh.warm()
        for (strategy, name), curve in expected.items():
            assert np.array_equal(fresh.curve(strategy, name), curve)


class TestQueryValidation:
    def test_two_selectors_rejected(self, service):
        with pytest.raises(AnalysisError, match="at most one of"):
            service.availability(user="a", instance="b", k=1)

    def test_negative_k_rejected(self, service):
        with pytest.raises(AnalysisError, match="cannot be negative"):
            service.availability(k=-1)

    def test_unknown_author_rejected(self, service):
        with pytest.raises(AnalysisError, match="unknown author"):
            service.availability(user="@ghost@nowhere.example", k=1)

    def test_unknown_strategy_rejected(self, service):
        with pytest.raises(AnalysisError, match="unknown placement strategy"):
            service.availability(strategy="mirror-everything", k=1)


class TestParseStrategy:
    @pytest.mark.parametrize(
        ("text", "name", "kind"),
        [
            ("no-rep", "no-rep", "none"),
            ("none", "no-rep", "none"),
            ("s-rep", "s-rep", "subscription"),
            ("subscription", "s-rep", "subscription"),
            ("n=3", "n=3", "random"),
        ],
    )
    def test_names_round_trip(self, text, name, kind):
        spec = parse_strategy(text)
        assert (spec.name, spec.kind) == (name, kind)

    def test_seeded_random(self):
        spec = parse_strategy("n=2/seed=9")
        assert (spec.kind, spec.n_replicas, spec.seed) == ("random", 2, 9)

    @pytest.mark.parametrize("bad", ["", "n=", "n=x", "n=2/sd=1", "rep"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(AnalysisError, match="unknown placement strategy"):
            parse_strategy(bad)
