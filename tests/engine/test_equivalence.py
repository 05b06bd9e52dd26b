"""Differential suite: the engine must match the legacy loops *exactly*.

Every test here builds a randomized scenario, runs the same experiment
through the engine-dispatched public functions and through the retained
pure-Python reference implementations, and asserts bit-identical output
(dataclass equality, which compares the floats exactly — no tolerances).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import replication, resilience
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.graphs import GraphDataset
from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    TootIncidence,
    availability_curve,
    availability_curves,
)

from tests.conftest import corpus_toots

FAST_SEEDS = (0, 1, 2)
SLOW_SEEDS = tuple(range(3, 11))


# -- randomized scenario construction --------------------------------------------


def random_scenario(seed: int, scale: int = 1):
    """A random fediverse slice: toots, graphs, domains and an AS map."""
    rng = np.random.default_rng(seed)
    n_domains = int(rng.integers(5, 12)) * scale
    domains = [f"d{i}.example" for i in range(n_domains)]
    n_users = int(rng.integers(12, 30)) * scale
    users = [f"u{i}@{domains[int(rng.integers(n_domains))]}" for i in range(n_users)]

    edges = []
    for _ in range(n_users * 3):
        a, b = rng.integers(n_users, size=2)
        if a != b:
            edges.append((users[int(a)], users[int(b)]))
    if not edges:
        edges.append((users[0], users[-1]))
    graphs = GraphDataset.from_edges(edges)

    n_toots = int(rng.integers(40, 120)) * scale
    records = []
    for i in range(n_toots):
        account = users[int(rng.integers(n_users))]
        home = account.rsplit("@", 1)[1]
        records.append(
            TootRecord(
                toot_id=i,
                url=f"https://{home}/toots/{i}",
                account=account,
                author_domain=home,
                collected_from=home,
                created_at=i,
            )
        )
    toots = corpus_toots(records)
    asn_of = {d: int(rng.integers(1, 5)) for d in domains}
    return toots, graphs, domains, asn_of


def placement_grid(toots, graphs, domains, seed):
    """The strategy grid every availability test sweeps over."""
    weights = {d: float(i + 1) for i, d in enumerate(domains)}
    return {
        "none": replication.no_replication(toots),
        "subscription": replication.subscription_replication(toots, graphs),
        "random": replication.random_replication(toots, domains, 2, seed=seed),
        "random-weighted": replication.random_replication(
            toots, domains, 3, seed=seed + 1, weights=weights
        ),
    }


def legacy_instance_curve(placements, ranking, steps):
    """The public wrapper's schedule, evaluated by the pure-Python loop."""
    truncated = list(ranking)[:steps]
    removal_index = {domain: i + 1 for i, domain in enumerate(truncated)}
    return replication._availability_curve_python(
        placements, removal_index, len(truncated)
    )


def legacy_as_curve(placements, asn_of, as_ranking, steps):
    truncated = list(as_ranking)[:steps]
    as_index = {asn: i + 1 for i, asn in enumerate(truncated)}
    removal_index = {
        domain: as_index[asn] for domain, asn in asn_of.items() if asn in as_index
    }
    return replication._availability_curve_python(
        placements, removal_index, len(truncated)
    )


# -- availability curves ---------------------------------------------------------


class TestAvailabilityEquivalence:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_instance_removal_matches_legacy(self, seed):
        toots, graphs, domains, _ = random_scenario(seed)
        ranking = resilience.rank_instances(
            graphs.federation_graph,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        for steps in (1, 3, len(ranking), len(ranking) + 5):
            for name, placements in placement_grid(toots, graphs, domains, seed).items():
                engine = replication.availability_under_instance_removal(
                    placements, ranking, steps=steps
                )
                legacy = legacy_instance_curve(placements, ranking, steps)
                assert engine == legacy, (seed, name, steps)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    @pytest.mark.parametrize("by", ["users", "toots", "connections"])
    def test_every_instance_ranking_matches_legacy(self, seed, by):
        toots, graphs, domains, _ = random_scenario(seed)
        ranking = resilience.rank_instances(
            graphs.federation_graph,
            graphs.users_per_instance(),
            toots.toots_per_instance(),
            by=by,
        )
        placements = replication.subscription_replication(toots, graphs)
        engine = replication.availability_under_instance_removal(
            placements, ranking, steps=7
        )
        assert engine == legacy_instance_curve(placements, ranking, 7)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    @pytest.mark.parametrize("by", ["instances", "users"])
    def test_as_removal_matches_legacy(self, seed, by):
        toots, graphs, domains, asn_of = random_scenario(seed)
        users = graphs.users_per_instance()
        as_ranking = resilience.rank_ases(
            asn_of, users if by == "users" else None, by=by
        )
        for name, placements in placement_grid(toots, graphs, domains, seed).items():
            engine = replication.availability_under_as_removal(
                placements, asn_of, as_ranking, steps=3
            )
            legacy = legacy_as_curve(placements, asn_of, as_ranking, 3)
            assert engine == legacy, (seed, name, by)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_engine_failure_models_match_public_wrappers(self, seed):
        """The failure-model API is a third route to the same exact curve."""
        toots, graphs, domains, asn_of = random_scenario(seed)
        ranking = resilience.rank_instances(
            graphs.federation_graph,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        as_ranking = resilience.rank_ases(asn_of, by="instances")
        placements = replication.subscription_replication(toots, graphs)
        incidence = TootIncidence.from_placements(placements)
        curves = availability_curves(
            incidence,
            [
                InstanceRemoval(ranking, steps=5, name="instances"),
                ASRemoval(asn_of, as_ranking, steps=2, name="ases"),
            ],
        )
        assert curves["instances"] == replication.availability_under_instance_removal(
            placements, ranking, steps=5
        )
        assert curves["ases"] == replication.availability_under_as_removal(
            placements, asn_of, as_ranking, steps=2
        )
        single = availability_curve(placements, InstanceRemoval(ranking, steps=5))
        assert single == curves["instances"]

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_instance_and_as_removal_dense_grid(self, seed):
        toots, graphs, domains, asn_of = random_scenario(seed, scale=2)
        ranking = resilience.rank_instances(
            graphs.federation_graph,
            toots_per_instance=toots.toots_per_instance(),
            by="toots",
        )
        as_ranking = resilience.rank_ases(asn_of, by="instances")
        for name, placements in placement_grid(toots, graphs, domains, seed).items():
            for steps in (1, 5, len(ranking)):
                assert replication.availability_under_instance_removal(
                    placements, ranking, steps=steps
                ) == legacy_instance_curve(placements, ranking, steps), (seed, name, steps)
            assert replication.availability_under_as_removal(
                placements, asn_of, as_ranking, steps=4
            ) == legacy_as_curve(placements, asn_of, as_ranking, 4), (seed, name)


# -- resilience sweeps -----------------------------------------------------------


def random_graph(seed: int, directed: bool = True, n: int = 120) -> nx.Graph:
    graph = nx.gnp_random_graph(n, 4.0 / n, seed=seed, directed=directed)
    return nx.relabel_nodes(graph, {node: f"u{node}@x.example" for node in graph.nodes()})


class TestResilienceEquivalence:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    @pytest.mark.parametrize("directed", [True, False])
    def test_user_removal_sweep_matches_legacy(self, seed, directed):
        graph = random_graph(seed, directed=directed)
        for rounds, fraction in ((3, 0.01), (6, 0.05), (2, 1.0)):
            engine = resilience.user_removal_sweep(
                graph, rounds=rounds, fraction_per_round=fraction
            )
            legacy = resilience._user_removal_sweep_python(
                graph, rounds=rounds, fraction_per_round=fraction
            )
            assert engine == legacy, (seed, directed, rounds, fraction)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_ranked_removal_sweep_matches_legacy(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(seed)
        nodes = list(graph.nodes())
        ranking = [nodes[int(i)] for i in rng.permutation(len(nodes))[:40]]
        ranking.insert(3, "ghost.example")  # absent nodes consume a slot
        for steps, per_step in ((5, 1), (10, 3), (100, 7)):
            engine = resilience.ranked_removal_sweep(
                graph, ranking, steps=steps, per_step=per_step
            )
            legacy = resilience._ranked_removal_sweep_python(
                graph, ranking, steps=steps, per_step=per_step
            )
            assert engine == legacy, (seed, steps, per_step)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_as_removal_sweep_matches_legacy(self, seed):
        toots, graphs, domains, asn_of = random_scenario(seed)
        federation = graphs.federation_graph
        for by in ("instances", "users"):
            as_ranking = resilience.rank_ases(
                asn_of, graphs.users_per_instance() if by == "users" else None, by=by
            )
            engine = resilience.as_removal_sweep(federation, asn_of, as_ranking, steps=3)
            legacy = resilience._as_removal_sweep_python(
                federation, asn_of, as_ranking, steps=3
            )
            assert engine == legacy, (seed, by)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_user_removal_dense_grid(self, seed):
        for directed in (True, False):
            graph = random_graph(seed, directed=directed, n=250)
            engine = resilience.user_removal_sweep(graph, rounds=12, fraction_per_round=0.04)
            legacy = resilience._user_removal_sweep_python(
                graph, rounds=12, fraction_per_round=0.04
            )
            assert engine == legacy, (seed, directed)

    def test_pipeline_scenario_matches_legacy(self, datasets):
        """The generated fediverse pipeline goes through the same equivalence."""
        graphs = datasets.graphs
        instances = datasets.instances
        users = instances.users_per_instance()
        ranking = resilience.rank_instances(graphs.federation_graph, users, by="users")
        assert resilience.instance_removal_sweep(
            graphs.federation_graph, ranking, steps=8
        ) == resilience._ranked_removal_sweep_python(
            graphs.federation_graph, ranking, steps=8
        )
        asn_of = {d: instances.metadata_for(d).asn for d in instances.domains()}
        as_ranking = resilience.rank_ases(asn_of, users, by="users")
        assert resilience.as_removal_sweep(
            graphs.federation_graph, asn_of, as_ranking, steps=5
        ) == resilience._as_removal_sweep_python(
            graphs.federation_graph, asn_of, as_ranking, steps=5
        )
