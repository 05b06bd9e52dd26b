"""The graph columns equal the networkx graphs they replaced, on any edge list.

Hypothesis draws follow-edge lists over many domains, with self-loops
and repeated edges, and builds the :class:`GraphDataset` both ways: by
:meth:`GraphDataset.from_edges` over the list, and by
:meth:`GraphDataset.from_store` over a :class:`GraphWriter` store the
list was crawled into.  Each is held to the networkx oracles of
``tests/reference/graphs.py`` over the same edge stream: every dataset
view, the federation edge order and weights, both sweep matrices,
Fig. 6's flows and homophily, Table 2's rows and the instance rankings.
"""

from __future__ import annotations

import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import federation_analysis, hosting, resilience
from repro.corpus import GraphWriter
from repro.datasets import GraphDataset
from repro.errors import AnalysisError, DatasetError

from tests.reference import graphs as reference
from tests.reference.graphs import edge_handles

COUNTRIES = ("JP", "US", "FR", "DE")


@st.composite
def edge_lists(draw):
    """``(edges, crawl domain per edge, country per domain)``."""
    n_domains = draw(st.integers(1, 8))
    domains = [f"d{i}.example" for i in range(n_domains)]
    n_users = draw(st.integers(1, 14))
    users = [
        f"u{i}@{domains[draw(st.integers(0, n_domains - 1))]}" for i in range(n_users)
    ]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(users), st.sampled_from(users)),
            min_size=1,
            max_size=60,
        )
    )
    crawled_on = draw(
        st.lists(st.sampled_from(domains), min_size=len(edges), max_size=len(edges))
    )
    countries = {d: draw(st.sampled_from(COUNTRIES)) for d in domains}
    return edges, crawled_on, countries


def stored_dataset(edges, crawled_on):
    """The dataset of a graph store the edges were crawled into, and its edge stream."""
    with tempfile.TemporaryDirectory() as directory:
        writer = GraphWriter(directory)
        for domain in sorted(set(crawled_on)):
            writer.add_edges(domain, [e for e, d in zip(edges, crawled_on) if d == domain])
            writer.end_instance(domain)
        store = writer.finalise(crawl_minute=0)
        stream = edge_handles(store)
        try:
            return GraphDataset.from_store(store), stream
        except DatasetError:
            return None, stream


def assert_equal_to_oracle(dataset, stream, countries):
    follower = reference.build_follower_graph(stream)
    federation = reference.build_federation_graph(follower)

    # the follower graph's views
    assert dataset.handles.tolist() == list(follower.nodes())
    assert dataset.user_count() == follower.number_of_nodes()
    assert dataset.follow_edge_count() == follower.number_of_edges()
    assert dataset.out_degrees() == [d for _, d in follower.out_degree()]
    assert dataset.in_degrees() == [d for _, d in follower.in_degree()]
    for domain in federation.nodes():
        assert dataset.users_on_instance(domain) == [
            n for n, data in follower.nodes(data=True) if data["domain"] == domain
        ]
    assert dataset.users_on_instance("absent.example") == []

    # the federation graph's views, its edge order and weights
    assert dataset.domains.tolist() == list(federation.nodes())
    assert list(dataset.users_per_instance().items()) == list(federation.nodes(data="users"))
    assert dataset.instance_count() == federation.number_of_nodes()
    assert dataset.federation_edge_count() == federation.number_of_edges()
    assert list(dataset.federation_edge_counts().items()) == [
        ((s, t), w) for s, t, w in federation.edges(data="weight")
    ]
    assert dataset.federation_out_degrees() == [d for _, d in federation.out_degree()]
    assert dataset.instance_degree_table() == {
        d: {
            "users": users,
            "instance_out_degree": federation.out_degree(d),
            "instance_in_degree": federation.in_degree(d),
        }
        for d, users in federation.nodes(data="users")
    }
    authors = [n for n in follower.nodes()][::2] + ["ghost@absent.example"]
    assert dataset.follower_domain_sets(authors) == {
        a: {follower.nodes[f]["domain"] for f, _ in follower.in_edges(a)}
        if follower.has_node(a)
        else set()
        for a in authors
    }

    # both sweep matrices
    for matrix, graph in (
        (dataset.follower_matrix, follower),
        (dataset.federation_matrix, federation),
    ):
        expected = reference.matrix_from_networkx(graph)
        assert matrix.nodes == expected.nodes
        assert matrix.index == expected.index
        assert (matrix.adjacency != expected.adjacency).nnz == 0

    # Fig. 6, Table 2 and the instance rankings
    metadata = {
        d: SimpleNamespace(country=countries[d], operator=f"op-{d}", as_name=f"AS-{d}")
        for d in countries
    }
    instances = SimpleNamespace(
        metadata=metadata, metadata_for=metadata.__getitem__, domains=lambda: list(metadata)
    )
    links = {(s, t): w for s, t, w in federation.edges(data="weight")}
    if links:
        assert hosting.country_federation_flows(
            dataset.federation_edge_counts(), instances
        ) == hosting.country_federation_flows(links, instances)
        assert hosting.federation_homophily(
            dataset.federation_edge_counts(), instances
        ) == hosting.federation_homophily(links, instances)
    else:
        with pytest.raises(AnalysisError):
            hosting.country_federation_flows(dataset.federation_edge_counts(), instances)

    toots_per_author = {h: i % 3 for i, h in enumerate(follower.nodes())}
    home = {d: 1 + len(d) % 4 for d in countries}
    toots = SimpleNamespace(
        toots_per_instance=lambda: home, toots_per_author=lambda: toots_per_author
    )
    rows = federation_analysis.top_instances_report(toots, dataset, instances, top=len(home))
    assert [
        (r.users, r.user_out_degree, r.user_in_degree, r.toot_out_degree,
         r.toot_in_degree, r.instance_out_degree, r.instance_in_degree)
        for r in rows
    ] == [
        reference.table2_degrees(follower, federation, r.domain, toots_per_author)
        for r in rows
    ]

    users = {d: len(d) % 3 for d in countries}
    for by in ("users", "toots", "connections"):
        assert resilience.rank_instances(dataset, users, home, by=by) == (
            reference.rank_instances(federation, users, home, by=by)
        )


SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(drawn=edge_lists())
def test_from_edges_equals_the_networkx_oracle(drawn):
    edges, _, countries = drawn
    if reference.build_follower_graph(edges).number_of_nodes() == 0:
        with pytest.raises(DatasetError):
            GraphDataset.from_edges(edges)
        return
    assert_equal_to_oracle(GraphDataset.from_edges(edges), edges, countries)


@SETTINGS
@given(drawn=edge_lists())
def test_from_store_equals_the_networkx_oracle(drawn):
    edges, crawled_on, countries = drawn
    dataset, stream = stored_dataset(edges, crawled_on)
    if dataset is None:
        assert reference.build_follower_graph(stream).number_of_nodes() == 0
        return
    assert_equal_to_oracle(dataset, stream, countries)
