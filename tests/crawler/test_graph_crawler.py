"""Tests for the follower-graph crawler."""

from __future__ import annotations

import pytest

from repro.crawler.graph_crawler import (
    FollowEdgeRecord,
    FollowerGraphCrawler,
    split_handle,
)
from repro.crawler.http import SimulatedTransport
from repro.errors import DatasetError
from repro.fediverse.uptime import Outage
from repro.simtime import TimeWindow
from tests.conftest import build_mini_network, ref
from tests.reference.graphs import edge_handles


@pytest.fixture()
def network():
    net = build_mini_network()
    net.follow(ref("bob@beta.example"), ref("alice@alpha.example"))
    net.follow(ref("chloe@gamma.example"), ref("alice@alpha.example"))
    net.follow(ref("akira@alpha.example"), ref("alice@alpha.example"))
    net.follow(ref("alice@alpha.example"), ref("bob@beta.example"))
    # only accounts that tooted are crawled
    net.post_toot(ref("alice@alpha.example"), created_at=10)
    net.post_toot(ref("bob@beta.example"), created_at=20)
    return net


class TestFollowEdgeRecord:
    def test_domain_helpers(self):
        edge = FollowEdgeRecord(follower="a@x.example", followed="b@y.example")
        assert edge.follower_domain == "x.example"
        assert edge.followed_domain == "y.example"
        assert edge.is_remote
        assert not FollowEdgeRecord("a@x.example", "b@x.example").is_remote

    @pytest.mark.parametrize(
        "handle", ["no-at-sign", "@x.example", "user@", "", "@"]
    )
    def test_malformed_handles_raise(self, handle):
        with pytest.raises(DatasetError, match="malformed account handle"):
            split_handle(handle)
        with pytest.raises(DatasetError, match="malformed account handle"):
            _ = FollowEdgeRecord(follower=handle, followed="b@y.example").follower_domain
        with pytest.raises(DatasetError, match="malformed account handle"):
            _ = FollowEdgeRecord(follower="a@x.example", followed=handle).followed_domain

    def test_split_handle_keeps_everything_before_the_last_at(self):
        assert split_handle("weird@name@x.example") == ("weird@name", "x.example")


class TestAccountDiscovery:
    def test_only_tooting_accounts_listed(self, network):
        crawler = FollowerGraphCrawler(SimulatedTransport(network))
        accounts = crawler.list_accounts("alpha.example", at_minute=5000)
        assert accounts == ["alice"]
        everyone = crawler.list_accounts("alpha.example", at_minute=5000, tooted_only=False)
        assert set(everyone) == {"alice", "akira"}

    def test_directory_paging_used(self, network):
        crawler = FollowerGraphCrawler(SimulatedTransport(network), directory_page_size=1)
        everyone = crawler.list_accounts("alpha.example", at_minute=5000, tooted_only=False)
        assert set(everyone) == {"alice", "akira"}


class TestEgoNetworks:
    def test_crawl_followers_emits_incoming_edges(self, network):
        crawler = FollowerGraphCrawler(SimulatedTransport(network))
        edges = crawler.crawl_followers("alpha.example", "alice", at_minute=5000)
        followers = {edge.follower for edge in edges}
        assert followers == {
            "bob@beta.example",
            "chloe@gamma.example",
            "akira@alpha.example",
        }
        assert all(edge.followed == "alice@alpha.example" for edge in edges)

    def test_crawl_instance_covers_all_tooting_accounts(self, network):
        crawler = FollowerGraphCrawler(SimulatedTransport(network))
        edges = crawler.crawl_instance("alpha.example", at_minute=5000)
        assert len(edges) == 3


class TestFullCrawl:
    def test_crawl_collects_edges_and_accounts(self, network):
        crawler = FollowerGraphCrawler(SimulatedTransport(network), threads=3)
        result = crawler.crawl()
        assert ("bob@beta.example", "alice@alpha.example") in result.unique_edges()
        assert ("alice@alpha.example", "bob@beta.example") in result.unique_edges()
        assert "alice@alpha.example" in result.accounts_seen
        assert result.failures == {}

    def test_sink_mode_streams_the_same_edges(self, network, tmp_path):
        from repro.corpus import GraphWriter

        transport = SimulatedTransport(network)
        record = FollowerGraphCrawler(transport, threads=3).crawl()
        writer = GraphWriter(tmp_path / "g")
        sunk = FollowerGraphCrawler(transport, threads=3).crawl(sink=writer)
        store = writer.finalise(crawl_minute=sunk.crawl_minute)
        assert sunk.edges == []
        assert sum(sunk.edge_counts.values()) == len(record.edges)
        assert set(edge_handles(store)) == record.unique_edges()

    def test_offline_instances_skipped(self, network):
        network.availability.add_outage(
            Outage("alpha.example", TimeWindow(0, network.clock.window_minutes))
        )
        crawler = FollowerGraphCrawler(SimulatedTransport(network), threads=3)
        result = crawler.crawl()
        # edges towards alice cannot be observed because alpha is unreachable
        assert all(edge.followed_domain != "alpha.example" for edge in result.edges)
