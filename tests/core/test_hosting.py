"""Tests for the hosting analyses (Figs. 5-6)."""

from __future__ import annotations

import pytest

from repro.core import hosting
from repro.crawler.monitor import InstanceSnapshot, MonitoringLog
from repro.datasets.instances import InstanceMetadata, InstancesDataset
from repro.errors import AnalysisError


def make_dataset() -> InstancesDataset:
    spec = {
        "jp1.example": (400, 4_000, "JP", 9370, "SAKURA Internet Inc."),
        "jp2.example": (100, 1_000, "JP", 16509, "Amazon.com, Inc."),
        "us1.example": (300, 6_000, "US", 16509, "Amazon.com, Inc."),
        "fr1.example": (50, 500, "FR", 16276, "OVH SAS"),
        "fr2.example": (150, 1_500, "FR", 16276, "OVH SAS"),
    }
    log = MonitoringLog(interval_minutes=60)
    metadata = {}
    for domain, (users, toots, country, asn, as_name) in spec.items():
        log.snapshots.append(
            InstanceSnapshot(domain=domain, minute=0, online=True, user_count=users, toot_count=toots)
        )
        metadata[domain] = InstanceMetadata(
            domain=domain, country=country, asn=asn, as_name=as_name
        )
    return InstancesDataset(log=log, metadata=metadata)


def make_federation_graph() -> dict[tuple[str, str], int]:
    """Federation edges ``(source, target)`` → follow links."""
    return {
        ("jp1.example", "jp2.example"): 10,
        ("jp1.example", "us1.example"): 5,
        ("us1.example", "jp1.example"): 8,
        ("fr1.example", "fr2.example"): 4,
        ("fr2.example", "jp1.example"): 3,
    }


class TestBreakdowns:
    def test_country_breakdown_ordering_and_shares(self):
        shares = hosting.country_breakdown(make_dataset())
        assert shares[0].key == "JP"
        assert shares[0].users == 500
        assert shares[0].instance_share == pytest.approx(2 / 5)
        assert shares[0].user_share == pytest.approx(0.5)
        assert shares[0].toot_share == pytest.approx(5000 / 13_000)

    def test_asn_breakdown(self):
        shares = hosting.asn_breakdown(make_dataset())
        by_name = {share.key: share for share in shares}
        assert by_name["Amazon.com, Inc."].users == 400
        assert by_name["OVH SAS"].instances == 2

    def test_hoster_breakdown_maps_asns_to_provider_labels(self):
        shares = hosting.hoster_breakdown(make_dataset())
        by_name = {share.key: share for share in shares}
        # known ASNs collapse to provider labels, not raw AS names
        assert by_name["Amazon"].users == 400
        assert by_name["Amazon"].instances == 2
        assert by_name["Sakura Internet"].users == 400
        assert by_name["OVH"].instances == 2
        assert "Amazon.com, Inc." not in by_name

    def test_top_limit(self):
        assert len(hosting.country_breakdown(make_dataset(), top=2)) == 2
        assert len(hosting.hoster_breakdown(make_dataset(), top=1)) == 1

    def test_top_as_user_share(self):
        share = hosting.top_as_user_share(make_dataset(), top=2)
        assert share == pytest.approx((400 + 400) / 1000)

    def test_pipeline_japan_leads_and_top3_as_concentration(self, datasets):
        countries = hosting.country_breakdown(datasets.instances, top=3)
        assert countries[0].key == "JP"
        assert hosting.top_as_user_share(datasets.instances, top=3) > 0.4


class TestCountryFlows:
    def test_flow_shares_sum_to_one_per_source(self):
        flows = hosting.country_federation_flows(make_federation_graph(), make_dataset())
        by_source: dict[str, float] = {}
        for flow in flows:
            by_source[flow.source_country] = by_source.get(flow.source_country, 0.0) + flow.share_of_source
        for total in by_source.values():
            assert total == pytest.approx(1.0)

    def test_same_country_flow_detected(self):
        flows = hosting.country_federation_flows(make_federation_graph(), make_dataset())
        jp_to_jp = [f for f in flows if f.source_country == "JP" and f.target_country == "JP"]
        assert jp_to_jp and jp_to_jp[0].links == 10

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            hosting.country_federation_flows({}, make_dataset())

    def test_homophily_metrics(self):
        metrics = hosting.federation_homophily(make_federation_graph(), make_dataset())
        assert metrics["total_links"] == 30
        assert metrics["same_country_share"] == pytest.approx(14 / 30)
        assert metrics["top5_country_link_share"] == 1.0

    def test_pipeline_homophily_positive(self, datasets):
        metrics = hosting.federation_homophily(
            datasets.graphs.federation_edge_counts(), datasets.instances
        )
        assert 0.0 < metrics["same_country_share"] <= 1.0
        assert metrics["top5_country_link_share"] > 0.5
