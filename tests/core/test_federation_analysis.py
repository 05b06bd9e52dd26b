"""Tests for the content-federation analyses (Fig. 14, Table 2)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import federation_analysis
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.graphs import GraphDataset
from repro.datasets.toots import TootsDataset
from repro.errors import AnalysisError
from repro.stats.summary import pearson_correlation

from tests.conftest import corpus_toots


def record(toot_id: int, author: str, home: str, collected_from: str) -> TootRecord:
    return TootRecord(
        toot_id=toot_id,
        url=f"https://{home}/@{author}/{toot_id}",
        account=f"{author}@{home}",
        author_domain=home,
        collected_from=collected_from,
        created_at=toot_id,
    )


def make_toots() -> TootsDataset:
    """feeder.example produces everything; leech.example only re-shows it."""
    feeder_toots = [record(i, "star", "feeder.example", "feeder.example") for i in range(1, 21)]
    leech_own = [record(100, "small", "leech.example", "leech.example")]
    leech_observed = leech_own + [
        record(i, "star", "feeder.example", "leech.example") for i in range(1, 16)
    ]
    return corpus_toots(feeder_toots + leech_observed)


def make_graphs() -> GraphDataset:
    edges = [
        ("small@leech.example", "star@feeder.example"),
        ("other@leech.example", "star@feeder.example"),
        ("star@feeder.example", "small@leech.example"),
    ]
    return GraphDataset.from_edges(edges)


class TestHomeRemoteSeries:
    def test_series_ordered_by_home_share(self):
        points = federation_analysis.home_remote_series(make_toots())
        assert [p.domain for p in points] == ["leech.example", "feeder.example"]
        assert points[0].home_share == pytest.approx(1 / 16)
        assert points[1].home_share == 1.0

    def test_feeder_summary(self):
        summary = federation_analysis.feeder_summary(make_toots())
        assert summary["share_under_10pct_home"] == pytest.approx(0.5)
        assert summary["share_fully_remote"] == 0.0
        assert -1.0 <= summary["toots_vs_replication_correlation"] <= 1.0

    def test_pipeline_most_instances_rely_on_remote_content(self, datasets):
        summary = federation_analysis.feeder_summary(datasets.toots)
        # at tiny scale the effect is weaker than the paper's 78%, but a
        # sizeable share of instances must already be mostly remote-fed
        assert summary["share_under_10pct_home"] > 0.1
        assert summary["toots_vs_replication_correlation"] > 0.2
        points = federation_analysis.home_remote_series(datasets.toots)
        median_home_share = sorted(p.home_share for p in points)[len(points) // 2]
        assert median_home_share < 0.7

    def test_feeder_correlation_matches_the_record_level_sums(self, datasets):
        """The summary reads columns only, and agrees with a walk over every record."""
        toots = TootsDataset.from_corpus(datasets.corpus)
        summary = federation_analysis.feeder_summary(toots)
        assert toots._records is None
        replication = toots.replication_counts()
        produced: Counter[str] = Counter()
        replicated: Counter[str] = Counter()
        for rec in toots.records():
            produced[rec.author_domain] += 1
            replicated[rec.author_domain] += replication[rec.url]
        domains = sorted(produced)
        assert summary["toots_vs_replication_correlation"] == pearson_correlation(
            [produced[d] for d in domains], [replicated[d] for d in domains]
        )


class TestTopInstances:
    def test_table_rows(self):
        rows = federation_analysis.top_instances_report(
            make_toots(), make_graphs(), _instances_dataset(), top=2
        )
        assert rows[0].domain == "feeder.example"
        assert rows[0].home_toots == 20
        assert rows[0].users == 1
        assert rows[0].user_in_degree == 2        # two remote followers
        assert rows[0].user_out_degree == 1       # star follows one remote account
        assert rows[0].instance_in_degree == 1
        assert rows[0].operator == "company"
        assert rows[1].domain == "leech.example"

    def test_top_validation(self):
        with pytest.raises(AnalysisError):
            federation_analysis.top_instances_report(
                make_toots(), make_graphs(), _instances_dataset(), top=0
            )

    def test_pipeline_table_is_sorted_by_home_toots(self, datasets):
        rows = federation_analysis.top_instances_report(
            datasets.toots, datasets.graphs, datasets.instances, top=10
        )
        counts = [row.home_toots for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(row.users >= 0 for row in rows)


def _instances_dataset():
    from repro.crawler.monitor import InstanceSnapshot, MonitoringLog
    from repro.datasets.instances import InstanceMetadata, InstancesDataset

    log = MonitoringLog(interval_minutes=60)
    for domain in ("feeder.example", "leech.example"):
        log.snapshots.append(
            InstanceSnapshot(domain=domain, minute=0, online=True, user_count=10, toot_count=100)
        )
    metadata = {
        "feeder.example": InstanceMetadata(
            domain="feeder.example", operator="company", as_name="Amazon.com, Inc.", country="JP"
        ),
        "leech.example": InstanceMetadata(
            domain="leech.example", operator="individual", as_name="OVH SAS", country="FR"
        ),
    }
    return InstancesDataset(log=log, metadata=metadata)
