"""Tests for the toots dataset."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.toots import TootsDataset

from tests.conftest import corpus_toots


def record(
    toot_id: int,
    author: str,
    home: str,
    collected_from: str | None = None,
    is_boost: bool = False,
) -> TootRecord:
    return TootRecord(
        toot_id=toot_id,
        url=f"https://{home}/@{author}/{toot_id}",
        account=f"{author}@{home}",
        author_domain=home,
        collected_from=collected_from or home,
        created_at=toot_id,
        is_boost=is_boost,
    )


def make_dataset() -> TootsDataset:
    observations = {
        "alpha.example": [
            record(1, "alice", "alpha.example"),
            record(2, "alice", "alpha.example"),
            record(3, "bob", "beta.example", collected_from="alpha.example"),
        ],
        "beta.example": [
            record(3, "bob", "beta.example"),
            record(1, "alice", "alpha.example", collected_from="beta.example"),
            record(4, "bob", "beta.example", is_boost=True),
        ],
    }
    return corpus_toots(
        (r for observed in observations.values() for r in observed), crawl_minute=99
    )


class TestCatalogue:
    def test_deduplication_by_url(self):
        dataset = make_dataset()
        assert len(dataset) == 4
        assert dataset.author_count() == 2
        assert set(dataset.authors()) == {"alice@alpha.example", "bob@beta.example"}

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            corpus_toots([], empty_instances=["alpha.example"])

    def test_per_author_and_per_instance_counts(self):
        dataset = make_dataset()
        assert dataset.toots_per_author()["alice@alpha.example"] == 2
        assert dataset.toots_per_instance() == {"alpha.example": 2, "beta.example": 2}
        assert dataset.home_instances() == ["alpha.example", "beta.example"]
        assert len(dataset.toots_from_instance("alpha.example")) == 2
        assert len(dataset.toots_by_author("bob@beta.example")) == 2

    def test_boosts_and_originals(self):
        dataset = make_dataset()
        assert dataset.boost_count() == 1
        assert len(dataset.original_toots()) == 3

    def test_coverage(self):
        dataset = make_dataset()
        assert dataset.coverage(8) == pytest.approx(0.5)
        assert dataset.coverage(2) == 1.0
        with pytest.raises(DatasetError):
            dataset.coverage(0)


class TestTimelineComposition:
    def test_home_remote_split(self):
        dataset = make_dataset()
        alpha = dataset.timeline_composition("alpha.example")
        assert alpha.home_toots == 2
        assert alpha.remote_toots == 1
        assert alpha.home_fraction == pytest.approx(2 / 3)
        assert alpha.remote_fraction == pytest.approx(1 / 3)

    def test_unknown_instance(self):
        dataset = make_dataset()
        with pytest.raises(DatasetError):
            dataset.timeline_composition("ghost.example")

    def test_all_compositions(self):
        dataset = make_dataset()
        compositions = {c.domain: c for c in dataset.timeline_compositions()}
        assert set(compositions) == {"alpha.example", "beta.example"}
        assert compositions["beta.example"].home_toots == 2

    def test_empty_composition_fractions(self):
        dataset = corpus_toots(
            [record(1, "alice", "alpha.example")], empty_instances=["empty.example"]
        )
        composition = dataset.timeline_composition("empty.example")
        assert composition.total == 0
        assert composition.home_fraction == 0.0
        assert composition.remote_fraction == 0.0

    def test_replication_counts(self):
        dataset = make_dataset()
        counts = dataset.replication_counts()
        assert counts["https://alpha.example/@alice/1"] == 1   # seen on beta too
        assert counts["https://alpha.example/@alice/2"] == 0
        assert counts["https://beta.example/@bob/3"] == 1      # seen on alpha too


class TestFromCrawl:
    def test_from_crawl_against_pipeline(self, datasets):
        toots = datasets.toots
        assert len(toots) > 0
        assert toots.author_count() > 0
        assert toots.crawl_minute > 0
        # every observed instance appears with a composition
        assert len(toots.timeline_compositions()) == len(toots.observed_instances())
