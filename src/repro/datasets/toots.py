"""The toots dataset: the de-duplicated catalogue of crawled toots.

Reads the columnar :class:`~repro.corpus.store.CorpusStore` the toot
crawl streamed into and serves the indexes used in Sections 4 and 5:
per-author and per-home-instance toot counts, boost counts, the
home/remote composition of each instance's federated timeline and the
replication counts behind Fig. 14.  Every answer comes straight from the
corpus manifest and columns; the dataset holds no ``TootRecord``.  Code
that needs records streams them from
:meth:`CorpusStore.iter_records <repro.corpus.store.CorpusStore.iter_records>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore


@dataclass
class TimelineComposition:
    """Home vs. remote toots observed on one instance's federated timeline."""

    domain: str
    home_toots: int = 0
    remote_toots: int = 0

    @property
    def total(self) -> int:
        """Total number of toots on the federated timeline."""
        return self.home_toots + self.remote_toots

    @property
    def home_fraction(self) -> float:
        """Fraction of the federated timeline generated locally."""
        if self.total == 0:
            return 0.0
        return self.home_toots / self.total

    @property
    def remote_fraction(self) -> float:
        """Fraction of the federated timeline replicated from elsewhere."""
        if self.total == 0:
            return 0.0
        return self.remote_toots / self.total


class TootsDataset:
    """The de-duplicated toot catalogue plus per-instance observations."""

    def __init__(self, corpus: "CorpusStore") -> None:
        if corpus.n_toots == 0:
            raise DatasetError("cannot build a toots dataset with no records")
        self.corpus = corpus
        self.crawl_minute = corpus.crawl_minute

    @classmethod
    def from_corpus(cls, store: "CorpusStore") -> "TootsDataset":
        """Wrap a columnar corpus without materialising any records."""
        return cls(store)

    # -- basic accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return self.corpus.n_toots

    def authors(self) -> list[str]:
        """Every distinct author handle."""
        return sorted(self.corpus.authors.tolist())

    def author_count(self) -> int:
        """Number of distinct authors in the catalogue."""
        return int(self.corpus.authors.shape[0])

    def home_instances(self) -> list[str]:
        """Every instance that authored at least one crawled toot."""
        return sorted(self.corpus.home_toot_counts)

    def toots_per_instance(self) -> dict[str, int]:
        """Home-toot count per instance."""
        return self.corpus.home_toot_counts

    def toots_per_author(self) -> dict[str, int]:
        """Toot count per author handle."""
        counts = np.zeros(self.corpus.authors.shape[0], dtype=np.int64)
        for index in range(self.corpus.n_shards):
            codes = self.corpus.shard_column(index, "author_code")
            counts += np.bincount(codes, minlength=counts.size)
        return dict(zip(self.corpus.authors.tolist(), counts.tolist()))

    def boost_count(self) -> int:
        """Number of boosts in the catalogue."""
        return self.corpus.n_boosts

    def coverage(self, total_toots_reported: int) -> float:
        """Fraction of the instance-reported toot population we collected.

        The paper compares its crawl against the counts exposed by the
        instance API and reports 62% coverage.
        """
        if total_toots_reported <= 0:
            raise DatasetError("the reported toot population must be positive")
        return min(1.0, len(self) / total_toots_reported)

    # -- federated timeline composition (Fig. 14) ------------------------------------

    def observed_instances(self) -> list[str]:
        """Instances whose federated timeline was crawled."""
        return sorted(self.corpus.observations)

    def timeline_composition(self, domain: str) -> TimelineComposition:
        """Home/remote composition of one instance's federated timeline."""
        counts = self.corpus.observations.get(domain)
        if counts is None:
            raise DatasetError(f"no federated-timeline observations for {domain!r}")
        return TimelineComposition(domain=domain, home_toots=counts[0], remote_toots=counts[1])

    def timeline_compositions(self) -> list[TimelineComposition]:
        """Home/remote composition for every observed instance."""
        return [self.timeline_composition(domain) for domain in self.observed_instances()]

    def replication_counts(self) -> dict[str, int]:
        """For each toot URL, how many *other* instances held a copy.

        This quantifies how widely each toot was already replicated onto
        federated timelines at crawl time (used to motivate Section 5.2).
        The counters were accumulated at write time; the URL strings
        stream shard by shard.
        """
        counts = self.corpus.replication_counts().tolist()
        return dict(zip(self.corpus.urls(), counts))

    def replication_per_instance(self) -> dict[str, int]:
        """Per home instance: the remote copies of its toots, summed.

        One gather of the ``replication_counts`` table through each
        shard's ``home_code`` column; keyed like :meth:`toots_per_instance`.
        """
        corpus = self.corpus
        replication = corpus.replication_counts()
        totals = np.zeros(corpus.domains.shape[0], dtype=np.int64)
        for index, (start, stop) in enumerate(corpus.shard_bounds()):
            np.add.at(totals, corpus.shard_column(index, "home_code"), replication[start:stop])
        by_domain = dict(zip(corpus.domains.tolist(), totals.tolist()))
        return {domain: by_domain[domain] for domain in corpus.home_toot_counts}
