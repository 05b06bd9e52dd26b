"""Placement construction straight from corpus columns.

Every placement starts here.  The per-toot inputs are the interned
``home_code`` / ``author_code`` columns of a
:class:`~repro.corpus.store.CorpusStore`, loaded **shard by shard** and
remapped into the sorted domain universe with one gather per shard, then
handed to the batched cores of :mod:`repro.engine.placement`
(:func:`random_arrays_from_columns`,
:func:`subscription_arrays_from_columns`).  No ``TootRecord`` is ever
built.  Because the corpus keeps the crawl's de-dup order (instances
sorted by domain, first-seen URL wins), the resulting
:class:`~repro.engine.placement.PlacementArrays` — seeded draws
included — are a pure function of the crawl and the strategy.

Every builder stamps the corpus shard boundaries into
``PlacementArrays.source_bounds``, so by default every fold
(:func:`repro.engine.sharding.toot_ranges`) runs over exactly the shards
the crawl wrote.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.corpus.store import CorpusStore
from repro.engine.placement import (
    PlacementArrays,
    follower_domain_sets,
    random_arrays_from_columns,
    subscription_arrays_from_columns,
    validated_candidates,
)


def _require_toots(store: CorpusStore) -> None:
    if store.n_toots == 0:
        raise DatasetError("the corpus holds no toots")


def _remapped_homes(
    store: CorpusStore, extra_domains: Sequence[str] = ()
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Per-toot home codes in the sorted domain universe, plus the universe.

    The universe is ``sorted(home domains in use ∪ extra_domains)``, and
    the per-shard remap is one gather through an intern-code →
    universe-code table.  Each shard's ``home_code`` column is read
    once: it marks the codes in use, then feeds the gather.
    """
    table = store.domains
    used = np.zeros(table.shape[0], dtype=bool)
    shard_homes = [
        store.shard_column(index, "home_code") for index in range(store.n_shards)
    ]
    for codes in shard_homes:
        used[codes] = True
    home_domains = set(table[used].tolist())
    domains = tuple(sorted(home_domains.union(extra_domains)))
    code = {domain: j for j, domain in enumerate(domains)}
    remap = np.full(table.shape[0], -1, dtype=np.int64)
    for intern_code in np.nonzero(used)[0]:
        remap[intern_code] = code[str(table[intern_code])]
    home = np.empty(store.n_toots, dtype=np.int64)
    for (start, stop), codes in zip(store.shard_bounds(), shard_homes):
        home[start:stop] = remap[codes]
    return home, domains


def build_no_replication_from_corpus(store: CorpusStore) -> PlacementArrays:
    """Each toot lives only on its author's home instance."""
    _require_toots(store)
    home, domains = _remapped_homes(store)
    return PlacementArrays(
        strategy="no-replication",
        toot_urls=store.urls(),
        domains=domains,
        home=home,
        replica_indices=np.empty(0, dtype=np.int64),
        replica_indptr=np.zeros(store.n_toots + 1, dtype=np.int64),
        source_bounds=tuple(store.shard_bounds()),
    )


def build_random_replication_from_corpus(
    store: CorpusStore,
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementArrays:
    """Each toot is replicated onto ``n_replicas`` random instances.

    One batched Gumbel top-k draw — same seed, same corpus, same
    placements, bit for bit.
    """
    candidates = validated_candidates(candidate_domains, n_replicas)
    _require_toots(store)
    home, domains = _remapped_homes(store, candidates)
    return random_arrays_from_columns(
        store.urls(),
        home,
        domains,
        candidates,
        n_replicas,
        seed=seed,
        weights=weights,
        source_bounds=tuple(store.shard_bounds()),
    )


def build_subscription_replication_from_corpus(
    store: CorpusStore, graphs: "GraphDataset | GraphStore"
) -> PlacementArrays:
    """Each toot is replicated to the instances hosting the author's followers.

    The corpus ``author_code`` column already encodes authors in
    first-appearance order, so the per-author follower table expands
    over it directly.  ``graphs`` may be the networkx-backed
    dataset or an on-disk :class:`~repro.corpus.graph.GraphStore`;
    :func:`follower_domain_sets` dispatches and both produce the same
    table, so the placements are identical either way.
    """
    _require_toots(store)
    follower_domains = follower_domain_sets(store.authors.tolist(), graphs)
    extra = set().union(*follower_domains.values()) if follower_domains else set()
    home, domains = _remapped_homes(store, tuple(extra))
    toot_author = store.column("author_code").astype(np.int64)
    return subscription_arrays_from_columns(
        store.urls(),
        home,
        domains,
        toot_author,
        follower_domains,
        source_bounds=tuple(store.shard_bounds()),
    )
