"""Placement maps as a dict of holder sets, and the loops that built them.

Before every placement became :class:`repro.engine.placement.PlacementArrays`,
a map could be a dict from toot URL to the frozenset of domains holding
it (:class:`DictPlacementMap`), and the strategies and curves were
per-toot loops over the dataset's records.  They live on here, verbatim
apart from names and imports, as the references the tests hold the
array builders and the kill kernel to.  The records stream from the
corpus (:meth:`CorpusStore.iter_records
<repro.corpus.store.CorpusStore.iter_records>`), in corpus order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.datasets.graphs import GraphDataset
from repro.datasets.toots import TootsDataset
from repro.engine.placement import PlacementArrays
from repro.engine.sweep import AvailabilityPoint
from repro.errors import AnalysisError

from tests.reference.graphs import build_follower_graph, edge_handles
from tests.reference.incidence import TootIncidence, availability_curve_array


class DictPlacementMap:
    """For every toot (by URL), the frozenset of instances holding a copy."""

    def __init__(self, strategy: str, placements: Mapping[str, frozenset[str]]) -> None:
        self.strategy = strategy
        self.placements = dict(placements)

    def __len__(self) -> int:
        return len(self.placements)

    def replica_counts(self) -> list[int]:
        """Number of copies *beyond the home instance* for every toot."""
        return [max(0, len(holders) - 1) for holders in self.placements.values()]

    def replication_summary(self) -> dict[str, float]:
        """Share of toots with no replica and with more than ten replicas."""
        counts = np.asarray(self.replica_counts(), dtype=np.int64)
        if counts.size == 0:
            raise AnalysisError("the placement map is empty")
        return {
            "mean_replicas": float(np.mean(counts)),
            "share_without_replica": int((counts == 0).sum()) / counts.size,
            "share_with_more_than_10": int((counts > 10).sum()) / counts.size,
        }


def placement_dict(arrays) -> dict[str, frozenset[str]]:
    """The dict-of-frozensets view of :class:`PlacementArrays`, one toot at a time."""
    domains = arrays.domains
    indices = arrays.replica_indices
    indptr = arrays.replica_indptr
    out: dict[str, frozenset[str]] = {}
    for t, url in enumerate(arrays.toot_urls):
        holders = {domains[arrays.home[t]]}
        holders.update(domains[j] for j in indices[indptr[t] : indptr[t + 1]])
        out[url] = frozenset(holders)
    return out


def as_dict_map(arrays: PlacementArrays) -> DictPlacementMap:
    """The dict-backed twin of a placement's arrays."""
    return DictPlacementMap(arrays.strategy, placement_dict(arrays))


# -- the strategies as per-record loops --------------------------------------------


def no_replication_python(toots: TootsDataset) -> DictPlacementMap:
    """The original dict comprehension — reference for the differential suite."""
    placements = {
        record.url: frozenset({record.author_domain})
        for record in toots.corpus.iter_records()
    }
    return DictPlacementMap(strategy="no-replication", placements=placements)


def subscription_replication_python(
    toots: TootsDataset, graphs: GraphDataset
) -> DictPlacementMap:
    """The original per-record loop — reference for the differential suite.

    It walks the networkx graph of the dataset's edges, not the columns.
    """
    follower_domains: dict[str, frozenset[str]] = {}
    follower_graph = build_follower_graph(edge_handles(graphs))
    placements: dict[str, frozenset[str]] = {}
    for record in toots.corpus.iter_records():
        author = record.account
        if author not in follower_domains:
            domains: set[str] = set()
            if follower_graph.has_node(author):
                for follower, _ in follower_graph.in_edges(author):
                    domain = follower_graph.nodes[follower].get("domain")
                    if domain:
                        domains.add(domain)
            follower_domains[author] = frozenset(domains)
        placements[record.url] = frozenset({record.author_domain}) | follower_domains[author]
    return DictPlacementMap(strategy="subscription-replication", placements=placements)


def random_replication_python(
    toots: TootsDataset,
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> DictPlacementMap:
    """The original one-``rng.choice``-per-toot loop — reference implementation.

    The statistical half of the differential suite holds the batched
    builder to the same replica-count distribution as this loop.
    """
    if n_replicas < 0:
        raise AnalysisError("the number of replicas cannot be negative")
    candidates = sorted(set(candidate_domains))
    if not candidates:
        raise AnalysisError("no candidate instances to replicate onto")
    rng = np.random.default_rng(seed)
    k = min(n_replicas, len(candidates))
    probabilities: np.ndarray | None = None
    if weights is not None:
        from repro.engine.placement import _normalised_log_weights

        # shares the vectorised path's validation (positive mass, enough
        # positive-weight candidates for k distinct picks)
        probabilities = np.exp(_normalised_log_weights(candidates, weights, k))

    placements: dict[str, frozenset[str]] = {}
    for record in toots.corpus.iter_records():
        if k == 0:
            placements[record.url] = frozenset({record.author_domain})
            continue
        picks = rng.choice(len(candidates), size=k, replace=False, p=probabilities)
        replicas = {candidates[int(i)] for i in picks}
        placements[record.url] = frozenset({record.author_domain}) | replicas
    label = f"random-replication-n{n_replicas}"
    if weights is not None:
        label += "-weighted"
    return DictPlacementMap(strategy=label, placements=placements)


# -- availability curves ----------------------------------------------------------


def availability_curve(
    placements,
    removal_index: Mapping[str, int],
    steps: int,
) -> list[AvailabilityPoint]:
    """Compute the availability curve given per-domain removal steps.

    ``removal_index[d] = k`` means domain ``d`` disappears at step ``k``
    (1-based); domains absent from the mapping never disappear.  A toot
    becomes unavailable at the step when its *last* holding domain is
    removed.

    Folds the CSR incidence matrix of :mod:`tests.reference.incidence`.
    """
    incidence = TootIncidence.from_placements(placements)
    curve = availability_curve_array(
        incidence.matrix, incidence.removal_vector(removal_index, steps), steps
    )
    return [
        AvailabilityPoint(removed=step, availability=float(value))
        for step, value in enumerate(curve)
    ]


def availability_curve_python(
    placements,
    removal_index: Mapping[str, int],
    steps: int,
) -> list[AvailabilityPoint]:
    """The original per-toot loop — the engine's reference implementation.

    ``placements`` is a :class:`DictPlacementMap` or
    :class:`PlacementArrays`; the arrays are walked through their
    :func:`placement_dict` view.
    """
    holder_sets = (
        placement_dict(placements)
        if isinstance(placements, PlacementArrays)
        else placements.placements
    )
    total = len(holder_sets)
    if total == 0:
        raise AnalysisError("the placement map is empty")
    losses_at_step = np.zeros(steps + 1, dtype=int)
    for holders in holder_sets.values():
        kill_step = 0
        for domain in holders:
            index = removal_index.get(domain)
            if index is None or index > steps:
                kill_step = None
                break
            kill_step = max(kill_step, index)
        if kill_step is not None and kill_step > 0:
            losses_at_step[kill_step] += 1
    curve: list[AvailabilityPoint] = []
    lost = 0
    for step in range(steps + 1):
        lost += int(losses_at_step[step])
        curve.append(AvailabilityPoint(removed=step, availability=1.0 - lost / total))
    return curve
