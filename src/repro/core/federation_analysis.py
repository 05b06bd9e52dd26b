"""Content federation: feeder instances and the top-instance table.

Covers Fig. 14 (the home/remote composition of federated timelines — most
instances mostly re-show content generated elsewhere) and Table 2 (the
ten instances generating the most home toots, with their degrees in the
user and federation graphs, operator and hosting AS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.datasets.graphs import GraphDataset
from repro.datasets.instances import InstancesDataset
from repro.datasets.toots import TootsDataset
from repro.stats.summary import pearson_correlation


@dataclass(frozen=True, slots=True)
class HomeRemotePoint:
    """One instance's federated-timeline composition, as plotted in Fig. 14."""

    domain: str
    home_share: float
    remote_share: float
    total_toots: int


def home_remote_series(toots: TootsDataset) -> list[HomeRemotePoint]:
    """Per-instance home/remote toot shares, ordered by home share (Fig. 14)."""
    points = [
        HomeRemotePoint(
            domain=c.domain,
            home_share=c.home_fraction,
            remote_share=c.remote_fraction,
            total_toots=c.total,
        )
        for c in toots.timeline_compositions()
        if c.total > 0
    ]
    points.sort(key=lambda p: p.home_share)
    return points


def feeder_summary(toots: TootsDataset) -> dict[str, float]:
    """Headline feeder statistics from Section 5.2.

    * the share of instances generating under 10% of their own federated
      timeline (paper: 78%);
    * the share entirely reliant on remote toots (paper: 5%);
    * the correlation between how many toots an instance generates and
      how often its toots are replicated elsewhere (paper: 0.97).
    """
    points = home_remote_series(toots)
    under_10 = sum(1 for p in points if p.home_share < 0.10) / len(points)
    fully_remote = sum(1 for p in points if p.home_share == 0.0) / len(points)

    produced = toots.toots_per_instance()
    replicated = toots.replication_per_instance()
    domains = sorted(produced)
    correlation = 0.0
    if len(domains) >= 2:
        correlation = pearson_correlation(
            [produced[d] for d in domains], [replicated[d] for d in domains]
        )
    return {
        "share_under_10pct_home": under_10,
        "share_fully_remote": fully_remote,
        "toots_vs_replication_correlation": correlation,
    }


@dataclass(frozen=True, slots=True)
class TopInstanceRow:
    """One row of Table 2."""

    domain: str
    home_toots: int
    users: int
    user_out_degree: int
    user_in_degree: int
    toot_out_degree: int
    toot_in_degree: int
    instance_out_degree: int
    instance_in_degree: int
    operator: str
    as_name: str
    country: str


def top_instances_report(
    toots: TootsDataset,
    graphs: GraphDataset,
    instances: InstancesDataset,
    top: int = 10,
) -> list[TopInstanceRow]:
    """Reproduce Table 2: the top instances by home-timeline toots.

    Degree columns follow the paper's convention:

    * *user* out/in degree — accounts on other instances followed by /
      following accounts on this instance;
    * *toot* out/in degree — toots flowing out to / in from other
      instances along those follow edges (approximated by the authors'
      toot counts);
    * *instance* out/in degree — degree of the instance in the federation
      graph.
    """
    if top < 1:
        raise AnalysisError("top must be positive")
    home_counts = toots.toots_per_instance()
    ranked = sorted(home_counts, key=lambda d: home_counts[d], reverse=True)[:top]
    toots_per_author = toots.toots_per_author()

    # every cross-instance follow edge, as (follower's, followed's) domain
    source = graphs.node_domain_codes[graphs.follower]
    target = graphs.node_domain_codes[graphs.followed]
    cross = source != target
    source, target = source[cross], target[cross]
    followed_toots = np.array(
        [toots_per_author.get(handle, 0) for handle in graphs.handles.tolist()],
        dtype=np.float64,
    )[graphs.followed[cross]]
    n = graphs.instance_count()
    columns = (  # user out, user in, toot out, toot in
        np.bincount(source, minlength=n),
        np.bincount(target, minlength=n),
        np.bincount(target, weights=followed_toots, minlength=n).astype(np.int64),
        np.bincount(source, weights=followed_toots, minlength=n).astype(np.int64),
    )
    cross_degrees = dict(zip(graphs.domains.tolist(), zip(*(c.tolist() for c in columns))))
    instance_degrees = graphs.instance_degree_table()

    rows: list[TopInstanceRow] = []
    for domain in ranked:
        user_out, user_in, toot_out, toot_in = cross_degrees.get(domain, (0, 0, 0, 0))
        degrees = instance_degrees.get(domain, {})
        metadata = None
        if domain in instances.metadata:
            metadata = instances.metadata_for(domain)
        rows.append(
            TopInstanceRow(
                domain=domain,
                home_toots=home_counts[domain],
                users=degrees.get("users", 0),
                user_out_degree=user_out,
                user_in_degree=user_in,
                toot_out_degree=toot_out,
                toot_in_degree=toot_in,
                instance_out_degree=degrees.get("instance_out_degree", 0),
                instance_in_degree=degrees.get("instance_in_degree", 0),
                operator=metadata.operator if metadata else "unknown",
                as_name=metadata.as_name if metadata else "",
                country=metadata.country if metadata else "",
            )
        )
    return rows
