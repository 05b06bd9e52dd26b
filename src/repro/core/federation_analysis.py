"""Content federation: feeder instances and the top-instance table.

Covers Fig. 14 (the home/remote composition of federated timelines — most
instances mostly re-show content generated elsewhere) and Table 2 (the
ten instances generating the most home toots, with their degrees in the
user and federation graphs, operator and hosting AS).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    rows: list[TopInstanceRow] = []
    for domain in ranked:
        local_accounts = set(graphs.users_on_instance(domain))
        user_out = 0
        user_in = 0
        toot_out = 0
        toot_in = 0
        for account in local_accounts:
            for _, followed in graphs.follower_graph.out_edges(account):
                if graphs.follower_graph.nodes[followed].get("domain") != domain:
                    user_out += 1
                    toot_in += toots_per_author.get(followed, 0)
            for follower, _ in graphs.follower_graph.in_edges(account):
                if graphs.follower_graph.nodes[follower].get("domain") != domain:
                    user_in += 1
                    toot_out += toots_per_author.get(account, 0)
        metadata = None
        if domain in instances.metadata:
            metadata = instances.metadata_for(domain)
        federation = graphs.federation_graph
        rows.append(
            TopInstanceRow(
                domain=domain,
                home_toots=home_counts[domain],
                users=len(local_accounts),
                user_out_degree=user_out,
                user_in_degree=user_in,
                toot_out_degree=toot_out,
                toot_in_degree=toot_in,
                instance_out_degree=(
                    federation.out_degree(domain) if federation.has_node(domain) else 0
                ),
                instance_in_degree=(
                    federation.in_degree(domain) if federation.has_node(domain) else 0
                ),
                operator=metadata.operator if metadata else "unknown",
                as_name=metadata.as_name if metadata else "",
                country=metadata.country if metadata else "",
            )
        )
    return rows
