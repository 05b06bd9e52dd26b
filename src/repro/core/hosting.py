"""Where instances are hosted: countries, ASes and cross-country federation.

Covers Fig. 5 (top countries / ASes by instances, users and toots) and
Fig. 6 (the Sankey of federated subscription links between countries),
the analyses behind the paper's "infrastructure-driven pressures towards
centralisation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import AnalysisError
from repro.datasets.instances import InstancesDataset
from repro.fediverse.geo import hoster_of_asn


@dataclass(frozen=True, slots=True)
class HostingShare:
    """Instance/user/toot shares attributed to one hosting location."""

    key: str
    instances: int
    users: int
    toots: int
    instance_share: float
    user_share: float
    toot_share: float


def country_breakdown(dataset: InstancesDataset, top: int | None = None) -> list[HostingShare]:
    """Per-country shares of instances, users and toots (Fig. 5 top)."""
    return _grouped_breakdown(dataset, by="country", top=top)


def asn_breakdown(dataset: InstancesDataset, top: int | None = None) -> list[HostingShare]:
    """Per-AS shares of instances, users and toots (Fig. 5 bottom)."""
    return _grouped_breakdown(dataset, by="asn", top=top)


def hoster_breakdown(dataset: InstancesDataset, top: int | None = None) -> list[HostingShare]:
    """Per-hosting-provider shares, with sibling ASNs collapsed (Tables 1-2).

    The provider — not the individual AS — is the failure domain of a
    correlated outage, so this is the grouping
    :class:`~repro.engine.failures.HosterRemoval` sweeps over.
    """
    return _grouped_breakdown(dataset, by="hoster", top=top)


def _grouped_breakdown(
    dataset: InstancesDataset, by: str, top: int | None
) -> list[HostingShare]:
    users = dataset.users_per_instance()
    toots = dataset.toots_per_instance()
    total_instances = len(dataset.domains())
    total_users = sum(users.values())
    total_toots = sum(toots.values())
    if total_instances == 0:
        raise AnalysisError("the dataset contains no instances")

    groups: dict[str, list[str]] = {}
    for domain in dataset.domains():
        metadata = dataset.metadata_for(domain)
        if by == "country":
            key = metadata.country or "unknown"
        elif by == "asn":
            key = metadata.as_name or f"AS{metadata.asn}"
        elif by == "hoster":
            key = hoster_of_asn(metadata.asn, metadata.as_name)
        else:
            raise AnalysisError(f"unknown grouping: {by!r}")
        groups.setdefault(key, []).append(domain)

    shares = [
        HostingShare(
            key=key,
            instances=len(domains),
            users=sum(users[d] for d in domains),
            toots=sum(toots[d] for d in domains),
            instance_share=len(domains) / total_instances,
            user_share=(sum(users[d] for d in domains) / total_users) if total_users else 0.0,
            toot_share=(sum(toots[d] for d in domains) / total_toots) if total_toots else 0.0,
        )
        for key, domains in groups.items()
    ]
    shares.sort(key=lambda share: share.users, reverse=True)
    return shares if top is None else shares[:top]


def top_as_user_share(dataset: InstancesDataset, top: int = 3) -> float:
    """Fraction of users hosted by the ``top`` ASes (paper: top 3 hold ~62%)."""
    shares = asn_breakdown(dataset)
    return sum(share.user_share for share in shares[:top])


@dataclass(frozen=True, slots=True)
class CountryFlow:
    """Federated subscription volume from one hosting country to another."""

    source_country: str
    target_country: str
    links: int
    share_of_source: float


def country_federation_flows(
    federation: Mapping[tuple[str, str], int],
    dataset: InstancesDataset,
    top_sources: int = 5,
) -> list[CountryFlow]:
    """Cross-country federated subscription flows (Fig. 6 Sankey data).

    ``federation`` maps each federation-graph edge ``(source, target)``
    to its weight, the number of underlying follow relationships
    (:meth:`~repro.corpus.graph.GraphColumns.federation_edge_counts`).
    Every edge is attributed to the hosting countries of its two endpoint
    instances; flows with equal link counts keep the order in which
    their first edge appears.
    """
    country_of: dict[str, str] = {
        domain: dataset.metadata_for(domain).country or "unknown"
        for domain in dataset.domains()
    }
    outgoing: dict[str, dict[str, int]] = {}
    for (source, target), weight in federation.items():
        source_country = country_of.get(source, "unknown")
        target_country = country_of.get(target, "unknown")
        outgoing.setdefault(source_country, {}).setdefault(target_country, 0)
        outgoing[source_country][target_country] += weight
    if not outgoing:
        raise AnalysisError("the federation graph has no cross-instance edges")

    totals = {country: sum(targets.values()) for country, targets in outgoing.items()}
    ranked_sources = sorted(totals, key=lambda c: totals[c], reverse=True)[:top_sources]
    flows: list[CountryFlow] = []
    for source_country in ranked_sources:
        for target_country, links in sorted(
            outgoing[source_country].items(), key=lambda kv: kv[1], reverse=True
        ):
            flows.append(
                CountryFlow(
                    source_country=source_country,
                    target_country=target_country,
                    links=links,
                    share_of_source=links / totals[source_country],
                )
            )
    return flows


def federation_homophily(
    federation: Mapping[tuple[str, str], int], dataset: InstancesDataset
) -> dict[str, float]:
    """Same-country share of federated links and top-5-country concentration.

    The paper reports that ~32% of federated links stay within one country
    and that the top five countries attract ~94% of all subscription links.
    """
    country_of: dict[str, str] = {
        domain: dataset.metadata_for(domain).country or "unknown"
        for domain in dataset.domains()
    }
    total_links = 0
    same_country_links = 0
    links_touching_country: dict[str, int] = {}
    for (source, target), weight in federation.items():
        total_links += weight
        source_country = country_of.get(source, "unknown")
        target_country = country_of.get(target, "unknown")
        if source_country == target_country:
            same_country_links += weight
        for country in {source_country, target_country}:
            links_touching_country[country] = links_touching_country.get(country, 0) + weight
    if total_links == 0:
        raise AnalysisError("the federation graph has no cross-instance edges")
    top5 = sorted(links_touching_country.values(), reverse=True)[:5]
    return {
        "same_country_share": same_country_links / total_links,
        "top5_country_link_share": min(1.0, sum(top5) / total_links),
        "total_links": float(total_links),
    }
