"""Graph resilience analysis (Section 5.1: Figs. 11-13).

The paper quantifies how the follower graph and the instance federation
graph degrade when the most important users, instances or hosting ASes
disappear.  This module holds the analysis around those attacks: the
degree distributions of Fig. 11 and the instance and AS rankings that
order every removal schedule (Figs. 13, 15 and 16).  The removal sweeps
themselves are the engine's (:mod:`repro.engine.resilience`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.failures import rank_by_count
from repro.errors import AnalysisError
from repro.stats.distributions import ECDF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.graph import GraphColumns


def degree_cdf(degrees: Sequence[int]) -> ECDF:
    """ECDF of a degree sequence (Fig. 11)."""
    if not degrees:
        raise AnalysisError("empty degree sequence")
    return ECDF(degrees)


def rank_instances(
    graphs: "GraphColumns",
    users_per_instance: Mapping[str, int] | None = None,
    toots_per_instance: Mapping[str, int] | None = None,
    by: str = "users",
) -> list[str]:
    """Rank the graph's instances for removal experiments (Fig. 13a, Fig. 15).

    ``by`` is one of ``"users"``, ``"toots"`` or ``"connections"`` (total
    degree in the federation graph).  Ties keep the graph's domain order
    (:func:`~repro.engine.failures.rank_by_count`).
    """
    if by == "users":
        if users_per_instance is None:
            raise AnalysisError("ranking by users requires users_per_instance")
        counts = users_per_instance
    elif by == "toots":
        if toots_per_instance is None:
            raise AnalysisError("ranking by toots requires toots_per_instance")
        counts = toots_per_instance
    elif by == "connections":
        counts = graphs.federation_degrees()
    else:
        raise AnalysisError(f"unknown instance ranking: {by!r}")
    return rank_by_count(graphs.domains.tolist(), counts)


def rank_ases(
    asn_of_instance: Mapping[str, int],
    users_per_instance: Mapping[str, int] | None = None,
    by: str = "instances",
) -> list[int]:
    """Rank ASes by the instances or users they host (Fig. 13b, Fig. 15)."""
    instances_per_asn: dict[int, int] = {}
    users_per_asn: dict[int, int] = {}
    for domain, asn in asn_of_instance.items():
        instances_per_asn[asn] = instances_per_asn.get(asn, 0) + 1
        if users_per_instance is not None:
            users_per_asn[asn] = users_per_asn.get(asn, 0) + users_per_instance.get(domain, 0)
    if by == "instances":
        return sorted(instances_per_asn, key=lambda a: instances_per_asn[a], reverse=True)
    if by == "users":
        if users_per_instance is None:
            raise AnalysisError("ranking by users requires users_per_instance")
        return sorted(users_per_asn, key=lambda a: users_per_asn[a], reverse=True)
    raise AnalysisError(f"unknown AS ranking: {by!r}")
