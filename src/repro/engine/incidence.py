"""Domain-name resolution over a placement's domain universe.

Every fold addresses domains by integer code: the placement arrays hold
codes into their sorted domain universe, and a removal schedule becomes
one step per code.  :class:`DomainLookup` turns the name-keyed inputs of
the failure models (removal rankings, AS and hoster maps) into those
dense per-code vectors with one :func:`numpy.searchsorted` per batch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: Sentinel removal step for domains that never fail within a schedule.
NEVER_REMOVED = np.inf


class DomainLookup:
    """Vectorised name→column resolution over a fixed domain universe.

    Built once per placement's domain universe and reused by every
    :meth:`removal_vector` / :meth:`as_assignment` call:
    the domain names live in one sorted numpy string array, so resolving
    a batch of names is a single :func:`numpy.searchsorted` plus fancy
    indexing instead of a per-name dict loop.  Names outside the
    universe resolve to ``-1`` (they cannot affect any toot).
    """

    def __init__(self, domains: Sequence[str]) -> None:
        self.n_domains = len(domains)
        names = np.asarray(domains, dtype=np.str_)
        order = np.argsort(names, kind="stable").astype(np.int64)
        self._sorted_names = names[order]
        self._order = order

    def codes(self, names: Sequence[str]) -> np.ndarray:
        """Column codes for ``names`` (``-1`` for unknown domains)."""
        if not len(names):
            return np.empty(0, dtype=np.int64)
        queries = np.asarray(names, dtype=np.str_)
        position = np.searchsorted(self._sorted_names, queries)
        clipped = np.minimum(position, max(self.n_domains - 1, 0))
        known = (
            (self._sorted_names[clipped] == queries)
            if self.n_domains
            else np.zeros(len(queries), dtype=bool)
        )
        codes = np.where(known, self._order[clipped], -1)
        return codes.astype(np.int64)

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Per-domain removal steps as a dense float vector.

        ``removal_index[d] = k`` means domain ``d`` disappears at step
        ``k`` (1-based).  Domains absent from the mapping — or removed
        after ``steps`` — get :data:`NEVER_REMOVED`, exactly mirroring the
        legacy per-toot loop's survival rule.  Removed domains outside
        the universe are ignored: they cannot affect any toot.
        """
        vector = np.full(self.n_domains, NEVER_REMOVED, dtype=np.float64)
        if not removal_index:
            return vector
        codes = self.codes(list(removal_index.keys()))
        removal_steps = np.fromiter(
            removal_index.values(), dtype=np.float64, count=len(removal_index)
        )
        keep = (codes >= 0) & (removal_steps <= steps)
        vector[codes[keep]] = removal_steps[keep]
        return vector

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS assignment vector aligned with the domain universe.

        Instances without a known AS get ``-1``.
        """
        assignment = np.full(self.n_domains, -1, dtype=np.int64)
        if not asn_of_instance:
            return assignment
        codes = self.codes(list(asn_of_instance.keys()))
        asns = np.fromiter(
            asn_of_instance.values(), dtype=np.int64, count=len(asn_of_instance)
        )
        keep = codes >= 0
        assignment[codes[keep]] = asns[keep]
        return assignment
