"""Twitter baselines: the comparison datasets used by the paper.

Two Twitter artefacts appear in the evaluation:

* 2007 pingdom uptime probes, used in Fig. 8 to compare Mastodon's
  downtime against Twitter at a similar age (average downtime 1.25%,
  famously poor — the "Fail Whale" era);
* the 2011 follower graph, used in Fig. 11 (degree CDF) and Fig. 12
  (sensitivity to removing the most-followed accounts: the LCC holds
  ~95% of users, and removing the top 10% still leaves ~80% connected).

Neither artefact is redistributable here, so this module synthesises
equivalents calibrated to those published summary statistics.  The
downstream analysis only consumes the distributions, so the calibrated
synthetic stand-ins preserve every comparison the paper draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.resilience import GraphMatrix
from repro.errors import ConfigurationError
from repro.stats.distributions import sample_power_law

#: Average daily downtime fraction of Twitter in 2007 (Fig. 8 reference).
TWITTER_2007_MEAN_DOWNTIME = 0.0125


def twitter_daily_downtime(
    days: int,
    seed: int = 2007,
    mean_downtime: float = TWITTER_2007_MEAN_DOWNTIME,
) -> list[float]:
    """Synthesise per-day downtime fractions matching Twitter-2007 statistics.

    Most days have little or no downtime with occasional multi-hour
    outages, reproducing the bursty profile of the pingdom data while
    keeping the published mean.
    """
    if days <= 0:
        raise ConfigurationError("the number of days must be positive")
    if not 0.0 <= mean_downtime < 1.0:
        raise ConfigurationError("mean downtime must be a fraction below 1")
    rng = np.random.default_rng(seed)
    # ~70% of days are clean; the remainder carry exponential outage time.
    clean = rng.random(days) < 0.7
    raw = np.where(clean, 0.0, rng.exponential(scale=1.0, size=days))
    if raw.sum() == 0:
        raw[rng.integers(0, days)] = 1.0
    fractions = raw / raw.sum() * mean_downtime * days
    return [float(min(f, 0.95)) for f in fractions]


def build_twitter_follower_graph(
    n_users: int = 5_000,
    mean_out_degree: float = 12.0,
    seed: int = 2011,
) -> GraphMatrix:
    """Synthesise a Twitter-like follower graph.

    The generator uses preferential attachment over a random arrival
    order, yielding the heavy-tailed in-degree distribution of Fig. 11 and
    the robust LCC behaviour of Fig. 12 (about 95% of accounts in the LCC,
    and most of the graph still connected after removing the top 10% of
    accounts by degree).  Node ``i`` is ``twitter_user_{i}``.
    """
    if n_users < 10:
        raise ConfigurationError("the Twitter baseline needs at least 10 users")
    if mean_out_degree <= 0:
        raise ConfigurationError("mean out-degree must be positive")
    rng = np.random.default_rng(seed)

    # In-degree attractiveness with a bounded heavy tail.
    attractiveness = sample_power_law(
        rng, n_users, exponent=2.0, minimum=1.0, maximum=float(n_users) / 4.0
    )
    probabilities = attractiveness / attractiveness.sum()
    out_degrees = sample_power_law(
        rng, n_users, exponent=2.2, minimum=1.0, maximum=float(min(1000, n_users - 1))
    )
    out_degrees = np.maximum(
        1, np.round(out_degrees * (mean_out_degree / out_degrees.mean()))
    ).astype(int)

    # ~5% of accounts are isolated lurkers (the paper's Twitter LCC is ~95%).
    lurker = np.zeros(n_users, dtype=bool)
    lurker[rng.choice(n_users, size=max(1, n_users // 20), replace=False)] = True

    sources = []
    targets = []
    for index in np.flatnonzero(~lurker).tolist():
        k = int(min(out_degrees[index], n_users - 1))
        drawn = rng.choice(n_users, size=k, replace=False, p=probabilities)
        kept = drawn[(drawn != index) & ~lurker[drawn]]
        sources.append(np.full(kept.size, index))
        targets.append(kept)
    return GraphMatrix.from_codes(
        [f"twitter_user_{i}" for i in range(n_users)],
        np.concatenate(sources),
        np.concatenate(targets),
    )


@dataclass
class TwitterBaselines:
    """Bundle of the two Twitter comparison datasets."""

    daily_downtime: list[float]
    follower_matrix: GraphMatrix

    @classmethod
    def generate(
        cls,
        days: int = 300,
        n_users: int = 5_000,
        seed: int = 2007,
    ) -> "TwitterBaselines":
        """Generate both baselines with a single seed."""
        return cls(
            daily_downtime=twitter_daily_downtime(days, seed=seed),
            follower_matrix=build_twitter_follower_graph(n_users=n_users, seed=seed + 4),
        )

    @property
    def mean_downtime(self) -> float:
        """Average daily downtime fraction of the synthetic uptime series."""
        if not self.daily_downtime:
            return 0.0
        return float(np.mean(self.daily_downtime))
