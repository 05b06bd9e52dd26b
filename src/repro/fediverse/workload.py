"""Synthetic fediverse scenario generation.

The paper measured the live Mastodon network; offline we synthesise a
population whose *distributions* match the ones the paper reports, so
that every downstream figure reproduces the published shape:

* users/toots per instance are heavily skewed (top 5% of instances hold
  ~90% of users, Section 4.1), with open instances much larger but closed
  instances more active per capita;
* ~16% of instances self-declare categories with the mix of Fig. 3
  (many tech/games/art instances; few adult instances with many users);
* hosting concentrates on a handful of countries (Fig. 5: JP/US/FR/DE/NL)
  and ASes (Amazon/Cloudflare/Sakura/OVH/DigitalOcean), with the largest
  instances disproportionately on the big clouds;
* the follower graph is power-law and exhibits country homophily
  (Fig. 6, Fig. 11);
* availability has a long tail of poorly administered instances, AS-wide
  outages and certificate-expiry outages (Figs. 7-10, Table 1).

Everything is driven by a single seeded :class:`numpy.random.Generator`
so scenarios are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.fediverse.certificates import CERTIFICATE_AUTHORITIES
from repro.fediverse.entities import (
    ActivityPolicy,
    ActivityType,
    Category,
    InstanceDescriptor,
    OperatorType,
    RegistrationPolicy,
    Software,
    UserRef,
    Visibility,
)
from repro.fediverse.geo import DEFAULT_COUNTRIES, IPAllocator, WELL_KNOWN_ASES
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.uptime import ASOutageEvent, OutageCause
from repro.simtime import MINUTES_PER_DAY, PAPER_START_DATE, SimClock, TimeWindow
from repro.stats.distributions import sample_power_law

# ---------------------------------------------------------------------------
# Calibration tables (fractions taken from the paper's figures)
# ---------------------------------------------------------------------------

#: Probability that a *tagged* instance declares each category (Fig. 3,
#: instances bar).  Categories are not mutually exclusive.
CATEGORY_INSTANCE_WEIGHTS: dict[Category, float] = {
    Category.GENERIC: 0.517,
    Category.TECH: 0.552,
    Category.GAMES: 0.373,
    Category.ART: 0.3015,
    Category.ACTIVISM: 0.24,
    Category.MUSIC: 0.23,
    Category.ANIME: 0.246,
    Category.BOOKS: 0.19,
    Category.ACADEMIA: 0.17,
    Category.LGBT: 0.16,
    Category.JOURNALISM: 0.15,
    Category.FURRY: 0.13,
    Category.SPORTS: 0.13,
    Category.ADULT: 0.123,
    Category.POC: 0.07,
    Category.HUMOR: 0.06,
}

#: Relative user-attraction boost per category (Fig. 3, users bar).  Adult
#: instances are few but hold the most users; tech/journalism instances are
#: many but comparatively small.
CATEGORY_USER_BOOST: dict[Category, float] = {
    Category.ADULT: 9.0,
    Category.ANIME: 2.2,
    Category.GAMES: 1.8,
    Category.ART: 1.2,
    Category.MUSIC: 1.0,
    Category.GENERIC: 1.0,
    Category.ACTIVISM: 0.8,
    Category.LGBT: 0.8,
    Category.FURRY: 0.8,
    Category.SPORTS: 0.7,
    Category.BOOKS: 0.6,
    Category.ACADEMIA: 0.6,
    Category.HUMOR: 0.6,
    Category.POC: 0.6,
    Category.TECH: 0.45,
    Category.JOURNALISM: 0.25,
}

#: Share of instances hosted per country (Fig. 5, instances bar).
COUNTRY_INSTANCE_WEIGHTS: dict[str, float] = {
    "JP": 0.255,
    "US": 0.214,
    "FR": 0.16,
    "DE": 0.075,
    "NL": 0.045,
    "GB": 0.04,
    "CA": 0.03,
    "ES": 0.025,
    "IT": 0.025,
    "BR": 0.02,
    "KR": 0.02,
    "RU": 0.02,
    "SE": 0.02,
    "CH": 0.02,
    "AU": 0.031,
}

#: Relative user-attraction boost per country (JP hosts 25.5% of instances
#: but 41% of users; FR hosts 16% of instances but 9.2% of users).
COUNTRY_USER_BOOST: dict[str, float] = {
    "JP": 1.9,
    "US": 1.1,
    "FR": 0.5,
    "DE": 0.7,
    "NL": 0.7,
    "GB": 0.8,
    "CA": 0.8,
    "ES": 0.6,
    "IT": 0.6,
    "BR": 0.7,
    "KR": 0.9,
    "RU": 0.6,
    "SE": 0.6,
    "CH": 0.6,
    "AU": 0.7,
}

#: Per-country pools of hosting ASes (ASN -> weight) for ordinary instances.
COUNTRY_AS_POOLS: dict[str, list[tuple[int, float]]] = {
    "JP": [(9370, 0.42), (7506, 0.2), (2516, 0.12), (9371, 0.08), (2914, 0.08), (16509, 0.1)],
    "US": [(14061, 0.3), (16509, 0.2), (13335, 0.12), (20473, 0.12), (63949, 0.12), (15169, 0.07), (8075, 0.07)],
    "FR": [(16276, 0.5), (12876, 0.3), (12322, 0.2)],
    "DE": [(24940, 0.55), (197540, 0.25), (51167, 0.2)],
    "NL": [(49981, 0.6), (14061, 0.2), (16276, 0.2)],
}

#: Fallback AS pool for countries without a dedicated pool.
GENERIC_AS_POOL: list[tuple[int, float]] = [
    (16509, 0.25),
    (13335, 0.2),
    (14061, 0.2),
    (16276, 0.15),
    (24940, 0.1),
    (63949, 0.1),
]

#: AS pool used for the very largest instances: the paper finds the top
#: instances overwhelmingly on Amazon/Cloudflare/Sakura (Fig. 5, Table 2).
BIG_INSTANCE_AS_POOL: list[tuple[int, float]] = [
    (16509, 0.42),
    (13335, 0.3),
    (9370, 0.18),
    (16276, 0.1),
]

#: Country mix of the very largest instances (Table 2 is dominated by
#: Japanese flagships, with a US/FR tail).
TOP_INSTANCE_COUNTRY_WEIGHTS: dict[str, float] = {
    "JP": 0.55,
    "US": 0.25,
    "FR": 0.10,
    "DE": 0.05,
    "GB": 0.05,
}

#: Certificate-authority market share among instances (Fig. 9a).
CA_WEIGHTS: dict[str, float] = {
    "Let's Encrypt": 0.86,
    "COMODO": 0.06,
    "Amazon": 0.04,
    "CloudFlare": 0.025,
    "DigiCert": 0.015,
}

#: Who operates instances (Table 2's mix, extended to the long tail).
OPERATOR_WEIGHTS: dict[OperatorType, float] = {
    OperatorType.INDIVIDUAL: 0.70,
    OperatorType.CROWD_FUNDED: 0.12,
    OperatorType.COMPANY: 0.08,
    OperatorType.ASSOCIATION: 0.05,
    OperatorType.UNKNOWN: 0.05,
}

#: Probability that a tagged instance prohibits each activity (Fig. 4 left),
#: and probability that it explicitly allows it given it is not prohibited.
ACTIVITY_PROHIBIT_PROB: dict[ActivityType, float] = {
    ActivityType.SPAM: 0.76,
    ActivityType.PORNOGRAPHY_WITHOUT_NSFW: 0.66,
    ActivityType.NUDITY_WITHOUT_NSFW: 0.62,
    ActivityType.LINKS_TO_ILLEGAL_CONTENT: 0.70,
    ActivityType.ADVERTISING: 0.30,
    ActivityType.SPOILERS_WITHOUT_CW: 0.25,
    ActivityType.PORNOGRAPHY_WITH_NSFW: 0.30,
    ActivityType.NUDITY_WITH_NSFW: 0.28,
}

ACTIVITY_ALLOW_PROB: dict[ActivityType, float] = {
    ActivityType.SPAM: 0.24,
    ActivityType.PORNOGRAPHY_WITHOUT_NSFW: 0.3,
    ActivityType.NUDITY_WITHOUT_NSFW: 0.35,
    ActivityType.LINKS_TO_ILLEGAL_CONTENT: 0.2,
    ActivityType.ADVERTISING: 0.47,
    ActivityType.SPOILERS_WITHOUT_CW: 0.6,
    ActivityType.PORNOGRAPHY_WITH_NSFW: 0.65,
    ActivityType.NUDITY_WITH_NSFW: 0.7,
}

DOMAIN_PREFIXES: tuple[str, ...] = (
    "mastodon",
    "mstdn",
    "social",
    "toot",
    "pawoo",
    "fedi",
    "micro",
    "don",
    "niu",
    "queer",
    "photog",
    "otaku",
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Parameters controlling the synthetic fediverse.

    The defaults produce a "small" scenario (a ~1/20th-scale fediverse)
    that regenerates every figure in a few seconds.  ``tiny()`` is used by
    the test-suite, ``medium()`` by the heavier benchmarks.
    """

    seed: int = 7
    label: str = "small"
    n_instances: int = 150
    total_users: int = 6_000
    mean_toots_per_user: float = 10.0
    window_days: int = 120
    start_date: date = PAPER_START_DATE

    # population shape
    open_fraction: float = 0.478
    pleroma_fraction: float = 0.031
    open_size_boost: float = 7.0
    instance_size_exponent: float = 1.75
    max_instance_user_share: float = 0.18
    closed_toot_multiplier: float = 2.0
    toots_per_user_sigma: float = 1.4

    # categories and activities
    tagged_fraction: float = 0.161

    # follower graph
    mean_follows_per_user: float = 9.0
    follow_degree_exponent: float = 2.25
    max_follows_per_user: int = 400
    user_attractiveness_exponent: float = 1.8
    same_instance_follow_prob: float = 0.35
    same_country_follow_prob: float = 0.22

    # toots
    toot_attractiveness_coupling: float = 0.5
    private_toot_fraction: float = 0.20
    content_warning_fraction: float = 0.10
    media_fraction: float = 0.12
    boost_fraction: float = 0.08
    hashtag_vocabulary: int = 200

    # crawlability
    crawl_blocked_fraction: float = 0.10

    # availability
    permanently_down_fraction: float = 0.213
    low_downtime_fraction: float = 0.50
    high_downtime_fraction: float = 0.11
    never_down_fraction: float = 0.02
    n_as_outage_ases: int = 6
    cert_lapse_fraction: float = 0.10
    mass_cert_expiry_fraction: float = 0.04

    # engagement
    closed_activity_beta: tuple[float, float] = (5.0, 1.7)
    open_activity_beta: tuple[float, float] = (2.5, 2.5)

    def __post_init__(self) -> None:
        if self.n_instances < 2:
            raise ConfigurationError("a scenario needs at least two instances")
        if self.total_users < self.n_instances:
            raise ConfigurationError("need at least one user per instance")
        if not 0.0 <= self.open_fraction <= 1.0:
            raise ConfigurationError("open_fraction must be a probability")
        if self.window_days <= 1:
            raise ConfigurationError("the observation window must exceed one day")
        if self.mean_toots_per_user <= 0:
            raise ConfigurationError("mean_toots_per_user must be positive")

    @property
    def window_minutes(self) -> int:
        """Observation window length in minutes."""
        return self.window_days * MINUTES_PER_DAY

    @property
    def total_toots_target(self) -> int:
        """Approximate number of toots the scenario aims to generate."""
        return int(self.total_users * self.mean_toots_per_user)

    @classmethod
    def tiny(cls, seed: int = 7) -> "ScenarioConfig":
        """A minimal scenario for unit tests (sub-second generation)."""
        return cls(
            seed=seed,
            label="tiny",
            n_instances=40,
            total_users=1_200,
            mean_toots_per_user=6.0,
            window_days=60,
            mean_follows_per_user=7.0,
        )

    @classmethod
    def small(cls, seed: int = 7) -> "ScenarioConfig":
        """The default benchmark scenario (a ~1/20th-scale fediverse)."""
        return cls(seed=seed, label="small")

    @classmethod
    def medium(cls, seed: int = 7) -> "ScenarioConfig":
        """A richer scenario for the heavier benchmarks."""
        return cls(
            seed=seed,
            label="medium",
            n_instances=400,
            total_users=20_000,
            mean_toots_per_user=12.0,
            window_days=240,
            mean_follows_per_user=11.0,
        )

    @classmethod
    def large(cls, seed: int = 7) -> "ScenarioConfig":
        """A 1M+-toot scenario for the sharded streaming engine.

        Built from :meth:`medium` via :meth:`scaled` (2× population),
        with the toot rate boosted on top and the instance count held
        near medium's: toots are the axis the availability engine scales
        along, while every extra instance lengthens every *other*
        instance's federated timeline — the crawl volume grows with
        instances × timeline length — and users drive the memory-hungry
        follower graph.  A paper-scale-pointing corpus therefore wants
        many toots over a moderately larger population.  Drive the
        sweeps with sharded evaluation (``--shard-size``):
        the point of this preset is that evaluation no longer needs the
        whole corpus in memory at once.
        """
        return replace(
            cls.medium(seed=seed).scaled(2.0),
            label="large",
            n_instances=500,
            mean_toots_per_user=34.0,
        )

    @classmethod
    def xlarge(cls, seed: int = 7) -> "ScenarioConfig":
        """A 10M-toot scenario for the columnar streaming pipeline.

        Ten times medium's population at 50 toots/user: 200K users and a
        ~10M-toot corpus over 240 days.  This preset is only realistic
        through the columnar path (:func:`build_columnar_scenario` /
        ``collect --columnar``) — the object generator would need tens
        of GiB; the columnar generator streams it to corpus and graph
        shards in a few GiB of RSS.
        """
        return replace(
            cls.medium(seed=seed).scaled(10.0),
            label="xlarge",
            n_instances=800,
            mean_toots_per_user=50.0,
        )

    def scaled(self, factor: float) -> "ScenarioConfig":
        """Return a copy with population sizes multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            label=f"{self.label}-x{factor:g}",
            n_instances=max(2, int(self.n_instances * factor)),
            total_users=max(2, int(self.total_users * factor)),
        )


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@dataclass
class _UserRecord:
    """Internal bookkeeping for a generated account."""

    index: int
    ref: UserRef
    instance_index: int
    created_at: int
    attractiveness: float
    toot_budget: int = 0


class ScenarioGenerator:
    """Builds a :class:`FediverseNetwork` from a :class:`ScenarioConfig`."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self._ip_allocator = IPAllocator()
        self._as_by_asn = {asys.asn: asys for asys in WELL_KNOWN_ASES}

    # -- public entry point ---------------------------------------------------

    def generate(self) -> FediverseNetwork:
        """Generate the full scenario and return the populated network."""
        clock = SimClock(start_date=self.config.start_date, window_days=self.config.window_days)
        network = FediverseNetwork(clock=clock)

        descriptors = self._build_descriptors()
        for descriptor in descriptors:
            network.add_instance(descriptor)

        users = self._create_users(network, descriptors)
        self._create_follows(network, users, descriptors)
        self._create_toots(network, users, descriptors)
        self._create_boosts(network, users)
        self._generate_logins(network, users, descriptors)
        self._generate_availability(network, descriptors)
        self._issue_certificates(network, descriptors)
        return network

    # -- instances ------------------------------------------------------------

    def _sample_weighted(self, table: dict, size: int | None = None):
        keys = list(table.keys())
        weights = np.asarray([table[k] for k in keys], dtype=float)
        weights = weights / weights.sum()
        picks = self.rng.choice(len(keys), size=size, p=weights)
        if size is None:
            return keys[int(picks)]
        return [keys[int(i)] for i in picks]

    def _instance_created_at(self, index: int) -> int:
        """Creation times follow the paper's growth curve (Fig. 1)."""
        window = self.config.window_minutes
        u = self.rng.random()
        if u < 0.40:
            return 0
        if u < 0.70:
            return int(self.rng.uniform(0, 0.25) * window)
        if u < 0.76:
            return int(self.rng.uniform(0.25, 0.70) * window)
        return int(self.rng.uniform(0.70, 0.98) * window)

    def _categories_for(self, tagged: bool) -> tuple[Category, ...]:
        if not tagged:
            return ()
        categories = [
            category
            for category, weight in CATEGORY_INSTANCE_WEIGHTS.items()
            if self.rng.random() < weight
        ]
        if not categories:
            categories = [Category.GENERIC]
        return tuple(categories)

    def _activity_policy_for(self, tagged: bool) -> ActivityPolicy | None:
        if not tagged:
            return None
        if self.rng.random() < 0.175:
            return ActivityPolicy.permissive()
        allowed: set[ActivityType] = set()
        prohibited: set[ActivityType] = set()
        for activity in ActivityType:
            if self.rng.random() < ACTIVITY_PROHIBIT_PROB[activity]:
                prohibited.add(activity)
            elif self.rng.random() < ACTIVITY_ALLOW_PROB[activity]:
                allowed.add(activity)
        return ActivityPolicy(allowed=frozenset(allowed), prohibited=frozenset(prohibited))

    def _domain_name(self, index: int, country: str) -> str:
        prefix = DOMAIN_PREFIXES[int(self.rng.integers(0, len(DOMAIN_PREFIXES)))]
        return f"{prefix}-{index:04d}.{country.lower()}.example"

    def _build_descriptors(self) -> list[InstanceDescriptor]:
        cfg = self.config
        countries = self._sample_weighted(COUNTRY_INSTANCE_WEIGHTS, size=cfg.n_instances)
        open_flags = [self.rng.random() < cfg.open_fraction for _ in range(cfg.n_instances)]
        tagged_flags = [self.rng.random() < cfg.tagged_fraction for _ in range(cfg.n_instances)]
        category_sets = [self._categories_for(tagged) for tagged in tagged_flags]
        base_sizes = sample_power_law(
            self.rng,
            cfg.n_instances,
            exponent=cfg.instance_size_exponent,
            minimum=1.0,
            maximum=float(cfg.n_instances) * 2.0,
        )

        def weight_of(index: int) -> float:
            category_boost = max(
                (CATEGORY_USER_BOOST[c] for c in category_sets[index]), default=1.0
            )
            return float(
                base_sizes[index]
                * (cfg.open_size_boost if open_flags[index] else 1.0)
                * COUNTRY_USER_BOOST.get(countries[index], 0.7)
                * category_boost
            )

        weights = np.asarray([weight_of(i) for i in range(cfg.n_instances)], dtype=float)

        # The flagship instances (pawoo.net, mstdn.jp, friends.nico, ...) are
        # overwhelmingly Japanese or US-hosted; pin the country mix of the
        # largest instances so Fig. 5's ordering is stable at small scale.
        n_big = max(1, int(0.08 * cfg.n_instances))
        big_indices = np.argsort(-weights)[:n_big]
        big_countries = self._sample_weighted(TOP_INSTANCE_COUNTRY_WEIGHTS, size=n_big)
        for position, index in enumerate(big_indices):
            countries[int(index)] = big_countries[position]
            weights[int(index)] = weight_of(int(index))

        # Mirror pawoo.net: one flagship instance is an adult/art community,
        # which is what makes the adult category tiny by instance count but
        # huge by user count (the Fig. 3 outlier).
        if len(big_indices) >= 2:
            adult_index = int(big_indices[1])
            tagged_flags[adult_index] = True
            category_sets[adult_index] = tuple(
                dict.fromkeys((Category.ADULT, Category.ART) + category_sets[adult_index])
            )
            weights[adult_index] = weight_of(adult_index)

        # Cap the share of any single instance so one draw from the heavy
        # tail cannot degenerate the whole scenario into a single giant.
        for _ in range(4):
            cap = cfg.max_instance_user_share * weights.sum()
            weights = np.minimum(weights, cap)

        self._popularity_weights = weights

        descriptors: list[InstanceDescriptor] = []
        for index in range(cfg.n_instances):
            descriptor = InstanceDescriptor(
                domain=self._domain_name(index, countries[index]),
                software=(
                    Software.PLEROMA
                    if self.rng.random() < cfg.pleroma_fraction
                    else Software.MASTODON
                ),
                registration=(
                    RegistrationPolicy.OPEN if open_flags[index] else RegistrationPolicy.CLOSED
                ),
                categories=category_sets[index],
                activity_policy=self._activity_policy_for(tagged_flags[index]),
                country=countries[index],
                asn=0,  # assigned below once sizes are known
                ip_address="",
                operator=self._sample_weighted(OPERATOR_WEIGHTS),
                created_at=self._instance_created_at(index),
                crawl_blocked=self.rng.random() < cfg.crawl_blocked_fraction,
                version="2.4.0" if self.rng.random() < 0.8 else "2.3.3",
            )
            descriptors.append(descriptor)

        self._assign_hosting(descriptors)
        return descriptors

    def _assign_hosting(self, descriptors: list[InstanceDescriptor]) -> None:
        """Assign ASes and IPs; the biggest instances land on the big clouds."""
        order = np.argsort(-self._popularity_weights)
        n_big = max(1, int(0.08 * len(descriptors)))
        big_indices = set(int(i) for i in order[:n_big])
        for index, descriptor in enumerate(descriptors):
            if index in big_indices:
                pool = BIG_INSTANCE_AS_POOL
            else:
                pool = COUNTRY_AS_POOLS.get(descriptor.country, GENERIC_AS_POOL)
            asns = [asn for asn, _ in pool]
            weights = np.asarray([w for _, w in pool], dtype=float)
            weights = weights / weights.sum()
            asn = int(self.rng.choice(asns, p=weights))
            descriptor.asn = asn
            descriptor.ip_address = self._ip_allocator.allocate(asn)

    # -- users ----------------------------------------------------------------

    def _create_users(
        self, network: FediverseNetwork, descriptors: list[InstanceDescriptor]
    ) -> list[_UserRecord]:
        cfg = self.config
        weights = self._popularity_weights / self._popularity_weights.sum()
        extra = cfg.total_users - cfg.n_instances
        allocation = np.ones(cfg.n_instances, dtype=int)
        if extra > 0:
            allocation += self.rng.multinomial(extra, weights)

        attractiveness = sample_power_law(
            self.rng,
            cfg.total_users,
            exponent=cfg.user_attractiveness_exponent,
            minimum=1.0,
            maximum=max(10.0, cfg.total_users / 2.0),
        )
        users: list[_UserRecord] = []
        user_index = 0
        window = cfg.window_minutes
        for instance_index, descriptor in enumerate(descriptors):
            instance_count = int(allocation[instance_index])
            for _ in range(instance_count):
                created_at = int(
                    descriptor.created_at
                    + self.rng.beta(1.3, 1.8) * max(1, window - descriptor.created_at)
                )
                username = f"user{user_index}"
                network.register_user(descriptor.domain, username, created_at, invited=True)
                users.append(
                    _UserRecord(
                        index=user_index,
                        ref=UserRef(username=username, domain=descriptor.domain),
                        instance_index=instance_index,
                        created_at=created_at,
                        attractiveness=float(attractiveness[user_index]),
                    )
                )
                user_index += 1
        return users

    # -- follower graph --------------------------------------------------------

    def _create_follows(
        self,
        network: FediverseNetwork,
        users: list[_UserRecord],
        descriptors: list[InstanceDescriptor],
    ) -> None:
        cfg = self.config
        n_users = len(users)
        attractiveness = np.asarray([u.attractiveness for u in users], dtype=float)
        global_probs = attractiveness / attractiveness.sum()
        all_indices = np.arange(n_users)

        by_instance: dict[int, np.ndarray] = {}
        by_country: dict[str, np.ndarray] = {}
        for user in users:
            by_instance.setdefault(user.instance_index, []).append(user.index)  # type: ignore[arg-type]
            country = descriptors[user.instance_index].country
            by_country.setdefault(country, []).append(user.index)  # type: ignore[arg-type]
        by_instance = {k: np.asarray(v, dtype=int) for k, v in by_instance.items()}
        by_country = {k: np.asarray(v, dtype=int) for k, v in by_country.items()}

        instance_probs = {
            key: attractiveness[idx] / attractiveness[idx].sum() for key, idx in by_instance.items()
        }
        country_probs = {
            key: attractiveness[idx] / attractiveness[idx].sum() for key, idx in by_country.items()
        }

        # Per-user out-degrees drawn from a bounded power law, scaled to the
        # target mean (the bound keeps the sample mean stable at small scales).
        raw_degrees = sample_power_law(
            self.rng,
            n_users,
            exponent=cfg.follow_degree_exponent,
            minimum=1.0,
            maximum=float(cfg.max_follows_per_user),
        )
        scale = cfg.mean_follows_per_user / max(raw_degrees.mean(), 1e-9)
        degrees = np.minimum(
            np.maximum(1, np.round(raw_degrees * scale)).astype(int),
            min(cfg.max_follows_per_user, n_users - 1),
        )

        for user in users:
            out_degree = int(degrees[user.index])
            country = descriptors[user.instance_index].country
            local_pool = by_instance[user.instance_index]
            country_pool = by_country[country]

            draws = self.rng.random(out_degree)
            n_local = int(np.sum(draws < cfg.same_instance_follow_prob)) if local_pool.size > 1 else 0
            n_country = (
                int(
                    np.sum(
                        (draws >= cfg.same_instance_follow_prob)
                        & (draws < cfg.same_instance_follow_prob + cfg.same_country_follow_prob)
                    )
                )
                if country_pool.size > 1
                else 0
            )
            n_global = out_degree - n_local - n_country

            picks: list[np.ndarray] = []
            if n_local:
                picks.append(
                    self.rng.choice(local_pool, size=n_local, p=instance_probs[user.instance_index])
                )
            if n_country:
                picks.append(
                    self.rng.choice(country_pool, size=n_country, p=country_probs[country])
                )
            if n_global:
                picks.append(self.rng.choice(all_indices, size=n_global, p=global_probs))
            if not picks:
                continue
            chosen = set(int(t) for t in np.concatenate(picks))
            chosen.discard(user.index)
            for target in sorted(chosen):
                network.follow(user.ref, users[target].ref, created_at=user.created_at)

    # -- toots ------------------------------------------------------------------

    def _create_toots(
        self,
        network: FediverseNetwork,
        users: list[_UserRecord],
        descriptors: list[InstanceDescriptor],
    ) -> None:
        cfg = self.config
        n_users = len(users)
        raw = self.rng.lognormal(mean=0.0, sigma=cfg.toots_per_user_sigma, size=n_users)
        multipliers = np.asarray(
            [
                cfg.closed_toot_multiplier
                if descriptors[u.instance_index].registration is RegistrationPolicy.CLOSED
                else 1.0
                for u in users
            ],
            dtype=float,
        )
        # Couple volume to attractiveness: widely-followed accounts toot far
        # more, which is what makes small instances' federated timelines
        # dominated by remote content (Fig. 14) and concentrates toots on
        # the flagship instances (Section 4.1).
        attractiveness = np.asarray([u.attractiveness for u in users], dtype=float)
        raw = raw * multipliers * (attractiveness ** cfg.toot_attractiveness_coupling)
        scale = cfg.total_toots_target / max(raw.sum(), 1e-9)
        budgets = np.maximum(0, np.round(raw * scale)).astype(int)

        window = cfg.window_minutes
        postings: list[tuple[int, int]] = []
        for user, budget in zip(users, budgets):
            user.toot_budget = int(budget)
            if budget == 0:
                continue
            times = user.created_at + self.rng.beta(1.6, 1.0, size=int(budget)) * max(
                1, window - user.created_at
            )
            postings.extend((int(t), user.index) for t in times)
        postings.sort()

        hashtags = [f"tag{i}" for i in range(cfg.hashtag_vocabulary)]
        for created_at, user_index in postings:
            user = users[user_index]
            visibility = (
                Visibility.PRIVATE
                if self.rng.random() < cfg.private_toot_fraction
                else Visibility.PUBLIC
            )
            toot_hashtags: tuple[str, ...] = ()
            if self.rng.random() < 0.3:
                toot_hashtags = (hashtags[int(self.rng.integers(0, cfg.hashtag_vocabulary))],)
            network.post_toot(
                author=user.ref,
                created_at=created_at,
                visibility=visibility,
                hashtags=toot_hashtags,
                content_warning=self.rng.random() < cfg.content_warning_fraction,
                media_count=1 if self.rng.random() < cfg.media_fraction else 0,
            )

    def _create_boosts(self, network: FediverseNetwork, users: list[_UserRecord]) -> None:
        cfg = self.config
        public_toots = []
        for instance in network.instances():
            public_toots.extend(t for t in instance.local_toots(public_only=True) if not t.is_boost)
        if not public_toots:
            return
        n_boosts = int(cfg.boost_fraction * len(public_toots))
        if n_boosts == 0:
            return
        toot_weights = np.asarray(
            [1.0 + t.media_count + len(t.hashtags) for t in public_toots], dtype=float
        )
        toot_probs = toot_weights / toot_weights.sum()
        booster_indices = self.rng.integers(0, len(users), size=n_boosts)
        original_indices = self.rng.choice(len(public_toots), size=n_boosts, p=toot_probs)
        window = cfg.window_minutes
        for booster_index, original_index in zip(booster_indices, original_indices):
            booster = users[int(booster_index)]
            original = public_toots[int(original_index)]
            created_at = int(
                min(window - 1, max(original.created_at + 1, booster.created_at) + self.rng.integers(1, MINUTES_PER_DAY * 3))
            )
            network.boost(booster.ref, original, created_at=created_at)

    # -- engagement ---------------------------------------------------------------

    def _generate_logins(
        self,
        network: FediverseNetwork,
        users: list[_UserRecord],
        descriptors: list[InstanceDescriptor],
    ) -> None:
        cfg = self.config
        users_by_instance: dict[int, list[_UserRecord]] = {}
        for user in users:
            users_by_instance.setdefault(user.instance_index, []).append(user)
        weeks = max(1, cfg.window_days // 7)
        for instance_index, descriptor in enumerate(descriptors):
            local_users = users_by_instance.get(instance_index, [])
            if not local_users:
                continue
            if descriptor.registration is RegistrationPolicy.CLOSED:
                a, b = cfg.closed_activity_beta
            else:
                a, b = cfg.open_activity_beta
            activity_level = float(self.rng.beta(a, b))
            instance = network.get_instance(descriptor.domain)
            for week in range(weeks):
                week_start = week * 7 * MINUTES_PER_DAY
                engaged = self.rng.random(len(local_users)) < activity_level * self.rng.uniform(0.6, 0.9)
                for user, active in zip(local_users, engaged):
                    if active and user.created_at <= week_start + 7 * MINUTES_PER_DAY:
                        minute = week_start + int(self.rng.integers(0, 7 * MINUTES_PER_DAY))
                        instance.record_login(user.ref.username, minute)

    # -- availability ---------------------------------------------------------------

    def _downtime_target(self, size_rank_fraction: float = 0.5) -> float:
        """Draw a per-instance downtime fraction.

        ``size_rank_fraction`` is the instance's popularity rank as a
        fraction (0 = largest).  Availability is only weakly related to
        popularity (the paper finds a correlation of -0.04, with the very
        largest instances slightly worse than the upper-middle group), so
        the dependence here is deliberately mild.
        """
        cfg = self.config
        u = self.rng.random()
        if u < cfg.never_down_fraction:
            return 0.0
        if u < cfg.never_down_fraction + cfg.low_downtime_fraction:
            target = float(self.rng.uniform(0.001, 0.05))
        elif u < 1.0 - cfg.high_downtime_fraction:
            target = float(self.rng.uniform(0.05, 0.15))
        else:
            target = float(self.rng.uniform(0.5, 0.95))
        if size_rank_fraction > 0.7:
            target *= 1.3
        elif size_rank_fraction < 0.02:
            target *= 1.1
        elif size_rank_fraction < 0.3:
            target *= 0.8
        return min(target, 0.95)

    def _generate_availability(
        self, network: FediverseNetwork, descriptors: list[InstanceDescriptor]
    ) -> None:
        cfg = self.config
        schedule = network.availability
        window = cfg.window_minutes

        permanently_down = set(
            int(i)
            for i in self.rng.choice(
                len(descriptors),
                size=int(cfg.permanently_down_fraction * len(descriptors)),
                replace=False,
            )
        )
        size_order = np.argsort(-self._popularity_weights)
        size_rank_fraction = np.empty(len(descriptors), dtype=float)
        size_rank_fraction[size_order] = np.linspace(0.0, 1.0, len(descriptors))
        for index, descriptor in enumerate(descriptors):
            if index in permanently_down:
                from_minute = int(self.rng.uniform(0.3, 0.95) * window)
                schedule.mark_permanently_down(descriptor.domain, from_minute)
                continue
            target = self._downtime_target(float(size_rank_fraction[index]))
            if target <= 0:
                continue
            budget = target * window
            accumulated = 0.0
            guard = 0
            # Well-run instances fail in short bursts (hours); badly-run or
            # abandoned instances disappear for days at a time.
            if target > 0.5:
                median_minutes, sigma = 1.5 * MINUTES_PER_DAY, 1.0
            else:
                median_minutes, sigma = 150.0, 0.9
            log_median = np.log(median_minutes)
            rows = []
            while accumulated < budget and guard < 300:
                guard += 1
                # the same double as np.clip(draw, 5, 45 days) for any non-NaN draw
                duration = min(
                    max(self.rng.lognormal(mean=log_median, sigma=sigma), 5.0),
                    45.0 * MINUTES_PER_DAY,
                )
                duration = min(duration, budget - accumulated + 30)
                start = int(self.rng.uniform(0, max(1, window - duration)))
                end = int(min(window, start + duration))
                if end <= start:
                    continue
                rows.append((descriptor.domain, start, end, OutageCause.INSTANCE))
                accumulated += end - start
            # one batch per instance: the schedule sorts the domain once, and
            # domains() keeps listing domains in generation order
            schedule.add_outage_rows(rows)

        self._generate_as_outages(schedule, descriptors)

    def _generate_as_outages(self, schedule, descriptors: list[InstanceDescriptor]) -> None:
        cfg = self.config
        window = cfg.window_minutes
        domains_by_asn: dict[int, list[str]] = {}
        for descriptor in descriptors:
            domains_by_asn.setdefault(descriptor.asn, []).append(descriptor.domain)
        # Prefer the failure-prone ASes named in Table 1 when they host instances.
        preferred = [9370, 20473, 8075, 12322, 2516, 9371]
        candidates = [asn for asn in preferred if len(domains_by_asn.get(asn, [])) >= 2]
        for asn, domains in sorted(domains_by_asn.items(), key=lambda kv: -len(kv[1])):
            if len(candidates) >= cfg.n_as_outage_ases:
                break
            if asn not in candidates and len(domains) >= 2:
                candidates.append(asn)
        for asn in candidates[: cfg.n_as_outage_ases]:
            n_events = int(self.rng.integers(1, 5))
            for _ in range(n_events):
                duration = int(self.rng.uniform(60, 24 * 60))
                start = int(self.rng.uniform(0, max(1, window - duration)))
                event = ASOutageEvent(
                    asn=asn,
                    window=TimeWindow(start, min(window, start + duration)),
                    domains=tuple(sorted(domains_by_asn[asn])),
                )
                schedule.add_as_event(event)

    # -- certificates -----------------------------------------------------------------

    def _issue_certificates(
        self, network: FediverseNetwork, descriptors: list[InstanceDescriptor]
    ) -> None:
        cfg = self.config
        registry = network.certificates
        window = cfg.window_minutes
        mass_expiry_day = int(self.rng.uniform(0.5, 0.9) * cfg.window_days)
        n_mass = max(1, int(cfg.mass_cert_expiry_fraction * len(descriptors)))
        mass_indices = set(
            int(i) for i in self.rng.choice(len(descriptors), size=n_mass, replace=False)
        )

        for index, descriptor in enumerate(descriptors):
            authority = self._sample_weighted(CA_WEIGHTS)
            validity = CERTIFICATE_AUTHORITIES[authority]
            validity_minutes = validity * MINUTES_PER_DAY
            if index in mass_indices and authority == "Let's Encrypt":
                # Issue so that the certificate expires on the shared mass-expiry
                # day and the renewal arrives a day late (Fig. 9b's spike).
                issued_at = mass_expiry_day * MINUTES_PER_DAY - validity_minutes
                issued_at = max(0, issued_at)
                registry.issue(descriptor.domain, authority, issued_at, validity)
                renewal_at = issued_at + validity_minutes + MINUTES_PER_DAY
                if renewal_at < window:
                    registry.issue(descriptor.domain, authority, renewal_at, validity)
                continue

            issued_at = max(0, descriptor.created_at)
            registry.issue(descriptor.domain, authority, issued_at, validity)
            renew_at = issued_at + validity_minutes
            lapses = self.rng.random() < cfg.cert_lapse_fraction
            while renew_at < window:
                if lapses:
                    renew_at += int(self.rng.uniform(0.5, 4.0) * MINUTES_PER_DAY)
                    lapses = False
                registry.issue(descriptor.domain, authority, renew_at, validity)
                renew_at += validity_minutes


#: Named preset registry, smallest first.
_PRESETS: dict[str, Callable[..., ScenarioConfig]] = {
    "tiny": ScenarioConfig.tiny,
    "small": ScenarioConfig.small,
    "medium": ScenarioConfig.medium,
    "large": ScenarioConfig.large,
    "xlarge": ScenarioConfig.xlarge,
}


def preset_names() -> tuple[str, ...]:
    """Every valid scenario preset name, smallest first."""
    return tuple(_PRESETS)


def scenario_config(preset: str, seed: int = 7) -> ScenarioConfig:
    """Resolve a preset name to its :class:`ScenarioConfig`.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing
    the valid presets rather than leaking a bare ``KeyError``.
    """
    try:
        factory = _PRESETS[preset]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario preset: {preset!r} "
            f"(valid presets: {', '.join(_PRESETS)})"
        ) from exc
    return factory(seed=seed)


def build_scenario(preset: str = "small", seed: int = 7) -> FediverseNetwork:
    """Build a ready-to-analyse fediverse using a named preset.

    ``preset`` is one of ``"tiny"``, ``"small"``, ``"medium"``,
    ``"large"`` (the 1M+-toot corpus for sharded evaluation) or
    ``"xlarge"`` (10M toots; use the columnar path).
    """
    return ScenarioGenerator(scenario_config(preset, seed=seed)).generate()
