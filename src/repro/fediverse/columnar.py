"""Columnar scenario generation: whole-population numpy columns, no objects.

The object generator (:class:`~repro.fediverse.workload.ScenarioGenerator`)
builds every toot, follow and login as a Python object routed through
:class:`~repro.fediverse.network.FediverseNetwork` — faithful, but ~2 GiB
and minutes of wall clock at the ``large`` preset before a crawl even
starts.  :class:`ColumnarScenarioGenerator` draws the same distributions
as whole numpy columns instead: one array per attribute across the whole
population, one :class:`ColumnarScenario` handle at the end.

The handle preserves the crawler-facing surface without materialising
anything: :meth:`ColumnarScenario.timeline_page` serves
``Timeline.page``-shaped payload pages straight from the columns,
:meth:`ColumnarScenario.write_corpus` streams the federated-timeline
crawl of every online instance into a
:class:`~repro.corpus.writer.CorpusWriter` (rendering each toot's URL
once, and otherwise one instance's chunk at a time), and
:meth:`ColumnarScenario.write_graph` streams the follower crawl into a
:class:`~repro.corpus.graph.GraphWriter`.  For differential testing,
:meth:`ColumnarScenario.to_network` materialises the *same* columns into
a real :class:`FediverseNetwork`, so the streamed corpus/graph can be
proven identical to what the real crawlers collect.

The columnar generator deliberately has its own RNG stream: the legacy
per-event draw order cannot be reproduced by vectorised draws, so a
given seed yields *statistically* matched but not bit-identical
populations across the two generators (both are pinned by golden stats
in the test-suite).  Within the columnar path everything is exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.fediverse.certificates import CertificateRegistry
from repro.fediverse.entities import (
    InstanceDescriptor,
    RegistrationPolicy,
    UserRef,
    Visibility,
)
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.timeline import DEFAULT_PAGE_SIZE, ColumnarTimeline
from repro.fediverse.uptime import AvailabilitySchedule
from repro.fediverse.workload import (
    ScenarioConfig,
    ScenarioGenerator,
    scenario_config,
)
from repro.simtime import MINUTES_PER_DAY, SimClock
from repro.stats.distributions import sample_power_law

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.corpus.graph import GraphWriter
    from repro.corpus.writer import CorpusWriter

#: Rows rendered per ``write_corpus`` chunk: bounds the per-chunk string
#: working set while amortising the numpy slicing.
_RENDER_CHUNK_ROWS = 200_000


def _weighted_pick(cumulative: np.ndarray, base: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling inside segments of a global cumulative-sum.

    ``cumulative`` is the inclusive cumsum of the weights; a draw for a
    segment ``[base, base + total)`` lands on the index whose weight mass
    covers ``base + u * total``.
    """
    x = base + u * total
    picks = np.searchsorted(cumulative, x, side="right")
    return np.minimum(picks, cumulative.size - 1)


class ColumnarScenarioGenerator(ScenarioGenerator):
    """Generates a :class:`ColumnarScenario` instead of an object network.

    Instance descriptors, availability and certificates reuse the parent
    generator's code verbatim (they are small); users, follows, toots,
    boosts and logins are drawn as whole columns.
    """

    def generate(self) -> "ColumnarScenario":  # type: ignore[override]
        cfg = self.config
        clock = SimClock(start_date=cfg.start_date, window_days=cfg.window_days)
        descriptors = self._build_descriptors()

        user_instance, user_created, attractiveness = self._users_columns(descriptors)
        follow_src, follow_dst = self._follow_columns(
            descriptors, user_instance, user_created, attractiveness
        )
        toots = self._toot_columns(descriptors, user_instance, user_created, attractiveness)
        login_user, login_minute = self._login_columns(descriptors, user_instance, user_created)

        # Availability and certificates reuse the object generator's code;
        # it only touches ``network.availability`` / ``network.certificates``.
        holder = SimpleNamespace(
            availability=AvailabilitySchedule(cfg.window_minutes),
            certificates=CertificateRegistry(),
        )
        self._generate_availability(holder, descriptors)
        self._issue_certificates(holder, descriptors)

        return ColumnarScenario(
            config=cfg,
            clock=clock,
            descriptors=descriptors,
            availability=holder.availability,
            certificates=holder.certificates,
            user_instance=user_instance,
            user_created=user_created,
            follow_src=follow_src,
            follow_dst=follow_dst,
            toot_author=toots["author"],
            toot_created=toots["created"],
            toot_private=toots["private"],
            toot_tag=toots["tag"],
            toot_cw=toots["cw"],
            toot_media=toots["media"],
            toot_boost_of=toots["boost_of"],
            login_user=login_user,
            login_minute=login_minute,
        )

    # -- users ----------------------------------------------------------------

    def _users_columns(
        self, descriptors: list[InstanceDescriptor]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        weights = self._popularity_weights / self._popularity_weights.sum()
        extra = cfg.total_users - cfg.n_instances
        allocation = np.ones(cfg.n_instances, dtype=np.int64)
        if extra > 0:
            allocation += self.rng.multinomial(extra, weights)

        attractiveness = sample_power_law(
            self.rng,
            cfg.total_users,
            exponent=cfg.user_attractiveness_exponent,
            minimum=1.0,
            maximum=max(10.0, cfg.total_users / 2.0),
        )
        user_instance = np.repeat(
            np.arange(cfg.n_instances, dtype=np.int32), allocation
        )
        instance_created = np.asarray([d.created_at for d in descriptors], dtype=np.int64)
        base = instance_created[user_instance]
        span = np.maximum(1, cfg.window_minutes - base)
        user_created = (
            base + self.rng.beta(1.3, 1.8, size=cfg.total_users) * span
        ).astype(np.int64)
        return user_instance, user_created, attractiveness

    # -- follower graph --------------------------------------------------------

    def _follow_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        user_created: np.ndarray,
        attractiveness: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        n_users = user_instance.size
        n_instances = len(descriptors)

        raw_degrees = sample_power_law(
            self.rng,
            n_users,
            exponent=cfg.follow_degree_exponent,
            minimum=1.0,
            maximum=float(cfg.max_follows_per_user),
        )
        scale = cfg.mean_follows_per_user / max(raw_degrees.mean(), 1e-9)
        degrees = np.minimum(
            np.maximum(1, np.round(raw_degrees * scale)).astype(np.int64),
            min(cfg.max_follows_per_user, n_users - 1),
        )

        owner = np.repeat(np.arange(n_users, dtype=np.int64), degrees)
        n_draws = owner.size

        # Users are contiguous per instance, so the instance-local pools are
        # segments of one global attractiveness cumsum.
        cumulative = np.cumsum(attractiveness)
        seg = np.zeros(n_instances + 1, dtype=np.int64)
        np.cumsum(np.bincount(user_instance, minlength=n_instances), out=seg[1:])
        seg_base = np.concatenate([[0.0], cumulative])[seg[:-1]]
        seg_total = np.add.reduceat(attractiveness, seg[:-1])
        instance_size = np.diff(seg)

        # Country pools are scattered, so order users by country once and
        # sample inside that ordering's segments.
        country_names = sorted({d.country for d in descriptors})
        country_index = {name: i for i, name in enumerate(country_names)}
        instance_country = np.asarray(
            [country_index[d.country] for d in descriptors], dtype=np.int64
        )
        user_country = instance_country[user_instance]
        country_order = np.argsort(user_country, kind="stable")
        country_cum = np.cumsum(attractiveness[country_order])
        country_sizes = np.bincount(user_country, minlength=len(country_names))
        cseg = np.zeros(len(country_names) + 1, dtype=np.int64)
        np.cumsum(country_sizes, out=cseg[1:])
        country_base = np.concatenate([[0.0], country_cum])[cseg[:-1]]
        country_total = np.empty(len(country_names))
        for c in range(len(country_names)):
            country_total[c] = country_cum[cseg[c + 1] - 1] - country_base[c] if country_sizes[c] else 0.0

        owner_instance = user_instance[owner].astype(np.int64)
        owner_country = user_country[owner]
        band = self.rng.random(n_draws)
        p_local, p_country = cfg.same_instance_follow_prob, cfg.same_country_follow_prob
        # Draws landing in a band whose pool is trivial (a single user)
        # fall through to the global pool, like the object generator.
        is_local = (band < p_local) & (instance_size[owner_instance] > 1)
        is_country = (
            ~is_local
            & (band >= p_local)
            & (band < p_local + p_country)
            & (country_sizes[owner_country] > 1)
        )
        is_global = ~is_local & ~is_country

        target = np.empty(n_draws, dtype=np.int64)
        if is_local.any():
            inst = owner_instance[is_local]
            target[is_local] = _weighted_pick(
                cumulative, seg_base[inst], seg_total[inst], self.rng.random(int(is_local.sum()))
            )
        if is_country.any():
            ctry = owner_country[is_country]
            picks = _weighted_pick(
                country_cum,
                country_base[ctry],
                country_total[ctry],
                self.rng.random(int(is_country.sum())),
            )
            target[is_country] = country_order[picks]
        if is_global.any():
            total = cumulative[-1]
            target[is_global] = _weighted_pick(
                cumulative,
                np.zeros(int(is_global.sum())),
                np.full(int(is_global.sum()), total),
                self.rng.random(int(is_global.sum())),
            )

        # Dedup per owner and drop self-follows; np.unique's owner-major,
        # target-ascending order matches the object generator's per-user
        # ``sorted(chosen)`` emission order.
        keep = owner != target
        keys = np.unique(owner[keep] * np.int64(n_users) + target[keep])
        follow_src = (keys // n_users).astype(np.int32)
        follow_dst = (keys % n_users).astype(np.int32)
        return follow_src, follow_dst

    # -- toots and boosts -------------------------------------------------------

    def _toot_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        user_created: np.ndarray,
        attractiveness: np.ndarray,
    ) -> dict[str, np.ndarray]:
        cfg = self.config
        n_users = user_instance.size
        closed = np.asarray(
            [d.registration is RegistrationPolicy.CLOSED for d in descriptors],
            dtype=bool,
        )
        raw = self.rng.lognormal(mean=0.0, sigma=cfg.toots_per_user_sigma, size=n_users)
        multipliers = np.where(closed[user_instance], cfg.closed_toot_multiplier, 1.0)
        raw = raw * multipliers * (attractiveness ** cfg.toot_attractiveness_coupling)
        scale = cfg.total_toots_target / max(raw.sum(), 1e-9)
        budgets = np.maximum(0, np.round(raw * scale)).astype(np.int64)

        window = cfg.window_minutes
        author0 = np.repeat(np.arange(n_users, dtype=np.int32), budgets)
        n_base = author0.size
        base = user_created[author0.astype(np.int64)]
        times = (
            base + self.rng.beta(1.6, 1.0, size=n_base) * np.maximum(1, window - base)
        ).astype(np.int64)
        order = np.lexsort((author0, times))  # (time, author) like postings.sort()
        author = author0[order]
        created = times[order]

        private = self.rng.random(n_base) < cfg.private_toot_fraction
        has_tag = self.rng.random(n_base) < 0.3
        tag = np.where(
            has_tag,
            self.rng.integers(0, cfg.hashtag_vocabulary, size=n_base),
            -1,
        ).astype(np.int32)
        cw = self.rng.random(n_base) < cfg.content_warning_fraction
        media = (self.rng.random(n_base) < cfg.media_fraction).astype(np.int8)

        # Boosts: public base toots weighted by media + hashtags, boosted by
        # uniformly random users shortly after the original (or the booster's
        # own sign-up, whichever is later).
        public_rows = np.flatnonzero(~private)
        n_boosts = int(cfg.boost_fraction * public_rows.size)
        if n_boosts:
            boost_weights = (
                1.0 + media[public_rows].astype(np.float64) + (tag[public_rows] >= 0)
            )
            probs = boost_weights / boost_weights.sum()
            boosters = self.rng.integers(0, n_users, size=n_boosts)
            originals = public_rows[
                self.rng.choice(public_rows.size, size=n_boosts, p=probs)
            ]
            delay = self.rng.integers(1, MINUTES_PER_DAY * 3, size=n_boosts)
            boost_created = np.minimum(
                window - 1,
                np.maximum(created[originals] + 1, user_created[boosters]) + delay,
            ).astype(np.int64)
            author = np.concatenate([author, boosters.astype(np.int32)])
            created = np.concatenate([created, boost_created])
            private = np.concatenate([private, np.zeros(n_boosts, dtype=bool)])
            tag = np.concatenate([tag, np.full(n_boosts, -1, dtype=np.int32)])
            cw = np.concatenate([cw, np.zeros(n_boosts, dtype=bool)])
            media = np.concatenate([media, np.zeros(n_boosts, dtype=np.int8)])
            boost_of = np.concatenate(
                [np.zeros(n_base, dtype=np.int64), originals + 1]
            )
        else:
            boost_of = np.zeros(n_base, dtype=np.int64)

        return {
            "author": author,
            "created": created,
            "private": private,
            "tag": tag,
            "cw": cw,
            "media": media,
            "boost_of": boost_of,
        }

    # -- engagement -------------------------------------------------------------

    def _login_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        user_created: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        weeks = max(1, cfg.window_days // 7)
        seg = np.zeros(len(descriptors) + 1, dtype=np.int64)
        np.cumsum(np.bincount(user_instance, minlength=len(descriptors)), out=seg[1:])
        users_chunks: list[np.ndarray] = []
        minutes_chunks: list[np.ndarray] = []
        for index, descriptor in enumerate(descriptors):
            lo, hi = int(seg[index]), int(seg[index + 1])
            if hi <= lo:
                continue
            if descriptor.registration is RegistrationPolicy.CLOSED:
                a, b = cfg.closed_activity_beta
            else:
                a, b = cfg.open_activity_beta
            activity_level = float(self.rng.beta(a, b))
            local_created = user_created[lo:hi]
            for week in range(weeks):
                week_start = week * 7 * MINUTES_PER_DAY
                engaged = self.rng.random(hi - lo) < activity_level * self.rng.uniform(0.6, 0.9)
                chosen = engaged & (local_created <= week_start + 7 * MINUTES_PER_DAY)
                count = int(chosen.sum())
                if not count:
                    continue
                users_chunks.append((np.flatnonzero(chosen) + lo).astype(np.int32))
                minutes_chunks.append(
                    week_start + self.rng.integers(0, 7 * MINUTES_PER_DAY, size=count)
                )
        if not users_chunks:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        return (
            np.concatenate(users_chunks),
            np.concatenate(minutes_chunks).astype(np.int64),
        )


@dataclass
class ColumnarScenario:
    """A generated fediverse held as numpy columns.

    Users are numbered ``0..n_users-1`` contiguously per instance (user
    ``i`` is ``user{i}@<domain of their instance>``); toot ids are
    ``row + 1`` in posting order, matching the network's monotonic id
    allocator; ``toot_boost_of`` is the original's toot id or 0.
    """

    config: ScenarioConfig
    clock: SimClock
    descriptors: list[InstanceDescriptor]
    availability: AvailabilitySchedule
    certificates: CertificateRegistry
    user_instance: np.ndarray
    user_created: np.ndarray
    follow_src: np.ndarray
    follow_dst: np.ndarray
    toot_author: np.ndarray
    toot_created: np.ndarray
    toot_private: np.ndarray
    toot_tag: np.ndarray
    toot_cw: np.ndarray
    toot_media: np.ndarray
    toot_boost_of: np.ndarray
    login_user: np.ndarray
    login_minute: np.ndarray
    _cache: dict[str, Any] = field(default_factory=dict, repr=False)

    # -- structure -------------------------------------------------------------

    @property
    def n_instances(self) -> int:
        return len(self.descriptors)

    @property
    def n_users(self) -> int:
        return int(self.user_instance.size)

    @property
    def n_toots(self) -> int:
        return int(self.toot_author.size)

    def domains(self) -> list[str]:
        """Every instance domain, sorted (like the network's)."""
        return sorted(d.domain for d in self.descriptors)

    def _domain_index(self) -> dict[str, int]:
        if "domain_index" not in self._cache:
            self._cache["domain_index"] = {
                d.domain: i for i, d in enumerate(self.descriptors)
            }
        return self._cache["domain_index"]

    def _user_segments(self) -> np.ndarray:
        if "user_seg" not in self._cache:
            seg = np.zeros(self.n_instances + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.user_instance, minlength=self.n_instances), out=seg[1:]
            )
            self._cache["user_seg"] = seg
        return self._cache["user_seg"]

    def _instance_domains(self) -> list[str]:
        if "instance_domains" not in self._cache:
            self._cache["instance_domains"] = [d.domain for d in self.descriptors]
        return self._cache["instance_domains"]

    # -- derived graph structure -----------------------------------------------

    def _delivery_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Author → subscribing remote instances (CSR over authors).

        Instance ``j`` subscribes to author ``a`` when at least one user
        on ``j`` follows ``a`` from another instance — exactly the set of
        delivery targets the federation router pushes ``a``'s public
        toots to.
        """
        if "delivery" not in self._cache:
            inst = self.user_instance
            src_inst = inst[self.follow_src].astype(np.int64)
            dst = self.follow_dst.astype(np.int64)
            cross = src_inst != inst[self.follow_dst]
            keys = np.unique(dst[cross] * self.n_instances + src_inst[cross])
            authors = keys // self.n_instances
            targets = (keys % self.n_instances).astype(np.int32)
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(authors, minlength=self.n_users), out=indptr[1:])
            self._cache["delivery"] = (indptr, targets)
        return self._cache["delivery"]

    def _receivers_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Instance → remote authors delivered to it (CSR over instances)."""
        if "receivers" not in self._cache:
            indptr, targets = self._delivery_csr()
            authors = np.repeat(
                np.arange(self.n_users, dtype=np.int64), np.diff(indptr)
            )
            order = np.argsort(targets, kind="stable")
            inst_indptr = np.zeros(self.n_instances + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(targets, minlength=self.n_instances), out=inst_indptr[1:]
            )
            self._cache["receivers"] = (inst_indptr, authors[order])
        return self._cache["receivers"]

    def _toots_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        """All toot rows grouped by author (CSR over authors)."""
        if "toots_by_author" not in self._cache:
            order = np.argsort(self.toot_author, kind="stable").astype(np.int64)
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.toot_author, minlength=self.n_users), out=indptr[1:]
            )
            self._cache["toots_by_author"] = (indptr, order)
        return self._cache["toots_by_author"]

    def _public_toots_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        """Public toot rows grouped by author (CSR over authors)."""
        if "public_by_author" not in self._cache:
            public_rows = np.flatnonzero(~self.toot_private)
            authors = self.toot_author[public_rows]
            order = np.argsort(authors, kind="stable")
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(authors, minlength=self.n_users), out=indptr[1:])
            self._cache["public_by_author"] = (indptr, public_rows[order])
        return self._cache["public_by_author"]

    def toot_counts_per_user(self) -> np.ndarray:
        """Locally-authored toots per user (boosts and private included)."""
        if "toot_counts" not in self._cache:
            self._cache["toot_counts"] = np.bincount(
                self.toot_author, minlength=self.n_users
            )
        return self._cache["toot_counts"]

    # -- timelines -------------------------------------------------------------

    def timeline_rows(self, domain: str) -> np.ndarray:
        """Row indices on ``domain``'s federated timeline, id-ascending.

        Local toots (public and private) plus the public toots of every
        remote author at least one local user follows — what federation
        delivery leaves on the real instance's federated timeline.
        """
        index = self._domain_index()[domain]
        seg = self._user_segments()
        lo, hi = int(seg[index]), int(seg[index + 1])
        all_indptr, all_rows = self._toots_by_author()
        local = all_rows[all_indptr[lo] : all_indptr[hi]]

        recv_indptr, recv_authors = self._receivers_csr()
        remote_authors = recv_authors[recv_indptr[index] : recv_indptr[index + 1]]
        pub_indptr, pub_rows = self._public_toots_by_author()
        pieces = [local]
        for author in remote_authors.tolist():
            pieces.append(pub_rows[pub_indptr[author] : pub_indptr[author + 1]])
        rows = np.concatenate(pieces) if len(pieces) > 1 else local
        rows.sort()
        return rows

    def instance_timeline(self, domain: str) -> ColumnarTimeline:
        """The federated timeline of ``domain`` as a :class:`ColumnarTimeline`."""
        rows = self.timeline_rows(domain)
        return ColumnarTimeline(rows + 1, ~self.toot_private[rows])

    def _user_handle_tables(self) -> tuple[list[str], list[str]]:
        """Per-user ``user{i}@domain`` handles and home domains (cached)."""
        if "handles" not in self._cache:
            domains = self._instance_domains()
            user_domains = [domains[i] for i in self.user_instance.tolist()]
            handles = [
                f"user{index}@{domain}" for index, domain in enumerate(user_domains)
            ]
            self._cache["handles"] = (handles, user_domains)
        return self._cache["handles"]

    def _url_prefixes(self) -> list[str]:
        """Per-user ``https://<domain>/@user{i}/`` toot-URL prefixes (cached)."""
        if "url_prefixes" not in self._cache:
            _, user_domains = self._user_handle_tables()
            self._cache["url_prefixes"] = [
                f"https://{domain}/@user{index}/"
                for index, domain in enumerate(user_domains)
            ]
        return self._cache["url_prefixes"]

    def _tag_names(self) -> list[str]:
        if "tags" not in self._cache:
            self._cache["tags"] = [
                f"tag{i}" for i in range(self.config.hashtag_vocabulary)
            ]
        return self._cache["tags"]

    def render_rows(self, rows: np.ndarray, collected_from: str) -> list[dict[str, Any]]:
        """Render toot rows as timeline-API payload dicts (crawler shape)."""
        handles, user_domains = self._user_handle_tables()
        tag_names = self._tag_names()
        payloads: list[dict[str, Any]] = []
        for row in rows.tolist():
            author = int(self.toot_author[row])
            domain = user_domains[author]
            tag = int(self.toot_tag[row])
            boost_of = int(self.toot_boost_of[row])
            payloads.append(
                {
                    "id": row + 1,
                    "url": f"https://{domain}/@user{author}/{row + 1}",
                    "account": handles[author],
                    "account_domain": domain,
                    "created_at": int(self.toot_created[row]),
                    "visibility": (
                        Visibility.PRIVATE.value
                        if self.toot_private[row]
                        else Visibility.PUBLIC.value
                    ),
                    "sensitive": bool(self.toot_cw[row]),
                    "tags": [tag_names[tag]] if tag >= 0 else [],
                    "media_attachments": int(self.toot_media[row]),
                    "favourites_count": 0,
                    "reblog_of_id": boost_of if boost_of else None,
                    "collected_from": collected_from,
                }
            )
        return payloads

    def timeline_page(
        self,
        domain: str,
        max_id: int | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
    ) -> list[dict[str, Any]]:
        """One public federated-timeline page, shaped like the API payload.

        Mirrors ``Timeline.page`` + ``toot_to_payload`` over the real
        network: the newest ``limit`` public toots strictly below
        ``max_id``, newest first.
        """
        timeline = self.instance_timeline(domain)
        rows = self.timeline_rows(domain)[timeline.page_positions(max_id, limit)]
        return self.render_rows(rows, collected_from=domain)

    # -- headline stats ----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Population counts matching :meth:`FediverseNetwork.stats`."""
        inst = self.user_instance
        src_inst = inst[self.follow_src].astype(np.int64)
        dst_inst = inst[self.follow_dst].astype(np.int64)
        cross = src_inst != dst_inst
        federation_edges = np.unique(
            src_inst[cross] * self.n_instances + dst_inst[cross]
        ).size
        return {
            "instances": self.n_instances,
            "users": self.n_users,
            "toots": self.n_toots,
            "public_toots": int((~self.toot_private).sum()),
            "follow_edges": int(self.follow_src.size),
            "federation_edges": int(federation_edges),
        }

    # -- gating (which instances a crawl can see) --------------------------------

    def _crawlable(self, descriptor: InstanceDescriptor, minute: int) -> bool:
        """Whether a crawler reaches ``descriptor`` at ``minute`` at all."""
        if descriptor.created_at > minute:
            return False
        if self.certificates.is_lapsed(descriptor.domain, minute):
            return False
        return self.availability.is_online(descriptor.domain, minute)

    # -- streaming: scenario → corpus ---------------------------------------------

    def write_corpus(
        self,
        writer: "CorpusWriter",
        at_minute: int | None = None,
        chunk_rows: int = _RENDER_CHUNK_ROWS,
    ) -> dict[str, int]:
        """Stream the federated-timeline crawl of every instance into ``writer``.

        Produces exactly what :class:`~repro.crawler.toot_crawler.TootCrawler`
        collects from :meth:`to_network`'s materialisation at the same
        minute: per reachable, non-blocked instance, the public federated
        timeline newest-first.  Accounts, author domains and hashtags go
        to the writer as codes into the scenario's handle, domain and tag
        tables.  Every public toot's URL is rendered once, before the
        first instance, and reused by every instance that observes the
        toot, so the rendered URLs (one string per public toot) live for
        the whole call; beyond them, rows go out in bounded chunks.  One
        burst keeps the strings together in memory: rendered on first
        observation, they would sit between each instance's buffers and
        leave the allocator holding more memory after the call.  Returns
        rows written per instance; the caller finalises.
        """
        minute = self.config.window_minutes - 1 if at_minute is None else at_minute
        handles, _ = self._user_handle_tables()
        domains = self._instance_domains()
        url_prefixes = self._url_prefixes()
        tag_names = self._tag_names()
        public = np.flatnonzero(~self.toot_private)
        urls = np.empty(self.n_toots, dtype=object)
        urls[public] = list(
            map(
                str.__add__,
                map(url_prefixes.__getitem__, self.toot_author[public].tolist()),
                map(str, (public + 1).tolist()),
            )
        )
        del public
        written: dict[str, int] = {}
        for descriptor in sorted(self.descriptors, key=lambda d: d.domain):
            if not self._crawlable(descriptor, minute):
                continue
            if descriptor.crawl_blocked:
                continue
            domain = descriptor.domain
            rows = self.timeline_rows(domain)
            rows = rows[~self.toot_private[rows]][::-1]  # public, newest first
            total = int(rows.size)
            for start in range(0, total, chunk_rows):
                chunk = rows[start : start + chunk_rows]
                authors = self.toot_author[chunk]
                ids = chunk + 1
                tags = self.toot_tag[chunk]
                tagged = tags >= 0
                writer.add_columns(
                    domain,
                    urls=urls[chunk].tolist(),
                    accounts=(handles, authors),
                    author_domains=(domains, self.user_instance[authors]),
                    toot_id=ids,
                    created_minute=self.toot_created[chunk],
                    is_boost=self.toot_boost_of[chunk] > 0,
                    sensitive=self.toot_cw[chunk],
                    media_attachments=self.toot_media[chunk].astype(np.int32),
                    favourites=np.zeros(chunk.size, dtype=np.int32),
                    hashtag_flat=(tag_names, tags[tagged]),
                    hashtag_lengths=tagged.astype(np.int64),
                )
            writer.end_instance(domain)
            written[domain] = total
        return written

    # -- streaming: scenario → follower graph -------------------------------------

    def write_graph(
        self, writer: "GraphWriter", at_minute: int | None = None
    ) -> dict[str, int]:
        """Stream the follower crawl of every instance into ``writer``.

        Produces exactly what :class:`FollowerGraphCrawler` collects in
        sink mode from the materialised network: per reachable instance
        (crawl blocking only affects timelines, not follower pages), the
        accounts that have tooted — in directory order, which sorts
        usernames as strings — each contributing its follower list sorted
        by ``(username, domain)``.  Returns edges written per instance.
        """
        minute = self.config.window_minutes - 1 if at_minute is None else at_minute
        handles, _ = self._user_handle_tables()
        toot_counts = self.toot_counts_per_user()
        seg = self._user_segments()

        # Followers of each account, ordered the way followers_page sorts
        # UserRef objects: by (username, domain).  Usernames are globally
        # unique here, so ranking by username string alone is enough.
        if "followers_csr" not in self._cache:
            usernames = np.asarray([f"user{i}" for i in range(self.n_users)])
            rank = np.empty(self.n_users, dtype=np.int64)
            rank[np.argsort(usernames, kind="stable")] = np.arange(self.n_users)
            dst = self.follow_dst.astype(np.int64)
            order = np.lexsort((rank[self.follow_src.astype(np.int64)], dst))
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=self.n_users), out=indptr[1:])
            self._cache["followers_csr"] = (indptr, self.follow_src[order])
        indptr, ordered_src = self._cache["followers_csr"]

        written: dict[str, int] = {}
        for descriptor in sorted(self.descriptors, key=lambda d: d.domain):
            if not self._crawlable(descriptor, minute):
                continue
            domain = descriptor.domain
            index = self._domain_index()[domain]
            lo, hi = int(seg[index]), int(seg[index + 1])
            tooting = [u for u in range(lo, hi) if toot_counts[u] > 0]
            tooting.sort(key=lambda u: f"user{u}")  # directory string order
            # the instance's edges in one add_edges call (one journal line)
            accounts = np.asarray(tooting, dtype=np.int64)
            counts = indptr[accounts + 1] - indptr[accounts]
            added = int(counts.sum())
            if added:
                followers = np.concatenate(
                    [ordered_src[indptr[a] : indptr[a + 1]] for a in tooting]
                )
                followed = np.repeat(accounts, counts)
                writer.add_edges(
                    domain,
                    zip(
                        map(handles.__getitem__, followers.tolist()),
                        map(handles.__getitem__, followed.tolist()),
                    ),
                )
            writer.end_instance(domain)
            written[domain] = added
        return written

    # -- differential materialisation ---------------------------------------------

    def to_network(self) -> FediverseNetwork:
        """Materialise the columns into a real :class:`FediverseNetwork`.

        The differential bridge: every user, follow, toot, boost and
        login replays through the network in column order, with the
        scenario's availability schedule and certificate registry shared,
        so real crawlers over the result must observe exactly what
        :meth:`write_corpus` / :meth:`write_graph` streamed.  Only use at
        test scale — this is the object path the columns exist to avoid.
        """
        network = FediverseNetwork(
            clock=self.clock,
            certificates=self.certificates,
            availability=self.availability,
        )
        for descriptor in self.descriptors:
            network.add_instance(descriptor)

        domains = self._instance_domains()
        refs: list[UserRef] = []
        for index in range(self.n_users):
            domain = domains[int(self.user_instance[index])]
            network.register_user(
                domain, f"user{index}", int(self.user_created[index]), invited=True
            )
            refs.append(UserRef(username=f"user{index}", domain=domain))

        for src, dst in zip(self.follow_src.tolist(), self.follow_dst.tolist()):
            network.follow(refs[src], refs[dst], created_at=int(self.user_created[src]))

        tag_names = self._tag_names()
        for row in range(self.n_toots):
            author = refs[int(self.toot_author[row])]
            created_at = int(self.toot_created[row])
            boost_of = int(self.toot_boost_of[row])
            if boost_of:
                original_author = refs[int(self.toot_author[boost_of - 1])]
                original = network.get_instance(original_author.domain).toots[boost_of]
                boost = network.boost(author, original, created_at=created_at)
                if boost.toot_id != row + 1:  # pragma: no cover - invariant
                    raise SimulationError("columnar toot ids diverged from the network")
                continue
            tag = int(self.toot_tag[row])
            toot = network.post_toot(
                author=author,
                created_at=created_at,
                visibility=(
                    Visibility.PRIVATE if self.toot_private[row] else Visibility.PUBLIC
                ),
                hashtags=(tag_names[tag],) if tag >= 0 else (),
                content_warning=bool(self.toot_cw[row]),
                media_count=int(self.toot_media[row]),
            )
            if toot.toot_id != row + 1:  # pragma: no cover - invariant
                raise SimulationError("columnar toot ids diverged from the network")

        for user, minute in zip(self.login_user.tolist(), self.login_minute.tolist()):
            network.record_login(refs[user], minute=int(minute))
        return network


def build_columnar_scenario(preset: str = "small", seed: int = 7) -> ColumnarScenario:
    """Generate a :class:`ColumnarScenario` from a named preset.

    The columnar counterpart of
    :func:`~repro.fediverse.workload.build_scenario`; valid presets are
    the same, including ``xlarge`` (10M toots), which only this path can
    realistically generate.
    """
    return ColumnarScenarioGenerator(scenario_config(preset, seed=seed)).generate()
