"""The per-instance server: accounts, toots, timelines and the instance API.

An :class:`InstanceServer` is the simulated counterpart of one Mastodon
(or Pleroma) deployment.  It owns its local accounts and toots, maintains
the three timelines, tracks follower relationships and federated
subscriptions, and renders the ``/api/v1/instance`` document that the
monitoring crawler polls every five minutes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable

from repro.errors import (
    RegistrationClosedError,
    SimulationError,
    UnknownUserError,
)
from repro.fediverse.entities import (
    InstanceDescriptor,
    RegistrationPolicy,
    Toot,
    User,
    UserRef,
    Visibility,
)
from repro.fediverse.timeline import Timeline
from repro.simtime import MINUTES_PER_DAY

#: Number of follower handles shown per follower-list page (the paper
#: scraped these HTML pages to build the follower graph).
FOLLOWERS_PAGE_SIZE = 12

MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY

#: Sort key giving :class:`UserRef`'s dataclass order: its fields in order.
_USER_ORDER = attrgetter("username", "domain")


@dataclass(slots=True)
class InstanceCounters:
    """Running counters surfaced through the instance API."""

    toots_posted: int = 0
    boosts_posted: int = 0
    remote_toots_received: int = 0
    logins: int = 0


class InstanceServer:
    """One simulated Mastodon/Pleroma instance.

    The server is intentionally self-contained: all cross-instance
    behaviour (remote follows, toot delivery) is mediated by
    :class:`repro.fediverse.network.FediverseNetwork`, mirroring how real
    instances only ever talk to each other through federation.
    """

    def __init__(self, descriptor: InstanceDescriptor) -> None:
        self.descriptor = descriptor
        self.users: dict[str, User] = {}
        self.toots: dict[int, Toot] = {}
        self.local_timeline = Timeline()
        self.federated_timeline = Timeline()
        self.home_timelines: dict[str, Timeline] = {}
        self.followers: dict[str, set[UserRef]] = {}
        self.following: dict[str, set[UserRef]] = {}
        #: Remote domains whose content this instance subscribes to.
        self.subscriptions: set[str] = set()
        #: Remote domains that subscribe to this instance's content.
        self.subscribers: set[str] = set()
        #: Weekly login sets: week index -> usernames seen logging in.
        self.weekly_logins: dict[int, set[str]] = {}
        self.counters = InstanceCounters()
        #: Cache for :meth:`user_count_at` / :meth:`toot_count_at`.
        self._creation_cache: tuple[int, int, list[int], list[int]] | None = None

    # -- identity -----------------------------------------------------------

    @property
    def domain(self) -> str:
        """The instance's domain name (its identity in the Fediverse)."""
        return self.descriptor.domain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstanceServer({self.domain!r}, users={len(self.users)}, toots={len(self.toots)})"

    # -- accounts -----------------------------------------------------------

    def register_user(self, username: str, created_at: int = 0, invited: bool = False) -> User:
        """Register a new local account.

        Closed instances only accept registrations carrying an invitation,
        matching the open/closed split analysed in Section 4.1.
        """
        if username in self.users:
            raise SimulationError(f"username already taken on {self.domain}: {username!r}")
        if self.descriptor.registration is RegistrationPolicy.CLOSED and not invited:
            raise RegistrationClosedError(self.domain)
        user = User(username=username, domain=self.domain, created_at=created_at)
        self.users[username] = user
        self.followers[username] = set()
        self.following[username] = set()
        self.home_timelines[username] = Timeline()
        return user

    def get_user(self, username: str) -> User:
        """Return the local account named ``username``."""
        try:
            return self.users[username]
        except KeyError as exc:
            raise UnknownUserError(f"{username}@{self.domain}") from exc

    def has_user(self, username: str) -> bool:
        """Return whether ``username`` is registered locally."""
        return username in self.users

    def record_login(self, username: str, minute: int) -> None:
        """Record that ``username`` logged in at ``minute`` (activity levels)."""
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        week = minute // MINUTES_PER_WEEK
        self.weekly_logins.setdefault(week, set()).add(username)
        self.counters.logins += 1

    def _sorted_creation_times(self) -> tuple[list[int], list[int]]:
        """Cached, sorted creation times of users and toots (for bisecting)."""
        if (
            self._creation_cache is None
            or self._creation_cache[0] != len(self.users)
            or self._creation_cache[1] != len(self.toots)
        ):
            user_times = sorted(user.created_at for user in self.users.values())
            toot_times = sorted(toot.created_at for toot in self.toots.values())
            self._creation_cache = (len(self.users), len(self.toots), user_times, toot_times)
        return self._creation_cache[2], self._creation_cache[3]

    def user_count_at(self, minute: int) -> int:
        """Number of accounts registered by ``minute`` (for growth curves)."""
        user_times, _ = self._sorted_creation_times()
        return bisect_right(user_times, minute)

    def toot_count_at(self, minute: int) -> int:
        """Number of local toots posted by ``minute`` (for growth curves)."""
        _, toot_times = self._sorted_creation_times()
        return bisect_right(toot_times, minute)

    def weekly_active_fraction(self) -> float:
        """Maximum fraction of local users logging in during any one week.

        This is the "activity level" metric behind Fig. 2(c).
        """
        if not self.users:
            return 0.0
        if not self.weekly_logins:
            return 0.0
        busiest = max(len(usernames) for usernames in self.weekly_logins.values())
        return busiest / len(self.users)

    # -- toots --------------------------------------------------------------

    def post_toot(
        self,
        username: str,
        toot_id: int,
        created_at: int,
        visibility: Visibility = Visibility.PUBLIC,
        hashtags: Iterable[str] = (),
        content_warning: bool = False,
        media_count: int = 0,
        boost_of: int | None = None,
    ) -> Toot:
        """Create a toot authored by a local user and place it on timelines."""
        author = self.get_user(username).ref
        toot = Toot(
            toot_id=toot_id,
            author=author,
            created_at=created_at,
            visibility=visibility,
            hashtags=tuple(hashtags),
            content_warning=content_warning,
            media_count=media_count,
            boost_of=boost_of,
        )
        self.toots[toot.toot_id] = toot
        self.local_timeline.add(toot)
        self.federated_timeline.add(toot)
        self.home_timelines[username].add(toot)
        if toot.is_boost:
            self.counters.boosts_posted += 1
        else:
            self.counters.toots_posted += 1
        return toot

    def receive_remote_toot(self, toot: Toot) -> bool:
        """Ingest a toot delivered from a remote instance via federation.

        Remote toots land on the federated timeline only; they are not
        re-indexed as local content (the behaviour the paper's replication
        discussion wants to change).  Returns ``False`` for duplicates.
        """
        if toot.author.domain == self.domain:
            raise SimulationError("received a local toot through federation")
        added = self.federated_timeline.add(toot)
        if added:
            self.counters.remote_toots_received += 1
        return added

    def local_toots(self, public_only: bool = False) -> list[Toot]:
        """Return toots authored on this instance."""
        if not public_only:
            return list(self.toots.values())
        return [toot for toot in self.toots.values() if toot.is_public]

    def local_toot_count(self, public_only: bool = False) -> int:
        """Return the number of locally-authored toots."""
        if not public_only:
            return len(self.toots)
        return sum(1 for toot in self.toots.values() if toot.is_public)

    def home_toot_count(self) -> int:
        """Toots generated on the instance (the "home" share of Fig. 14)."""
        return len(self.toots)

    def remote_toot_count(self) -> int:
        """Remote toots replicated onto the federated timeline (Fig. 14)."""
        return len(self.federated_timeline) - self.local_timeline.count()

    # -- follows ------------------------------------------------------------

    def add_follower(self, username: str, follower: UserRef) -> None:
        """Record that ``follower`` (possibly remote) follows a local user."""
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        self.followers[username].add(follower)
        if follower.domain != self.domain:
            self.subscribers.add(follower.domain)

    def add_following(self, username: str, followed: UserRef) -> None:
        """Record that a local user follows ``followed`` (possibly remote)."""
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        self.following[username].add(followed)
        if followed.domain != self.domain:
            self.subscriptions.add(followed.domain)

    def followers_of(self, username: str) -> set[UserRef]:
        """Return the accounts following the local user ``username``."""
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        return set(self.followers[username])

    def following_of(self, username: str) -> set[UserRef]:
        """Return the accounts the local user ``username`` follows."""
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        return set(self.following[username])

    def followers_page(self, username: str, page: int, per_page: int = FOLLOWERS_PAGE_SIZE) -> list[UserRef]:
        """Return one page of ``username``'s follower list (paged like the HTML UI)."""
        if page < 1:
            raise SimulationError("follower pages are numbered from 1")
        if username not in self.users:
            raise UnknownUserError(f"{username}@{self.domain}")
        # the dataclass's own order, compared in C instead of through __lt__
        ordered = sorted(self.followers[username], key=_USER_ORDER)
        start = (page - 1) * per_page
        return ordered[start : start + per_page]

    # -- API document -------------------------------------------------------

    def subscription_count(self) -> int:
        """Number of remote domains this instance subscribes to."""
        return len(self.subscriptions)

    def instance_api_document(self, minute: int = 0) -> dict[str, Any]:
        """Render the ``/api/v1/instance`` document polled by the monitor.

        The fields mirror what mnm.social recorded: name, version, user
        and status counts, federated domain count, registration policy and
        recent login activity.
        """
        week = minute // MINUTES_PER_WEEK
        recent_logins = len(self.weekly_logins.get(week, ()))
        return {
            "uri": self.domain,
            "title": self.domain.split(".")[0],
            "version": self.descriptor.version,
            "software": self.descriptor.software.value,
            "registrations": self.descriptor.registration is RegistrationPolicy.OPEN,
            "stats": {
                "user_count": self.user_count_at(minute),
                "status_count": self.toot_count_at(minute),
                "domain_count": len(self.subscriptions | self.subscribers),
            },
            "logins_week": recent_logins,
            "categories": [category.value for category in self.descriptor.categories],
        }
