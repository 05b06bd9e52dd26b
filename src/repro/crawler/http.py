"""A simulated HTTP transport over the fediverse simulator.

The crawlers never touch :class:`~repro.fediverse.network.FediverseNetwork`
objects directly; they issue GET requests for the same URLs the paper's
crawlers fetched and receive JSON-like payloads back.  This keeps the
measurement code paths faithful to the original methodology (including
failure modes: offline instances, crawl-blocked instances, rate limits,
unknown endpoints).

Supported endpoints
-------------------

``/api/v1/instance``
    The instance metadata document polled by the monitor.
``/api/v1/timelines/public?local=&max_id=&limit=``
    The (federated or local) public timeline, paged with ``max_id``.
``/api/v1/directory?page=&per_page=``
    The public account directory, used to enumerate accounts.
``/users/<name>/followers?page=``
    Follower lists, paged like the HTML pages the paper scraped.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro import obs

from repro.errors import (
    CrawlBlockedError,
    HTTPError,
    InstanceUnavailableError,
    RateLimitError,
)
from repro.fediverse.entities import Toot
from repro.fediverse.instance import FOLLOWERS_PAGE_SIZE, InstanceServer
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.timeline import DEFAULT_PAGE_SIZE


def toot_to_payload(toot: Toot, collected_from: str) -> dict[str, Any]:
    """Serialise a toot the way the public timeline API exposes it."""
    return {
        "id": toot.toot_id,
        "url": toot.url,
        "account": toot.author.handle,
        "account_domain": toot.author.domain,
        "created_at": toot.created_at,
        "visibility": toot.visibility.value,
        "sensitive": toot.content_warning,
        "tags": list(toot.hashtags),
        "media_attachments": toot.media_count,
        "favourites_count": toot.favourites,
        "reblog_of_id": toot.boost_of,
        "collected_from": collected_from,
    }


@dataclass(frozen=True, slots=True)
class HTTPResponse:
    """The outcome of a successful simulated GET request."""

    url: str
    status: int
    payload: Any


@dataclass
class TransportStats:
    """Counters describing crawler traffic, useful for tests and reports."""

    requests: int = 0
    errors: int = 0
    by_domain: dict[str, int] = field(default_factory=dict)


class SimulatedTransport:
    """Resolves crawler GET requests against the simulated fediverse."""

    def __init__(
        self,
        network: FediverseNetwork,
        rate_limit_per_domain: int | None = None,
    ) -> None:
        self._network = network
        self._rate_limit = rate_limit_per_domain
        self._lock = threading.Lock()
        self.stats = TransportStats()

    @property
    def network(self) -> FediverseNetwork:
        """The fediverse this transport resolves requests against."""
        return self._network

    def known_domains(self) -> list[str]:
        """Return every instance domain the transport can route to."""
        return self._network.domains()

    # -- request accounting ---------------------------------------------------

    def _account(self, url: str, domain: str) -> None:
        with self._lock:
            self.stats.requests += 1
            seen = self.stats.by_domain.get(domain, 0) + 1
            self.stats.by_domain[domain] = seen
            if self._rate_limit is not None and seen > self._rate_limit:
                self.stats.errors += 1
                raise RateLimitError(url, retry_after=30.0)

    def reset_budget(self, domain: str | None = None) -> None:
        """Reset the per-domain request budget (e.g. after a backoff window)."""
        with self._lock:
            if domain is None:
                self.stats.by_domain.clear()
            else:
                self.stats.by_domain.pop(domain, None)

    # -- request handling -------------------------------------------------------

    def get(self, url: str, at_minute: int | None = None) -> HTTPResponse:
        """Perform a GET request at simulation time ``at_minute``.

        Raises a subclass of :class:`~repro.errors.HTTPError` on failure,
        mirroring how a real crawler experiences the network.
        """
        # the whole-request observation lives in a wrapper so the
        # metrics-off path costs one module-global check and no clock reads
        if not obs.metrics_enabled():
            return self._get(url, at_minute)
        started = time.perf_counter()
        try:
            response = self._get(url, at_minute)
        except Exception as error:
            elapsed = time.perf_counter() - started
            domain = urlparse(url).netloc
            obs.observe("repro_crawl_request_seconds", elapsed, domain=domain)
            obs.count(
                "repro_crawl_requests_total",
                domain=domain,
                outcome=type(error).__name__,
            )
            raise
        elapsed = time.perf_counter() - started
        domain = urlparse(url).netloc
        obs.observe("repro_crawl_request_seconds", elapsed, domain=domain)
        obs.count("repro_crawl_requests_total", domain=domain, outcome="ok")
        return response

    def _get(self, url: str, at_minute: int | None = None) -> HTTPResponse:
        parsed = urlparse(url)
        domain = parsed.netloc
        minute = self._network.clock.now if at_minute is None else at_minute
        self._account(url, domain)

        if domain not in self._network:
            self._fail(url)
        instance = self._network.get_instance(domain)
        if instance.descriptor.created_at > minute:
            self._fail(url)
        if not self._network.is_online(domain, minute):
            with self._lock:
                self.stats.errors += 1
            raise InstanceUnavailableError(url)

        query = parse_qs(parsed.query)
        path = parsed.path.rstrip("/")
        if path == "/api/v1/instance":
            return HTTPResponse(url, 200, instance.instance_api_document(minute))
        if path == "/api/v1/timelines/public":
            return HTTPResponse(url, 200, self._timeline(instance, query, url))
        if path == "/api/v1/directory":
            return HTTPResponse(url, 200, self._directory(instance, query))
        if path.startswith("/users/") and path.endswith("/followers"):
            username = path.split("/")[2]
            return HTTPResponse(url, 200, self._followers(instance, username, query, url))
        self._fail(url)
        raise AssertionError("unreachable")  # pragma: no cover

    def _fail(self, url: str, status: int = 404, reason: str = "not found") -> None:
        with self._lock:
            self.stats.errors += 1
        raise HTTPError(url, status, reason)

    # -- endpoint implementations -----------------------------------------------

    @staticmethod
    def _int_param(query: dict[str, list[str]], name: str, default: int | None) -> int | None:
        values = query.get(name)
        if not values:
            return default
        return int(values[0])

    def _timeline(
        self, instance: InstanceServer, query: dict[str, list[str]], url: str
    ) -> list[dict[str, Any]]:
        if instance.descriptor.crawl_blocked:
            with self._lock:
                self.stats.errors += 1
            raise CrawlBlockedError(url)
        local_only = query.get("local", ["false"])[0].lower() in ("1", "true", "yes")
        max_id = self._int_param(query, "max_id", None)
        limit = self._int_param(query, "limit", DEFAULT_PAGE_SIZE) or DEFAULT_PAGE_SIZE
        timeline = instance.local_timeline if local_only else instance.federated_timeline
        toots = timeline.page(max_id=max_id, limit=limit, public_only=True)
        return [toot_to_payload(toot, collected_from=instance.domain) for toot in toots]

    def _directory(
        self, instance: InstanceServer, query: dict[str, list[str]]
    ) -> list[dict[str, Any]]:
        page = self._int_param(query, "page", 1) or 1
        per_page = self._int_param(query, "per_page", 80) or 80
        usernames = sorted(instance.users)
        start = (page - 1) * per_page
        selected = usernames[start : start + per_page]
        if not selected:
            return []
        # one pass over the instance's toots per page, not one per listed user
        statuses = Counter(toot.author.username for toot in instance.toots.values())
        return [
            {
                "username": username,
                "domain": instance.domain,
                "created_at": instance.users[username].created_at,
                "statuses_count": statuses[username],
            }
            for username in selected
        ]

    def _followers(
        self,
        instance: InstanceServer,
        username: str,
        query: dict[str, list[str]],
        url: str,
    ) -> dict[str, Any]:
        if not instance.has_user(username):
            self._fail(url, 404, f"unknown user {username!r}")
        page = self._int_param(query, "page", 1) or 1
        followers = instance.followers_page(username, page, FOLLOWERS_PAGE_SIZE)
        total = len(instance.followers_of(username))
        return {
            "account": f"{username}@{instance.domain}",
            "page": page,
            "total": total,
            "followers": [ref.handle for ref in followers],
            "has_more": page * FOLLOWERS_PAGE_SIZE < total,
        }
